import random
import re
import time
import tracemalloc

import pytest

from memotrs import (
    App,
    BudgetExceededError,
    MemoStats,
    ParseError,
    Program,
    Rule,
    Signature,
    StuckError,
    Term,
    Var,
    eval_memo,
    format_term,
    naive_run,
    parse_program,
    parse_term,
)
from memotrs.cli import main
from memotrs.core import compile_term
from memotrs.parser import load_term
from memotrs.terms import SIZE_CAP
from helpers import (
    complete_tree,
    enum_values,
    fib,
    rabbit_tree,
    random_program,
    random_value,
    reference_eval,
    suc_chain,
    _match,
    subst,
)


class StuckInference(Exception):
    def __init__(self, count: int):
        self.count = count


def count_inferences(program: Program, t: App) -> tuple[int, int]:
    """Independent recount of big-step derivation size: one inference per
    evaluation judgement plus one per rule firing. A stuck call raises
    StuckInference with the inferences reached up to it."""
    sig = program.signature
    judgements = [0]
    firings = [0]

    def ev(u):
        judgements[0] += 1
        args = tuple(ev(a) for a in u.args)
        if u.sym in sig.constructors:
            return App(u.sym, args)
        for rule in program.by_op.get(u.sym, ()):
            binding = {}
            if all(_match(p, a, binding) for p, a in zip(rule.lhs.args, args)):
                firings[0] += 1
                return ev(subst(rule.rhs, binding))
        raise StuckInference(judgements[0] + firings[0])

    ev(t)
    return judgements[0] + firings[0], firings[0]


def count_inferences_by_call(program: Program, t: App) -> tuple[int, int]:
    """count_inferences by dynamic programming, for inputs whose derivation
    is too large to walk. Programs are orthogonal, so the inferences and
    firings of a call depend only on its operation and argument values:
    each distinct call's derivation is counted once, and each value's
    nodes by its tree size. Iterative, as the derivations are deep."""
    sig = program.signature
    sizes: dict[int, tuple[Term, int]] = {}  # id -> (node kept alive, tree size)

    def size(v: Term) -> int:
        todo = [v]
        while todo:
            u = todo[-1]
            missing = [a for a in u.args if id(a) not in sizes]
            if missing:
                todo.extend(missing)
                continue
            sizes[id(u)] = (u, 1 + sum(sizes[id(a)][1] for a in u.args))
            todo.pop()
        return sizes[id(v)][1]

    calls: dict = {}  # (op, argument values) -> (value, inferences, firings)
    results: list = []  # (value, inferences, firings) of each term evaluated
    todo: list = [("eval", t, {})]
    while todo:
        task, u, env = todo.pop()
        if task == "eval" and type(u) is Var:
            results.append((env[u.name], size(env[u.name]), 0))
        elif task == "eval":
            todo.append(("apply", u, env))
            todo.extend(("eval", a, env) for a in reversed(u.args))
        elif task == "apply":
            parts = results[len(results) - len(u.args) :]
            del results[len(results) - len(u.args) :]
            args = tuple(v for v, _, _ in parts)
            count = 1 + sum(n for _, n, _ in parts)
            fired = sum(f for _, _, f in parts)
            if u.sym in sig.constructors:
                results.append((App(u.sym, args), count, fired))
            elif (u.sym, args) in calls:
                value, n, f = calls[u.sym, args]
                results.append((value, count + n, fired + f))
            else:
                for rule in program.by_op.get(u.sym, ()):
                    binding: dict = {}
                    if all(_match(p, a, binding) for p, a in zip(rule.lhs.args, args)):
                        break
                else:
                    raise AssertionError(f"no rule matches {u.sym}")
                todo.append(("return", (u.sym, args), (count, fired)))
                todo.append(("eval", rule.rhs, binding))
        else:  # a rule body has been evaluated: its firing completes the call
            value, n, f = results.pop()
            calls[u] = (value, n + 1, f + 1)
            count, fired = env
            results.append((value, count + n + 1, fired + f + 1))
    (_, count, fired), = results
    return count, fired


def add_call(i: int, j: int) -> App:
    return App("add", (suc_chain(i), suc_chain(j)))


def rabbits_call(n: int) -> App:
    return App("rabbits", (suc_chain(n),))


def test_add_small(programs):
    p = programs["add"]
    assert naive_run(p, add_call(1, 1)).value == suc_chain(2)
    res = naive_run(p, add_call(2, 1))
    assert res.value == suc_chain(3)
    assert res.rewrite_steps == 3  # two suc steps, one zero step
    out = eval_memo(p, {}, add_call(2, 1))
    assert out.value == suc_chain(3) and out.cost == 3
    assert eval_memo(p, {}, add_call(0, 0)).cost == 1


def test_rabbits_base_cases(programs):
    p = programs["rabbits"]
    assert naive_run(p, rabbits_call(0)).value == App("leafn", ())
    out = eval_memo(p, {}, rabbits_call(1))
    assert out.value == App("leafn", ()) and out.cost == 2


def test_rabbits_generation_six(programs):
    p = programs["rabbits"]
    expected = rabbit_tree(6)
    naive = naive_run(p, rabbits_call(6))
    assert naive.value == expected
    assert naive.rewrite_steps == 21
    assert naive.total_steps == 115
    memo = eval_memo(p, {}, rabbits_call(6))
    assert memo.value == expected and memo.cost == 11


def test_rabbits_matches_recurrence(programs):
    p = programs["rabbits"]
    for n in range(13):
        assert eval_memo(p, {}, rabbits_call(n)).value == rabbit_tree(n)


def test_naive_rewrites_grow_like_fibonacci(programs):
    p = programs["rabbits"]
    for n in range(12):
        assert naive_run(p, rabbits_call(n)).rewrite_steps == fib(n + 1)


def test_memo_cost_linear_for_rabbits(programs):
    p = programs["rabbits"]
    for n in range(2, 31):
        cost = eval_memo(p, {}, rabbits_call(n)).cost
        assert cost == 2 * n - 1
        assert cost <= 2 * n + 1


def test_tree_and_its_costs(programs):
    p = programs["tree"]
    call = App("tree", (suc_chain(4),))
    assert naive_run(p, call).value == complete_tree(4)
    assert eval_memo(p, {}, call).cost == 9  # five tree calls, four doublings
    assert eval_memo(p, {}, App("tree", (suc_chain(20),))).cost == 41


def test_total_steps_match_independent_recount(programs):
    cases = [
        (programs["add"], add_call(2, 3)),
        (programs["add"], add_call(0, 0)),
        (programs["rabbits"], rabbits_call(5)),
        (programs["tree"], App("tree", (suc_chain(6),))),
        (programs["id"], App("id", (suc_chain(3),))),
    ]
    for p, call in cases:
        res = naive_run(p, call)
        total, firings = count_inferences(p, call)
        assert res.total_steps == total
        assert res.rewrite_steps == firings


def test_total_steps_match_on_random_programs():
    rng = random.Random(99)
    for seed in range(30):
        p = random_program(seed)
        for _ in range(4):
            v = random_value(rng, p.signature.constructors, 3)
            op = sorted(p.signature.operations)[0]
            extra = [
                random_value(rng, p.signature.constructors, 2)
                for _ in range(p.signature.operations[op] - 1)
            ]
            call = App(op, (v, *extra))
            res = naive_run(p, call)
            total, firings = count_inferences(p, call)
            assert res.total_steps == total and res.rewrite_steps == firings
            assert res.value == reference_eval(p, call)


def test_memo_agrees_with_reference_everywhere(programs):
    p = programs["add"]
    for v in enum_values({"zero": 0, "suc": 1}, 5):
        for w in enum_values({"zero": 0, "suc": 1}, 5):
            call = App("add", (v, w))
            assert eval_memo(p, {}, call).value == reference_eval(p, call)


def test_warm_cache_costs_nothing(programs):
    p = programs["rabbits"]
    first = eval_memo(p, {}, rabbits_call(8))
    stats = MemoStats()
    again = eval_memo(p, first.cache, rabbits_call(8), stats=stats)
    assert again.cost == 0
    assert again.value == first.value
    assert stats.updates == 0 and stats.reads >= 1


def test_partial_cache_reuse(programs):
    p = programs["rabbits"]
    warm = eval_memo(p, {}, rabbits_call(6))
    bigger = eval_memo(p, warm.cache, rabbits_call(8))
    cold = eval_memo(p, {}, rabbits_call(8))
    assert bigger.value == cold.value
    assert bigger.cost < cold.cost
    # fresh work: the top call, two adult generations, and the two baby
    # trees those need that generation six never demanded
    assert bigger.cost == 5


def test_input_cache_left_alone(programs):
    p = programs["add"]
    cache = {}
    out = eval_memo(p, cache, add_call(3, 2))
    assert cache == {}
    assert len(out.cache) == out.cost == 4


def test_cache_entries_are_sound(programs):
    rng = random.Random(5)
    progs = [programs["rabbits"], programs["add"], programs["tree"]]
    calls = [rabbits_call(7), add_call(3, 4), App("tree", (suc_chain(5),))]
    for p, call in zip(progs, calls):
        out = eval_memo(p, {}, call)
        for (sym, args), value in out.cache.items():
            assert reference_eval(p, App(sym, args)) == value
    for seed in range(10):
        p = random_program(seed)
        op = sorted(p.signature.operations)[0]
        args = tuple(
            random_value(rng, p.signature.constructors, 3)
            for _ in range(p.signature.operations[op])
        )
        out = eval_memo(p, {}, App(op, args))
        for (sym, cargs), value in out.cache.items():
            assert reference_eval(p, App(sym, cargs)) == value


def test_stats_fields(programs):
    p = programs["rabbits"]
    stats = MemoStats()
    out = eval_memo(p, {}, rabbits_call(6), stats=stats)
    assert stats.updates == out.cost == 11
    assert stats.reads > 0  # shared subcalls hit the cache
    assert stats.work >= stats.updates


def test_stats_are_totals_over_the_calls(programs):
    p = programs["rabbits"]
    first, second, both = MemoStats(), MemoStats(), MemoStats()
    warm = eval_memo(p, {}, rabbits_call(6), stats=first)
    eval_memo(p, warm.cache, rabbits_call(8), stats=second)
    eval_memo(p, {}, rabbits_call(6), stats=both)
    eval_memo(p, warm.cache, rabbits_call(8), stats=both)
    assert second.work > 0
    assert both == MemoStats(first.updates + second.updates, first.reads + second.reads,
                             first.work + second.work)


def test_runs_are_deterministic(programs):
    p = programs["rabbits"]
    a = eval_memo(p, {}, rabbits_call(9))
    b = eval_memo(p, {}, rabbits_call(9))
    assert a.value == b.value and a.cost == b.cost and a.cache == b.cache
    na = naive_run(p, rabbits_call(9))
    nb = naive_run(p, rabbits_call(9))
    assert (na.value, na.total_steps) == (nb.value, nb.total_steps)


def test_budget_overrun_raises(programs):
    p = programs["rabbits"]
    with pytest.raises(BudgetExceededError) as e:
        naive_run(p, rabbits_call(12), budget=50)
    assert e.value.budget == 50
    assert "naive" in e.value.engine
    with pytest.raises(BudgetExceededError):
        eval_memo(p, {}, rabbits_call(30), budget=10)


def test_budget_boundary_is_exact(programs):
    p = programs["rabbits"]
    total = naive_run(p, rabbits_call(6)).total_steps
    assert naive_run(p, rabbits_call(6), budget=total).total_steps == total
    with pytest.raises(BudgetExceededError):
        naive_run(p, rabbits_call(6), budget=total - 1)


def test_stuck_call_raises_with_witness():
    sig = Signature({"zero": 0, "suc": 1}, {"half": 1})
    p = Program(
        sig,
        [
            Rule(App("half", (App("zero", ()),)), App("zero", ())),
            Rule(
                App("half", (App("suc", (App("suc", (Var("x"),)),)),)),
                App("suc", (App("half", (Var("x"),)),)),
            ),
        ],
    )
    assert naive_run(p, App("half", (suc_chain(4),))).value == suc_chain(2)
    with pytest.raises(StuckError) as e:
        naive_run(p, App("half", (suc_chain(3),)))
    assert e.value.witness == App("half", (suc_chain(1),))
    # memoized evaluation gets stuck at the same call
    with pytest.raises(StuckError):
        eval_memo(p, {}, App("half", (suc_chain(3),)))
    # the plain budget counts every inference reached before the stuck call,
    # the pending suc symbols and rule firings of enclosing calls included
    for n in (3, 7):
        call = App("half", (suc_chain(n),))
        with pytest.raises(StuckInference) as reached:
            count_inferences(p, call)
        with pytest.raises(BudgetExceededError):
            naive_run(p, call, budget=reached.value.count - 1)
        with pytest.raises(StuckError):
            naive_run(p, call, budget=reached.value.count)


def test_variable_input_is_refused_before_any_step(programs):
    # the left argument needs a step, which a budget of 0 does not allow;
    # the free variable is found first, before the run starts
    add = programs["add"]
    call = App("add", (App("add", (App("zero"), App("zero"))), Var("x")))
    for evaluate in (lambda: eval_memo(add, {}, call, budget=0),
                     lambda: naive_run(add, call, budget=0)):
        with pytest.raises(StuckError, match="free variable x in evaluated term") as e:
            evaluate()
        assert e.value.witness == Var("x")


def test_stuck_and_budget_are_distinct(programs):
    assert not issubclass(StuckError, BudgetExceededError)
    assert not issubclass(BudgetExceededError, StuckError)


def test_equivalence_check(programs):
    cases = [
        ("rabbits", rabbits_call(7)),
        ("add", add_call(4, 2)),
        ("tree", App("tree", (suc_chain(6),))),
    ]
    for name, call in cases:
        p = programs[name]
        assert naive_run(p, call).value == eval_memo(p, {}, call).value, name


def test_deep_recursion_does_not_overflow(programs):
    n = 10_000
    out = eval_memo(programs["add"], {}, App("add", (suc_chain(n), suc_chain(1))))
    assert out.cost == n + 1

    # the plain engine counts the argument values it re-derives, so its
    # inference count is quadratic: the input's n + 2 nodes, 3 for
    # add(zero, zero), and per call on suc^k(zero) the call, the k + 1
    # nodes of its arguments, the suc and the firing
    def total(n):
        return n * (n + 1) // 2 + 5 * n + 5

    for k in range(6):
        assert count_inferences(programs["add"], add_call(k, 0)) == (total(k), k + 1)
    res = naive_run(programs["add"], add_call(n, 0))
    assert res.rewrite_steps == n + 1
    assert res.total_steps == total(n)


DUPLICATING = """
constructors: zero/0, suc/1, pair/2 ;
operations: f/1, d/1 ;
rules:
  f(zero) -> zero ;
  f(suc(x)) -> d(f(x)) ;
  d(y) -> pair(y, y) ;
"""


def duplicating_total(n: int) -> int:
    """Naive inferences of f(suc^n(zero)) under DUPLICATING: the input's
    n + 1 nodes and 3 for f(zero), then per level k the f call, the k nodes
    of x, the d call, two copies of f(x)'s 2^k - 1 nodes, the pair and two
    firings."""
    return 2 ** (n + 2) + n * (n + 1) // 2 + 4 * n


def test_naive_overrun_on_duplicated_values_is_cheap(tmp_path, capsys):
    path = tmp_path / "dup.trs"
    path.write_text(DUPLICATING)
    p = parse_program(DUPLICATING)
    for n in range(8):
        call = App("f", (suc_chain(n),))
        assert count_inferences(p, call) == (duplicating_total(n), 2 * n + 1)
        assert naive_run(p, call).total_steps == duplicating_total(n)

    # f(suc^60(zero)) is a 2^61 - 1 node value: the default budget is
    # exceeded without building it, as is 2^64 at suc^70
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        rc = main(["run", "--engine", "naive", str(path), "f(suc^60(zero))"])
        seconds = time.perf_counter() - t0
        rc_70 = main(["run", "--engine", "naive", "--budget", "2^64", str(path),
                      "f(suc^70(zero))"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == rc_70 == 4
    assert seconds < 2 and peak < 10 * 2**20
    assert "exceeded 10000000 inferences" in capsys.readouterr().err
    assert main(["run", "--engine", "naive", "--budget", "2^64", "--depth-cap", "2",
                 str(path), "f(suc^60(zero))"]) == 0
    assert f"total steps: {duplicating_total(60)}\n" in capsys.readouterr().out

    # above the size cap the count is summed exactly, boundary included;
    # only numbers are compared, as the value is too big to print
    call = App("f", (suc_chain(70),))
    for budget in (2**80, None):  # None: no bound, not the machine word
        big = naive_run(p, call, budget=budget)
        steps, firings = big.total_steps, big.rewrite_steps
        assert steps == duplicating_total(70) > SIZE_CAP
        assert firings == 141
    at_boundary = naive_run(p, call, budget=steps).total_steps
    assert at_boundary == steps
    with pytest.raises(BudgetExceededError):
        naive_run(p, call, budget=steps - 1)


class _CountingDict(dict):
    """A dict that counts the membership tests made on it."""

    asked = 0

    def __contains__(self, key) -> bool:
        self.asked += 1
        return super().__contains__(key)


def test_shared_input_is_compiled_once_per_node():
    """An input whose value nodes are shared compiles to one push of the
    value, each distinct node looked at once however large its tree, and
    evaluates to that same value."""
    from memotrs.core import CALL, RET, VAL, compile_term

    p = parse_program("constructors: zero/0, pair/2 ; operations: f/1 ; rules: f(x) -> x ;")
    sig = Signature(p.signature.constructors, p.signature.operations)
    sig.constructors = constructors = _CountingDict(sig.constructors)
    t = App("zero", ())
    for depth in range(1, 41):
        t = App("pair", (t, t))  # 2^(depth + 1) - 1 tree nodes, depth + 1 distinct
        if depth not in (10, 40):
            continue
        call = App("f", (t,))
        constructors.asked = 0
        t0 = time.perf_counter()
        code = compile_term(sig, call)
        seconds = time.perf_counter() - t0
        # compared without showing a term, as a failure report would print t
        same_code = code == ((VAL, t, None), (CALL, "f", 1), (RET, None, None))
        assert same_code and constructors.asked == depth + 2 and seconds < 1, depth
    same_value = eval_memo(p, {}, call).value == t
    assert same_value


def test_naive_outcome_at_each_budget_matches_the_recount():
    """Around its inference count, and at every budget for small counts,
    the naive engine returns the value, runs out of budget or gets stuck as
    the independent recount says, on fused code as on its expansion. Some
    rules are dropped, so that some calls get stuck."""
    from oracle import unfused

    rng = random.Random(23)
    outcomes = set()
    for seed in range(40):
        full = random_program(seed)
        p = Program(full.signature, [r for r in full.rules if rng.random() < 0.8])
        q = unfused(p)
        for op, arity in sorted(p.signature.operations.items()):
            call = App(op, tuple(
                random_value(rng, p.signature.constructors, 3) for _ in range(arity)
            ))
            try:
                count, _ = count_inferences(p, call)
                stuck = False
            except StuckInference as e:
                count, stuck = e.count, True
            budgets = range(count + 2) if count <= 60 else range(count - 2, count + 2)
            for budget in budgets:
                got = []
                for program in (p, q):
                    try:
                        got.append(naive_run(program, call, budget).value)
                    except (BudgetExceededError, StuckError) as e:
                        got.append(type(e))
                want = (
                    BudgetExceededError if budget < count
                    else StuckError if stuck else reference_eval(p, call)
                )
                assert got == [want, want], (seed, op, budget)
                outcomes.add(want if type(want) is type else "value")
    assert outcomes == {BudgetExceededError, StuckError, "value"}


def _outcome(program: Program, call: App, budget: int):
    try:
        res = naive_run(program, call, budget)
    except (BudgetExceededError, StuckError) as e:
        return type(e)
    return res.value, res.total_steps, res.rewrite_steps


def test_counted_calls_keep_every_budget_boundary(programs):
    """Equal calls are charged their stored counts, not run again: at every
    budget up to the count, those falling inside a repeated call's stored
    count included, the naive engine runs out of budget exactly where the
    recount says, and returns the recounted value and counts from there on.
    In add(add(suc^n(zero), zero), zero) and f(f(zero)) the outermost call
    repeats the inner one, so its stored count is the last thing charged."""
    dup = parse_program(DUPLICATING)
    cases = [
        *((programs["rabbits"], rabbits_call(n)) for n in range(11)),
        *((programs["tree"], App("tree", (suc_chain(n),))) for n in range(9)),
        *((dup, App("f", (suc_chain(n),))) for n in range(8)),
        *((programs["add"], App("add", (add_call(n, 0), App("zero")))) for n in range(4)),
        (dup, App("f", (App("f", (App("zero"),)),))),
    ]
    for p, call in cases:
        count, firings = count_inferences(p, call)
        assert count_inferences_by_call(p, call) == (count, firings)
        done = (reference_eval(p, call), count, firings)
        for budget in range(count + 2):
            want = BudgetExceededError if budget < count else done
            assert _outcome(p, call, budget) == want, (call, budget)


STUCK_AFTER_REPEATS = """
constructors: zero/0, suc/1, pair/2 ;
operations: f/1, g/1, k/1 ;
rules:
  f(x) -> pair(g(x), k(x)) ;
  g(zero) -> zero ;
  g(suc(x)) -> suc(g(x)) ;
  k(suc(x)) -> pair(g(suc(x)), k(x)) ;
"""


def test_a_stuck_call_after_repeated_calls_is_counted_as_rederived():
    """k has no rule for zero. Each k(suc^i(zero)) repeats a g call that f
    made before, inside the open calls, and then k(zero) is stuck: the
    engine is stuck or over budget where the recount says."""
    p = parse_program(STUCK_AFTER_REPEATS)
    for n in range(7):
        call = App("f", (suc_chain(n),))
        with pytest.raises(StuckInference) as reached:
            count_inferences(p, call)
        count = reached.value.count
        for budget in range(count + 2):
            want = BudgetExceededError if budget < count else StuckError
            assert _outcome(p, call, budget) is want, (n, budget)
        with pytest.raises(StuckError) as e:
            naive_run(p, call)
        assert e.value.witness == App("k", (App("zero"),))


def test_naive_counts_are_exact_far_beyond_rederivation(programs):
    """rabbits(suc^n(zero)) takes Fibonacci-many firings and exponentially
    many inferences; the naive engine gives both exactly, the latter a
    number of over 40 digits, in well under a second."""
    p = programs["rabbits"]
    for n in (200, 500):
        call = rabbits_call(n)
        t0 = time.perf_counter()
        res = naive_run(p, call)
        seconds = time.perf_counter() - t0
        assert seconds < 1, n
        assert (res.total_steps, res.rewrite_steps) == count_inferences_by_call(p, call)
        assert res.rewrite_steps == fib(n + 1) and res.total_steps > 10**40
        same_value = res.value == rabbit_tree(n)
        assert same_value, n
        # a budget one below the count runs out, the count itself suffices
        with pytest.raises(BudgetExceededError):
            naive_run(p, call, budget=res.total_steps - 1)
        assert naive_run(p, call, budget=res.total_steps).total_steps == res.total_steps


def test_a_run_out_of_budget_leaves_no_reference_cycle(programs):
    """The error a run raises is not held by the frames its traceback holds,
    so once the error is dropped, reference counting frees all the run
    built; the command line runs each command with the collector paused."""
    import gc

    from memotrs import Heap, initial_expression, run

    rabbits, leafs = programs["rabbits"], programs["leafs"]
    runs = [
        lambda: naive_run(rabbits, rabbits_call(12), budget=100),
        lambda: eval_memo(rabbits, {}, rabbits_call(12), budget=10),
        lambda: run(rabbits, *initial_expression(rabbits, Heap(), rabbits_call(12)), 10),
        # stuck, but the budget runs out before the stuck call is reached
        lambda: naive_run(leafs, App("leafs", (App("zero"),)), budget=1),
    ]
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i, evaluate in enumerate(runs):
            try:
                evaluate()
            except BudgetExceededError:
                pass
            else:
                pytest.fail(f"run {i} kept within its budget")
            assert gc.collect() == 0, i
    finally:
        if collecting:
            gc.enable()


# ---------------------------------------------- term inputs loaded from text


def call_inputs(rng, sig, depth):
    """A random ground term over sig: values, powers of a unary symbol over
    anything (a call too), and applications whose arguments may repeat one
    value; calls nest up to depth."""
    cons, ops = sig.constructors, sig.operations
    unary = sorted(s for s, k in {**cons, **ops}.items() if k == 1)
    applied = sorted(s for s, k in {**cons, **ops}.items() if k)
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return random_value(rng, cons, rng.randint(0, 5))
    if roll < 0.4 and unary:
        t, sym = call_inputs(rng, sig, depth - 1), rng.choice(unary)
        for _ in range(rng.randint(3, 6)):
            t = App(sym, (t,))
        return t
    sym = rng.choice(sorted(ops) if roll < 0.8 else applied)
    v = random_value(rng, cons, rng.randint(0, 4))
    args = [v if rng.random() < 0.3 else call_inputs(rng, sig, depth - 1)
            for _ in range({**cons, **ops}[sym])]
    return App(sym, tuple(args))


def all_nodes(t):
    """The nodes of t, one per position."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        todo += t.args


def term_outcomes(program, term, budget):
    """naive_run's and eval_memo's outcome on term or its code: the value,
    m, total steps and (memo) cache, or the error's kind, text and witness."""
    outcomes = []
    for memo in (False, True):
        try:
            if memo:
                stats = MemoStats()
                out = eval_memo(program, {}, term, budget, stats)
                outcomes.append((out.value, out.cost, stats.work, out.cache))
            else:
                res = naive_run(program, term, budget)
                outcomes.append((res.value, res.rewrite_steps, res.total_steps))
        except (StuckError, BudgetExceededError) as e:
            outcomes.append((type(e), str(e), getattr(e, "witness", None)))
    return outcomes


def test_term_engines_run_the_code_loaded_from_text():
    """load_term without a heap gives compile_term's code of the parsed
    term, or parse_term's error at the same place; naive_run and eval_memo
    given that code end as they end on the term: value, m, total steps and
    cache, over budget at the same budgets, stuck at the same call."""
    seen = dict.fromkeys(["nested", "power over call", "repeated", "stuck", "over", "failed"], 0)
    pieces = ["", "(", ")", ",", "^2", "^0", "a", "f", "!", "x", " ", "b^3"]
    for seed in range(80):
        rng = random.Random(seed)
        program = random_program(seed)
        sig = program.signature
        if seed % 3 == 0:  # a rule less, so that some calls are stuck
            rules = list(program.rules)
            del rules[rng.randrange(len(rules))]
            program = Program(sig, rules)
        for _ in range(3):
            text = format_term(call_inputs(rng, sig, 3), compress=True)
            term = parse_term(text, sig)
            code = load_term(text, sig)
            assert code == compile_term(sig, term), text
            calls = [n for n in all_nodes(term) if n.sym in sig.operations]
            seen["nested"] += any(
                n is not c and n.sym in sig.operations for c in calls for n in all_nodes(c))
            seen["power over call"] += bool(re.search(r"\^\d+\([fgh]\(", text))
            seen["repeated"] += any(
                len(n.args) > 1 and n.args[0] == n.args[1]
                and all(m.sym in sig.constructors for m in all_nodes(n.args[0]))
                for n in all_nodes(term))
            want = term_outcomes(program, term, 10**5)
            assert term_outcomes(program, code, 10**5) == want, text
            seen["stuck"] += want[0][0] is StuckError
            budgets = {0, 1, rng.randrange(50)}
            for outcome in want:
                if not isinstance(outcome[0], type):  # a value: budgets around its total
                    total = outcome[2]
                    budgets |= {total // 2, total - 1, total}
            for budget in sorted(budgets):
                outcomes = term_outcomes(program, term, budget)
                assert term_outcomes(program, code, budget) == outcomes, (text, budget)
                seen["over"] += outcomes[0][0] is BudgetExceededError
            i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
            bad = text[:i] + rng.choice(pieces) + text[j:]
            try:
                want = compile_term(sig, parse_term(bad, sig))
            except ParseError as e:
                seen["failed"] += 1
                with pytest.raises(ParseError) as got:
                    load_term(bad, sig)
                assert (str(got.value), got.value.line, got.value.column) == (
                    str(e), e.line, e.column), bad
            else:
                assert load_term(bad, sig) == want, bad
    assert min(seen.values()) >= 10, seen

