"""End-to-end acceptance checks, one test per criterion.

Each test name carries its criterion number so a verbose run reads as a
checklist. These deliberately re-derive expected values from first
principles (closed forms, independent recurrences, brute-force oracles)
rather than reusing engine output.
"""

import random
import time
from io import StringIO

import numpy as np
import pytest

from memotrs import (
    App,
    BudgetExceededError,
    Configuration,
    Heap,
    TierSignature,
    check_tiers_explained,
    compile_function,
    eval_memo,
    infer_tiers,
    minimal_shared_size,
    naive_run,
    program_delta,
    run,
    run_traced,
)
from helpers import (
    complete_tree,
    enum_values,
    fib,
    rabbit_tree,
    random_program,
    random_value,
    store_value,
    subst,
    suc_chain,
)
from oracle import (
    applicable_step_kinds,
    canonical_tree,
    configuration_size,
    eval_grsr,
    expression_weight,
    initial_call,
    match_graph,
    match_term,
    step,
    validate_derivation,
)

R_CONS = {"leafn": 0, "leafm": 0, "n": 1, "m": 2}


def machine_outcome(program, op, values):
    heap, expr = initial_call(program, op, values)
    cfg, stats = run(program, heap, expr)
    return cfg.heap.unfold(cfg.expr.loc), stats


def sample_inputs(rng, constructors, arity, limit):
    """Argument tuples with joint minimal shared size <= 12; enumerated
    small trees first, then random draws, capped at limit."""
    small = enum_values(constructors, 5)
    pool = []
    for v in small:
        pool.append((v,) * arity if arity > 1 else (v,))
    rng.shuffle(pool)
    while len(pool) < limit * 2:
        tup = tuple(random_value(rng, constructors, 4) for _ in range(arity))
        pool.append(tup)
    picked = []
    for tup in pool:
        if minimal_shared_size(list(tup)) <= 12:
            picked.append(tup)
        if len(picked) == limit:
            break
    return picked


def test_criterion_01_simulation_exactness(programs):
    """Memoized cost equals machine apply count and all engines agree on
    values, across the corpus and 25 generated programs."""
    t0 = time.perf_counter()
    rng = random.Random(2024)
    nats = {"zero": 0, "suc": 1}
    cases = []
    for name, op, cons in [
        ("add", "add", nats),
        ("tree", "tree", nats),
        ("rabbits", "rabbits", nats),
        ("leafs", "leafs", R_CONS),
        ("id", "id", nats),
    ]:
        p = programs[name]
        arity = p.signature.operations[op]
        for tup in sample_inputs(rng, cons, arity, 12):
            cases.append((p, op, tup))
    for seed in range(25):
        p = random_program(seed)
        op = sorted(p.signature.operations)[0]
        arity = p.signature.operations[op]
        for tup in sample_inputs(rng, p.signature.constructors, arity, 6):
            cases.append((p, op, tup))
    assert len(cases) > 200
    for p, op, tup in cases:
        call = App(op, tup)
        memo = eval_memo(p, {}, call)
        value, stats = machine_outcome(p, op, list(tup))
        assert stats.applies == memo.cost, (op, tup)
        assert value == memo.value, (op, tup)
        try:
            naive = naive_run(p, call, budget=10**6)
        except BudgetExceededError:
            continue
        assert naive.value == memo.value, (op, tup)
    assert time.perf_counter() - t0 < 60


def test_criterion_02_rabbits_cost_bound(programs):
    """Shared-engine m stays within 2n+1 for two hundred generations and
    each point runs far quicker than a second."""
    p = programs["rabbits"]
    for n in range(1, 201):
        t0 = time.perf_counter()
        _, stats = machine_outcome(p, "rabbits", [suc_chain(n)])
        elapsed = time.perf_counter() - t0
        assert stats.applies <= 2 * n + 1
        assert elapsed < 1.0


def test_criterion_03_fibonacci_depth_structure(programs):
    """Node counts per depth of the unfolded output follow the Fibonacci
    sequence; the index convention is pinned by brute force at n = 6."""
    p = programs["rabbits"]

    def depth_counts(t):
        counts = {}
        stack = [(t, 0)]
        while stack:
            node, d = stack.pop()
            counts[d] = counts.get(d, 0) + 1
            stack.extend((a, d + 1) for a in node.args)
        return [counts[i] for i in range(max(counts) + 1)]

    oracle = naive_run(p, App("rabbits", (suc_chain(6),))).value
    assert depth_counts(oracle) == [1, 1, 2, 3, 5, 8]
    for n in range(1, 21):
        value = naive_run(p, App("rabbits", (suc_chain(n),))).value
        assert depth_counts(value) == [fib(i) for i in range(n)]


def test_criterion_04_sharing_compactness(programs):
    """The answer DAG of tree(n) has n+1 nodes while its unfolding has
    2^(n+1)-1, measured arithmetically."""
    p = programs["tree"]
    for n in range(1, 201):
        heap, expr = initial_call(p, "tree", [suc_chain(n)])
        cfg, _ = run(p, heap, expr)
        loc = cfg.expr.loc
        assert cfg.heap.reachable_count(loc) == n + 1
        assert cfg.heap.unfolded_size(loc) == 2 ** (n + 1) - 1


def test_criterion_05_weight_and_size_lemmas(programs):
    """Per-step invariants: non-apply steps strictly shrink the weight,
    apply grows it by at most delta, the step total respects the
    (1+delta)m + w0 bound, and configurations grow by at most delta."""
    cases = [
        ("add", "add", [suc_chain(4), suc_chain(3)]),
        ("id", "id", [suc_chain(5)]),
        ("tree", "tree", [suc_chain(8)]),
        ("rabbits", "rabbits", [suc_chain(8)]),
        ("leafs", "leafs", [rabbit_tree(6)]),
    ]
    for name, op, vals in cases:
        p = programs[name]
        delta = program_delta(p)
        heap, expr = initial_call(p, op, vals)
        cfg = Configuration({}, heap, expr)
        w0 = expression_weight(expr)
        applies = total = 0
        while True:
            nxt = step(cfg, p)
            if nxt is None:
                break
            after, kind = nxt
            total += 1
            dw = expression_weight(after.expr) - expression_weight(cfg.expr)
            if kind == "apply":
                applies += 1
                assert 0 <= dw <= delta, (name, kind)
            else:
                assert dw == -1, (name, kind)
            assert configuration_size(after) - configuration_size(cfg) <= delta
            cfg = after
        assert total <= (1 + delta) * applies + w0, name


def test_criterion_06_determinism(programs):
    """Ten traced corpus runs replay byte for byte, and every visited
    configuration admits exactly one applicable rule."""
    runs = [
        ("add", "add", [suc_chain(2), suc_chain(2)]),
        ("add", "add", [suc_chain(5), suc_chain(1)]),
        ("id", "id", [suc_chain(3)]),
        ("tree", "tree", [suc_chain(4)]),
        ("tree", "tree", [suc_chain(9)]),
        ("rabbits", "rabbits", [suc_chain(3)]),
        ("rabbits", "rabbits", [suc_chain(6)]),
        ("rabbits", "rabbits", [suc_chain(9)]),
        ("leafs", "leafs", [rabbit_tree(4)]),
        ("leafs", "leafs", [rabbit_tree(7)]),
    ]
    assert len(runs) == 10
    for name, op, vals in runs:
        p = programs[name]

        def traced():
            heap, expr = initial_call(p, op, vals)
            buf = StringIO()
            run_traced(p, heap, expr, buf)
            return buf.getvalue()

        first, second = traced(), traced()
        assert first == second, name
        heap, expr = initial_call(p, op, vals)
        cfg = Configuration({}, heap, expr)
        while True:
            kinds = applicable_step_kinds(cfg, p)
            nxt = step(cfg, p)
            if nxt is None:
                assert kinds == []
                break
            cfg, kind = nxt
            assert kinds == [kind], name


def test_criterion_07_tiering(functions):
    """add and rabbits carry their declared stratified signatures; the
    leaf counter admits none with tiers up to five."""
    add = functions["add"].lookup("add").expr
    d = check_tiers_explained(add, TierSignature((2, 1), 1))[0]
    assert d is not None
    validate_derivation(d)
    rabbits = functions["rabbits"].lookup("rabbits").expr
    d = check_tiers_explained(rabbits, TierSignature((1,), 0))[0]
    assert d is not None
    validate_derivation(d)
    leafs = functions["leafs"].lookup("leafs").expr
    assert infer_tiers(leafs, 5) == []


def test_criterion_08_compiler_correctness(functions):
    """Compiled programs agree with direct evaluation over a grid of
    small inputs, including shared ones."""
    nat_inputs = [suc_chain(i) for i in range(10)]
    forest_inputs = [v for v in enum_values(R_CONS, 7)]
    forest_inputs += [rabbit_tree(n) for n in range(1, 9)]
    forest_inputs = [v for v in forest_inputs if minimal_shared_size([v]) <= 10]
    grids = {1: [(v,) for v in nat_inputs]}
    grids[2] = [(a, b) for a in nat_inputs for b in nat_inputs]

    checked = 0
    for fname, defname in [
        ("add", "add"),
        ("tree", "tree"),
        ("rabbits", "adults"),
        ("rabbits", "babies"),
        ("rabbits", "rabbits"),
        ("leafs", "one"),
        ("leafs", "leafs"),
    ]:
        f = functions[fname].lookup(defname).expr
        prog, entry = compile_function(f)
        if defname == "leafs":
            inputs = [(v,) for v in forest_inputs]
        elif f.arity == 0:
            inputs = [()]
        else:
            inputs = grids[f.arity]
        for tup in inputs:
            expected = eval_grsr(f, list(tup))
            got = eval_memo(prog, {}, App(entry, tup)).value
            assert got == expected, (defname, tup)
            checked += 1
    assert checked > 300


def test_criterion_09_matching_proposition():
    """Graph matching against a maximally shared heap succeeds exactly
    when tree matching does, and each variable's tree binding is the
    unfolding of its location binding."""
    cons = {"a": 0, "b": 1, "c": 2}

    def patterns(depth):
        """All linear patterns up to the given depth, canonical var names.

        Shapes are nested tuples with "*" marking a variable slot; the
        second pass numbers the slots left to right."""

        def shapes(d):
            out = ["*", ("a",)]
            if d > 0:
                subs = shapes(d - 1)
                out.extend(("b", s) for s in subs)
                out.extend(("c", s1, s2) for s1 in subs for s2 in subs)
            return out

        def number(s, counter):
            from memotrs import Var

            if s == "*":
                counter[0] += 1
                return Var(f"v{counter[0]}")
            return App(s[0], tuple(number(a, counter) for a in s[1:]))

        return [number(s, [0]) for s in shapes(depth)]

    def check_pair(pat, val):
        heap = Heap()
        loc = store_value(heap, val)
        tree_binding = match_term(pat, val)
        got = match_graph(pat, heap, loc)
        if tree_binding is None:
            assert got is None
            return
        assert got is not None
        morphism, loc_binding = got
        g = canonical_tree(pat)
        for name, occurrences in g.var_nodes.items():
            for node in occurrences:
                assert heap.unfold(morphism[node]) == tree_binding[name]
            assert heap.unfold(loc_binding[name]) == tree_binding[name]
        for node, at in morphism.items():
            if g.labels[node] is not None:
                assert heap.entry(at)[0] == g.labels[node]

    # exhaustive core: all depth <= 2 patterns against all depth <= 3 values
    small_values = [v for v in enum_values(cons, 15) if depth_of(v) <= 3]
    pats2 = patterns(2)
    assert len(pats2) == 74
    for pat in pats2:
        for val in small_values:
            check_pair(pat, val)
    # full-depth positives: ground every depth <= 3 pattern at its variables
    rng = random.Random(11)
    fillers = enum_values(cons, 3)
    for pat in patterns(3):
        from memotrs import vars_of

        for _ in range(3):
            binding = {x: rng.choice(fillers) for x in vars_of(pat)}
            check_pair(pat, subst(pat, binding))
    # sampled negatives and mixtures at the stated depths
    pats3 = patterns(3)
    for _ in range(1000):
        pat = rng.choice(pats3)
        val = random_value(rng, cons, 4)
        check_pair(pat, val)


def depth_of(t):
    best = 0
    stack = [(t, 0)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack.extend((a, d + 1) for a in node.args)
    return best


def test_criterion_10_polytime_soundness(programs):
    """Shared-engine wall time grows at most cubically (least-squares slope
    of log time against log n over n >= 20 is <= 3) while the plain engine
    blows a 10^6 budget near n = 20."""
    import gc

    p = programs["rabbits"]
    ns = list(range(20, 201))
    for _ in range(3):  # warm caches and code paths
        machine_outcome(p, "rabbits", [suc_chain(200)])
    # Sweep all sizes, then sweep again: clock drift and cpu throttling
    # hit whole stretches of time, not single sizes, so the per-size minimum
    # over interleaved sweeps is far steadier than repeating each point in
    # place. Each sweep takes the sizes in a fresh shuffled order, so that a
    # slow spell does not line up with the large sizes.
    rng = random.Random(10)
    best = {n: float("inf") for n in ns}
    gc.disable()
    try:
        for _ in range(6):
            for n in rng.sample(ns, len(ns)):
                reps = max(3, 240 // n)
                inputs = [initial_call(p, "rabbits", [suc_chain(n)])
                          for _ in range(reps)]
                t0 = time.perf_counter_ns()
                for heap, expr in inputs:
                    run(p, heap, expr)
                best[n] = min(best[n], (time.perf_counter_ns() - t0) / reps)
    finally:
        gc.enable()
    # The growth degree is the slope on log-log axes; sizes start at 20,
    # where fixed per-call overheads have faded. A polynomial fit's R^2
    # would measure only the scatter of the host's clock, not growth.
    slope = np.polyfit(np.log(ns), np.log([best[n] for n in ns]), 1)[0]
    print(f"log-log slope of time against n: {slope:.3f}")
    assert slope <= 3, slope

    # the naive engine crosses a million inferences around n = 20
    tree = programs["tree"]
    assert naive_run(tree, App("tree", (suc_chain(16),)), budget=10**6).value
    with pytest.raises(BudgetExceededError):
        naive_run(tree, App("tree", (suc_chain(20),)), budget=10**6)
    with pytest.raises(BudgetExceededError):
        naive_run(p, App("rabbits", (suc_chain(27),)), budget=10**6)
