import gc
import io
import random
import time
import tracemalloc
from operator import itemgetter

import pytest

from memotrs import (
    App,
    ArityError,
    BudgetExceededError,
    Heap,
    HeapError,
    MemoStats,
    ParseError,
    Program,
    Signature,
    StuckError,
    Var,
    eval_memo,
    format_term,
    initial_expression,
    minimal_shared_size,
    naive_run,
    parse_term,
    program_delta,
    run,
    run_traced,
)
from memotrs.core import CALL, CON, FCALL, LOG_BATCH, RET, VAL, VAR, compile_term
from memotrs.parser import MAX_POWER_NODES
from memotrs.terms import REPR_CHARS, vars_of
from helpers import (
    complete_tree,
    rabbit_tree,
    random_program,
    random_value,
    store_value,
    suc_chain,
    trace_rows,
)
from oracle import (
    Configuration,
    EAnnot,
    ECall,
    ECon,
    EHole,
    ELoc,
    EvalContext,
    applicable_step_kinds,
    check_well_formed,
    configuration_size,
    decompose,
    default_step_budget,
    expr_equal,
    expression_code,
    expression_size,
    expression_weight,
    initial_call,
    initial_expression_by_node,
    step,
    unfold_expression,
)


def drive(program, heap, expr):
    """Step-by-step reference loop; returns (final cfg, kind list, cfg list)."""
    cfg = Configuration({}, heap, expr)
    kinds = []
    seen = [cfg]
    while True:
        nxt = step(cfg, program)
        if nxt is None:
            break
        cfg, kind = nxt
        kinds.append(kind)
        seen.append(cfg)
    return cfg, kinds, seen


# ------------------------------------------------------------- decompose


def test_decompose_location_is_terminal():
    assert decompose(ELoc(0)) is None


def test_decompose_finds_leftmost_innermost():
    call = ECall("add", (ELoc(0), ELoc(1)))
    ctx, redex = decompose(call)
    assert redex is call and ctx.depth == 0

    nested = ECon("suc", (call,))
    ctx, redex = decompose(nested)
    assert redex is call and ctx.depth == 1
    assert expr_equal(ctx.plug(redex), nested)
    assert isinstance(ctx.to_expression(), ECon)

    left_first = ECon("m", (ECall("f", (ELoc(0),)), ECall("g", (ELoc(1),))))
    _, redex = decompose(left_first)
    assert redex.sym == "f"


def test_decompose_annotation_cases():
    ready = EAnnot("f", (0,), ELoc(3))
    ctx, redex = decompose(ready)
    assert redex is ready and ctx.depth == 0
    working = EAnnot("f", (0,), ECall("g", (ELoc(0),)))
    ctx, redex = decompose(working)
    assert redex.sym == "g" and ctx.depth == 1
    assert ctx.is_valid()


def test_context_validity_requires_evaluated_prefix():
    node = ECon("m", (ECall("f", ()), ECall("g", ())))
    bad = EvalContext([(node, 1)])  # left sibling is not yet a location
    assert not bad.is_valid()
    ok = EvalContext([(ECon("m", (ELoc(0), ECall("g", ()))), 1)])
    assert ok.is_valid()


# ------------------------------------------------------------- weights


def test_expression_weight_and_size():
    assert expression_weight(ELoc(5)) == 0
    assert expression_weight(ECall("add", (ELoc(0), ELoc(1)))) == 1
    assert expression_weight(ECon("suc", (ECall("f", (ELoc(0),)),))) == 2
    assert expression_weight(EAnnot("f", (0,), ECall("g", ()))) == 2
    assert expression_size(ELoc(5)) == 1
    assert expression_size(ECall("add", (ELoc(0), ELoc(1)))) == 3
    assert expression_size(EAnnot("f", (0, 1), ELoc(2))) == 4


# ------------------------------------------------------- single stepping


def test_id_program_step_by_step(programs):
    p = programs["id"]
    heap, expr = initial_call(p, "id", [App("zero", ())])
    cfg = Configuration({}, heap, expr)

    cfg, kind = step(cfg, p)
    assert kind == "apply"
    assert expr_equal(cfg.expr, EAnnot("id", (0,), ELoc(0)))

    cfg, kind = step(cfg, p)
    assert kind == "store"
    assert expr_equal(cfg.expr, ELoc(0))
    assert cfg.cache == {("id", (0,)): 0}
    assert step(cfg, p) is None


def test_read_replays_cached_call(programs):
    p = programs["id"]
    heap = Heap()
    heap.merge("zero", ())
    cfg = Configuration({("id", (0,)): 0}, heap, ECall("id", (ELoc(0),)))
    cfg, kind = step(cfg, p)
    assert kind == "read"
    assert expr_equal(cfg.expr, ELoc(0))
    assert cfg.heap is heap  # reading touches nothing


def test_merge_step_stores_constructor(programs):
    p = programs["add"]
    heap = Heap()
    z = heap.merge("zero", ())
    cfg = Configuration({}, heap, ECon("suc", (ELoc(z),)))
    cfg, kind = step(cfg, p)
    assert kind == "merge"
    assert cfg.heap.entry(cfg.expr.loc) == ("suc", (0,))


def test_machine_totals_for_id(programs):
    p = programs["id"]
    heap, expr = initial_call(p, "id", [App("zero", ())])
    cfg, stats = run(p, heap, expression_code(expr))
    assert stats.applies == 1 and stats.total == 2
    assert cfg.heap.unfold(cfg.loc) == App("zero", ())


# ---------------------------------------------------------- whole runs


def test_run_matches_manual_stepping(programs):
    p = programs["rabbits"]
    heap, expr = initial_call(p, "rabbits", [suc_chain(5)])
    buf = io.StringIO()
    cfg, stats = run_traced(p, heap, expression_code(expr), buf)
    observed = trace_rows(buf.getvalue())
    mcfg, kinds, seen = drive(p, heap, expr)
    assert [k for _, k, *_ in observed] == kinds
    assert [i for i, *_ in observed] == list(range(1, len(kinds) + 1))
    assert expr_equal(mcfg.expr, ELoc(cfg.loc))
    assert mcfg.cache == cfg.cache
    assert mcfg.heap.entries == cfg.heap.entries
    assert stats.total == len(kinds)
    # the untraced run ends as the traced one
    ucfg, ustats = run(p, heap, expression_code(expr))
    assert ustats == stats and ucfg.loc == cfg.loc
    assert ucfg.cache == cfg.cache and ucfg.heap.entries == cfg.heap.entries
    # the incremental weight column equals the recomputed weight
    for (_, _, w, h, c), after in zip(observed, seen[1:]):
        assert w == expression_weight(after.expr)
        assert h == after.heap.node_count
        assert c == len(after.cache)


def test_run_refuses_what_the_loader_never_builds(programs):
    p = programs["rabbits"]
    heap, call = initial_call(p, "rabbits", [suc_chain(3)])
    z = call.args[0].loc
    nodes = heap.entries.copy()
    val, ret = (VAL, z, None), (RET, None, None)
    for code in [
        # symbols the signature does not declare as that kind at that arity
        expression_code(ECall("g", (ELoc(z),))),
        expression_code(ECall("rabbits", (ELoc(z), ELoc(z)))),
        expression_code(ECon("m", (ELoc(z),))),
        expression_code(ECon("adults", (ELoc(z),))),
        expression_code(ECall("suc", (ELoc(z),))),
        # loaded against a larger heap, or another program
        initial_expression(p, heap.copy(), App("rabbits", (suc_chain(5),)))[1],
        initial_expression(programs["add"], heap.copy(), App("add", (App("zero"),) * 2))[1],
        ((VAL, -1, None), ret),
        # a term, as the memo and naive engines push it
        compile_term(p.signature, App("rabbits", (suc_chain(3),))),
        # instructions only rule bodies hold, and stacks that do not hold
        # one value at the end
        ((VAR, 0, None), ret),
        ((FCALL, "babies", itemgetter(slice(0, 1))), ret),
        ((CALL, "rabbits", 1), ret),
        (val, val, ret),
        (val, (CON, "m", 2), ret),
        ((CON, "m", 2), val, val, ret),
        (val,),
        (),
    ]:
        buf = io.StringIO()
        with pytest.raises(HeapError):
            run_traced(p, heap, code, buf)
        assert trace_rows(buf.getvalue()) == [] and heap.entries == nodes


def test_rabbits_generation_six_run(programs):
    p = programs["rabbits"]
    heap, expr = initial_call(p, "rabbits", [suc_chain(6)])
    cfg, stats = run(p, heap, expression_code(expr))
    loc = cfg.loc
    assert cfg.heap.unfold(loc) == rabbit_tree(6)
    assert stats.applies == 11
    assert stats.total == 35
    assert cfg.heap.reachable_count(loc) == 10
    assert cfg.heap.unfolded_size(loc) == 20  # generation sizes 1+1+2+3+5+8
    assert cfg.heap.node_count == 17


def test_tree_run_shares_every_level(programs):
    p = programs["tree"]
    for n in (1, 4, 10):
        heap, expr = initial_call(p, "tree", [suc_chain(n)])
        cfg, stats = run(p, heap, expression_code(expr))
        loc = cfg.loc
        assert cfg.heap.reachable_count(loc) == n + 1
        assert cfg.heap.unfolded_size(loc) == 2 ** (n + 1) - 1
        assert stats.applies == 2 * n + 1
    heap, expr = initial_call(p, "tree", [suc_chain(4)])
    cfg, _ = run(p, heap, expression_code(expr))
    assert cfg.heap.unfold(cfg.loc) == complete_tree(4)


def test_per_step_lemmas_on_corpus(programs):
    cases = [
        (programs["rabbits"], "rabbits", [suc_chain(6)]),
        (programs["add"], "add", [suc_chain(3), suc_chain(2)]),
        (programs["tree"], "tree", [suc_chain(5)]),
        (programs["leafs"], "leafs", [rabbit_tree(5)]),
    ]
    for p, op, vals in cases:
        delta = program_delta(p)
        heap, expr = initial_call(p, op, vals)
        cfg = Configuration({}, heap, expr)
        assert check_well_formed(cfg) == []
        while True:
            kinds = applicable_step_kinds(cfg, p)
            nxt = step(cfg, p)
            if nxt is None:
                assert kinds == []
                break
            after, kind = nxt
            # determinism: the one applicable rule is the one taken
            assert kinds == [kind]
            dw = expression_weight(after.expr) - expression_weight(cfg.expr)
            if kind == "apply":
                assert 0 <= dw <= delta
            else:
                assert dw == -1
            assert configuration_size(after) - configuration_size(cfg) <= delta
            assert after.heap.node_count >= cfg.heap.node_count
            assert after.heap.entries[: cfg.heap.node_count] == cfg.heap.entries
            assert check_well_formed(after) == []
            cfg = after
        assert expression_weight(cfg.expr) == 0


def test_step_total_bound(programs):
    for name, op, vals in [
        ("rabbits", "rabbits", [suc_chain(8)]),
        ("add", "add", [suc_chain(5), suc_chain(3)]),
        ("tree", "tree", [suc_chain(7)]),
        ("leafs", "leafs", [rabbit_tree(6)]),
    ]:
        p = programs[name]
        heap, expr = initial_call(p, op, vals)
        _, stats = run(p, heap, expression_code(expr))
        assert stats.total <= (1 + stats.delta) * stats.applies + stats.initial_weight
        assert stats.stores == stats.applies  # every annotation gets stored
        assert stats.delta == program_delta(p)


def test_simulation_applies_equal_memo_cost(programs):
    cases = [
        (programs["rabbits"], App("rabbits", (suc_chain(8),))),
        (programs["add"], App("add", (suc_chain(4), suc_chain(4)))),
        (programs["tree"], App("tree", (suc_chain(9),))),
        (programs["leafs"], App("leafs", (rabbit_tree(5),))),
    ]
    for p, call in cases:
        cfg, stats = run(p, *initial_expression(p, Heap(), call))
        memo = eval_memo(p, {}, call)
        assert stats.applies == memo.cost
        assert cfg.heap.unfold(cfg.loc) == memo.value


def test_simulation_on_random_programs():
    rng = random.Random(41)
    for seed in range(20):
        p = random_program(seed)
        op = sorted(p.signature.operations)[0]
        vals = [
            random_value(rng, p.signature.constructors, 3)
            for _ in range(p.signature.operations[op])
        ]
        call = App(op, tuple(vals))
        heap, expr = initial_call(p, op, vals)
        cfg, stats = run(p, heap, expression_code(expr))
        memo_stats = MemoStats()
        memo = eval_memo(p, {}, call, stats=memo_stats)
        assert stats.applies == memo.cost
        assert cfg.heap.unfold(cfg.loc) == memo.value
        assert memo_stats.reads == stats.reads
        assert memo_stats.work == stats.total
        assert len(memo.cache) == len(cfg.cache)


def test_naive_answer_shared_size_is_reachable_count(programs):
    cases = [
        (programs["rabbits"], App("rabbits", (suc_chain(9),))),
        (programs["tree"], App("tree", (suc_chain(8),))),
        (programs["add"], App("add", (suc_chain(6), suc_chain(5)))),
        (programs["leafs"], App("leafs", (rabbit_tree(6),))),
    ]
    rng = random.Random(43)
    for seed in range(20):
        p = random_program(seed)
        op = sorted(p.signature.operations)[0]
        vals = [
            random_value(rng, p.signature.constructors, 3)
            for _ in range(p.signature.operations[op])
        ]
        cases.append((p, App(op, tuple(vals))))
    for p, call in cases:
        cfg, _ = run(p, *initial_expression(p, Heap(), call))
        naive = naive_run(p, call, 10**6).value
        assert minimal_shared_size([naive]) == cfg.heap.reachable_count(cfg.loc)


# ------------------------------------------------------------- tracing


def test_trace_rows_and_determinism(programs):
    p = programs["rabbits"]

    def one():
        heap, expr = initial_call(p, "rabbits", [suc_chain(6)])
        buf = io.StringIO()
        cfg, stats = run_traced(p, heap, expression_code(expr), buf)
        return buf.getvalue(), stats

    text, stats = one()
    lines = text.splitlines()
    assert lines[0] == "step,kind,weight,heap_size,cache_size"
    assert len(lines) == stats.total + 1
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "apply"
    last = lines[-1].split(",")
    assert last[1] == "store" and last[2] == "0"
    again, _ = one()
    assert again == text


class _Chunks(list):
    """An output that keeps each text written to it."""

    write = list.append


def test_trace_is_the_replayed_step_log(monkeypatch):
    """Over random programs, run_traced writes the same trace from the step
    log in batches as from the step log in one batch, on runs longer than
    a log batch too, and on stuck and over-budget runs that stop inside
    one."""

    def traced(p, heap, code, budget, batch: int) -> tuple:
        monkeypatch.setattr("memotrs.core.LOG_BATCH", batch)
        out = _Chunks()
        try:
            cfg, stats = run_traced(p, heap, code, out, budget)
            return out, ("value", cfg.loc, cfg.heap.entries, stats)
        except (BudgetExceededError, StuckError) as e:
            return out, (type(e), str(e))

    def batched_and_whole(p, heap, code, budget) -> tuple:
        """The trace's rows and how the run ended, once both runs agree."""
        batched, end = traced(p, heap, code, budget, LOG_BATCH)
        rows = trace_rows("".join(batched))
        whole, whole_end = traced(p, heap, code, budget, len(rows) + 1)
        # compared outside the assert: pytest's diff of two long texts takes minutes
        same = "".join(whole) == "".join(batched)
        assert same, "the trace in one batch differs"
        assert whole_end == end
        # the header, then one write per batch of the step log
        assert len(whole) == 1 + bool(rows)
        assert (len(batched) > 2) == (len(rows) > LOG_BATCH)
        return rows, end

    rng = random.Random(17)
    long = stopped = 0
    for seed in range(24):
        p = random_program(seed)
        sig = p.signature
        for op, arity in sorted(sig.operations.items()):
            args = [random_value(rng, sig.constructors, 3) for _ in range(arity)]
            if "b" in sig.constructors:  # recursion on a long first argument
                for _ in range(2501):
                    args[0] = App("b", (args[0],))
            heap, code = initial_expression(p, Heap(), App(op, tuple(args)))
            # without op's rule for a, the recursion gets stuck at the chain's bottom
            stuck = Program(sig, [r for r in p.rules
                                  if r.lhs.sym != op or r.lhs.args[0] != App("a")])
            rows, end = batched_and_whole(p, heap, code, None)
            total = len(rows)
            assert end[0] == "value" and end[3].total == total
            long += total > LOG_BATCH
            cases = [(stuck, None)]
            if total > LOG_BATCH + 1:
                cases.append((p, rng.randrange(LOG_BATCH + 1, total)))
            for q, budget in cases:
                rows, end = batched_and_whole(q, heap, code, budget)
                stopped += end[0] != "value" and len(rows) > LOG_BATCH \
                    and len(rows) % LOG_BATCH > 0
    assert long >= 10 and stopped >= 10


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def test_traced_run_holds_a_fixed_amount_more_than_untraced(programs):
    """The step log goes out a batch at a time: over 10^5 steps, a traced
    run's peak memory is within a fixed amount of the untraced run's,
    where a log kept whole would add about 8 bytes a step and then its
    rendered text (over 7 MB)."""
    p = programs["rabbits"]
    heap, code = initial_expression(p, Heap(), App("rabbits", (suc_chain(14_300),)))
    run(p, heap, code)  # the decision trees are built once, outside the measure
    peaks = []
    collecting = gc.isenabled()
    gc.disable()  # as the CLI runs, and faster under tracemalloc
    try:
        for go in (lambda: run(p, heap, code), lambda: run_traced(p, heap, code, _Discard())):
            tracemalloc.start()
            try:
                _, stats = go()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        if collecting:
            gc.enable()
    assert stats.total > 100_000
    assert peaks[1] - peaks[0] < 2**20, peaks


# ------------------------------------------------------------- loading


def test_initial_expression_mixed_term(programs):
    p = programs["add"]
    term = App("add", (App("suc", (App("add", (suc_chain(0), suc_chain(0))),)), suc_chain(0)))
    heap, code = initial_expression(p, Heap(), term)
    # suc over an unevaluated call stays a CON instruction
    inner = ECon("suc", (ECall("add", (ELoc(0), ELoc(0))),))
    assert code == expression_code(ECall("add", (inner, ELoc(0))))
    cfg, _ = run(p, heap, code)
    assert cfg.heap.unfold(cfg.loc) == suc_chain(1)


def test_initial_expression_pure_value(programs):
    p = programs["add"]
    heap, code = initial_expression(p, Heap(), suc_chain(3))
    assert code == ((VAL, 3, None), (RET, None, None))
    assert heap.unfold(3) == suc_chain(3)


def test_initial_expression_numbers_right_to_left(programs):
    # constructor-only subterms are merged children first, last argument first
    term = App("m", (App("rabbits", (App("zero"),)), App("n", (App("leafm"),))))
    heap, code = initial_expression(programs["rabbits"], Heap(), term)
    assert heap.entries == [("leafm", ()), ("n", (0,)), ("zero", ())]
    assert code == expression_code(ECon("m", (ECall("rabbits", (ELoc(2),)), ELoc(1))))


def test_initial_expression_rejects_variables(programs):
    with pytest.raises(HeapError):
        initial_expression(programs["add"], Heap(), App("suc", (Var("x"),)))


def test_loaded_code_is_compile_terms():
    """The shared engine runs the code the memo and naive engines run, a
    location in place of each value: one compiler serves all three."""
    rng = random.Random(47)
    vals = 0
    for seed in range(60):
        p = random_program(seed)
        sig = p.signature
        heap = Heap()
        for _ in range(rng.randint(0, 3)):  # a heap that may hold values already
            store_value(heap, random_value(rng, sig.constructors, rng.randint(0, 4)))
        for _ in range(5):
            term = shared_input(rng, sig, rng.randint(1, 12))
            if vars_of(term):
                continue
            heap, code = initial_expression(p, heap, term)
            want = compile_term(sig, term)
            assert len(code) == len(want)
            for (op, a, b), (wop, wa, wb) in zip(code, want):
                assert (op, b) == (wop, wb)
                if op == VAL:
                    vals += 1
                    assert heap.unfold(a) == wa
                else:
                    assert a == wa
    assert vals > 100


def assert_loads_like_reference(program, heap, term):
    """initial_expression and the node-by-node loader agree on the heap
    they leave, the code of the expression, its weight, and HeapError.
    compile_term without a heap gives that code, a value pushed as the
    input's node itself, or StuckError for the variable: the shared engine
    runs the code the memo and naive engines run."""
    mine, ref = heap.copy(), heap.copy()
    try:
        _, want = initial_expression_by_node(program, ref, term)
    except HeapError as e:
        with pytest.raises(HeapError) as got:
            initial_expression(program, mine, term)
        assert str(got.value) == str(e)
        free = str(e).removeprefix("term is not ground: variable ")
        with pytest.raises(StuckError, match=f"^free variable {free} in evaluated term$"):
            compile_term(program.signature, term)
    else:
        got_heap, got = initial_expression(program, mine, term)
        assert got_heap is mine
        assert got == expression_code(want)
        try:  # a budget of 0 stops run at its first step, with its counts
            _, stats = run(program, got_heap, got, step_budget=0)
        except BudgetExceededError as e:
            stats = e.stats
        assert stats.initial_weight == expression_weight(want)
        nodes, todo = {}, [term]
        while todo:  # the input's node objects
            t = todo.pop()
            if id(t) not in nodes:
                nodes[id(t)] = t
                todo += t.args
        terms = compile_term(program.signature, term)
        assert [(op, b) for op, _, b in terms] == [(op, b) for op, _, b in got]
        for (op, node, _), (_, loc, _) in zip(terms, got):
            if op == VAL:
                assert nodes.get(id(node)) is node and got_heap.unfold(loc) == node
            else:
                assert node == loc
    assert mine.entries == ref.entries
    assert mine.index == ref.index


LOAD_PROGRAM = Program(
    Signature({"zero": 0, "suc": 1, "pair": 2}, {"f": 1, "h": 2, "k": 0}), []
)


def shared_input(rng, signature, steps):
    """A random term over signature whose nodes take their arguments from
    earlier nodes, so one object sits at several argument positions, and
    whose unary runs (broken by calls when a unary operation exists) keep
    every node for reuse, at the top of a run or inside it."""
    cons = signature.constructors
    symbols = sorted({**cons, **signature.operations}.items())
    unary = [sym for sym, k in symbols if k == 1]
    pool = [random_value(rng, cons, rng.randint(0, 3)) for _ in range(3)]
    if rng.random() < 0.1:
        pool.append(Var("x"))

    def pick():  # mostly recent nodes, so the last one reaches far back
        return pool[-1 - min(int(rng.expovariate(0.4)), len(pool) - 1)]

    for _ in range(steps):
        if unary and rng.random() < 0.5:
            t = pick()
            for _ in range(rng.randint(1, 8)):
                t = App(rng.choice(unary), (t,))
                pool.append(t)
        else:
            sym, k = rng.choice(symbols)
            pool.append(App(sym, tuple(pick() for _ in range(k))))
    return pool[-1]


def test_loader_matches_node_by_node_reference():
    loaded = errors = 0
    for seed in range(300):
        rng = random.Random(seed)
        program = random_program(seed) if seed % 3 else LOAD_PROGRAM
        sig = program.signature
        heap = Heap()
        if seed % 2:  # into a heap that already holds values
            for _ in range(3):
                store_value(heap, random_value(rng, sig.constructors, rng.randint(0, 4)))
        term = shared_input(rng, sig, rng.randint(1, 25))
        assert_loads_like_reference(program, heap, term)
        if not vars_of(term):
            loaded += 1
        else:
            errors += 1
    assert loaded > 200 and errors > 5


def test_loader_sharing_cases(programs):
    zero = App("zero")

    def suc(t, n=1):
        for _ in range(n):
            t = App("suc", (t,))
        return t

    run = suc(zero, 5)
    inside = run.args[0].args[0]  # suc^3(zero), a node inside the run
    f = lambda t: App("f", (t,))
    pair = lambda a, b: App("pair", (a, b))
    cases = [
        pair(run, run),
        App("h", (run, run)),
        pair(suc(run), run),  # sharing at the top of a run
        pair(run, pair(inside, suc(inside, 2))),  # and inside it
        suc(f(suc(zero))),  # a run broken by a call
        f(suc(f(suc(pair(zero, suc(zero)))), 3)),
        suc(App("k"), 4),
        pair(f(run), suc(f(run))),
        suc(pair(suc(zero, 2), suc(zero, 2)), 3),
        suc(suc(Var("x"))),  # a variable at the bottom of a run
        pair(suc(zero, 4), suc(Var("x"), 2)),
    ]
    warm = Heap()
    store_value(warm, suc(zero, 3))
    store_value(warm, pair(zero, zero))
    for term in cases:
        for heap in (Heap(), warm):
            assert_loads_like_reference(LOAD_PROGRAM, heap, term)
    _, code = initial_expression(LOAD_PROGRAM, Heap(), suc(f(suc(zero))))
    assert code == expression_code(ECon("suc", (ECall("f", (ELoc(1),)),)))
    heap = Heap()  # a run's symbols are checked before its constructors merge
    with pytest.raises(ArityError, match="^zero declared with arity 0, applied to 1$"):
        initial_expression(programs["id"], heap, App("id", (App("zero", (suc(zero, 2),)),)))
    assert heap.entries == [("zero", ())]


def test_loader_takes_deep_runs(programs):
    n = 200_000
    chain = suc_chain(n)
    heap, code = initial_expression(LOAD_PROGRAM, Heap(), chain)
    assert code == ((VAL, n, None), (RET, None, None)) and heap.node_count == n + 1
    heap, code = initial_expression(LOAD_PROGRAM, heap, App("f", (chain,)))
    assert code == ((VAL, n, None), (CALL, "f", 1), (RET, None, None))
    assert heap.node_count == n + 1
    call = App("id", (chain,))  # the memo and naive engines compile it alike
    assert eval_memo(programs["id"], {}, call).value is chain
    assert naive_run(programs["id"], call).value is chain


def test_loader_is_linear_in_distinct_nodes():
    t = suc_chain(50)
    for _ in range(40):  # 2^40 tree nodes, 91 distinct
        t = App("pair", (t, t))
    start = time.perf_counter()
    heap, code = initial_expression(LOAD_PROGRAM, Heap(), App("f", (t,)))
    assert time.perf_counter() - start < 1.0
    assert heap.node_count == 91 and code[0] == (VAL, 90, None)


# ---------------------------------------------------- loading from text


def loaded_from(program, heap, text, parse):
    """initial_expression's code, with the entries and index of the heap it
    leaves, loading text itself or, with parse, parse_term's term of it,
    into a copy of heap; or the ParseError's message, line and column."""
    heap = heap.copy()
    try:
        term = parse_term(text, program.signature) if parse else text
        _, code = initial_expression(program, heap, term)
    except ParseError as e:
        return str(e), e.line, e.column
    return code, heap.entries, heap.index


def assert_text_loads_like_its_term(program, heap, text):
    got = loaded_from(program, heap, text, False)
    assert got == loaded_from(program, heap, text, True), text
    return got


def test_text_loads_like_its_parsed_term():
    """Random ground terms, printed as trees with and without sym^N, load
    from their text to parse_term's code and heap; so do the texts with a
    stretch of characters replaced, or fail with its error."""
    loaded = powers = failed = 0
    pieces = ["", "(", ")", ",", "^2", "^0", "zero", "a", "f", "!", "x", " ", "suc^3"]
    for seed in range(200):
        rng = random.Random(seed)
        program = random_program(seed) if seed % 3 else LOAD_PROGRAM
        sig = program.signature
        heap = Heap()
        if seed % 2:  # into a heap that already holds values
            for _ in range(3):
                store_value(heap, random_value(rng, sig.constructors, rng.randint(0, 4)))
        term = shared_input(rng, sig, rng.randint(1, 25))
        if vars_of(term):
            continue
        for compress in (False, True):
            text = format_term(term, compress=compress)
            got = assert_text_loads_like_its_term(program, heap, text)
            assert type(got[0]) is tuple and got[0][-1] == (RET, None, None)
            loaded += 1
            powers += "^" in text
            i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
            bad = text[:i] + rng.choice(pieces) + text[j:]
            failed += type(assert_text_loads_like_its_term(program, heap, bad)[0]) is str
    assert loaded > 250 and powers > 40 and failed > 100


def test_text_loading_cases():
    warm = Heap()
    store_value(warm, suc_chain(3))
    store_value(warm, App("pair", (App("zero"), suc_chain(1))))
    cases = [
        "suc^0(zero)",
        "suc^0(f(zero))",
        "suc^2(suc^3(zero))",  # nested powers
        "f^3(suc^2(zero))",  # a power of a call
        "suc^2(f^2(suc^4(zero)))",  # a power over a call
        "suc(suc(f(suc(zero))))",
        "zero",  # bare values
        "suc^5(zero)",
        "pair(suc^2(zero), pair(zero, suc(zero)))",
        "k",
        "pair(f(zero), suc(h(k(), zero)))",  # calls under constructors
        "pair(suc^3(zero), f(pair(zero, suc^2(zero))))",  # values of several arguments
        "h(pair(zero, suc(zero)), pair(zero, suc(zero)))",
        "h(f(pair(suc(k), zero)), pair(suc^2(zero), h(zero, zero)))",
    ]
    for text in cases:
        for heap in (Heap(), warm):
            code, entries, _ = assert_text_loads_like_its_term(LOAD_PROGRAM, heap, text)
            assert entries[: heap.node_count] == heap.entries
    # the right argument merges first, and a power is one run of merges
    code, entries, _ = loaded_from(LOAD_PROGRAM, Heap(), "pair(suc^2(zero), f(suc(zero)))", False)
    assert entries == [("zero", ()), ("suc", (0,)), ("suc", (1,))]
    assert code == ((VAL, 2, None), (VAL, 1, None), (CALL, "f", 1), (CON, "pair", 2),
                    (RET, None, None))


def test_text_loading_takes_deep_input():
    # nested code and values, each argument nested deeper on the left or right
    for text in ("suc(" * 20_000 + "f(zero)" + ")" * 20_000,
                 "f(" * 20_000 + "suc(zero)" + ")" * 20_000,
                 "h(k, " * 5_000 + "zero" + ")" * 5_000,
                 "pair(" * 5_000 + "zero" + ", zero)" * 5_000):
        code, entries, _ = assert_text_loads_like_its_term(LOAD_PROGRAM, Heap(), text)
        assert len(code) + len(entries) > 5_000


def test_text_loading_errors():
    """A bad text fails as parse_term fails on it, at the same place, and
    the heap it was to load into is left as it was."""
    half = MAX_POWER_NODES // 2
    cases = {
        "f(boom)": "1:3: undeclared symbol: boom",
        "pair(zero, nope(zero))": "1:12: undeclared symbol: nope",
        "pair(zero)": "1:1: pair declared with arity 2, applied to 1",
        "suc(zero, zero)": "1:1: suc declared with arity 1, applied to 2",
        "f()": "1:1: f declared with arity 1, applied to 0",
        "pair(zero, zero(suc(zero)))": "1:12: zero declared with arity 0, applied to 1",
        "suc^2": "1:1: suc^2 needs a parenthesized argument",
        "f(suc^2 zero)": "1:3: suc^2 needs a parenthesized argument",
        "suc^2()": "1:1: suc^2 needs one argument",
        "pair^2(zero, zero)": "1:1: pair^2 takes one argument",
        "pair^2(zero)": "1:1: pair declared with arity 2, applied to 1",
        f"suc^{MAX_POWER_NODES + 1}(zero)":
            f"1:1: suc^{MAX_POWER_NODES + 1} would expand the term beyond "
            f"{MAX_POWER_NODES} nodes",
        f"pair(suc^{half}(zero),\n suc^{half + 1}(zero))":
            f"2:2: suc^{half + 1} would expand the term beyond {MAX_POWER_NODES} nodes",
        "suc(zero) !": "1:11: unexpected character '!'",
        "suc(zero) zero": "1:11: expected 'eof', found 'zero'",
        "f(zero))": "1:8: expected 'eof', found ')'",
        "pair(zero zero)": "1:11: expected ')', found 'zero'",
        "": "1:1: expected 'name', found 'end of input'",
    }
    heap = Heap()
    store_value(heap, suc_chain(2))
    before = heap.copy()
    for text, message in cases.items():
        got = assert_text_loads_like_its_term(LOAD_PROGRAM, heap, text)
        assert got[0] == message, text
        with pytest.raises(ParseError):
            initial_expression(LOAD_PROGRAM, heap, text)
        assert heap.entries == before.entries and heap.index == before.index


def test_expression_reprs_are_bounded():
    e = ECon("pair", (ELoc(0), ECall("f", ())))
    assert repr(e) == "ECon('pair', [ELoc(0), ECall('f', [])])"
    assert repr(EAnnot("g", (1,), e)) == f"EAnnot('g', (1,), {e!r})"
    deep = ELoc(0)
    for i in range(5000):
        deep = (ECon if i % 2 else ECall)("s", (deep,))
    deep = EAnnot("f", (0, 1), deep)
    text = repr(deep)
    assert len(text) == REPR_CHARS + 3
    assert text.startswith("EAnnot('f', (0, 1), ECon('s', [ECall('s', [")
    shared = ECall("f", ())
    for _ in range(30):
        shared = ECon("pair", (shared, shared))
    start = time.perf_counter()
    assert len(repr(shared)) == REPR_CHARS + 3
    assert time.perf_counter() - start < 0.5


def test_unfold_expression_drops_annotations(programs):
    heap = Heap()
    z = heap.merge("zero", ())
    e = EAnnot("id", (z,), ECon("suc", (ELoc(z),)))
    assert unfold_expression(heap, e) == suc_chain(1)


# ------------------------------------------------------------- budgets


def test_budget_cuts_off_with_stats(programs):
    p = programs["rabbits"]
    heap, expr = initial_call(p, "rabbits", [suc_chain(10)])
    with pytest.raises(BudgetExceededError) as e:
        run(p, heap, expression_code(expr), step_budget=7)
    assert e.value.budget == 7
    assert e.value.stats.total <= 7
    assert default_step_budget(p, expr) == 6 * 10**7 + 1


def test_well_formedness_detects_problems():
    heap = Heap()
    z = heap.merge("zero", ())
    ok = Configuration({}, heap, ELoc(z))
    assert check_well_formed(ok) == []
    bad_cache = Configuration({("f", (9,)): z}, heap, ELoc(z))
    assert any("dangling" in p for p in check_well_formed(bad_cache))
    hole = Configuration({}, heap, ECon("suc", (EHole(),)))
    assert any("hole" in p for p in check_well_formed(hole))
    stored = Configuration({("f", (z,)): z}, heap, EAnnot("f", (z,), ELoc(z)))
    assert any("coexists" in p for p in check_well_formed(stored))
