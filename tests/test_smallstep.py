import io
import random
import time

import pytest

from memotrs import (
    App,
    BudgetExceededError,
    Configuration,
    ECall,
    ECon,
    ELoc,
    Heap,
    HeapError,
    MemoStats,
    Program,
    Signature,
    Var,
    eval_memo,
    initial_expression,
    minimal_shared_size,
    naive_run,
    program_delta,
    run,
    run_traced,
)
from memotrs.terms import REPR_CHARS, vars_of
from helpers import (
    complete_tree,
    rabbit_tree,
    random_program,
    random_value,
    store_value,
    suc_chain,
)
from oracle import (
    EAnnot,
    EHole,
    EvalContext,
    applicable_step_kinds,
    check_well_formed,
    configuration_size,
    decompose,
    default_step_budget,
    expr_equal,
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
    heap = Heap.empty()
    heap.merge("zero", ())
    cfg = Configuration({("id", (0,)): 0}, heap, ECall("id", (ELoc(0),)))
    cfg, kind = step(cfg, p)
    assert kind == "read"
    assert expr_equal(cfg.expr, ELoc(0))
    assert cfg.heap is heap  # reading touches nothing


def test_merge_step_stores_constructor(programs):
    p = programs["add"]
    heap = Heap.empty()
    z = heap.merge("zero", ())
    cfg = Configuration({}, heap, ECon("suc", (ELoc(z),)))
    cfg, kind = step(cfg, p)
    assert kind == "merge"
    assert cfg.heap.entry(cfg.expr.loc) == ("suc", (0,))


def test_machine_totals_for_id(programs):
    p = programs["id"]
    heap, expr = initial_call(p, "id", [App("zero", ())])
    cfg, stats = run(p, heap, expr)
    assert stats.applies == 1 and stats.total == 2
    assert cfg.heap.unfold(cfg.expr.loc) == App("zero", ())


# ---------------------------------------------------------- whole runs


def test_run_matches_manual_stepping(programs):
    p = programs["rabbits"]
    heap, expr = initial_call(p, "rabbits", [suc_chain(5)])
    observed = []
    cfg, stats = run(
        p, heap, expr, on_step=lambda i, k, w, h, c: observed.append((i, k, w, h, c))
    )
    mcfg, kinds, seen = drive(p, heap, expr)
    assert [k for _, k, *_ in observed] == kinds
    assert expr_equal(mcfg.expr, cfg.expr)
    assert mcfg.cache == cfg.cache
    assert mcfg.heap.nodes() == cfg.heap.nodes()
    assert stats.total == len(kinds)
    # the incremental weight column equals the recomputed weight
    for (_, _, w, h, c), after in zip(observed, seen[1:]):
        assert w == expression_weight(after.expr)
        assert h == after.heap.node_count
        assert c == len(after.cache)


def test_run_refuses_what_the_loader_never_builds(programs):
    p = programs["rabbits"]
    heap, call = initial_call(p, "rabbits", [suc_chain(3)])
    z = call.args[0].loc
    nodes = heap.nodes()
    for expr in [
        EAnnot("rabbits", (z,), ELoc(z)),
        EAnnot("rabbits", (z,), ECall("babies", (ELoc(z),))),
        ECon("m", (ECall("adults", (ELoc(z),)), EHole())),
        EHole(),
    ]:
        steps = []
        with pytest.raises(HeapError):
            run(p, heap, expr, on_step=lambda *row: steps.append(row))
        assert steps == [] and heap.nodes() == nodes


def test_rabbits_generation_six_run(programs):
    p = programs["rabbits"]
    heap, expr = initial_call(p, "rabbits", [suc_chain(6)])
    cfg, stats = run(p, heap, expr)
    loc = cfg.expr.loc
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
        cfg, stats = run(p, heap, expr)
        loc = cfg.expr.loc
        assert cfg.heap.reachable_count(loc) == n + 1
        assert cfg.heap.unfolded_size(loc) == 2 ** (n + 1) - 1
        assert stats.applies == 2 * n + 1
    heap, expr = initial_call(p, "tree", [suc_chain(4)])
    cfg, _ = run(p, heap, expr)
    assert cfg.heap.unfold(cfg.expr.loc) == complete_tree(4)


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
            assert after.heap.nodes()[: cfg.heap.node_count] == cfg.heap.nodes()
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
        _, stats = run(p, heap, expr)
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
        heap, expr = initial_expression(p, Heap.empty(), call)
        cfg, stats = run(p, heap, expr)
        memo = eval_memo(p, {}, call)
        assert stats.applies == memo.cost
        assert cfg.heap.unfold(cfg.expr.loc) == memo.value


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
        cfg, stats = run(p, heap, expr)
        memo_stats = MemoStats()
        memo = eval_memo(p, {}, call, stats=memo_stats)
        assert stats.applies == memo.cost
        assert cfg.heap.unfold(cfg.expr.loc) == memo.value
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
        heap, expr = initial_expression(p, Heap.empty(), call)
        cfg, _ = run(p, heap, expr)
        naive = naive_run(p, call, 10**6).value
        assert minimal_shared_size([naive]) == cfg.heap.reachable_count(cfg.expr.loc)


# ------------------------------------------------------------- tracing


def test_trace_rows_and_determinism(programs):
    p = programs["rabbits"]

    def one():
        heap, expr = initial_call(p, "rabbits", [suc_chain(6)])
        buf = io.StringIO()
        cfg, stats = run_traced(p, heap, expr, buf)
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


# ------------------------------------------------- building expressions


def test_initial_expression_mixed_term(programs):
    p = programs["add"]
    term = App("add", (App("suc", (App("add", (suc_chain(0), suc_chain(0))),)), suc_chain(0)))
    heap, expr = initial_expression(p, Heap.empty(), term)
    assert isinstance(expr, ECall)
    inner = expr.args[0]
    assert isinstance(inner, ECon)  # suc over an unevaluated call stays symbolic
    cfg, _ = run(p, heap, expr)
    assert cfg.heap.unfold(cfg.expr.loc) == suc_chain(1)


def test_initial_expression_pure_value(programs):
    p = programs["add"]
    heap, expr = initial_expression(p, Heap.empty(), suc_chain(3))
    assert isinstance(expr, ELoc)
    assert heap.unfold(expr.loc) == suc_chain(3)


def test_initial_expression_numbers_right_to_left(programs):
    # constructor-only subterms are merged children first, last argument first
    term = App("m", (App("rabbits", (App("zero"),)), App("n", (App("leafm"),))))
    heap, expr = initial_expression(programs["rabbits"], Heap.empty(), term)
    assert heap.nodes() == [(0, "leafm", ()), (1, "n", (0,)), (2, "zero", ())]
    assert isinstance(expr, ECon) and expr.args[1].loc == 1


def test_initial_expression_rejects_variables(programs):
    with pytest.raises(HeapError):
        initial_expression(programs["add"], Heap.empty(), App("suc", (Var("x"),)))


def same_shape(a, b) -> bool:
    """Equal expressions with the same sharing: every ECon or ECall object
    of a pairs with exactly one of b. Walks each shared node once."""
    pair: dict[int, int] = {}
    back: dict[int, int] = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if type(x) is ELoc:
            if x.loc != y.loc:
                return False
            continue
        if id(x) in pair or id(y) in back:
            if pair.get(id(x)) != id(y) or back.get(id(y)) != id(x):
                return False
            continue
        pair[id(x)], back[id(y)] = id(y), id(x)
        if x.sym != y.sym or len(x.args) != len(y.args):
            return False
        stack.extend(zip(x.args, y.args))
    return True


def assert_loads_like_reference(program, heap, term):
    """initial_expression and the node-by-node loader agree on the heap
    they leave, the expression's shape and sharing, and HeapError."""
    mine, ref = heap.copy(), heap.copy()
    try:
        _, want = initial_expression_by_node(program, ref, term)
    except HeapError as e:
        with pytest.raises(HeapError) as got:
            initial_expression(program, mine, term)
        assert str(got.value) == str(e)
    else:
        got_heap, got = initial_expression(program, mine, term)
        assert got_heap is mine
        assert same_shape(got, want)
        try:  # a budget of 0 stops run at its first step, with its counts
            _, stats = run(program, got_heap, got, step_budget=0)
        except BudgetExceededError as e:
            stats = e.stats
        assert stats.initial_weight == expression_weight(want)
    assert mine.nodes() == ref.nodes()
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
        heap = Heap.empty()
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


def test_loader_sharing_cases():
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
    warm = Heap.empty()
    store_value(warm, suc(zero, 3))
    store_value(warm, pair(zero, zero))
    for term in cases:
        for heap in (Heap.empty(), warm):
            assert_loads_like_reference(LOAD_PROGRAM, heap, term)
    _, expr = initial_expression(LOAD_PROGRAM, Heap.empty(), suc(f(suc(zero))))
    assert isinstance(expr, ECon) and isinstance(expr.args[0], ECall)


def test_loader_takes_deep_runs():
    n = 200_000
    chain = suc_chain(n)
    heap, expr = initial_expression(LOAD_PROGRAM, Heap.empty(), chain)
    assert isinstance(expr, ELoc) and expr.loc == n and heap.node_count == n + 1
    heap, expr = initial_expression(LOAD_PROGRAM, heap, App("f", (chain,)))
    assert isinstance(expr, ECall) and expr.args[0].loc == n
    assert heap.node_count == n + 1


def test_loader_is_linear_in_distinct_nodes():
    t = suc_chain(50)
    for _ in range(40):  # 2^40 tree nodes, 91 distinct
        t = App("pair", (t, t))
    start = time.perf_counter()
    heap, expr = initial_expression(LOAD_PROGRAM, Heap.empty(), App("f", (t,)))
    assert time.perf_counter() - start < 1.0
    assert heap.node_count == 91 and expr.args[0].loc == 90


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
    heap = Heap.empty()
    z = heap.merge("zero", ())
    e = EAnnot("id", (z,), ECon("suc", (ELoc(z),)))
    assert unfold_expression(heap, e) == suc_chain(1)


# ------------------------------------------------------------- budgets


def test_budget_cuts_off_with_stats(programs):
    p = programs["rabbits"]
    heap, expr = initial_call(p, "rabbits", [suc_chain(10)])
    with pytest.raises(BudgetExceededError) as e:
        run(p, heap, expr, step_budget=7)
    assert e.value.budget == 7
    assert e.value.stats.total <= 7
    assert default_step_budget(p, expr) == 6 * 10**7 + 1


def test_well_formedness_detects_problems():
    heap = Heap.empty()
    z = heap.merge("zero", ())
    ok = Configuration({}, heap, ELoc(z))
    assert check_well_formed(ok) == []
    bad_cache = Configuration({("f", (9,)): z}, heap, ELoc(z))
    assert any("dangling" in p for p in check_well_formed(bad_cache))
    hole = Configuration({}, heap, ECon("suc", (EHole(),)))
    assert any("hole" in p for p in check_well_formed(hole))
    stored = Configuration({("f", (z,)): z}, heap, EAnnot("f", (z,), ELoc(z)))
    assert any("coexists" in p for p in check_well_formed(stored))
