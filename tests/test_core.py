import io
import random

import pytest

from memotrs import (
    App,
    ArityError,
    BudgetExceededError,
    Heap,
    MemotrsError,
    Program,
    SignatureError,
    eval_memo,
    initial_expression,
    naive_run,
    parse_program,
    run,
    run_traced,
    term_size,
)
from memotrs.core import (
    APPLY, CALL, CON, FCALL, FCON, MERGE, READ, RET, STORE, VAR, _Trees, compile_term, execute,
)
from memotrs.terms import term_view, validate_term
from helpers import random_program, random_value, trace_rows
from oracle import expand_fused, unfused


def _leaves(tree) -> list:
    """The body codes at the leaves of a decision tree."""
    if type(tree) is list:
        return [c for t in (*tree[1].values(), tree[2]) for c in _leaves(t)]
    return [] if tree is None else [tree[0]]


class Over(Exception):
    """A term engine's run out of budget, with its counts."""


def _steps(log: list) -> tuple[list, int]:
    """(step index, kind, change of weight) of each step in a term engine's
    step log that has a kind, and the steps logged; a negative entry is that
    many naive steps without one."""
    steps, i = [], 0
    for e in log:
        if type(e) is int:
            assert e < 0  # a term engine merges terms, never locations
            i -= e
            continue
        i += 1
        if type(e) is tuple:
            steps.append((i, APPLY, e[1]))
        else:
            steps.append((i, e, -1) if e is READ or e is STORE else (i, MERGE, -1))
    return steps, i


def _by_terms(program: Program, call: App, budget=None, **domain) -> tuple:
    """A term engine's value, or its counts where the budget ran out, and
    every step with a kind that it logs."""
    log: list = []
    try:
        value, counts = execute(
            program, compile_term(program.signature, call), term_view, App, App, Over,
            limit=budget, log=log.extend, **domain
        )
    except Over as e:
        value, counts = "over", e.args[0]
    steps, logged = _steps(log)
    assert logged == counts[-1] or value == "over"  # a finished run logs every step
    return value, counts, steps


def _by_machine(program: Program, call: App, budget=None) -> tuple:
    """The machine's value, or its counts where the budget ran out, and the
    rows of its trace."""
    out = io.StringIO()
    heap, code = initial_expression(program, Heap(), call)
    try:
        cfg, stats = run_traced(program, heap, code, out, budget)
    except BudgetExceededError as e:
        return "over", tuple(e.stats), trace_rows(out.getvalue())
    return cfg.heap.unfold(cfg.loc), tuple(stats), trace_rows(out.getvalue())


def test_fused_code_runs_as_its_expansion():
    """On each engine, a program's fused bodies give the value, the counts
    (applies, reads, stores, merges, steps) and the logged steps (index,
    kind and change of weight; the machine's trace rows) of the same
    bodies with each fused instruction expanded, without a budget and at
    each budget up to the steps the run takes."""
    rng = random.Random(5)
    fused = kinds = 0
    for seed in range(60):
        p = random_program(seed)
        q = unfused(p)
        for op, arity in sorted(p.signature.operations.items()):
            for _ in range(3):
                call = App(op, tuple(
                    random_value(rng, p.signature.constructors, 3) for _ in range(arity)
                ))
                for engine in (
                    lambda x, budget=None: _by_terms(x, call, budget, cache={}),
                    lambda x, budget=None: _by_terms(x, call, budget, push_cost=term_size),
                    lambda x, budget=None: _by_machine(x, call, budget),
                ):
                    value, counts, steps = engine(p)
                    assert engine(q) == (value, counts, steps), (seed, call)
                    for budget in range(min(counts[-1], 40)):
                        assert engine(p, budget) == engine(q, budget), (seed, call, budget)
        codes = [c for tree in p._code.values() for c in _leaves(tree)]
        ops = [ins[0] for c in codes for ins in c]
        fused += ops.count(FCON) + ops.count(FCALL)
        kinds += FCON in ops and FCALL in ops
        for c in codes:  # the expansion holds no fused instruction and weighs the same
            plain = expand_fused(c)
            assert not {FCON, FCALL} & {ins[0] for ins in plain}
            assert sum(o >= CON for o, _, _ in plain) == sum(o >= CON for o, _, _ in c)
    assert fused > 200 and kinds > 10


def test_fusion_reads_every_slot_order():
    """Arguments that are all variables, in any slot order and of any
    number, fuse into one instruction that reads them from the binding; an
    argument that is not a variable leaves the pushes as they were."""
    p = parse_program(
        "constructors: z/0, s/1, c/3 ; operations: f/2, g/3 ;\n"
        "rules: f(s(x), y) -> g(y, x, y) ; f(z, y) -> c(y, z, y) ;\n"
        "       g(x, y, w) -> c(w, x, y) ;\n"
    )
    trees = _Trees(p)
    code = {op: _leaves(trees[op]) for op in ("f", "g")}
    plain = {op: [expand_fused(c) for c in code[op]] for op in code}
    assert [[ins[:2] for ins in c] for c in code["f"]] == [
        [(VAR, 1), (FCON, "z"), (VAR, 1), (CON, "c"), (RET, None)],  # f(z, y)
        [(FCALL, "g"), (RET, None)],  # f(s(x), y): x is occurrence 2
    ]
    assert plain["f"] == [
        ((VAR, 1, None), (CON, "z", 0), (VAR, 1, None), (CON, "c", 3), (RET, None, None)),
        ((VAR, 1, None), (VAR, 2, None), (VAR, 1, None), (CALL, "g", 3), (RET, None, None)),
    ]
    assert plain["g"] == [
        ((VAR, 2, None), (VAR, 0, None), (VAR, 1, None), (CON, "c", 3), (RET, None, None)),
    ]
    q = unfused(p)
    for n in range(4):
        call = App("f", (App("s", (App("z"),)) if n else App("z"), App("z")))
        assert _by_machine(p, call) == _by_machine(q, call)
        for domain in (lambda: {"cache": {}}, lambda: {"push_cost": term_size}):
            assert _by_terms(p, call, **domain()) == _by_terms(q, call, **domain())


def _engines(program: Program, term: App) -> dict:
    def shared():
        heap = Heap()
        try:
            return run(program, *initial_expression(program, heap, term))
        finally:  # a refused term leaves no ill-formed node behind
            sig = program.signature
            for sym, kids in heap.entries:
                assert sig.constructors.get(sym) == len(kids)

    return {
        "memo": lambda: eval_memo(program, {}, term),
        "naive": lambda: naive_run(program, term),
        "shared": shared,
        "compile": lambda: compile_term(program.signature, term),
    }


def test_inputs_the_signature_rejects_are_refused_before_any_step():
    """An undeclared symbol or a wrong arity in an input raises what
    validate_term raises, on every engine, instead of a KeyError, an
    IndexError or a silent evaluation."""
    add = parse_program(
        "constructors: zero/0, suc/1 ; operations: f/1, g/2 ;\n"
        "rules: f(x) -> x ; g(zero, y) -> y ; g(suc(x), y) -> suc(g(x, y)) ;\n"
    )
    z = App("zero")
    cases = {
        App("h", (z,)): (SignatureError, "undeclared symbol: h"),
        App("f", (App("ff"),)): (SignatureError, "undeclared symbol: ff"),
        App("f", (z, z)): (ArityError, "f declared with arity 1, applied to 2"),
        App("g", (App("suc", (z,)),)): (ArityError, "g declared with arity 2, applied to 1"),
        App("f", ()): (ArityError, "f declared with arity 1, applied to 0"),
        App("suc", (App("suc", (App("suc", (z, z)),)),)): (
            ArityError, "suc declared with arity 1, applied to 2"),
        App("f", (App("suc", (App("zero", (z,)),)),)): (
            ArityError, "zero declared with arity 0, applied to 1"),
        App("g", (App("suc", (z,)), App("f", (App("g", (z,)),)))): (
            ArityError, "g declared with arity 2, applied to 1"),
    }
    for term, (error, message) in cases.items():
        for name, evaluate in _engines(add, term).items():
            with pytest.raises(error, match=f"^{message}$"):
                evaluate()


def test_corrupted_random_inputs_raise_as_validate_term():
    rng = random.Random(3)
    refused = 0
    for seed in range(40):
        p = random_program(seed)
        sig = p.signature
        for op, arity in sorted(sig.operations.items()):
            args = [random_value(rng, sig.constructors, 3) for _ in range(arity)]
            call = App(op, tuple(args))
            # rebuild one random node with another symbol or one argument more or less
            nodes = [call]
            for t in nodes:
                nodes.extend(t.args)
            victim = rng.choice(nodes)

            def corrupt(t: App) -> App:
                if t is victim:
                    roll = rng.random()
                    if roll < 0.3:
                        return App("zz", t.args)
                    if roll < 0.65 or not t.args:
                        return App(t.sym, (*t.args, App("a")))
                    return App(t.sym, t.args[:-1])
                return App(t.sym, tuple(corrupt(a) for a in t.args))

            bad = corrupt(call)
            with pytest.raises(MemotrsError) as want:
                validate_term(sig, bad)
            for name, evaluate in _engines(p, bad).items():
                with pytest.raises(type(want.value)) as got:
                    evaluate()
                assert str(got.value) == str(want.value), (seed, name)
            refused += 1
    assert refused > 60
