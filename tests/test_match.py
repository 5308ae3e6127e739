"""The compiled decision trees against the rule-by-rule matchers of the
oracle, on heap locations (the shared engine) and on terms (memo and
naive).

Each rule's right-hand side is replaced by a constructor `rule<i>` applied
to the rule's variables in name order, so the value of a call names the
rule the tree chose and the binding it made."""

from itertools import product

import pytest

from memotrs import (
    App,
    Heap,
    HeapError,
    Program,
    Rule,
    Signature,
    StuckError,
    Var,
    eval_memo,
    naive_run,
    parse_program,
    parse_term,
    run,
    vars_of,
)
from helpers import enum_values, random_program, store_value
from oracle import ECall, ELoc, expression_code, find_rule, match_call

HAND_WRITTEN = """
constructors: zero/0, suc/1, nil/0, cons/2 ;
operations: half/1, f/2, g/2, k/0, none/1, h/2 ;
rules:
  half(zero) -> zero ;
  half(suc(suc(x))) -> suc(half(x)) ;
  f(x, zero) -> x ;
  f(zero, suc(y)) -> y ;
  g(cons(zero, xs), y) -> xs ;
  g(cons(suc(n), nil), zero) -> n ;
  g(cons(suc(n), cons(m, ms)), suc(y)) -> ms ;
  g(nil, y) -> y ;
  k -> zero ;
  h(zero, suc(y)) -> y ;
  h(x, zero) -> x ;
"""


def reporting(program: Program) -> Program:
    sig = program.signature
    cons = dict(sig.constructors)
    rules = []
    for i, r in enumerate(program.rules):
        names = sorted(vars_of(r.lhs))
        cons[f"rule{i}"] = len(names)
        rules.append(Rule(r.lhs, App(f"rule{i}", tuple(Var(n) for n in names))))
    return Program(Signature(cons, sig.operations), rules)


def call_code(op: str, locs: tuple) -> tuple:
    """The code run takes for the call of op on heap locations."""
    return expression_code(ECall(op, tuple(map(ELoc, locs))))


def check_calls(program: Program, pool: list) -> tuple[set, int]:
    """Every call of every operation on values from pool gets the oracle's
    rule and binding, or its stuck message and witness, from all three
    engines; returns the rules chosen and the number of stuck calls."""
    rep = reporting(program)
    matched: set = set()
    stuck = 0
    for op, arity in program.signature.operations.items():
        for values in product(pool, repeat=arity):
            heap = Heap()
            locs = tuple(store_value(heap, v) for v in values)
            call = App(op, values)
            try:
                rule, by_loc = match_call(program, heap, op, locs)
            except StuckError as e:
                stuck += 1
                want = find_rule_error(program, op, values)
                assert str(want) == str(e)
                assert want.witness == e.witness
                for attempt in (
                    lambda: run(rep, heap, call_code(op, locs)),
                    lambda: eval_memo(rep, {}, call),
                    lambda: naive_run(rep, call),
                ):
                    with pytest.raises(StuckError) as got:
                        attempt()
                    assert str(got.value) == str(e)
                    assert got.value.witness == e.witness
                continue
            matched.add(rule)
            i = program.rules.index(rule)
            names = sorted(by_loc)
            cfg, _ = run(rep, heap, call_code(op, locs))
            assert cfg.heap.entries[cfg.loc] == (
                f"rule{i}", tuple(by_loc[n] for n in names)
            )
            same_rule, by_term = find_rule(program, op, values)
            assert same_rule is rule
            memo = eval_memo(rep, {}, call).value
            assert memo.sym == f"rule{i}"
            # the binding is the matched subterms themselves, not copies
            assert all(a is by_term[n] for a, n in zip(memo.args, names))
            assert naive_run(rep, call).value == memo
    return matched, stuck


def find_rule_error(program: Program, op: str, values: tuple) -> StuckError:
    with pytest.raises(StuckError) as e:
        find_rule(program, op, values)
    return e.value


@pytest.mark.parametrize("seed", range(40))
def test_tree_matches_like_rule_by_rule(seed):
    program = random_program(seed)
    pool = enum_values(program.signature.constructors, 3)
    assert check_calls(program, pool)[0] == set(program.rules)
    # without every third rule some calls are stuck
    partial = Program(program.signature, program.rules[::3] + program.rules[1::3])
    assert check_calls(partial, pool)[0] == set(partial.rules)


def test_tree_on_hand_written_patterns():
    program = parse_program(HAND_WRITTEN)
    sig = program.signature
    deep = [parse_term(t, sig) for t in ("cons(suc(zero), cons(zero, nil))",
                                         "cons(suc(nil), nil)", "suc^3(zero)")]
    matched, stuck = check_calls(program, enum_values(sig.constructors, 4) + deep)
    assert matched == set(program.rules) and stuck
    rep = reporting(program)
    heap = Heap()
    two = store_value(heap, App("suc", (App("suc", (App("zero"),)),)))
    cfg, _ = run(rep, heap, call_code("half", (two,)))
    assert cfg.heap.entries[cfg.loc] == ("rule1", (0,))  # half's x is zero
    with pytest.raises(StuckError, match="no rule matches none/1 call"):
        run(rep, heap, call_code("none", (two,)))
    cfg, _ = run(rep, heap, call_code("k", ()))
    assert cfg.heap.entries[cfg.loc] == ("rule8", ())


def test_run_refuses_unknown_locations():
    program = parse_program(
        "constructors: zero/0 ; operations: id/1 ; rules: id(x) -> x ;"
    )
    heap = Heap()
    store_value(heap, App("zero"))
    for loc in (-1, heap.node_count):
        with pytest.raises(HeapError, match=f"unknown location {loc}"):
            run(program, heap, call_code("id", (loc,)))
