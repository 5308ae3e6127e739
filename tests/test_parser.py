import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memotrs import (
    App,
    Heap,
    HeapError,
    ParseError,
    Program,
    Rule,
    Signature,
    Var,
    eval_memo,
    format_program,
    format_term,
    initial_expression,
    minimal_shared_size,
    naive_run,
    parse_program,
    parse_term,
    run,
    term_size,
    vars_of,
)
from memotrs.parser import MAX_POWER_NODES
from memotrs.terms import rename
from helpers import rabbit_tree, random_program, random_value, store_value, suc_chain

NAT = Signature({"zero": 0, "suc": 1}, {"add": 2})


def test_power_shorthand():
    assert parse_term("suc^5(zero)", NAT) == suc_chain(5)
    assert parse_term("suc^0(zero)", NAT) == App("zero", ())
    assert parse_term("suc^1(zero)", NAT) == suc_chain(1)


def test_power_needs_single_argument():
    with pytest.raises(ParseError):
        parse_term("add^2(zero, zero)", NAT)
    with pytest.raises(ParseError):
        parse_term("suc^2", NAT)


def test_comments_and_whitespace():
    t = parse_term("suc( # inline note\n  zero )", NAT)
    assert t == suc_chain(1)
    p = parse_program(
        "# leading banner\n"
        "constructors: zero/0, suc/1;\n"
        "operations: idn/1;  # trailing\n"
        "rules: idn(x) -> x;\n"
    )
    assert len(p.rules) == 1


def test_undeclared_symbol_position():
    with pytest.raises(ParseError) as e:
        parse_term("suc(boom)", NAT)
    assert e.value.line == 1 and e.value.column == 5


def test_arity_error_position():
    with pytest.raises(ParseError) as e:
        parse_term("add(zero)", NAT)
    assert "arity" in str(e.value)
    assert e.value.line == 1


def test_error_positions_multiline():
    text = "constructors: zero/0,\n  zero/0;\noperations:; rules:"
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert "duplicate" in str(e.value)
    assert e.value.line == 2 and e.value.column == 3


def test_sections_must_appear_in_order():
    with pytest.raises(ParseError):
        parse_program("operations: f/1; constructors: zero/0; rules: f(x) -> x;")


def test_missing_terminator():
    with pytest.raises(ParseError):
        parse_program("constructors: zero/0;\noperations: f/1;\nrules: f(x) -> x")


def test_rule_head_must_be_application():
    with pytest.raises(ParseError):
        parse_program("constructors: zero/0;\noperations: f/1;\nrules: x -> x;")


def test_undeclared_nullary_names_in_rules_are_variables():
    p = parse_program(
        "constructors: zero/0, suc/1;\n"
        "operations: dup/1;\n"
        "rules: dup(suc(k)) -> suc(suc(dup(k))); dup(zero) -> zero;\n"
    )
    lhs = p.rules[0].lhs
    assert lhs.args[0].args[0] == Var("k")


def test_empty_sections_allowed():
    p = parse_program("constructors: zero/0;\noperations:;\nrules:")
    assert p.rules == ()


def test_format_depth_cap_and_compression():
    t = suc_chain(6)
    assert format_term(t) == "suc(suc(suc(suc(suc(suc(zero))))))"
    assert format_term(t, compress=True) == "suc^6(zero)"
    # nodes at depth <= max_depth print, deeper subterms elide
    capped = format_term(t, max_depth=2)
    assert capped == "suc(suc(suc(...)))"
    assert format_term(t, max_depth=0) == "suc(...)"
    # short runs are left alone
    assert format_term(suc_chain(2), compress=True) == "suc(suc(zero))"


def test_format_program_contains_sections(programs):
    out = format_program(programs["add"])
    assert out.index("constructors:") < out.index("operations:") < out.index("rules:")
    assert "add(zero, y) -> y;" in out


def alpha_key(t, order):
    """t with its variables numbered by first occurrence, in order."""
    if type(t) is Var:
        return order.setdefault(t.name, len(order))
    return (t.sym, *(alpha_key(a, order) for a in t.args))


def test_format_program_roundtrips_variables_named_like_symbols():
    renamed = 0
    for seed in range(200):
        rng = random.Random(seed)
        p = random_program(seed)
        sig = p.signature
        symbols = [*sig.constructors, *sig.operations]
        pool = sorted({*symbols, *(f"{s}_1" for s in symbols), "x1", "y1"})
        rules = []
        for r in p.rules:
            names = sorted(vars_of(r.lhs))
            new = dict(zip(names, rng.sample(pool, len(names))))
            rules.append(Rule(rename(r.lhs, {}, new), rename(r.rhs, {}, new)))
        q = Program(sig, rules)
        text = format_program(q)
        back = parse_program(text)
        assert back.signature.constructors == sig.constructors
        assert back.signature.operations == sig.operations
        for r, b, line in zip(q.rules, back.rules, text.splitlines()[3:]):
            order: dict = {}
            key = alpha_key(r.lhs, order), alpha_key(r.rhs, order)
            order = {}
            assert (alpha_key(b.lhs, order), alpha_key(b.rhs, order)) == key
            # only a rule whose variables clash prints under other names
            same = line == f"  {format_term(r.lhs)} -> {format_term(r.rhs)};"
            assert same == vars_of(r.lhs).isdisjoint(symbols), line
            renamed += not same
        assert format_program(back) == text
    assert renamed > 100


@given(st.integers(0, 2**32 - 1))
def test_parse_format_roundtrip(seed):
    import random as _r

    sig = Signature({"zero": 0, "suc": 1, "pair": 2, "wide": 3}, {})
    v = random_value(_r.Random(seed), sig.constructors, 5)
    assert parse_term(format_term(v), sig) == v
    assert parse_term(format_term(v, compress=True), sig) == v


def test_deep_input_is_fine():
    depth = 30_000
    text = "suc(" * depth + "zero" + ")" * depth
    t = parse_term(text, NAT)
    assert format_term(t, compress=True) == f"suc^{depth}(zero)"


# -------------------------------------------- shared terms print as trees

CAPS = [*range(17), None]


def _tree_copy(t):
    """t with a fresh object at every position of its tree."""
    if isinstance(t, Var):
        return Var(t.name)
    return App(t.sym, tuple(_tree_copy(a) for a in t.args))


def _chain(sym, n, inner):
    for _ in range(n):
        inner = App(sym, (inner,))
    return inner


def test_format_shared_answers_as_unshared_copies(programs):
    cases = [
        ("rabbits", App("rabbits", (suc_chain(9),))),
        ("tree", App("tree", (suc_chain(6),))),
        ("add", App("add", (suc_chain(5), suc_chain(4)))),
        ("id", App("id", (suc_chain(4),))),
        ("leafs", App("leafs", (rabbit_tree(6),))),
    ]
    for name, call in cases:
        p = programs[name]
        heap, expr = initial_expression(p, Heap(), call)
        cfg, _ = run(p, heap, expr)
        shared = cfg.heap.unfold(cfg.expr.loc)
        memo = eval_memo(p, {}, call).value
        naive = naive_run(p, call, 10**6).value
        if name in ("rabbits", "tree"):  # one object along several paths
            assert minimal_shared_size([shared]) < term_size(shared)
        copy = _tree_copy(shared)
        for cap in CAPS:
            for compress in (False, True):
                want = format_term(copy, cap, compress)
                assert format_term(naive, cap, compress) == want
                assert format_term(shared, cap, compress) == want
                assert format_term(memo, cap, compress) == want
                # the heap view prints the location as its unfolding prints
                assert format_term(cfg.expr.loc, cap, compress, heap=cfg.heap) == want
    # chains that stop at a variable, at another symbol, and run into a
    # shorter chain; ground values are also printed from a heap holding them
    x = Var("x")
    s3x = _chain("s", 3, x)
    s2 = _chain("s", 2, App("z", ()))
    h = Heap()
    cases = [(App("p", (s3x, _chain("s", 2, x))), None)] + [
        (v, store_value(h, v))
        for v in (
            App("p", (_chain("t", 4, s2), _chain("s", 5, App("q", (s2, s2))))),
            App("p", (s2, _chain("s", 3, App("z", ())))),
        )
    ]
    for term, loc in cases:
        copy = _tree_copy(term)
        for cap in CAPS:
            for compress in (False, True):
                want = format_term(copy, cap, compress)
                assert format_term(term, cap, compress) == want
                if loc is not None:
                    assert format_term(loc, cap, compress, heap=h) == want
    assert [format_term(t, compress=True) for t, _ in cases] == [
        "p(s^3(x), s(s(x)))",
        "p(t^4(s(s(z))), s^5(q(s(s(z)), s(s(z)))))",
        "p(s(s(z)), s^3(z))",
    ]
    for unknown in (-1, h.node_count):
        with pytest.raises(HeapError):
            format_term(unknown, heap=h)


def test_format_one_object_at_two_depths_under_a_cap():
    a = App("a", ())
    x = App("p", (a, a))
    hx = App("h", (x,))
    t = App("g", (x, x, hx, hx))
    assert format_term(t, max_depth=2) == (
        "g(p(a, a), p(a, a), h(p(..., ...)), h(p(..., ...)))"
    )
    # rabbits-like: the same object one level apart along two paths
    r = App("m", (App("m", (x, hx)), x))
    copies = [_tree_copy(t), _tree_copy(r)]
    for cap in CAPS:
        for term, copy in zip((t, r), copies):
            assert format_term(term, cap) == format_term(copy, cap)


def test_format_shared_variables_and_chains():
    x = Var("x")
    inner = App("pair", (x, x))
    s4 = _chain("s", 4, inner)
    t = App("pair", (App("pair", (s4, s4)), App("pair", (s4, inner))))
    assert format_term(t, compress=True) == (
        "pair(pair(s^4(pair(x, x)), s^4(pair(x, x))), pair(s^4(pair(x, x)), pair(x, x)))"
    )
    # the tail of a chain met again on its own prints as the shorter chain
    tail = s4.args[0]
    u = App("pair", (App("pair", (s4, tail)), App("pair", (tail, s4))))
    assert format_term(u, compress=True) == (
        "pair(pair(s^4(pair(x, x)), s^3(pair(x, x))), pair(s^3(pair(x, x)), s^4(pair(x, x))))"
    )
    for term in (t, u):
        copy = _tree_copy(term)
        for cap in CAPS:
            for compress in (False, True):
                assert format_term(term, cap, compress) == format_term(copy, cap, compress)


def test_power_expansion_is_bounded():
    # refused when read, before any node of the power is built
    with pytest.raises(ParseError) as e:
        parse_term(f"suc^{MAX_POWER_NODES + 1}(zero)", NAT)
    assert e.value.line == 1 and e.value.column == 1
    # the limit holds for all powers of one term together
    half = MAX_POWER_NODES // 2
    with pytest.raises(ParseError):
        parse_term(f"add(suc^{half}(zero), suc^{half + 1}(zero))", NAT)
    # a digit string too long for int() is refused too
    with pytest.raises(ParseError):
        parse_term("suc^" + "9" * 5000 + "(zero)", NAT)
    assert parse_term("suc^007(zero)", NAT) == suc_chain(7)


def test_format_shared_list_records_only_its_own_text():
    z = App("z", ())
    lst = App("nil", ())
    for _ in range(2000):
        lst = App("cons", (z, lst))
    one = "cons(z, " * 2000 + "nil" + ")" * 2000
    hl = App("h", (lst,))
    cases = [
        (App("pair", (lst, lst)), f"pair({one}, {one})"),
        # the list met a third time after a recording of h(L) walked it
        (App("f", (hl, hl, lst)), f"f(h({one}), h({one}), {one})"),
    ]
    for t, want in cases:
        for cap in (None, 100_000):
            tracemalloc.start()
            try:
                text = format_term(t, cap)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert text == want
            # recording every suffix of the list as well would hold ~2000 texts
            assert peak < 50 * len(text)
