import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memotrs import (
    AmbiguityError,
    App,
    ArityError,
    Heap,
    LinearityError,
    MemotrsError,
    Program,
    Rule,
    RuleError,
    Signature,
    SignatureError,
    Var,
    minimal_shared_size,
    parse_program,
    parse_term,
    patterns_overlap,
    program_delta,
    program_diagnostics,
    term_size,
    terms_equal,
    validate_term,
)
from memotrs.cli import MAX_BUDGET_BITS
from memotrs.parser import load_term
from memotrs.terms import REPR_CHARS, SIZE_CAP
from helpers import complete_tree, enum_values, random_value, subst, suc_chain
from oracle import match_term, minimal_shared_size_by_node

NAT = Signature({"zero": 0, "suc": 1}, {})
FOREST = Signature(
    {"zero": 0, "suc": 1, "leafm": 0, "leafn": 0, "m": 2, "n": 1},
    {"adults": 1, "babies": 1},
)


def test_signature_rejects_overlap_and_negative_arity():
    with pytest.raises(SignatureError):
        Signature({"a": 0}, {"a": 1})
    with pytest.raises(SignatureError):
        Signature({"a": -1}, {})


def test_two_rule_recursion_parses():
    text = """
    constructors: zero/0, suc/1, leafm/0, leafn/0, m/2, n/1;
    operations: adults/1, babies/1;
    rules:
      adults(zero) -> leafm;
      adults(suc(x)) -> m(adults(x), babies(x));
      babies(zero) -> leafn;
      babies(suc(x)) -> n(adults(x));
    """
    p = parse_program(text)
    assert len(p.rules) == 4
    assert len(p.by_op["adults"]) == 2
    rec = p.by_op["adults"][1]
    assert rec.rhs == App("m", (App("adults", (Var("x"),)), App("babies", (Var("x"),))))


def test_overlapping_rules_rejected():
    sig = Signature({"zero": 0}, {"f": 1})
    rules = [
        Rule(App("f", (Var("x"),)), Var("x")),
        Rule(App("f", (App("zero", ()),)), App("zero", ())),
    ]
    with pytest.raises(AmbiguityError):
        Program(sig, rules)


def test_nonlinear_pattern_rejected():
    sig = Signature({"zero": 0}, {"g": 2})
    with pytest.raises(LinearityError):
        Program(sig, [Rule(App("g", (Var("x"), Var("x"))), Var("x"))])


def test_unbound_right_variable_rejected():
    sig = Signature({"zero": 0}, {"f": 1})
    with pytest.raises(RuleError):
        Program(sig, [Rule(App("f", (Var("x"),)), Var("y"))])


def test_operation_inside_pattern_rejected():
    sig = Signature({"zero": 0}, {"f": 1, "g": 1})
    lhs = App("f", (App("g", (Var("x"),)),))
    with pytest.raises(RuleError):
        Program(sig, [Rule(lhs, Var("x"))])


def test_match_binds_and_rejects():
    assert match_term(App("suc", (Var("x"),)), suc_chain(1)) == {"x": App("zero", ())}
    assert match_term(App("zero", ()), suc_chain(1)) is None
    pat = App("m", (Var("a"), Var("b")))
    subject = App("m", (App("leafm", ()), App("n", (App("leafm", ()),))))
    got = match_term(pat, subject)
    assert got == {"a": App("leafm", ()), "b": App("n", (App("leafm", ()),))}


def test_sizes_and_depths():
    assert term_size(App("zero", ())) == 1
    assert term_size(suc_chain(2)) == 3
    assert term_size(App("m", (App("leafm", ()), App("leafn", ())))) == 3


def _tree_size(t):
    """Node count of t walked as a tree: a shared node counts per use."""
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, App):
            stack.extend(node.args)
    return count


def _random_term(rng, shared):
    """A term of arities 0-3 over variables and one constant. Shared, its
    arguments are picked among the nodes built before it; unshared, they
    are fresh."""
    leaves = [lambda: Var("x"), lambda: Var("y"), lambda: App("c", ())]
    if not shared:
        def build(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(leaves)()
            k = rng.randrange(1, 4)
            return App(f"f{k}", tuple(build(depth - 1) for _ in range(k)))

        return build(5)
    pool = [make() for make in leaves]
    for _ in range(rng.randrange(1, 9)):
        k = rng.randrange(4)
        pool.append(App(f"f{k}", tuple(rng.choice(pool) for _ in range(k))))
    return pool[-1]


def test_size_slot_is_the_tree_size():
    rng = random.Random(8)
    for i in range(300):
        t = _random_term(rng, shared=i % 2 == 0)
        assert t.size == _tree_size(t) == term_size(t)
    assert Var("x").size == 1


def _tower_size(k):
    return 2 ** (k + 1) - 1


def _towers(n):
    """towers[k] is a complete binary tree of _tower_size(k) nodes, k + 1
    distinct ones."""
    towers = [App("c", ())]
    for _ in range(n):
        towers.append(App("p", (towers[-1], towers[-1])))
    return towers


# the terms below are too big to print: the tests compare only numbers, so
# that a failure report never shows a term


def test_size_saturates_exactly_at_the_cap():
    assert 2**MAX_BUDGET_BITS < SIZE_CAP  # a saturated size exceeds any CLI budget
    k = SIZE_CAP.bit_length() - 2
    towers = _towers(k + 3)
    below = towers[k]
    x, y = Var("x"), Var("y")
    sizes = [
        below.size,  # one below the cap
        App("s", (below,)).size,  # exactly the cap
        App("s", (App("s", (below,)),)).size,
        App("q", (below, App("c", ()))).size,
        App("t", (below, x, y)).size,
        App("t", (towers[k - 1], x, y)).size,
        towers[k + 1].size,
        towers[k + 3].size,
    ]
    assert _tower_size(k) == SIZE_CAP - 1
    assert sizes == [SIZE_CAP - 1] + [SIZE_CAP] * 4 + [SIZE_CAP // 2 + 2] + [SIZE_CAP] * 2


def test_term_size_is_exact_past_the_cap():
    towers = _towers(80)
    t, exact = towers[80], _tower_size(80)
    sizes = [
        t.size,
        term_size(t),
        term_size(App("s", (t, towers[3]))),
        term_size(App("s", (t, Var("x"), t))),
    ]
    assert sizes == [SIZE_CAP, exact, exact + 16, 2 * exact + 2]
    above = [2**90, exact + 1, exact]
    assert [term_size(t, limit) for limit in above] == [exact] * 3
    below = [exact - 1, 2**70, SIZE_CAP, 2**63, 5]
    assert [term_size(t, limit) for limit in below] == below
    small = towers[10]
    assert [term_size(small, 5000), term_size(small, 100)] == [_tower_size(10), 100]


def test_minimal_shared_size():
    assert minimal_shared_size([App("zero", ())]) == 1
    assert minimal_shared_size([suc_chain(2)]) == 3
    leaf = App("leafm", ())
    assert minimal_shared_size([App("m", (leaf, leaf))]) == 2
    # joint sharing across several terms
    assert minimal_shared_size([suc_chain(2), suc_chain(3)]) == 4
    # a variable is one subterm per name, whichever object holds it
    x, y = Var("x"), Var("y")
    assert minimal_shared_size([App("m", (x, Var("x"))), App("m", (x, y))]) == 4


def test_shared_size_handles_wide_dags():
    # doubling chain: tree is 2^60 nodes, dag is 61
    t = App("leafm", ())
    for _ in range(60):
        t = App("m", (t, t))
    assert minimal_shared_size([t]) == 61


# constructors of _random_roots; s, t and f1 build unary runs
RUNS = Signature({"c": 0, "d": 0, "s": 1, "t": 1, "f1": 1, "f2": 2, "f3": 3}, {})


def _random_roots(rng, ground):
    """Several roots over a pool of nodes: unary runs of up to 300 nodes,
    nodes of arities 0-3, objects shared among them, and equal subterms
    built twice as distinct objects. Unless ground, two objects hold the
    variable x and one y."""
    pool = [App("c", ()), App("d", ())]
    if not ground:
        pool += [Var("x"), Var("x"), Var("y")]
    for _ in range(rng.randrange(1, 25)):
        if rng.random() < 0.4:
            t = rng.choice(pool)
            syms = rng.choice([["s"], ["s", "t"], ["s", "f1"]])
            # lengths repeat, so equal runs are built more than once
            for _ in range(rng.choice([1, 2, 5, 60, 300])):
                t = App(rng.choice(syms), (t,))
        else:
            k = rng.randrange(4)
            sym = {0: "c", 1: "f1", 2: "f2", 3: "f3"}[k]
            t = App(sym, tuple(rng.choice(pool) for _ in range(k)))
        pool.append(t)
    return rng.sample(pool, rng.randrange(1, 4))


def test_minimal_shared_size_agrees_with_the_reference_and_the_heap():
    rng = random.Random(23)
    for i in range(400):
        ground = i % 2 == 0
        roots = _random_roots(rng, ground)
        size = minimal_shared_size(roots)
        assert size == minimal_shared_size_by_node(roots)
        assert minimal_shared_size(reversed(roots)) == size
        if ground:
            # loaded into one maximally shared heap, the roots are its nodes
            heap = Heap()
            for t in roots:
                load_term(t, RUNS, heap)
            assert heap.node_count == size


def test_minimal_shared_size_on_deep_terms():
    # a suc chain, and a binary spine turning left and right over one leaf
    deep = suc_chain(200_000)
    leaf = App("leaf", ())
    spine = App("zero", ())
    for i in range(200_000):
        spine = App("p", (spine, leaf) if i % 2 else (leaf, spine))
    for t, distinct in ((deep, 200_001), (spine, 200_002)):
        start = time.perf_counter()
        assert minimal_shared_size([t]) == distinct
        assert time.perf_counter() - start < 1.0


def test_program_delta(programs):
    assert program_delta(programs["rabbits"]) == 5
    assert program_delta(programs["id"]) == 1
    assert program_delta(programs["tree"]) == 3
    assert program_delta(Program(Signature({"zero": 0}, {"f": 1}), [])) == 0


def test_validate_term_and_is_value():
    validate_term(FOREST, App("adults", (Var("x"),)))
    with pytest.raises(ArityError):
        validate_term(FOREST, App("suc", ()))


def test_diagnostics_collects_everything():
    sig = Signature({"zero": 0, "suc": 1}, {"f": 1, "g": 2})
    rules = [
        Rule(App("g", (Var("x"), Var("x"))), Var("x")),
        Rule(App("f", (Var("x"),)), Var("z")),
        Rule(App("f", (App("zero", ()),)), App("zero", ())),
        Rule(App("f", (App("suc", (Var("y"),)),)), Var("y")),
    ]
    problems = program_diagnostics(sig, rules)
    kinds = sorted(p.split(":")[0] for p in problems)
    assert kinds == ["linearity", "scope"]
    assert program_diagnostics(sig, rules[2:]) == []


def test_pattern_diagnostics_name_the_first_problem_and_count_every_variable():
    # a pattern is walked last argument first; after its first problem the
    # walk goes on counting variables, for the linearity and scope checks
    sig = Signature({"zero": 0, "suc": 1, "pair": 2}, {"f": 1, "g": 2})
    x = Var("x")
    lhs = App("g", (App("pair", (App("f", (x,)), App("suc", (App("zero"), Var("y"))))), x))
    where = "g(pair(f(x), suc(zero, y)), x)"
    assert program_diagnostics(sig, [Rule(lhs, App("pair", (Var("y"), Var("z"))))]) == [
        f"pattern: in {where}: suc declared with arity 1, applied to 2",
        f"linearity: variable x repeated in {where}",
        f"scope: right-hand variable(s) ['z'] of {where} not bound on the left",
    ]


def test_right_hand_diagnostics_name_the_first_problem_and_every_variable():
    # a right-hand side is walked last argument first, once: the walk finds
    # the problem validate_term raises first and goes on collecting variables
    sig = Signature({"zero": 0, "suc": 1, "pair": 2}, {"f": 1})
    x = Var("x")
    rhs = App("pair", (App("h", (Var("z"),)), App("suc", (x, App("zero")))))
    first = "suc declared with arity 1, applied to 2"
    assert program_diagnostics(sig, [Rule(App("f", (x,)), rhs)]) == [
        f"right-hand side of f(x): {first}",
        "scope: right-hand variable(s) ['z'] of f(x) not bound on the left",
    ]
    with pytest.raises(ArityError, match=f"^{first}$"):
        validate_term(sig, rhs)
    with pytest.raises(ArityError, match=f"^right-hand side of f\\(x\\): {first}$"):
        Program(sig, [Rule(App("f", (x,)), rhs)])


def test_diagnostics_reports_ambiguity():
    sig = Signature({"zero": 0}, {"f": 1})
    rules = [
        Rule(App("f", (Var("x"),)), Var("x")),
        Rule(App("f", (App("zero", ()),)), App("zero", ())),
    ]
    problems = program_diagnostics(sig, rules)
    assert len(problems) == 1 and problems[0].startswith("ambiguity:")


def _problem_class(message: str) -> type:
    """The exception class a diagnostic's kind stands for."""
    kind, _, detail = message.partition(": ")
    if kind.startswith("right-hand side of"):
        return SignatureError if "undeclared symbol" in detail else ArityError
    if kind == "pattern":
        return ArityError if "declared with arity" in detail else RuleError
    return {
        "shape": RuleError,
        "arity": ArityError,
        "linearity": LinearityError,
        "scope": RuleError,
        "ambiguity": AmbiguityError,
    }[kind]


DEFECTS_SIG = Signature({"zero": 0, "suc": 1, "pair": 2}, {"f": 1, "g": 2})


def _random_rules(rng: random.Random) -> list[Rule]:
    """One to four rules over DEFECTS_SIG, most of them sound, some with a
    wrong head, arity, pattern symbol, repeated or unbound variable, or an
    undeclared symbol on the right."""
    arities = {**DEFECTS_SIG.constructors, **DEFECTS_SIG.operations, "h": 1}

    def term(depth: int, symbols: list[str]):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.6:
                return Var(rng.choice("xyz"))
            return App("zero", ())
        sym = rng.choice(symbols)
        k = arities[sym] + (rng.choice((-1, 1)) if rng.random() < 0.05 else 0)
        return App(sym, tuple(term(depth - 1, symbols) for _ in range(max(k, 0))))

    rules = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.05:
            lhs = rng.choice((Var("x"), App("suc", (Var("x"),))))
        else:
            op = rng.choice(("f", "g"))
            k = arities[op] + (rng.choice((-1, 1)) if roll < 0.1 else 0)
            cons = ["suc", "pair"] + (["f"] if rng.random() < 0.1 else [])
            lhs = App(op, tuple(term(2, cons) for _ in range(k)))
        rhs_symbols = ["suc", "pair", "f", "g"] + (["h"] if rng.random() < 0.1 else [])
        rules.append(Rule(lhs, term(2, rhs_symbols)))
    return rules


def test_program_raises_its_first_diagnostic():
    """Program accepts exactly the rule lists without diagnostics, and
    otherwise raises the first one, as its kind's class with its text."""
    rng = random.Random(20260)
    seen: set[tuple[str, type]] = set()
    for _ in range(3000):
        rules = _random_rules(rng)
        problems = program_diagnostics(DEFECTS_SIG, rules)
        if not problems:
            assert Program(DEFECTS_SIG, rules).rules == tuple(rules)
            continue
        with pytest.raises(MemotrsError) as e:
            Program(DEFECTS_SIG, rules)
        assert type(e.value) is _problem_class(problems[0])
        assert str(e.value) == problems[0]
        seen.add((problems[0].split(":")[0].split(" of ")[0], type(e.value)))
    assert seen == {
        ("shape", RuleError),
        ("arity", ArityError),
        ("pattern", RuleError),
        ("pattern", ArityError),
        ("linearity", LinearityError),
        ("right-hand side", ArityError),
        ("right-hand side", SignatureError),
        ("scope", RuleError),
        ("ambiguity", AmbiguityError),
    }


# ------------------------------------------------------------ properties


@st.composite
def nat_terms(draw, max_depth: int = 5):
    seed = draw(st.integers(0, 2**32 - 1))
    import random as _r

    return random_value(_r.Random(seed), {"zero": 0, "suc": 1, "m": 2}, max_depth)


@given(nat_terms())
def test_match_substitute_roundtrip(subject):
    # a pattern built by abstracting the children of the subject root
    if not subject.args:
        assert match_term(subject, subject) == {}
        return
    pat = App(subject.sym, tuple(Var(f"v{i}") for i in range(len(subject.args))))
    binding = match_term(pat, subject)
    assert binding is not None
    assert subst(pat, binding) == subject


@given(nat_terms(max_depth=4))
def test_size_bounds_shared_size(t):
    assert 1 <= minimal_shared_size([t]) <= term_size(t)


@given(nat_terms(max_depth=4))
def test_equality_consistent_with_hash(t):
    u = App(t.sym, t.args)
    assert terms_equal(t, u) and t == u and hash(t) == hash(u)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_overlap_agrees_with_shared_instances(seed_a, seed_b):
    """Two linear patterns overlap exactly when some ground value matches
    both; checked against brute-force enumeration of small values."""
    import random as _r

    cons = {"zero": 0, "suc": 1, "m": 2}

    def pattern(rng, depth, counter):
        if depth == 0 or rng.random() < 0.4:
            counter[0] += 1
            return Var(f"w{counter[0]}")
        con = rng.choice(sorted(cons))
        return App(
            con,
            tuple(pattern(rng, depth - 1, counter) for _ in range(cons[con])),
        )

    a = App("f", (pattern(_r.Random(seed_a), 2, [0]),))
    b = App("f", (pattern(_r.Random(seed_b), 2, [0]),))
    values = enum_values(cons, 7)
    witnessed = any(
        match_term(a, App("f", (v,))) is not None
        and match_term(b, App("f", (v,))) is not None
        for v in values
    )
    if witnessed:
        assert patterns_overlap(a, b)
    elif not patterns_overlap(a, b):
        pass
    else:
        # overlap without a small witness: the joint instance must need
        # more than 7 nodes, which linear depth-2 patterns cannot
        pytest.fail("claimed overlap but no witness up to size 7")


def test_format_parse_identity_on_programs(programs):
    from memotrs import format_program

    for name, p in programs.items():
        again = parse_program(format_program(p))
        assert [(r.lhs, r.rhs) for r in again.rules] == [
            (r.lhs, r.rhs) for r in p.rules
        ], name
        assert again.signature.constructors == p.signature.constructors
        assert again.signature.operations == p.signature.operations


def recursive_repr(t) -> str:
    """The repr layout written as plain recursion, for small terms."""
    if isinstance(t, Var):
        return f"Var({t.name!r})"
    if not t.args:
        return f"App({t.sym!r})"
    return f"App({t.sym!r}, [{', '.join(recursive_repr(a) for a in t.args)}])"


def test_repr_of_small_terms_is_the_recursive_layout():
    rng = random.Random(5)
    cons = {"zero": 0, "suc": 1, "pair": 2, "tri": 3}
    for _ in range(200):
        t = random_value(rng, cons, rng.randint(0, 5))
        t = App("f", (t, Var("x"), App("g")))
        assert repr(t) == recursive_repr(t)
    assert repr(App("zero")) == "App('zero')"
    assert repr(suc_chain(1)) == "App('suc', [App('zero')])"
    exact = App("s" * (REPR_CHARS - 7))
    assert repr(exact) == recursive_repr(exact) and len(repr(exact)) == REPR_CHARS
    over = App("s" * (REPR_CHARS - 6))
    assert repr(over) == recursive_repr(over)[:REPR_CHARS] + "..."


def test_repr_is_bounded_on_deep_and_shared_terms():
    deep = repr(suc_chain(5000))
    assert len(deep) == REPR_CHARS + 3 and deep.endswith("...")
    assert deep.startswith("App('suc', [App('suc', [")
    start = time.perf_counter()
    shared = repr(complete_tree(20))  # 21 nodes, 2^21 - 1 as a tree
    assert time.perf_counter() - start < 0.5
    assert len(shared) == REPR_CHARS + 3
    assert shared.startswith("App('branch', [App('branch', [")
