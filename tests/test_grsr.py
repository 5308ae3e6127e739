import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from memotrs import (
    Algebra,
    App,
    Case,
    Comp,
    ConstructorFn,
    FunctionExpr,
    GrsrError,
    ParseError,
    Program,
    Proj,
    SimRec,
    TierSignature,
    check_tiers_explained,
    compile_function,
    default_tier_bound,
    eval_memo,
    format_program,
    format_term,
    infer_tiers,
    infeasibility_reason,
    operation_name,
    parse_grsr,
    rename_operations,
)
from memotrs import grsr
from memotrs.terms import REPR_CHARS
from helpers import nat_of, rabbit_tree, random_grsr, suc_chain

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
from oracle import TierDerivation, derive, eval_grsr, validate_derivation

NAT = Algebra("N", [("zero", 0), ("suc", 1)])
PAIRS = Algebra("P", [("nil", 0), ("pair", 2)])


def leaf_count(t):
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        if not u.args:
            n += 1
        stack.extend(u.args)
    return n


# --------------------------------------------------------- construction


def test_algebra_needs_a_nullary_constructor():
    with pytest.raises(GrsrError):
        Algebra("S", [("s", 1)])
    assert NAT.arity("suc") == 1 and NAT.index("zero") == 0


def test_constructor_fn_checks_membership():
    f = ConstructorFn(NAT, "suc")
    assert f.arity == 1
    with pytest.raises(GrsrError):
        ConstructorFn(NAT, "cons")


def test_proj_bounds():
    assert Proj(3, 2).arity == 3
    with pytest.raises(GrsrError):
        Proj(2, 3)
    with pytest.raises(GrsrError):
        Proj(2, 0)
    with pytest.raises(GrsrError):
        Proj(0, 1)


def test_comp_arity_discipline():
    inc = ConstructorFn(NAT, "suc")
    zero = ConstructorFn(NAT, "zero")
    one = Comp(inc, [zero])
    assert one.arity == 0
    with pytest.raises(GrsrError):
        Comp(inc, [])  # outer needs exactly one inner here
    with pytest.raises(GrsrError):
        Comp(inc, [Proj(1, 1), Proj(2, 1)])  # inner arities disagree


def test_case_branch_discipline():
    with pytest.raises(GrsrError):
        Case(NAT, [ConstructorFn(NAT, "zero")])  # one branch missing
    with pytest.raises(GrsrError):
        # zero branch takes 0 args, suc branch must then take 1
        Case(NAT, [ConstructorFn(NAT, "zero"), Proj(2, 1)])
    ok = Case(NAT, [ConstructorFn(NAT, "zero"), ConstructorFn(NAT, "suc")])
    assert ok.arity == 1


def test_simrec_shape_checks():
    pred_grid = [[ConstructorFn(NAT, "zero")], [Proj(2, 1)]]
    pred = SimRec(NAT, pred_grid)
    assert pred.arity == 1 and pred.components == 1
    with pytest.raises(GrsrError):
        SimRec(NAT, pred_grid, select=2)
    with pytest.raises(GrsrError):
        SimRec(NAT, [[ConstructorFn(NAT, "zero")]])  # one row per constructor
    with pytest.raises(GrsrError):
        # suc row arity must be ar*(1+n)+params = 2, not 3
        SimRec(NAT, [[ConstructorFn(NAT, "zero")], [Proj(3, 1)]])


def test_shape_refusals_name_the_fault():
    zero, pair = ConstructorFn(NAT, "zero"), ConstructorFn(PAIRS, "pair")
    cases = [
        (lambda: Algebra("E", []), "algebra E has no constructors"),
        (lambda: Algebra("R", [("z", 0), ("z", 1)]), "algebra R repeats constructor z"),
        (lambda: Algebra("M", [("z", 0), ("s", -1)]), "negative arity for s"),
        (lambda: Comp(zero, []), "composition needs at least one inner function"),
        (lambda: Comp(pair, [Proj(1, 1), Proj(2, 1)]),
         "composition: inner arities differ: [1, 2]"),
        (lambda: SimRec(NAT, [[Proj(1, 1)], [Proj(3, 2), Proj(3, 2)]]),
         "recursion rows disagree on component count"),
        (lambda: SimRec(NAT, [[], []]), "recursion needs at least one component"),
        (lambda: SimRec(NAT, [[Proj(1, 1)], [zero]]),
         "recursion entry for suc has too few arguments"),
        (lambda: Case(NAT, [Proj(1, 1), zero]), "case branch for suc has too few arguments"),
    ]
    for build, message in cases:
        with pytest.raises(GrsrError) as e:
            build()
        assert str(e.value) == message


def test_structural_keys_drive_equality():
    a = Comp(ConstructorFn(NAT, "suc"), [Proj(1, 1)])
    b = Comp(ConstructorFn(NAT, "suc"), [Proj(1, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Comp(ConstructorFn(NAT, "suc"), [ConstructorFn(NAT, "zero")])


# ----------------------------------------------------------- evaluation


def test_eval_basic_forms():
    assert eval_grsr(ConstructorFn(NAT, "zero"), []) == App("zero", ())
    assert eval_grsr(Proj(2, 1), [suc_chain(1), suc_chain(2)]) == suc_chain(1)
    one = Comp(ConstructorFn(NAT, "suc"), [ConstructorFn(NAT, "zero")])
    assert eval_grsr(one, []) == suc_chain(1)
    pred = SimRec(NAT, [[ConstructorFn(NAT, "zero")], [Proj(2, 1)]])
    assert eval_grsr(pred, [suc_chain(4)]) == suc_chain(3)
    assert eval_grsr(pred, [suc_chain(0)]) == suc_chain(0)


def test_eval_checks_argument_count_and_algebra():
    with pytest.raises(GrsrError):
        eval_grsr(Proj(2, 1), [suc_chain(1)])
    pred = SimRec(NAT, [[ConstructorFn(NAT, "zero")], [Proj(2, 1)]])
    with pytest.raises(GrsrError):
        eval_grsr(pred, [App("leaf", ())])


def test_eval_add(functions):
    add = functions["add"].lookup("add").expr
    for i in range(6):
        for j in range(6):
            got = eval_grsr(add, [suc_chain(i), suc_chain(j)])
            assert nat_of(got) == i + j


def test_eval_simultaneous_recursion(functions):
    f = functions["rabbits"]
    adults = f.lookup("adults").expr
    babies = f.lookup("babies").expr
    rabbits = f.lookup("rabbits").expr
    assert eval_grsr(adults, [suc_chain(0)]) == App("leafm", ())
    assert eval_grsr(babies, [suc_chain(0)]) == App("leafn", ())
    assert eval_grsr(babies, [suc_chain(1)]) == App("n", (App("leafm", ()),))
    for n in range(9):
        assert eval_grsr(rabbits, [suc_chain(n)]) == rabbit_tree(n)


def test_eval_scales_to_deep_and_repeating_recursions(functions):
    """The oracle is iterative and evaluates each component once per
    subterm: add recurses 5000 deep, and rabbits at 200 generations
    repeats each component on each subterm Fibonacci-many times."""
    add = functions["add"].lookup("add").expr
    rabbits = functions["rabbits"].lookup("rabbits").expr
    t0 = time.perf_counter()
    sum_is_right = eval_grsr(add, [suc_chain(5000), suc_chain(2)]) == suc_chain(5002)
    tree_is_right = eval_grsr(rabbits, [suc_chain(200)]) == rabbit_tree(200)
    seconds = time.perf_counter() - t0
    assert sum_is_right and tree_is_right and seconds < 2


def test_eval_leafs(functions):
    leafs = functions["leafs"].lookup("leafs").expr
    assert eval_grsr(leafs, [App("m", (App("leafm", ()), App("leafn", ())))]) == suc_chain(2)
    for n in range(1, 8):
        tree = rabbit_tree(n)
        assert nat_of(eval_grsr(leafs, [tree])) == leaf_count(tree)


# ------------------------------------------------------------- tiering


def test_add_accepts_its_annotation(functions):
    add = functions["add"].lookup("add").expr
    assert check_tiers_explained(add, TierSignature((2, 1), 1)) is None
    d = derive(add, TierSignature((2, 1), 1))
    validate_derivation(d)
    assert d.signature == TierSignature((2, 1), 1)


def test_add_rejects_flat_tiers(functions):
    add = functions["add"].lookup("add").expr
    reason = check_tiers_explained(add, TierSignature((1, 1), 1))
    assert "below a required minimum" in reason
    assert derive(add, TierSignature((1, 1), 1)) is None
    # tierable defs refuse all-zero tiers with a reason
    for name, entry in (("add", "add"), ("rabbits", "rabbits"), ("arith", "cube")):
        f = functions[name].lookup(entry).expr
        assert infeasibility_reason(f) is None and infer_tiers(f, 2)
        assert check_tiers_explained(f, TierSignature((0,) * f.arity, 0)) is not None


def test_add_inference(functions):
    add = functions["add"].lookup("add").expr
    assert default_tier_bound(add) == 2
    got = infer_tiers(add, default_tier_bound(add))
    assert got == [
        TierSignature((1, 0), 0),
        TierSignature((2, 0), 0),
        TierSignature((2, 1), 1),
    ]


def test_inference_is_monotone_in_the_bound(functions):
    add = functions["add"].lookup("add").expr
    assert set(infer_tiers(add, 1)) <= set(infer_tiers(add, 2))
    assert set(infer_tiers(add, 2)) <= set(infer_tiers(add, 3))


def test_inference_refuses_too_many_tuples(monkeypatch):
    monkeypatch.setattr(grsr, "MAX_TIER_TUPLES", 16)
    assert len(infer_tiers(Proj(3, 1), 1)) == 8  # 2^4 tuples, at the bound
    for f, t_max in [(Proj(4, 1), 1), (ConstructorFn(NAT, "zero"), 16)]:
        with pytest.raises(GrsrError, match="more than 16"):
            infer_tiers(f, t_max)
    monkeypatch.undo()
    t0 = time.perf_counter()  # refused before anything is built
    with pytest.raises(GrsrError, match=r"would try 2\^1000000000000000000 tuples"):
        f = Proj(999_999_999_999_999_999, 1)
        infer_tiers(f, default_tier_bound(f))
    assert time.perf_counter() - t0 < 0.1


def test_pinned_inference_is_the_filtered_search(monkeypatch):
    """Pins only narrow the search: what infer_tiers finds with them is what
    it finds without, less the signatures that disagree with a pin. Only
    the open positions count towards MAX_TIER_TUPLES."""
    rng = random.Random(5)
    checked = 0
    for seed in range(40):
        for d in parse_grsr(random_grsr(seed)).defs:
            f = d.expr
            t_max = default_tier_bound(f)
            every = infer_tiers(f, t_max)
            for _ in range(3):
                pins = tuple(rng.choice([None, None, 0, 1, 2, 5]) for _ in range(f.arity + 1))
                want = [s for s in every if all(
                    p is None or p == t for p, t in zip(pins, (*s.inputs, s.output)))]
                assert infer_tiers(f, t_max, pins) == want, (d.name, pins)
                checked += bool(want)
    assert checked > 20
    monkeypatch.setattr(grsr, "MAX_TIER_TUPLES", 16)
    assert infer_tiers(Proj(4, 1), 1, (None, None, 1, None, None)) == [
        TierSignature((t, u, 1, v), t) for t in (0, 1) for u in (0, 1) for v in (0, 1)]
    with pytest.raises(GrsrError, match=r"would try 2\^5 tuples"):
        infer_tiers(Proj(4, 1), 1, (None,) * 5)
    for pins in [(1,), (1, None, None, None, None, 5)]:  # one per input, then the output
        with pytest.raises(GrsrError, match=f"{len(pins)} pins for 4 arguments"):
            infer_tiers(Proj(4, 1), 1, pins)


def test_projection_inference():
    got = infer_tiers(Proj(2, 1), 1)
    assert got == [
        TierSignature((0, 0), 0),
        TierSignature((0, 1), 0),
        TierSignature((1, 0), 1),
        TierSignature((1, 1), 1),
    ]


def test_case_tiers_have_no_strict_edge():
    # a case passes its argument's subterms on at the argument's tier and,
    # unlike a recursion, may return one of them
    zero = ConstructorFn(NAT, "zero")
    pred = Case(NAT, [zero, Proj(1, 1)])
    assert infer_tiers(pred, 1) == [TierSignature((0,), 0), TierSignature((1,), 1)]
    rec_pred = SimRec(NAT, [[zero], [Proj(2, 1)]])
    assert infer_tiers(rec_pred, 1) == []
    assert infeasibility_reason(rec_pred).startswith("recursion argument must sit")


def test_constructor_tiers_are_uniform():
    got = infer_tiers(ConstructorFn(NAT, "suc"), 1)
    assert got == [TierSignature((0,), 0), TierSignature((1,), 1)]


def test_rabbits_signature(functions):
    rabbits = functions["rabbits"].lookup("rabbits").expr
    assert check_tiers_explained(rabbits, TierSignature((1,), 0)) is None
    d = derive(rabbits, TierSignature((1,), 0))
    validate_derivation(d)


def test_leafs_is_untierable(functions):
    leafs = functions["leafs"].lookup("leafs").expr
    assert infer_tiers(leafs, 5) == []
    reason = infeasibility_reason(leafs)
    assert reason is not None and "strictly above" in reason
    why = check_tiers_explained(leafs, TierSignature((1,), 1))
    assert "strictly above" in why
    assert derive(leafs, TierSignature((1,), 1)) is None


def test_signature_arity_must_match(functions):
    add = functions["add"].lookup("add").expr
    with pytest.raises(GrsrError):
        check_tiers_explained(add, TierSignature((1,), 0))


def test_validate_derivation_rejects_corruption(functions):
    add = functions["add"].lookup("add").expr
    d = derive(add, TierSignature((2, 1), 1))
    bad = TierDerivation(add, TierSignature((1, 1), 1), d.premises)
    with pytest.raises(GrsrError):
        validate_derivation(bad)
    lied = TierDerivation(
        Proj(2, 1), TierSignature((0, 0), 1), ()
    )
    with pytest.raises(GrsrError):
        validate_derivation(lied)


def test_validate_derivation_checks_what_each_premise_signs(functions):
    """Each premise must sign its part of the node's expression, and a node
    has one premise per part; a derivation whose tiers all fit but that
    signs another part, or leaves parts out, is refused with GrsrError."""
    add = functions["add"].lookup("add").expr
    comp = Comp(ConstructorFn(add.algebra, "suc"), [Proj(1, 1)])
    at = TierSignature((1,), 1)
    validate_derivation(derive(comp, at))
    proj = TierDerivation(Proj(1, 1), at, ())
    with pytest.raises(GrsrError, match=r"^premise signs proj\[1,1\], not cons\[N\.suc/1\]"):
        validate_derivation(TierDerivation(comp, at, (proj, proj)))
    d = derive(add, TierSignature((2, 1), 1))
    validate_derivation(d)
    with pytest.raises(GrsrError, match="^2 premises wanted, 0 given"):
        validate_derivation(TierDerivation(add, d.signature, ()))
    with pytest.raises(GrsrError, match="^2 premises wanted, 1 given"):
        validate_derivation(TierDerivation(add, d.signature, d.premises[:1]))


def test_tier_entry_points_agree_on_random_files(functions):
    """At every tuple up to default_tier_bound, where there are at most 256,
    infer_tiers finds exactly the signatures check_tiers_explained accepts
    whose derivation stays within the bound; each accepted one derives and
    validates rule by rule, and none refused derives."""
    files = [*functions.values(), *(parse_grsr(random_grsr(seed)) for seed in range(70))]
    validated = beyond = 0
    for gf in files:
        for d in gf.defs:
            f = d.expr
            b = default_tier_bound(f)
            if (b + 1) ** (f.arity + 1) > 256:
                continue
            within = set()
            for *ins, out in product(range(b + 1), repeat=f.arity + 1):
                sig = TierSignature(tuple(ins), out)
                tree = derive(f, sig)
                if check_tiers_explained(f, sig) is not None:
                    assert tree is None, (d.name, sig)
                    continue
                validate_derivation(tree)
                validated += 1
                if highest_tier(tree) <= b:
                    within.add(sig)
                else:
                    beyond += 1
            assert set(infer_tiers(f, b)) == within, d.name
    assert validated > 500 and beyond > 0


def highest_tier(d: TierDerivation) -> int:
    top, stack = 0, [d]
    while stack:
        d = stack.pop()
        top = max(top, d.signature.output, *d.signature.inputs)
        stack.extend(d.premises)
    return top


# ----------------------------------------------------------- compiling


def test_compile_constructor_fn():
    prog, entry = compile_function(ConstructorFn(NAT, "suc"))
    assert entry == "mk_suc"
    assert len(prog.rules) == 1
    r = prog.rules[0]
    assert r.lhs == App("mk_suc", (r.rhs.args[0],))
    assert r.rhs.sym == "suc"


def test_compiled_add_matches_oracle(functions):
    add = functions["add"].lookup("add").expr
    prog, entry = compile_function(add)
    for i in range(7):
        for j in range(7):
            call = App(entry, (suc_chain(i), suc_chain(j)))
            got = eval_memo(prog, {}, call).value
            assert got == eval_grsr(add, [suc_chain(i), suc_chain(j)])


def test_compiled_rabbits_shares_the_grid(functions):
    f = functions["rabbits"]
    rabbits = f.lookup("rabbits").expr
    prog, entry = compile_function(rabbits)
    assert len(prog.signature.operations) == 11
    assert len(prog.rules) == 14
    comps = sorted(op for op in prog.signature.operations if op.startswith("rc"))
    assert len(comps) == 2  # adults and babies come from one rule set
    assert comps[0].split("_")[1] == comps[1].split("_")[1]
    for n in range(9):
        got = eval_memo(prog, {}, App(entry, (suc_chain(n),))).value
        assert got == rabbit_tree(n)


def test_compiled_components_select_correctly(functions):
    f = functions["rabbits"]
    for name in ("adults", "babies"):
        expr = f.lookup(name).expr
        prog, entry = compile_function(expr)
        for n in range(7):
            got = eval_memo(prog, {}, App(entry, (suc_chain(n),))).value
            assert got == eval_grsr(expr, [suc_chain(n)])


def test_compiled_tree(functions):
    tree = functions["tree"].lookup("tree").expr
    prog, entry = compile_function(tree)
    assert len(prog.signature.operations) == 5
    assert len(prog.rules) == 6
    from helpers import complete_tree

    for n in range(7):
        got = eval_memo(prog, {}, App(entry, (suc_chain(n),))).value
        assert got == complete_tree(n)


def test_compiled_cost_is_linear(functions):
    """With memoization the compiled programs run in time linear in the
    input, small constants included; spot-check the growth."""
    add = functions["add"].lookup("add").expr
    prog, entry = compile_function(add)
    costs = {}
    for i in (8, 16, 32):
        call = App(entry, (suc_chain(i), suc_chain(3)))
        costs[i] = eval_memo(prog, {}, call).cost
    assert costs[32] - costs[16] == 2 * (costs[16] - costs[8])
    assert costs[32] <= 6 * 32 + 12


def test_renamed_programs_equal_validated_ones():
    # rename_operations builds its program unchecked; validating the same
    # renamed rules must give the same program
    texts = [p.read_text() for p in sorted(PROGRAMS.glob("*.grsr"))]
    texts += [random_grsr(seed) for seed in range(200)]
    renamed_count = 0
    for text in texts:
        defs = parse_grsr(text).defs
        for target in defs:
            program, _ = compile_function(target.expr)
            sig = program.signature
            mapping = {}
            for d in defs:
                name = operation_name(d.expr, sig.constructors)
                if name in sig.operations and d.name not in sig.constructors:
                    mapping.setdefault(name, d.name)
            renamed = rename_operations(program, mapping)
            checked = Program(renamed.signature, renamed.rules)
            assert renamed.signature.constructors == checked.signature.constructors
            assert list(renamed.signature.operations.items()) == list(
                checked.signature.operations.items())
            assert format_program(renamed) == format_program(checked)
            assert list(renamed.by_op) == list(checked.by_op)
            assert all(renamed.by_op[op] == checked.by_op[op] for op in checked.by_op)
            renamed_count += renamed.signature.operations.keys() != sig.operations.keys()
    assert renamed_count > 200


def test_rename_operations(functions):
    f = functions["rabbits"]
    rabbits = f.lookup("rabbits").expr
    prog, entry = compile_function(rabbits)
    renamed = rename_operations(prog, {entry: "rabbits"})
    assert "rabbits" in renamed.signature.operations
    assert entry not in renamed.signature.operations
    got = eval_memo(renamed, {}, App("rabbits", (suc_chain(6),))).value
    assert got == rabbit_tree(6)
    # constructors never change, even if mentioned
    same = rename_operations(prog, {"leafn": "x"})
    assert "leafn" in same.signature.constructors
    with pytest.raises(GrsrError):
        rename_operations(prog, {entry: "leafn"})  # collides with a constructor
    # an operation left alone moves out of the way of a name given to another
    prog, entry = compile_function(Comp(Proj(2, 1), [Proj(1, 1), Proj(1, 1)]))
    renamed = rename_operations(prog, {"pr2_1": "pr1_1", entry: "f"})
    assert list(renamed.signature.operations) == ["pr1_1", "pr1_1_1", "f"]
    assert [f"{format_term(r.lhs)} -> {format_term(r.rhs)}" for r in renamed.rules] == [
        "pr1_1(x1, x2) -> x1", "pr1_1_1(x1) -> x1", "f(x1) -> pr1_1(pr1_1_1(x1), pr1_1_1(x1))"]
    twice = rename_operations(prog, {"pr2_1": "pr1_1", entry: "pr1_1_1"})
    assert list(twice.signature.operations) == ["pr1_1", "pr1_1_2", "pr1_1_1"]


def test_operation_name_is_the_compiled_entry(functions):
    files = [*functions.values(), *(parse_grsr(random_grsr(seed)) for seed in range(80))]
    seen: Counter = Counter()
    for gf in files:
        for i, d in enumerate(gf.defs):
            assert operation_name(d.expr) == compile_function(d.expr)[1], d.name
            f = d.expr
            seen[type(f).__name__] += 1
            seen["multi-component rec"] += type(f) is SimRec and f.components > 1
            seen["alias"] += any(e.expr is f for e in gf.defs[:i])
    for form in ("ConstructorFn", "Proj", "Comp", "Case", "SimRec",
                 "multi-component rec", "alias"):
        assert seen[form] >= 5, form


def test_operation_name_is_fresh_against_the_constructors():
    """Helpers named like a constructor move to <name>_<k>, in the compiled
    program and in operation_name given its constructors alike."""
    gf = parse_grsr(
        "algebra N = zero/0, suc/1, mk_zero/0, pr1_1/0 ;\n"
        "def z = cons[zero] ;\ndef p = proj 1 1 ;\n"
        "def c = rec over N { zero => cons[zero] ; suc => comp p (proj 2 1) ;"
        " mk_zero => comp cons[suc] (cons[zero]) ; pr1_1 => cons[zero] ; } ;\n"
    )
    # p's own program declares no constructor; in c's, pr1_1 is one
    for d, want in zip(gf.defs, ["mk_zero_1", "pr1_1", None]):
        prog, entry = compile_function(d.expr)
        cons = prog.signature.constructors
        assert operation_name(d.expr, cons) == entry, d.name
        assert not cons.keys() & prog.signature.operations.keys()
        assert want is None or entry == want
    assert operation_name(gf.defs[0].expr) == "mk_zero"
    assert "pr1_1_1" in compile_function(gf.defs[-1].expr)[0].signature.operations


def test_default_tier_bound_counts_each_grid_once(functions):
    zero = ConstructorFn(NAT, "zero")
    pred = SimRec(NAT, [[zero], [Proj(2, 1)]])
    twin = SimRec(NAT, [[zero], [Proj(2, 1)]])  # the same grid, another object
    double = SimRec(NAT, [[zero], [Comp(ConstructorFn(NAT, "suc"), [Proj(2, 2)])]])
    assert default_tier_bound(pred) == 2
    assert default_tier_bound(Comp(pred, [twin])) == 2
    assert default_tier_bound(Comp(pred, [Comp(double, [twin])])) == 3
    assert default_tier_bound(Case(NAT, [zero, Comp(double, [Proj(1, 1)])])) == 2
    # adults and babies select two components of one grid
    rabbits = functions["rabbits"]
    r = Algebra("R", [("leafn", 0), ("leafm", 0), ("n", 1), ("m", 2)])
    both = Comp(ConstructorFn(r, "m"),
                [rabbits.lookup("adults").expr, rabbits.lookup("babies").expr])
    assert default_tier_bound(both) == 2
    # the last def's tree doubles twenty times; each subexpression object
    # is visited once
    last = parse_grsr(doubling_defs(20)).defs[-1].expr
    t0 = time.perf_counter()
    assert default_tier_bound(last) == 2
    assert time.perf_counter() - t0 < 0.05


def test_arith_costs_follow_the_recursion_nesting(functions):
    """programs/arith.grsr nests recursions: add in mul, mul in sq, mul and
    sq in cube. The memo cost m of each compiled def, with every argument
    n, grows as n to the depth of that nesting."""
    arith = functions["arith"]
    want = {  # def: (value at 3, degree, m at n = 10, 20, 40)
        "add": (6, 1, [42, 82, 162]),
        "mul": (9, 2, [484, 1764, 6724]),
        "sq": (9, 2, [485, 1765, 6725]),
        "cube": (27, 3, [4596, 34186]),  # n = 40 alone would take a second
    }
    for name, (value, degree, costs) in want.items():
        prog, entry = compile_function(arith.lookup(name).expr)
        arity = prog.signature.operations[entry]
        assert nat_of(eval_memo(prog, {}, App(entry, (suc_chain(3),) * arity)).value) == value
        ms = [eval_memo(prog, {}, App(entry, (suc_chain(n),) * arity)).cost
              for n in (10, 20, 40)[:len(costs)]]
        assert ms == costs, name
        for lo, hi in zip(ms, ms[1:]):
            assert abs(math.log2(hi / lo) - degree) <= 0.15, (name, lo, hi)


def test_exp_is_untierable_and_its_cost_explodes(functions):
    """programs/exp.grsr doubles its result at each step: the tier checker
    finds no signature for exp, and the memo cost m of the compiled def on
    suc^n(zero) grows 16-fold every 4 steps of n (196,658 at n = 16, left
    out as it takes about 0.4 s)."""
    f = functions["exp"].lookup("exp").expr
    assert infer_tiers(f, default_tier_bound(f)) == []
    assert "recursion argument must sit strictly above" in infeasibility_reason(f)
    prog, entry = compile_function(f)
    results = [eval_memo(prog, {}, App(entry, (suc_chain(n),))) for n in (8, 12)]
    assert [nat_of(out.value) for out in results] == [2**8, 2**12]
    assert [out.cost for out in results] == [794, 12326]


# ------------------------------------------------------------- walking


class Mystery(FunctionExpr):
    """A function form that is none of the five."""

    def __init__(self):
        self.arity = 1
        self.key = "mystery"


def test_unknown_forms_are_refused():
    odd = Mystery()
    walks = [lambda f: infer_tiers(f, 1), infeasibility_reason, compile_function,
             lambda f: check_tiers_explained(f, TierSignature((0,), 0))]
    for f, calls in ((odd, walks + [operation_name]),
                     (Comp(ConstructorFn(NAT, "suc"), [odd]), walks)):
        for call in calls:
            with pytest.raises(GrsrError, match="^unknown function form mystery$"):
                call(f)


def test_a_constructor_at_two_arities_is_refused():
    a = Algebra("A", [("c", 0), ("s", 1)])
    b = Algebra("B", [("c", 1), ("z", 0)])
    with pytest.raises(GrsrError, match="^constructor c declared at two arities$"):
        compile_function(Comp(ConstructorFn(b, "c"), [ConstructorFn(a, "c")]))


def nested(outer: FunctionExpr, base: FunctionExpr, depth: int) -> FunctionExpr:
    e = base
    for _ in range(depth):
        e = Comp(outer, [e])
    return e


@pytest.mark.parametrize("depth", [3, 3000])
def test_deep_expressions_tier_and_compile(depth):
    """Library-built expressions meet no nesting limit, so every pass over
    one must get by without recursion."""
    sucs = nested(ConstructorFn(NAT, "suc"), Proj(1, 1), depth)
    assert [str(s) for s in infer_tiers(sucs, 1)] == ["(0) -> 0", "(1) -> 1"]
    # zr maps every number to zero, by a recursion: each one nested needs
    # its argument a tier higher
    zr = SimRec(NAT, [[ConstructorFn(NAT, "zero")], [Proj(2, 2)]])
    zrs = nested(zr, Proj(1, 1), depth)
    assert check_tiers_explained(zrs, TierSignature((depth,), 0)) is None
    d = derive(zrs, TierSignature((depth,), 0))
    assert d.signature == TierSignature((depth,), 0)
    count, stack = 0, [d]
    while stack:
        node = stack.pop()
        count += 1
        assert isinstance(node.signature, TierSignature)
        stack.extend(node.premises)
    assert count == 4 * depth + 1  # each comp, zr and zr's two entries, and proj 1 1
    validate_derivation(d)
    assert check_tiers_explained(zrs, TierSignature((depth - 1,), 0)) == (
        f"tier {depth - 1} pinned below a required minimum of {depth}")
    assert infeasibility_reason(zrs) is None
    assert default_tier_bound(zrs) == 2
    prog, entry = compile_function(zrs)
    assert len(prog.rules) == depth + 5  # the comps, zr's two, mk_zero, pr2_2, pr1_1
    assert eval_memo(prog, {}, App(entry, (suc_chain(5),))).value == suc_chain(0)


def doubling_defs(n: int) -> str:
    """A file of n + 1 defs, each using the one before it twice, so the
    last one's tree doubles n times."""
    lines = ["algebra N = zero/0, suc/1 ;", "algebra P = nil/0, p/2 ;",
             "def d0 = rec over N { zero => cons[nil] ; suc => proj 2 2 ; } ;"]
    lines += [f"def d{i + 1} = comp cons[p] (d{i}, d{i}) ;" for i in range(n)]
    return "\n".join(lines)


def test_keys_have_a_fixed_size():
    one = Comp(ConstructorFn(NAT, "suc"), [Proj(1, 1)])
    deep = nested(ConstructorFn(NAT, "suc"), Proj(1, 1), 3000)
    doubled = parse_grsr(doubling_defs(20)).defs[-1].expr
    assert len(deep.key) <= len(one.key) and len(doubled.key) <= len(one.key)
    assert deep != nested(ConstructorFn(NAT, "suc"), Proj(1, 1), 2999)
    assert repr(one) == "comp(cons[N.suc/1];proj[1,1])"


def test_doubling_defs_and_deep_chains_take_little_memory():
    tracemalloc.start()
    try:
        prog, entry = compile_function(parse_grsr(doubling_defs(20)).defs[-1].expr)
        compiled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        nested(ConstructorFn(NAT, "suc"), Proj(1, 1), 3000)
        built = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert compiled < 5e6 and built < 5e6, (compiled, built)
    assert len(prog.rules) == 25  # d0's two, mk_nil, pr2_2, mk_p, a comp per d<i>
    t0 = time.perf_counter()
    prog, entry = compile_function(parse_grsr(doubling_defs(60)).defs[-1].expr)
    assert time.perf_counter() - t0 < 1 and len(prog.rules) == 65


def test_long_notes_are_cut():
    # add(add(x, y), y) recurses on add's result, whose tier is y's; add's
    # zero case returns the parameter by a 4,096-leaf tree of pairs
    pair, pairs = ConstructorFn(Algebra("P", [("nil", 0), ("p", 2)]), "p"), Proj(1, 1)
    for _ in range(12):
        pairs = Comp(pair, [pairs, pairs])
    add = SimRec(NAT, [[pairs], [Comp(ConstructorFn(NAT, "suc"), [Proj(3, 2)])]])
    reason = infeasibility_reason(Comp(add, [add, Proj(2, 2)]))
    head = "recursion argument must sit strictly above the result in "
    assert reason.startswith(head + "rec[N{zero/0,suc/1}](comp(cons[P.p/2];comp(")
    assert reason.endswith("...") and len(reason) == len(head) + REPR_CHARS + 3


# -------------------------------------------------------------- parsing


def test_parse_annotations(functions):
    add_def = functions["add"].lookup("add")
    assert add_def.tier_inputs is not None
    assert add_def.tier_inputs == (2, 1) and add_def.tier_output == 1
    one_def = functions["leafs"].lookup("one")
    assert one_def.tier_inputs is None


def test_parse_partial_annotation():
    f = parse_grsr(
        "algebra N = zero/0, suc/1 ;\n"
        "def f : N x N@1 -> N = proj 2 2 ;\n"
    )
    d = f.lookup("f")
    assert d.tier_inputs is not None
    assert d.tier_inputs == (None, 1) and d.tier_output is None


def test_parse_select_defaults_to_first_component(functions):
    f = functions["rabbits"]
    assert f.lookup("adults").expr.select == 1
    assert f.lookup("babies").expr.select == 2


def test_parse_branch_order_is_free():
    text = (
        "algebra N = zero/0, suc/1 ;\n"
        "def pred = rec over N { suc => proj 2 1 ; zero => cons[zero] ; } ;\n"
    )
    pred = parse_grsr(text).lookup("pred").expr
    assert eval_grsr(pred, [suc_chain(3)]) == suc_chain(2)


def test_parse_errors():
    head = "algebra N = zero/0, suc/1 ;\n"
    bad = [
        head + "def f = proj 2 3 ;",  # projection out of range
        head + "def f = cons[nope] ;",  # unknown constructor
        head + "def f = g ;",  # unknown reference
        head + "def rec = cons[zero] ;",  # keyword as a name
        head + "def f = case over N { zero => cons[zero] ; } ;",  # missing branch
        head + "def f = case over N { zero => cons[zero] ;"
        " zero => cons[zero] ; suc => proj 1 1 ; } ;",  # duplicate branch
        head + "algebra M = zero/0 ;\ndef f = cons[zero] ;",  # constructor reuse
        head + "def f : N -> N = cons[zero] ;",  # annotation arity mismatch
        head + "def f = rec over N { zero => proj 1 1 ; suc"
        " => comp cons[suc] (proj 3 2) ; } select 2 ;",  # no second component
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_grsr(text)


def test_parse_reports_positions():
    with pytest.raises(ParseError) as e:
        parse_grsr("algebra N = zero/0, suc/1 ;\ndef f = proj 2 3 ;\n")
    assert e.value.line == 2


def test_parse_refusals_name_the_fault_and_its_position():
    head = "algebra N = zero/0, suc/1 ;\n"
    cases = [
        ("algebra 3 = zero/0 ;", 1, 9, "expected an algebra name"),
        (head + "fun f = proj 1 1 ;", 2, 1, "expected 'algebra' or 'def'"),
        # a refused name is reported where the name stands
        (head + "# again\n\talgebra N = z/0 ;", 3, 10, "algebra N is already declared"),
        (head + "def f = proj 1 1 ;  # once\n  def f = proj 1 1 ;", 3, 7,
         "def f is already declared"),
        (head + "def f : M@1 -> N@0 = proj 1 1 ;", 2, 9, "unknown algebra M"),
        (head + "def f = case over Q { zero => proj 1 1 ; } ;", 2, 19, "unknown algebra Q"),
        (head + "algebra M = zero/0 ;", 2, 13, "constructor zero already belongs to algebra N"),
        (head + "def f = cons[zer] ;", 2, 14, "unknown constructor zer"),
        (head + "def f =\n  comp ; ;", 3, 8, "expected a function expression"),
        (head + "algebra L = nil/0, pair/2 ;\n"
         "def f = case over N { zero => proj 1 1 ;\n nil => proj 1 1 ; } ;", 4, 2,
         "nil is not a constructor of N"),
        (head + "def f : N@2 x N@1 -> N@1 =\n  proj 1 1 ;", 2, 1,
         "def f takes 1 arguments but its annotation lists 2"),
        (head + "   def f : N@2 x N@1 -> N@1 =\n  proj 1 1 ;", 2, 4,  # at its def
         "def f takes 1 arguments but its annotation lists 2"),
    ]
    for text, line, column, message in cases:
        with pytest.raises(ParseError) as e:
            parse_grsr(text)
        assert (e.value.line, e.value.column) == (line, column), text
        assert str(e.value) == f"{line}:{column}: {message}"


def test_forward_references_are_rejected():
    with pytest.raises(ParseError):
        parse_grsr(
            "algebra N = zero/0, suc/1 ;\n"
            "def f = g ;\n"
            "def g = cons[zero] ;\n"
        )


def test_defs_can_reuse_earlier_defs(functions):
    leafs_file = functions["leafs"]
    one = leafs_file.lookup("one").expr
    assert eval_grsr(one, []) == suc_chain(1)
    # leafs mentions add through its m branch
    leafs = leafs_file.lookup("leafs").expr
    assert leafs.arity == 1
