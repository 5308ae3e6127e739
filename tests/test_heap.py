import random

import pytest

from memotrs import (
    App,
    Configuration,
    ECon,
    ELoc,
    Heap,
    HeapError,
    Var,
    minimal_shared_size,
    term_size,
)
from helpers import complete_tree, random_value, store_value, suc_chain
from oracle import (
    canonical_tree,
    is_maximally_shared,
    match_graph,
    match_pattern_at,
    match_term,
    step,
)


def test_merge_hit_returns_receiver():
    h = Heap()
    a = h.merge("zero", ())
    b = h.merge("zero", ())
    assert a == b == 0
    assert h.node_count == 1
    # on a larger heap too, a hit returns the node's location and adds nothing
    store_value(h, complete_tree(4))
    store_value(h, suc_chain(3))
    before = h.entries.copy()
    for loc, (sym, args) in enumerate(before):
        assert h.merge(sym, args) == loc
    assert h.entries == before


def test_merge_allocates_fresh_nodes_in_order():
    h = Heap()
    z = h.merge("zero", ())
    s = h.merge("suc", (z,))
    assert (z, s) == (0, 1)
    assert h.entry(s) == ("suc", (0,))
    assert h.node_count == 2


def test_merge_rejects_dangling_argument():
    h = Heap()
    h.merge("zero", ())
    with pytest.raises(HeapError):
        h.merge("suc", (7,))
    with pytest.raises(HeapError):
        h.unfold(3)


def test_merge_run_is_merge_node_by_node():
    rng = random.Random(7)
    for _ in range(200):
        one, many = Heap(), Heap()
        for h in (one, many):
            store_value(h, suc_chain(3))
            h.merge("s", (h.merge("zero", ()),))
        bottom = rng.randrange(one.node_count)
        syms = [rng.choice(("suc", "s")) for _ in range(rng.randint(0, 8))]
        locs, loc = [], bottom
        for sym in syms:
            loc = one.merge(sym, (loc,))
            locs.append(loc)
        assert many.merge_run(syms, bottom) == locs
        assert many.entries == one.entries and many.index == one.index
    with pytest.raises(HeapError):
        Heap().merge_run(["suc"], 0)
    with pytest.raises(HeapError):
        many.merge_run([], -1)


def test_store_value_shares_equal_subtrees():
    leaf = App("leaf", ())
    h = Heap()
    root = store_value(h, App("branch", (leaf, App("leaf", ()))))
    assert h.node_count == 2  # one leaf node, one branch node
    assert h.entry(root)[1] == (0, 0)


def test_store_value_counts():
    h = Heap()
    store_value(h, suc_chain(2))
    assert h.node_count == 3
    for n in (1, 5, 9):
        h2 = Heap()
        store_value(h2, complete_tree(n))
        assert h2.node_count == n + 1


def test_store_value_idempotent_same_location():
    h = Heap()
    a = store_value(h, suc_chain(4))
    before = h.entries.copy()
    b = store_value(h, suc_chain(4))
    assert h.entries == before and a == b
    c = store_value(h, suc_chain(2))
    assert h.entries == before and c == 2  # the chain prefix is already present


def test_store_value_rejects_variables():
    with pytest.raises(HeapError):
        store_value(Heap(), App("suc", (Var("x"),)))


def test_unfold_round_trips():
    for value in (App("zero", ()), complete_tree(4), suc_chain(7)):
        h = Heap()
        loc = store_value(h, value)
        assert h.unfold(loc) == value


def test_unfold_shares_term_objects():
    h = Heap()
    loc = store_value(h, complete_tree(3))
    t = h.unfold(loc)
    assert t.args[0] is t.args[1]


def test_unfolded_size_is_arithmetic():
    h = Heap()
    loc = store_value(h, complete_tree(80))
    assert h.node_count == 81
    assert h.unfolded_size(loc) == 2**81 - 1


def test_reachable_count_ignores_unrelated_nodes():
    h = Heap()
    a = store_value(h, suc_chain(3))
    b = store_value(h, App("leaf", ()))
    assert h.reachable_count(a) == 4
    assert h.reachable_count(b) == 1


def test_heap_extension_preserves_entries():
    h = Heap()
    store_value(h, suc_chain(3))
    before = h.entries.copy()
    n = h.node_count
    h.merge("leaf", ())
    assert h.entries[: len(before)] == before
    assert h.node_count == n + 1


def test_merge_into_copy_leaves_original():
    base = Heap()
    z = base.merge("zero", ())
    before = base.entries.copy()
    left, right = base.copy(), base.copy()
    a = left.merge("suc", (z,))
    right.merge("leaf", ())
    # both copies see their own node at location 1
    assert left.entry(1) == ("suc", (0,))
    assert right.entry(1) == ("leaf", ())
    assert base.entries == before
    assert left.merge("suc", (a,)) == 2 and left.entry(2) == ("suc", (1,))
    assert base.entries == before and right.node_count == 2


def test_oracle_step_leaves_input_heap(programs):
    p = programs["add"]
    heap = Heap()
    z = heap.merge("zero", ())
    before = heap.entries.copy()
    cfg = Configuration({}, heap, ECon("suc", (ECon("suc", (ELoc(z),)),)))
    after, kind = step(cfg, p)
    # the merge allocated a node: a new heap, the input's is unchanged
    assert kind == "merge" and after.heap is not heap
    assert heap.entries == before and after.heap.node_count == 2
    # a merge that hits needs no copy
    again, kind = step(Configuration({}, after.heap, ECon("zero", ())), p)
    assert kind == "merge" and again.heap is after.heap and again.expr.loc == z
    assert after.heap.node_count == 2


def test_maximal_sharing_flag():
    assert is_maximally_shared(Heap())
    h = Heap()
    store_value(h, complete_tree(5))
    assert is_maximally_shared(h)
    dup = Heap()
    dup.entries = [("zero", ()), ("zero", ())]
    dup.index = {("zero", ()): 1}
    assert not is_maximally_shared(dup)


def test_unfold_injective_on_shared_heap():
    h = Heap()
    store_value(h, complete_tree(4))
    store_value(h, suc_chain(5))
    trees = [h.unfold(l) for l in range(len(h.entries))]
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            assert trees[i] != trees[j]


def test_node_count_matches_minimal_shared_size():
    rng = random.Random(20)
    cons = {"leaf": 0, "one": 1, "two": 2}
    for _ in range(60):
        v = random_value(rng, cons, 5)
        h = Heap()
        store_value(h, v)
        assert h.node_count == minimal_shared_size([v])


def test_canonical_tree_shapes():
    g = canonical_tree(App("zero", ()))
    assert g.node_count == 1 and g.labels == ["zero"]
    g = canonical_tree(App("branch", (App("leaf", ()), App("leaf", ()))))
    assert g.node_count == 3  # occurrences, not shared nodes
    assert g.labels[g.root] == "branch"
    g = canonical_tree(App("m", (Var("x"), Var("x"))))
    assert g.var_nodes["x"] == (1, 2)
    assert g.var_name(1) == "x" and g.var_name(0) is None


def test_canonical_tree_preorder():
    g = canonical_tree(App("f", (App("a", ()), App("b", ()))))
    assert g.labels == ["f", "a", "b"]
    assert g.children[0] == (1, 2)


def test_match_graph_binds_locations():
    h = Heap()
    loc = store_value(h, suc_chain(1))
    got = match_graph(App("suc", (Var("x"),)), h, loc)
    assert got is not None
    morphism, binding = got
    assert binding == {"x": 0}
    assert morphism[0] == loc
    assert match_graph(App("zero", ()), h, loc) is None


def test_match_graph_morphism_preserves_labels():
    h = Heap()
    loc = store_value(h, App("m", (App("leafm", ()), App("leafn", ()))))
    pat = App("m", (Var("a"), Var("b")))
    morphism, binding = match_graph(pat, h, loc)
    g = canonical_tree(pat)
    for node, at in morphism.items():
        if g.labels[node] is not None:
            assert h.entry(at)[0] == g.labels[node]
    assert binding["a"] != binding["b"]


def test_repeated_variable_needs_equal_locations():
    eq = App("branch", (App("leaf", ()), App("leaf", ())))
    h = Heap()
    loc = store_value(h, eq)
    pat = App("branch", (Var("x"), Var("x")))
    assert match_pattern_at(h, pat, loc) == {"x": 0}
    ne = App("branch", (App("leaf", ()), App("zero", ())))
    h2 = Heap()
    loc2 = store_value(h2, ne)
    assert match_pattern_at(h2, pat, loc2) is None


def test_match_agrees_with_tree_matching():
    """On a maximally shared heap, location matching and tree matching
    accept the same pairs, and bindings agree through unfolding."""
    rng = random.Random(7)
    cons = {"zero": 0, "suc": 1, "m": 2}

    def pattern(depth: int):
        if depth == 0 or rng.random() < 0.35:
            return Var(f"v{rng.randint(1, 3)}")
        c = rng.choice(sorted(cons))
        return App(c, tuple(pattern(depth - 1) for _ in range(cons[c])))

    for _ in range(1000):
        pat = pattern(3)
        val = random_value(rng, cons, 4)
        h = Heap()
        loc = store_value(h, val)
        by_loc = match_pattern_at(h, pat, loc)
        by_tree = match_term(pat, val)
        if by_tree is None:
            assert by_loc is None
        else:
            assert by_loc is not None
            assert {k: h.unfold(l) for k, l in by_loc.items()} == by_tree
        full = match_graph(pat, h, loc)
        assert (full is None) == (by_loc is None)


def test_to_dot_lists_nodes_and_positional_edges():
    h = Heap()
    loc = store_value(h, App("m", (App("leafm", ()), App("leafn", ()))))
    dot = h.to_dot([loc])
    assert dot.startswith("digraph heap {")
    assert 'n2 [label="l2: m"];' in dot
    first, second = h.entry(loc)[1]
    assert f'n2 -> n{first} [label="1"];' in dot
    assert f'n2 -> n{second} [label="2"];' in dot
    # restricting to a root hides unrelated nodes
    h.merge("zero", ())
    assert "zero" not in h.to_dot([loc])
    assert "zero" in h.to_dot(range(len(h.entries)))


def test_unfold_size_versus_term_size():
    v = complete_tree(10)
    h = Heap()
    loc = store_value(h, v)
    assert h.unfolded_size(loc) == term_size(v) == 2**11 - 1


def test_to_dot_roots_in_ascending_order():
    h = Heap()
    chain = store_value(h, suc_chain(2))  # locations 0-2
    leaf = h.merge("leaf", ())
    pair = h.merge("pair", (leaf, 1))
    h.merge("other", ())

    def node_locs(dot):
        return [int(l.split()[0][1:]) for l in dot.splitlines() if '[label="l' in l]

    # roots in either order, one below the other's sub-DAG
    assert node_locs(h.to_dot([pair, chain])) == [0, 1, 2, 3, 4]
    assert node_locs(h.to_dot([chain, pair])) == [0, 1, 2, 3, 4]
    assert node_locs(h.to_dot([pair, 1])) == [0, 1, 3, 4]
    assert node_locs(h.to_dot([])) == []
    assert node_locs(h.to_dot(range(len(h.entries)))) == [0, 1, 2, 3, 4, 5]
    # a low location ignores the nodes above it that point to it
    assert h.reachable_count(1) == 2
    assert h.unfold(1) == suc_chain(1)
    assert h.unfolded_size(1) == 2
    for unknown in (-1, h.node_count):
        with pytest.raises(HeapError):
            h.to_dot([pair, unknown])
        for method in (h.reachable_count, h.unfold, h.unfolded_size):
            with pytest.raises(HeapError):
                method(unknown)


def test_sizes_saturate_at_a_limit():
    h = Heap()
    loc = store_value(h, complete_tree(80))
    assert h.unfolded_size(loc, 2**81) == 2**81 - 1
    assert h.unfolded_size(loc, 2**81 - 1) == 2**81 - 1
    assert h.unfolded_size(loc, 2**81 - 2) == 2**81 - 2
    assert h.unfolded_size(loc, 2**63) == 2**63
    assert term_size(complete_tree(80), 2**63) == 2**63
    assert term_size(complete_tree(10), 2**11) == 2**11 - 1
