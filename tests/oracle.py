"""The paper's definitions, executed literally, as a reference for tests.

Like `reference_eval` in helpers.py, nothing here is used by the library.
The one-step machine re-decomposes its expression at every step and hands
out configurations as values: `step` never changes the configuration it is
given, and copies the heap only when a merge adds a node. Canonical-tree
matching builds the pattern's tree as a graph and returns the morphism
into the heap. The library's `run` and `match_pattern_at` are held to these
by the tests.
"""

from __future__ import annotations

from typing import Optional

from memotrs import App, ArityError, Heap, Program, Term, Var, program_delta
from memotrs.core import APPLY, MERGE, READ, STORE
from memotrs.heap import Node, match_pattern_at
from memotrs.smallstep import (
    Configuration,
    EAnnot,
    ECall,
    ECon,
    ELoc,
    Expr,
    _match_call,
    expression_weight,
)

# ------------------------------------------------------ one-step machine


class EHole(Expr):
    __slots__ = ()

    def __repr__(self) -> str:
        return "EHole()"


def expr_equal(a: Expr, b: Expr) -> bool:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        tx = type(x)
        if tx is not type(y):
            return False
        if tx is ELoc:
            if x.loc != y.loc:
                return False
        elif tx is EAnnot:
            if x.sym != y.sym or x.locs != y.locs:
                return False
            stack.append((x.body, y.body))
        elif tx is EHole:
            continue
        else:
            if x.sym != y.sym or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
    return True


def expression_size(e: Expr) -> int:
    """Locations count 1; annotations count their stored locations too."""
    n = 0
    stack = [e]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is ELoc or t is EHole:
            n += 1
        elif t is EAnnot:
            n += 1 + len(node.locs)
            stack.append(node.body)
        else:
            n += 1
            stack.extend(node.args)
    return n


def configuration_size(cfg: Configuration) -> int:
    return len(cfg.cache) + cfg.heap.node_count + expression_size(cfg.expr)


class EvalContext:
    """An expression context with one hole, everything left of it evaluated."""

    __slots__ = ("_path",)

    def __init__(self, path: list[tuple[Expr, int]]):
        # (node, index of the followed child); -1 follows an annotation body
        self._path = path

    def plug(self, filler: Expr) -> Expr:
        cur = filler
        for node, idx in reversed(self._path):
            if idx == -1:
                cur = EAnnot(node.sym, node.locs, cur)
            else:
                args = node.args[:idx] + (cur,) + node.args[idx + 1 :]
                cur = type(node)(node.sym, args)
        return cur

    def to_expression(self) -> Expr:
        return self.plug(EHole())

    def is_valid(self) -> bool:
        """Grammar check: every argument left of the followed child is a location."""
        for node, idx in self._path:
            if idx == -1:
                continue
            if any(not isinstance(a, ELoc) for a in node.args[:idx]):
                return False
        return True

    @property
    def depth(self) -> int:
        return len(self._path)


def decompose(e: Expr) -> Optional[tuple[EvalContext, Expr]]:
    """Split e into context and leftmost-innermost redex; None for a location."""
    if isinstance(e, ELoc):
        return None
    path: list[tuple[Expr, int]] = []
    cur = e
    while True:
        t = type(cur)
        if t is EAnnot:
            if type(cur.body) is ELoc:
                return EvalContext(path), cur
            path.append((cur, -1))
            cur = cur.body
        elif t is ELoc:
            raise AssertionError("descended into a location")
        else:
            nxt = -1
            for i, a in enumerate(cur.args):
                if type(a) is not ELoc:
                    nxt = i
                    break
            if nxt < 0:
                return EvalContext(path), cur
            path.append((cur, nxt))
            cur = cur.args[nxt]


def expr_of_term(program: Program, t: Term, binding: dict[str, int]) -> Expr:
    """Instantiate a rule right-hand side: variables become locations."""
    sig = program.signature
    memo: dict[int, Expr] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Var):
            memo[id(node)] = ELoc(binding[node.name])
        elif done:
            args = tuple(memo[id(a)] for a in node.args)
            cls = ECon if sig.is_constructor(node.sym) else ECall
            memo[id(node)] = cls(node.sym, args)
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    return memo[id(t)]


def step(cfg: Configuration, program: Program) -> Optional[tuple[Configuration, str]]:
    """One machine step on the unique redex; None when terminal."""
    d = decompose(cfg.expr)
    if d is None:
        return None
    ctx, redex = d
    t = type(redex)
    if t is ECon:
        locs = tuple(a.loc for a in redex.args)
        heap = cfg.heap
        if (redex.sym, locs) not in heap.index:
            heap = heap.copy()  # a new node: cfg keeps the heap it had
        loc = heap.merge(redex.sym, locs)
        return Configuration(cfg.cache, heap, ctx.plug(ELoc(loc))), MERGE
    if t is ECall:
        locs = tuple(a.loc for a in redex.args)
        key = (redex.sym, locs)
        hit = cfg.cache.get(key)
        if hit is not None:
            return Configuration(cfg.cache, cfg.heap, ctx.plug(ELoc(hit))), READ
        rule, binding = _match_call(program, cfg.heap, redex.sym, locs)
        body = expr_of_term(program, rule.rhs, binding)
        wrapped = EAnnot(redex.sym, locs, body)
        return Configuration(cfg.cache, cfg.heap, ctx.plug(wrapped)), APPLY
    # annotation whose body is a location
    loc = redex.body.loc
    cache = dict(cfg.cache)
    cache[(redex.sym, redex.locs)] = loc
    return Configuration(cache, cfg.heap, ctx.plug(ELoc(loc))), STORE


def applicable_step_kinds(cfg: Configuration, program: Program) -> list[str]:
    """Which of the four rules can fire at the current redex (0 or 1 of them)."""
    d = decompose(cfg.expr)
    if d is None:
        return []
    _, redex = d
    t = type(redex)
    if t is ECon:
        return [MERGE]
    if t is EAnnot:
        return [STORE]
    locs = tuple(a.loc for a in redex.args)
    if (redex.sym, locs) in cfg.cache:
        return [READ]
    for rule in program.rules_for(redex.sym):
        if all(
            match_pattern_at(cfg.heap, p, l) is not None
            for p, l in zip(rule.lhs.args, locs)
        ):
            return [APPLY]
    return []


def default_step_budget(program: Program, expr: Expr) -> int:
    delta = program_delta(program) if program.rules else 0
    return (1 + delta) * 10**7 + expression_weight(expr)


def initial_call(program: Program, op: str, values: list[Term]) -> tuple[Heap, Expr]:
    """Store the argument values in a fresh heap and form the call expression."""
    sig = program.signature
    if not sig.is_operation(op):
        raise ArityError(f"not an operation: {op}")
    if sig.operations[op] != len(values):
        raise ArityError(
            f"{op} declared with arity {sig.operations[op]}, given {len(values)}"
        )
    heap = Heap.empty()
    arg_locs = [heap.store_value(v) for v in values]
    return heap, ECall(op, tuple(ELoc(l) for l in arg_locs))


def unfold_expression(heap: Heap, e: Expr) -> Term:
    """The term an expression denotes: unfold locations, drop annotations."""
    memo: dict[int, Term] = {}
    loc_terms: dict[int, Term] = {}
    stack: list[tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        t = type(node)
        if t is ELoc:
            if node.loc not in loc_terms:
                loc_terms[node.loc] = heap.unfold(node.loc)
            memo[id(node)] = loc_terms[node.loc]
        elif t is EAnnot:
            if done:
                memo[id(node)] = memo[id(node.body)]
            else:
                stack.append((node, True))
                stack.append((node.body, False))
        elif t is EHole:
            raise ValueError("cannot unfold a context hole")
        else:
            if done:
                memo[id(node)] = App(node.sym, tuple(memo[id(a)] for a in node.args))
            else:
                stack.append((node, True))
                stack.extend((a, False) for a in node.args)
    return memo[id(e)]


def is_maximally_shared(heap: Heap) -> bool:
    """No (constructor, children) node is stored twice."""
    seen: set[Node] = set()
    for node in heap.entries:
        if node in seen:
            return False
        seen.add(node)
    return True


def check_well_formed(cfg: Configuration) -> list[str]:
    """Violations of configuration well-formedness; empty means well-formed.

    Checks: maximal sharing of the heap, cache/annotation compatibility, and
    absence of dangling locations (the cache is a dict, hence functional by
    representation).
    """
    problems: list[str] = []
    heap = cfg.heap
    if not is_maximally_shared(heap):
        problems.append("heap has duplicate (constructor, children) nodes")
    n = heap.node_count
    for (sym, locs), loc in cfg.cache.items():
        for l in (*locs, loc):
            if not 0 <= l < n:
                problems.append(f"cache mentions dangling location {l}")
    annots: list[tuple[str, tuple[int, ...]]] = []
    stack = [cfg.expr]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is ELoc:
            if not 0 <= node.loc < n:
                problems.append(f"expression mentions dangling location {node.loc}")
        elif t is EAnnot:
            annots.append((node.sym, node.locs))
            for l in node.locs:
                if not 0 <= l < n:
                    problems.append(f"annotation mentions dangling location {l}")
            stack.append(node.body)
        elif t is EHole:
            problems.append("expression contains a context hole")
        else:
            stack.extend(node.args)
    for key in annots:
        if key in cfg.cache:
            problems.append(
                f"annotation for {key[0]}{list(key[1])} coexists with its cache entry"
            )
    return problems


# ------------------------------------------- canonical-tree matching


class TermGraph:
    """A rooted term graph with one node per occurrence (a tree with names)."""

    __slots__ = ("labels", "children", "root", "var_nodes")

    def __init__(
        self,
        labels: list[Optional[str]],
        children: list[tuple[int, ...]],
        root: int,
        var_nodes: dict[str, tuple[int, ...]],
    ):
        self.labels = labels  # None marks a variable node
        self.children = children
        self.root = root
        self.var_nodes = var_nodes  # variable name -> its occurrence nodes

    @property
    def node_count(self) -> int:
        return len(self.labels)

    def var_name(self, node: int) -> Optional[str]:
        for name, occ in self.var_nodes.items():
            if node in occ:
                return name
        return None


def canonical_tree(t: Term) -> TermGraph:
    """The tree of t as a graph: a fresh node per subterm occurrence.

    Materializes the full tree; intended for patterns and small terms.
    Nodes are numbered in preorder, leftmost argument first.
    """
    labels: list[Optional[str]] = []
    children: list[list[int]] = []
    var_occ: dict[str, list[int]] = {}
    stack: list[tuple[Term, int, int]] = [(t, -1, -1)]  # (term, parent id, slot)
    while stack:
        node, parent, slot = stack.pop()
        nid = len(labels)
        if parent >= 0:
            children[parent][slot] = nid
        if isinstance(node, Var):
            labels.append(None)
            children.append([])
            var_occ.setdefault(node.name, []).append(nid)
        else:
            labels.append(node.sym)
            children.append([-1] * len(node.args))
            for i in range(len(node.args) - 1, -1, -1):
                stack.append((node.args[i], nid, i))
    return TermGraph(
        labels,
        [tuple(c) for c in children],
        0,
        {name: tuple(occ) for name, occ in var_occ.items()},
    )


def match_graph(
    pattern: Term, heap: Heap, loc: int
) -> Optional[tuple[dict[int, int], dict[str, int]]]:
    """Match a pattern tree against the heap sub-DAG at loc.

    Returns (morphism, binding): morphism maps every canonical-tree node of
    the pattern to a location and is label- and child-preserving away from
    variables; binding maps each pattern variable to the location it covers.
    None when no such extension exists.
    """
    g = canonical_tree(pattern)
    morphism: dict[int, int] = {}
    binding: dict[str, int] = {}
    node_var: dict[int, str] = {}
    for name, occ in g.var_nodes.items():
        for n in occ:
            node_var[n] = name
    stack = [(g.root, loc)]
    while stack:
        node, at = stack.pop()
        morphism[node] = at
        label = g.labels[node]
        if label is None:
            name = node_var[node]
            bound = binding.get(name)
            if bound is None:
                binding[name] = at
            elif bound != at:
                # repeated variable: equal locations iff equal unfoldings
                return None
            continue
        sym, args = heap.entry(at)
        kids = g.children[node]
        if sym != label or len(args) != len(kids):
            return None
        stack.extend(zip(kids, args))
    return morphism, binding

