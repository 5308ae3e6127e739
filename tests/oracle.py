"""The paper's definitions, executed literally, as a reference for tests.

Like `reference_eval` in helpers.py, nothing here is used by the library.
The one-step machine re-decomposes its expression at every step and hands
out configurations as values: `step` never changes the configuration it is
given, and copies the heap only when a merge adds a node. Its expressions
(`ELoc`, `ECon`, `ECall` and the annotation frames `EAnnot`) and its
`Configuration` live only here: the library compiles inputs to code and
runs that, and `expression_code` gives the code of an expression without
annotations. `expression_weight` weighs expressions. The rule-by-rule
matchers try each rule's patterns in turn, on terms and on heap locations.
Canonical-tree matching builds the pattern's tree as a graph and returns
the morphism into the heap. The library's `run` and its compiled decision
trees are held to these by the tests.

`initial_expression_by_node` loads a term one node at a time into an
expression, the oracle for `smallstep.initial_expression`, which walks
unary runs at once and returns code.
`unfused` gives a program whose rule bodies run without fused
instructions, each turned back into its VAR pushes and CON or CALL by
`expand_fused`: the oracle for the fused code the engines run.

For the function algebra, `eval_grsr` evaluates a function by its
denotation, iteratively and once per function and arguments, the oracle
for `compile_function`, and `validate_derivation` re-checks a tier
derivation rule by rule, the oracle for `check_tiers_explained`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from memotrs import (
    Algebra,
    App,
    ArityError,
    Case,
    Comp,
    ConstructorFn,
    FunctionExpr,
    GrsrError,
    Heap,
    HeapError,
    Program,
    Proj,
    Rule,
    SimRec,
    StuckError,
    Term,
    TierDerivation,
    Var,
    program_delta,
    terms_equal,
)
from memotrs.core import APPLY, CALL, CON, FCALL, FCON, MERGE, READ, RET, STORE, VAL, VAR, _Trees
from memotrs.heap import Node
from memotrs.smallstep import RefCache
from memotrs.terms import bounded_repr, call_repr_parts

from helpers import store_value

# ------------------------------------------------- rule-by-rule matching


def match_term(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """First-order matching of a constructor pattern against a term.

    Returns the binding on success, None on mismatch. Patterns in valid
    programs are linear; repeated variables are still handled (by equality).
    """
    binding: dict[str, Term] = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = s
            elif not terms_equal(bound, s):
                return None
            continue
        if not isinstance(s, App) or s.sym != p.sym or len(s.args) != len(p.args):
            return None
        stack.extend(zip(p.args, s.args))
    return binding


def find_rule(
    program: Program, sym: str, args: tuple[Term, ...]
) -> tuple[Rule, dict[str, Term]]:
    """The rule whose argument patterns (jointly linear) all match args."""
    for rule in program.by_op.get(sym, ()):
        binding: dict[str, Term] = {}
        for p, a in zip(rule.lhs.args, args):
            b = match_term(p, a)
            if b is None:
                break
            binding.update(b)
        else:
            return rule, binding
    raise StuckError(f"no rule matches {sym}/{len(args)} call", App(sym, args))


def match_pattern_at(heap: Heap, pattern: Term, loc: int) -> Optional[dict[str, int]]:
    """The binding of pattern's variables to locations if the pattern
    matches the sub-DAG at loc, else None. On a maximally shared heap,
    equal locations mean equal unfoldings, so a repeated variable needs
    equal locations."""
    binding: dict[str, int] = {}
    stack = [(pattern, loc)]
    entries = heap.entries
    n = len(entries)
    while stack:
        p, at = stack.pop()
        if isinstance(p, Var):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = at
            elif bound != at:
                return None
            continue
        if not 0 <= at < n:
            raise HeapError(f"unknown location {at}")
        sym, args = entries[at]
        if sym != p.sym or len(args) != len(p.args):
            return None
        stack.extend(zip(p.args, args))
    return binding


def match_call(
    program: Program, heap: Heap, sym: str, locs: tuple[int, ...]
) -> tuple[Rule, dict[str, int]]:
    """The rule whose patterns all match the call on locations, and the binding."""
    for rule in program.by_op.get(sym, ()):
        binding: dict[str, int] = {}
        for p, l in zip(rule.lhs.args, locs):
            b = match_pattern_at(heap, p, l)
            if b is None:
                break
            binding.update(b)
        else:
            return rule, binding
    witness = App(sym, tuple(heap.unfold(l) for l in locs))
    raise StuckError(f"no rule matches {sym}/{len(locs)} call", witness)


# ------------------------------------------------------ one-step machine


class Expr:
    __slots__ = ()


class ELoc(Expr):
    __slots__ = ("loc",)

    def __init__(self, loc: int):
        self.loc = loc

    def __repr__(self) -> str:
        return f"ELoc({self.loc})"


class _ESym(Expr):
    """A symbol applied to expressions: ECall an operation, ECon a constructor."""

    __slots__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple[Expr, ...]):
        self.sym = sym
        self.args = args

    def _repr_parts(self) -> list:
        return call_repr_parts(type(self).__name__, self.sym, self.args)

    __repr__ = bounded_repr


class ECall(_ESym):
    __slots__ = ()


class ECon(_ESym):
    __slots__ = ()


class EAnnot(Expr):
    """The annotation frame f<locs>{body}: the call f on locs, its body
    being evaluated."""

    __slots__ = ("sym", "locs", "body")

    def __init__(self, sym: str, locs: tuple[int, ...], body: Expr):
        self.sym = sym
        self.locs = locs
        self.body = body

    def _repr_parts(self) -> list:
        return [f"EAnnot({self.sym!r}, {self.locs!r}, ", self.body, ")"]

    __repr__ = bounded_repr


class EHole(Expr):
    __slots__ = ()

    def __repr__(self) -> str:
        return "EHole()"


@dataclass(frozen=True)
class Configuration:
    """The paper's configuration: a cache, a heap and an expression."""

    cache: RefCache
    heap: Heap
    expr: Expr


def expression_code(e: Expr) -> tuple:
    """The code `smallstep.run` takes for an expression without annotations:
    a location pushes itself, a symbol pops its arguments, in postfix order."""
    code: list = []
    stack: list = [e]  # expressions, and the finished instruction of a symbol
    while stack:
        node = stack.pop()
        t = type(node)
        if t is tuple:
            code.append(node)
        elif t is ELoc:
            code.append((VAL, node.loc, None))
        else:
            stack.append((CON if t is ECon else CALL, node.sym, len(node.args)))
            stack.extend(reversed(node.args))
    code.append((RET, None, None))
    return tuple(code)


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


def expression_weight(e: Expr) -> int:
    """Locations weigh 0; every symbol or annotation weighs 1."""
    w = 0
    stack = [e]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is ELoc:
            continue
        w += 1
        if t is EAnnot:
            stack.append(node.body)
        else:
            stack.extend(node.args)
    return w


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
            cls = ECon if node.sym in sig.constructors else ECall
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
        rule, binding = match_call(program, cfg.heap, redex.sym, locs)
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
    for rule in program.by_op.get(redex.sym, ()):
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
    if op not in sig.operations:
        raise ArityError(f"not an operation: {op}")
    if sig.operations[op] != len(values):
        raise ArityError(
            f"{op} declared with arity {sig.operations[op]}, given {len(values)}"
        )
    heap = Heap()
    arg_locs = [store_value(heap, v) for v in values]
    return heap, ECall(op, tuple(ELoc(l) for l in arg_locs))


def initial_expression_by_node(
    program: Program, heap: Heap, term: Term
) -> tuple[Heap, Expr]:
    """The loader one node at a time, the reference for
    `smallstep.initial_expression`: one stack entry and one `Heap.merge`
    per node, children first, last argument first."""
    constructors = program.signature.constructors
    built: dict[int, object] = {}  # id(node) -> its location, or its Expr
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in built:
            continue
        if type(node) is not App:
            raise HeapError(f"term is not ground: variable {node.name}")
        if not done:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
            continue
        kids = tuple(built[id(a)] for a in node.args)
        if node.sym in constructors and all(type(k) is int for k in kids):
            built[id(node)] = heap.merge(node.sym, kids)
            continue
        cls = ECon if node.sym in constructors else ECall
        built[id(node)] = cls(node.sym, tuple(ELoc(k) if type(k) is int else k for k in kids))
    root = built[id(term)]
    return heap, ELoc(root) if type(root) is int else root


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


# ------------------------------------------ fused instructions, expanded


def expand_fused(code: tuple) -> tuple:
    """code with each FCON or FCALL turned back into the VAR pushes of its
    arguments and the CON or CALL that pops them."""
    out: list = []
    for op, a, b in code:
        if op != FCON and op != FCALL:
            out.append((op, a, b))
            continue
        items = b.__reduce__()[1]  # the itemgetter's slots, or one slice of them
        slots = range(items[0].start, items[0].stop) if type(items[0]) is slice else items
        out += [(VAR, s, None) for s in slots]
        out.append((CON if op == FCON else CALL, a, len(slots)))
    return tuple(out)


def _expand_tree(node):
    if type(node) is list:
        at, branches, default = node
        return [at, {s: _expand_tree(t) for s, t in branches.items()}, _expand_tree(default)]
    return None if node is None else (expand_fused(node[0]), node[1])


class _UnfusedTrees(_Trees):
    def __missing__(self, op: str) -> object:
        tree = self[op] = _expand_tree(super().__missing__(op))
        return tree


def unfused(program: Program) -> Program:
    """The program, its rule bodies compiled without fused instructions."""
    q = Program(program.signature, program.rules)
    q._code = _UnfusedTrees(q)
    return q


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


# ------------------------------------------------- function algebra


def eval_grsr(f: FunctionExpr, args: Iterable[Term]) -> Term:
    """Denotational evaluation; the reference oracle for the compiler.

    It works through an explicit stack of goals (g, j, xs): the value of g,
    or of component j of a recursion g, on the arguments xs. Each goal is
    evaluated once (memo, keyed by the recursion's grid for a component),
    the paper's memoization, so recursions whose denotation repeats a
    component on a subterm, as rabbits does, stay polynomial."""
    args = tuple(args)
    if len(args) != f.arity:
        raise GrsrError(f"{f!r} takes {f.arity} arguments, got {len(args)}")
    memo: dict = {}
    root = _goal(f, args)
    todo = [root]
    while todo:
        g, j, xs = goal = todo[-1]
        key = _goal_key(goal)
        if key in memo:
            todo.pop()
            continue
        t = type(g)
        if t is ConstructorFn:
            memo[key] = App(g.con, xs)
            continue
        if t is Proj:
            memo[key] = xs[g.index - 1]
            continue
        if t is Comp:
            needs = [_goal(h, xs) for h in g.inners]
            if all(_goal_key(n) in memo for n in needs):
                needs = [_goal(g.outer, tuple(memo[_goal_key(n)] for n in needs))]
        else:  # Case or SimRec: a case is a recursion passing no values
            scrut = _scrutinee(g.algebra, xs[0])
            params = xs[1:]
            needs = [] if t is Case else [
                (g, jj, (x, *params)) for jj in range(g.components) for x in scrut.args
            ]
            if all(_goal_key(n) in memo for n in needs):
                row = g.grid[g.algebra.index(scrut.sym)]
                values = tuple(memo[_goal_key(n)] for n in needs)
                needs = [_goal(row[j], scrut.args + values + params)]
        missing = [n for n in needs if _goal_key(n) not in memo]
        if missing:
            todo.extend(reversed(missing))
        else:  # the one remaining need is g's value on xs
            memo[key] = memo[_goal_key(needs[0])]
    return memo[_goal_key(root)]


def _goal(g: FunctionExpr, xs: tuple) -> tuple:
    """The goal of g's value on xs: of its selected component for a SimRec."""
    return (g, g.select - 1 if type(g) is SimRec else 0, xs)


def _goal_key(goal: tuple) -> tuple:
    g, j, xs = goal
    return (g.grid_key if type(g) is SimRec else g.key, j, xs)


def _scrutinee(algebra: Algebra, v: Term) -> App:
    if not isinstance(v, App) or v.sym not in algebra._index:
        raise GrsrError(f"expected a value of algebra {algebra.name}")
    if len(v.args) != algebra.arity(v.sym):
        raise GrsrError(f"malformed value: {v.sym} applied at the wrong arity")
    return v


def validate_derivation(d: TierDerivation) -> None:
    """Re-check a derivation rule by rule, on an explicit stack so depth is
    no limit; raises GrsrError on a bad node."""
    stack = [d]
    while stack:
        d = stack.pop()
        stack.extend(reversed(d.premises))
        _validate_rule(d)


def _validate_rule(d: TierDerivation) -> None:
    """Check the rule at d against its premises' signatures."""
    f = d.expr
    sig = d.signature
    t = type(f)
    if len(sig.inputs) != f.arity:
        raise GrsrError(f"derivation arity mismatch at {f!r}")
    if t is ConstructorFn:
        if any(i != sig.output for i in sig.inputs):
            raise GrsrError(f"constructor function must be uniform: {f!r}")
        if d.premises:
            raise GrsrError("constructor function has no premises")
    elif t is Proj:
        if sig.output != sig.inputs[f.index - 1]:
            raise GrsrError(f"projection must return its argument's tier: {f!r}")
        if d.premises:
            raise GrsrError("projection has no premises")
    elif t is Comp:
        outer, *inners = d.premises
        if outer.signature.output != sig.output:
            raise GrsrError("composition output tier mismatch")
        if len(inners) != len(f.inners):
            raise GrsrError("composition premise count mismatch")
        for g, ov in zip(inners, outer.signature.inputs):
            if g.signature.output != ov:
                raise GrsrError("composition intermediate tier mismatch")
            if g.signature.inputs != sig.inputs:
                raise GrsrError("composition input tier mismatch")
    elif t is Case:
        p = sig.inputs[0]
        qs = sig.inputs[1:]
        for (con, ar), br in zip(f.algebra.constructors, d.premises):
            want = (p,) * ar + qs
            if br.signature.inputs != want or br.signature.output != sig.output:
                raise GrsrError(f"case branch for {con} typed wrongly")
    elif t is SimRec:
        p = sig.inputs[0]
        qs = sig.inputs[1:]
        m = sig.output
        if not p > m:
            raise GrsrError("recursion argument tier must exceed the result tier")
        n = f.components
        idx = 0
        for (con, ar), row in zip(f.algebra.constructors, f.grid):
            for _ in row:
                entry = d.premises[idx]
                idx += 1
                want = (p,) * ar + (m,) * (n * ar) + qs
                if entry.signature.inputs != want or entry.signature.output != m:
                    raise GrsrError(f"recursion entry for {con} typed wrongly")
    else:
        raise GrsrError(f"unknown function form {f!r}")
