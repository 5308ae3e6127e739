"""A function algebra closed under composition, case split, and simultaneous
structural recursion, with a tier discipline and a compiler to rewrite programs.

Functions are built from constructor functions and projections via three
schemes. Tier checking assigns numeric levels to argument and result
positions; simultaneous recursion requires its recursion argument to sit
strictly above its result, which is what keeps accepted functions feasible.
compile() turns a function into an orthogonal rewrite program, one operation
per structurally distinct subexpression.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from .errors import GrsrError
from .terms import App, Program, Rule, Signature, Var, fresh_names, rename

# most tier tuples infer_tiers tries, one constraint solve each
MAX_TIER_TUPLES = 100_000


class Algebra:
    """A named free algebra: an ordered list of constructors with arities."""

    __slots__ = ("name", "constructors", "_index", "key")

    def __init__(self, name: str, constructors: Iterable[tuple[str, int]]):
        self.name = name
        self.constructors = tuple(constructors)
        if not self.constructors:
            raise GrsrError(f"algebra {name} has no constructors")
        self._index: dict[str, int] = {}
        for i, (con, ar) in enumerate(self.constructors):
            if con in self._index:
                raise GrsrError(f"algebra {name} repeats constructor {con}")
            if ar < 0:
                raise GrsrError(f"negative arity for {con}")
            self._index[con] = i
        if all(ar > 0 for _, ar in self.constructors):
            raise GrsrError(f"algebra {name} has no nullary constructor, so no values")
        body = ",".join(f"{c}/{a}" for c, a in self.constructors)
        self.key = f"{name}{{{body}}}"

    def index(self, con: str) -> int:
        if con not in self._index:
            raise GrsrError(f"{con} is not a constructor of algebra {self.name}")
        return self._index[con]

    def arity(self, con: str) -> int:
        return self.constructors[self.index(con)][1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Algebra({self.key})"


class FunctionExpr:
    """Base of the combinator tree; every node knows its arity and a
    canonical structural key (equality and compilation reuse it)."""

    __slots__ = ("arity", "key")

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionExpr) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return self.key


class ConstructorFn(FunctionExpr):
    __slots__ = ("algebra", "con")

    def __init__(self, algebra: Algebra, con: str):
        self.algebra = algebra
        self.con = con
        self.arity = algebra.arity(con)  # also validates membership
        self.key = f"cons[{algebra.name}.{con}/{self.arity}]"


class Proj(FunctionExpr):
    __slots__ = ("index",)

    def __init__(self, arity: int, index: int):
        if arity < 1 or not 1 <= index <= arity:
            raise GrsrError(f"projection {index} of {arity} is ill-formed")
        self.arity = arity
        self.index = index
        self.key = f"proj[{arity},{index}]"


class Comp(FunctionExpr):
    __slots__ = ("outer", "inners")

    def __init__(self, outer: FunctionExpr, inners: Iterable[FunctionExpr]):
        self.outer = outer
        self.inners = tuple(inners)
        if outer.arity != len(self.inners):
            raise GrsrError(
                f"composition: outer takes {outer.arity} arguments, "
                f"{len(self.inners)} inner functions given"
            )
        if not self.inners:
            raise GrsrError("composition needs at least one inner function")
        arities = {g.arity for g in self.inners}
        if len(arities) != 1:
            raise GrsrError(f"composition: inner arities differ: {sorted(arities)}")
        self.arity = self.inners[0].arity
        self.key = f"comp({outer.key};{','.join(g.key for g in self.inners)})"


class Case(FunctionExpr):
    """Case split on the head constructor of the first argument. Tiering
    and compiling treat it as a SimRec whose one component receives no
    recursive values: grid has one row per branch."""

    __slots__ = ("algebra", "branches", "params", "grid", "components", "select")

    def __init__(self, algebra: Algebra, branches: Iterable[FunctionExpr]):
        self.algebra = algebra
        self.branches = tuple(branches)
        cons = algebra.constructors
        if len(self.branches) != len(cons):
            raise GrsrError(
                f"case over {algebra.name} needs {len(cons)} branches, "
                f"got {len(self.branches)}"
            )
        self.grid = tuple((f,) for f in self.branches)
        self.params = _shared_params(self, 0, "case branch", "case branches")
        self.arity = 1 + self.params
        self.key = f"case[{algebra.key}]({','.join(f.key for f in self.branches)})"
        self.components = self.select = 1


class SimRec(FunctionExpr):
    """Simultaneous structural recursion on the first argument.

    grid[i][j] defines component j at constructor i; it receives the
    constructor's subterms, then every component's value on every subterm
    (component-major), then the parameters. select picks the component this
    node denotes.
    """

    __slots__ = ("algebra", "grid", "select", "components", "params", "grid_key")

    def __init__(
        self,
        algebra: Algebra,
        grid: Iterable[Iterable[FunctionExpr]],
        select: int = 1,
    ):
        self.algebra = algebra
        self.grid = tuple(tuple(row) for row in grid)
        cons = algebra.constructors
        if len(self.grid) != len(cons):
            raise GrsrError(
                f"recursion over {algebra.name} needs {len(cons)} rows, "
                f"got {len(self.grid)}"
            )
        widths = {len(row) for row in self.grid}
        if len(widths) != 1:
            raise GrsrError("recursion rows disagree on component count")
        n = widths.pop()
        if n < 1:
            raise GrsrError("recursion needs at least one component")
        self.components = n
        if not 1 <= select <= n:
            raise GrsrError(f"select {select} out of range 1..{n}")
        self.select = select
        self.params = _shared_params(self, n, "recursion entry", "recursion entries")
        self.arity = 1 + self.params
        rows = ";".join(",".join(f.key for f in row) for row in self.grid)
        self.grid_key = f"rec[{algebra.key}]({rows})"
        self.key = f"{self.grid_key}@{select}"


def _shared_params(g: FunctionExpr, values: int, entry: str, entries: str) -> int:
    """The parameter count every entry of g.grid agrees on. An entry at a
    constructor of arity ar takes the ar subterms, then `values` arguments
    per subterm (0 in a case); entry and entries name it in errors."""
    params = None
    for (con, ar), row in zip(g.algebra.constructors, g.grid):
        for f in row:
            p = f.arity - ar * (1 + values)
            if p < 0:
                raise GrsrError(f"{entry} for {con} has too few arguments")
            if params is None:
                params = p
            elif params != p:
                raise GrsrError(f"{entries} disagree on parameter count")
    return params


# ---------------------------------------------------------------- tiering


@dataclass(frozen=True)
class TierSignature:
    inputs: tuple[int, ...]
    output: int

    def __str__(self) -> str:
        ins = ", ".join(str(i) for i in self.inputs)
        return f"({ins}) -> {self.output}"


class TierDerivation:
    """A tier assignment for every sub-expression occurrence."""

    __slots__ = ("expr", "signature", "premises")

    def __init__(
        self,
        expr: FunctionExpr,
        signature: TierSignature,
        premises: tuple["TierDerivation", ...],
    ):
        self.expr = expr
        self.signature = signature
        self.premises = premises

    def __repr__(self) -> str:
        return f"TierDerivation({self.expr.key}, {self.signature})"


class _Node:
    __slots__ = ("expr", "ins", "out", "kids")

    def __init__(self, expr: FunctionExpr, ins: list[int], out: int, kids: list):
        self.expr = expr
        self.ins = ins
        self.out = out
        self.kids = kids


class _TierProblem:
    def __init__(self):
        self.parent: list[int] = []
        self.edges: list[tuple[int, int, str]] = []  # hi > lo, with a note

    def var(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def eq(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _collect(f: FunctionExpr, prob: _TierProblem) -> _Node:
    t = type(f)
    if t is ConstructorFn:
        v = prob.var()
        return _Node(f, [v] * f.arity, v, [])
    if t is Proj:
        ins = [prob.var() for _ in range(f.arity)]
        return _Node(f, ins, ins[f.index - 1], [])
    if t is Comp:
        outer = _collect(f.outer, prob)
        inners = [_collect(g, prob) for g in f.inners]
        ins = [prob.var() for _ in range(f.arity)]
        out = prob.var()
        prob.eq(out, outer.out)
        for node, ov in zip(inners, outer.ins):
            prob.eq(node.out, ov)
            for a, b in zip(node.ins, ins):
                prob.eq(a, b)
        return _Node(f, ins, out, [outer, *inners])
    if t is Case or t is SimRec:
        p = prob.var()
        qs = [prob.var() for _ in range(f.params)]
        m = prob.var()
        n = 0  # component values each subterm passes, none in a case
        if t is SimRec:
            n = f.components
            note = f"recursion argument must sit strictly above the result in {f.key}"
            prob.edges.append((p, m, note))
        kids = []
        for (con, ar), row in zip(f.algebra.constructors, f.grid):
            for g in row:
                node = _collect(g, prob)
                for k in range(ar):
                    prob.eq(node.ins[k], p)
                for k in range(n * ar):
                    prob.eq(node.ins[ar + k], m)
                for k, q in enumerate(qs):
                    prob.eq(node.ins[ar + n * ar + k], q)
                prob.eq(node.out, m)
                kids.append(node)
        return _Node(f, [p, *qs], m, kids)
    raise GrsrError(f"unknown function form {f!r}")


def _solve(
    prob: _TierProblem, pins: Iterable[tuple[int, int]], cap: Optional[int]
) -> tuple[Optional[dict[int, int]], Optional[str]]:
    """Minimal tier values per class, or a reason none exist."""
    class_pin: dict[int, int] = {}
    for v, c in pins:
        r = prob.find(v)
        if r in class_pin and class_pin[r] != c:
            return None, f"position forced to both tier {class_pin[r]} and {c}"
        class_pin[r] = c
    above: dict[int, list[tuple[int, str]]] = {}
    for hi, lo, note in prob.edges:
        rh, rl = prob.find(hi), prob.find(lo)
        if rh == rl:
            return None, note
        above.setdefault(rh, []).append((rl, note))
    val: dict[int, int] = {}
    state: dict[int, int] = {}  # 1 visiting, 2 done
    classes = {prob.find(v) for v in range(len(prob.parent))}
    for c in classes:
        bad = _settle(c, above, class_pin, val, state)
        if bad is not None:
            return None, bad
    if cap is not None:
        for c, v in val.items():
            if v > cap:
                return None, f"needs a tier above the bound {cap}"
    return {v: val[prob.find(v)] for v in range(len(prob.parent))}, None


def _settle(c: int, above: dict, class_pin: dict, val: dict, state: dict) -> Optional[str]:
    """Set val[c], the least tier of class c above the classes it must
    exceed and at its pin, or give why there is none. Not nested in _solve:
    a nested function that calls itself is a reference cycle, which nothing
    frees while a command runs with the collector paused."""
    if state.get(c) == 2:
        return None
    if state.get(c) == 1:
        return "recursion tiers form a cycle"
    state[c] = 1
    bound = 0
    for lo, note in above.get(c, ()):
        bad = _settle(lo, above, class_pin, val, state)
        if bad is not None:
            return bad
        if val[lo] + 1 > bound:
            bound = val[lo] + 1
    if c in class_pin:
        if class_pin[c] < bound:
            return f"tier {class_pin[c]} pinned below a required minimum of {bound}"
        val[c] = class_pin[c]
    else:
        val[c] = bound
    state[c] = 2
    return None


def _derivation(node: _Node, val: dict[int, int]) -> TierDerivation:
    sig = TierSignature(tuple(val[v] for v in node.ins), val[node.out])
    return TierDerivation(
        node.expr, sig, tuple(_derivation(k, val) for k in node.kids)
    )


def check_tiers_explained(
    f: FunctionExpr, sig: TierSignature
) -> tuple[Optional[TierDerivation], Optional[str]]:
    """Derivation for f at the given signature, or None with the blocker."""
    if len(sig.inputs) != f.arity:
        raise GrsrError(f"{f.key} takes {f.arity} arguments, signature has "
                        f"{len(sig.inputs)}")
    prob = _TierProblem()
    root = _collect(f, prob)
    pins = list(zip([*root.ins, root.out], [*sig.inputs, sig.output]))
    val, reason = _solve(prob, pins, None)
    if val is None:
        return None, reason
    return _derivation(root, val), None


def infeasibility_reason(f: FunctionExpr) -> Optional[str]:
    """Why no tier signature can exist at all, or None if some might.

    Pin-independent: detects structural contradictions (a tier forced
    strictly above itself)."""
    prob = _TierProblem()
    _collect(f, prob)
    _, reason = _solve(prob, [], None)
    return reason


def default_tier_bound(f: FunctionExpr) -> int:
    """One more than the number of distinct recursion grids in f, found by
    visiting each subexpression object once."""
    seen = {id(f)}  # f keeps every object alive, so no id is reused
    grids: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Comp:
            kids = (g.outer, *g.inners)
        elif t is Case or t is SimRec:
            if t is SimRec:
                grids.add(g.grid_key)
            kids = [h for row in g.grid for h in row]
        else:
            continue
        for h in kids:
            if id(h) not in seen:
                seen.add(id(h))
                stack.append(h)
    return len(grids) + 1


def infer_tiers(f: FunctionExpr, t_max: int) -> list[TierSignature]:
    """All signatures with tiers <= t_max admitting a derivation. More than
    MAX_TIER_TUPLES tuples to try raise GrsrError before the first."""
    # past 64 positions any t_max above 0 tries more than 2^64 tuples
    if (t_max + 1) ** min(f.arity + 1, 64) > MAX_TIER_TUPLES:
        raise GrsrError(f"inferring tiers up to {t_max} for {f.arity} arguments would try "
                        f"{t_max + 1}^{f.arity + 1} tuples, more than {MAX_TIER_TUPLES}")
    prob = _TierProblem()
    root = _collect(f, prob)
    positions = [*root.ins, root.out]
    found: list[TierSignature] = []
    for combo in product(range(t_max + 1), repeat=len(positions)):
        val, _ = _solve(prob, list(zip(positions, combo)), t_max)
        if val is not None:
            found.append(TierSignature(tuple(combo[:-1]), combo[-1]))
    return found


# ---------------------------------------------------------------- compiler


def _h8(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _vars(prefix: str, n: int) -> list[Var]:
    return [Var(f"{prefix}{i}") for i in range(1, n + 1)]


def _components(g: FunctionExpr) -> list[tuple[str, str]]:
    """The (structural key, operation name) of each component a Case or
    SimRec compiles to."""
    if type(g) is Case:
        return [(g.key, f"cs_{_h8(g.key)}")]
    h = _h8(g.grid_key)
    return [(f"{g.grid_key}@{j}", f"rc{j}_{h}") for j in range(1, g.components + 1)]


def operation_name(g: FunctionExpr) -> str:
    """The name of the operation g compiles to, as compile_function names it
    in every program that contains g."""
    t = type(g)
    if t is ConstructorFn:
        return f"mk_{g.con}"
    if t is Proj:
        return f"pr{g.arity}_{g.index}"
    if t is Comp:
        return f"cp_{_h8(g.key)}"
    if t is Case or t is SimRec:
        return _components(g)[g.select - 1][1]
    raise GrsrError(f"unknown function form {g!r}")


def compile_function(f: FunctionExpr) -> tuple[Program, str]:
    """Compile to an orthogonal rewrite program; returns it with the entry
    operation's name. Structurally equal subexpressions share one operation."""
    cons: dict[str, int] = {}
    ops: dict[str, int] = {}
    rules: list[Rule] = []
    entry = _compile(f, cons, ops, rules, {})
    return Program(Signature(cons, ops), rules), entry


def _add_algebra(cons: dict[str, int], a: Algebra) -> None:
    for con, ar in a.constructors:
        if cons.get(con, ar) != ar:
            raise GrsrError(f"constructor {con} declared at two arities")
        cons[con] = ar


def _compile(g: FunctionExpr, cons: dict, ops: dict, rules: list, named: dict) -> str:
    """The operation g compiles to. Declares the symbols and appends the
    rules of g and of each subexpression whose structural key (named maps
    it to its operation) is new, subexpressions first; not nested in
    compile_function for the reason _settle is not."""
    if g.key in named:
        return named[g.key]
    t = type(g)
    if t is Case or t is SimRec:
        _add_algebra(cons, g.algebra)
        entry_ops = [[_compile(h, cons, ops, rules, named) for h in row] for row in g.grid]
        comps = _components(g)
        for key, cname in comps:
            named[key] = cname
            ops[cname] = g.arity
        calls = comps if t is SimRec else ()  # a case passes no component values
        zs = _vars("z", g.params)
        for (con, ar), row_ops in zip(g.algebra.constructors, entry_ops):
            ys = _vars("y", ar)
            rec_calls = tuple(App(cname, (y, *zs)) for _, cname in calls for y in ys)
            pat = App(con, tuple(ys))
            for (_, cname), op in zip(comps, row_ops):
                lhs = App(cname, (pat, *zs))
                rules.append(Rule(lhs, App(op, (*ys, *rec_calls, *zs))))
        return named[g.key]
    if t is Comp:
        outer = _compile(g.outer, cons, ops, rules, named)
        inner = [_compile(h, cons, ops, rules, named) for h in g.inners]
    elif t is ConstructorFn:
        _add_algebra(cons, g.algebra)
    name = named[g.key] = operation_name(g)
    ops[name] = g.arity
    xs = tuple(_vars("x", g.arity))
    if t is Comp:
        rhs = App(outer, tuple(App(h, xs) for h in inner))
    elif t is Proj:
        rhs = xs[g.index - 1]
    else:
        rhs = App(g.con, xs)
    rules.append(Rule(App(name, xs), rhs))
    return name


def rename_operations(program: Program, mapping: dict[str, str]) -> Program:
    """A copy of the program with operations renamed per mapping; one left
    alone but in the way of a new name moves to the first free <name>_<k>."""
    sig = program.signature
    renames = {op: mapping[op] for op in sig.operations if op in mapping}
    taken = {*sig.constructors, *sig.operations, *renames.values()}
    in_the_way = set(renames.values()).intersection(sig.operations).difference(renames)
    renames.update(fresh_names(in_the_way, taken))
    new_ops: dict[str, int] = {}
    for op, ar in sig.operations.items():
        new = renames.get(op, op)
        if new in new_ops or new in sig.constructors:
            raise GrsrError(f"operation rename collides on {new}")
        new_ops[new] = ar
    new_rules = [
        Rule(rename(r.lhs, renames, {}), rename(r.rhs, renames, {})) for r in program.rules
    ]
    return Program(Signature(dict(sig.constructors), new_ops), new_rules)
