"""A function algebra closed under composition, case split, and simultaneous
structural recursion, with a tier discipline and a compiler to rewrite programs.

Functions are built from constructor functions and projections via three
schemes. Tier checking assigns numeric levels to argument and result
positions; simultaneous recursion requires its recursion argument to sit
strictly above its result, which is what keeps accepted functions feasible.
check_tiers_explained solves the constraints of every occurrence once and
returns None (accepted) or the reason not; tests/oracle.py builds the
derivation the solved tiers give and checks it rule by rule.
compile() turns a function into an orthogonal rewrite program, one operation
per structurally distinct subexpression.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from typing import Collection, Iterable, Optional

from .errors import GrsrError
from .terms import App, Program, Rule, Signature, Var, bounded_repr, fresh_names, rename

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

    def __repr__(self) -> str:
        return f"Algebra({self.key})"


class FunctionExpr:
    """Base of the combinator tree; every node knows its arity and a
    structural key of fixed size (equality and compilation reuse it): a
    leaf's short text, or a digest of a composite's text over its parts' keys."""

    __slots__ = ("arity", "key")

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionExpr) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def _repr_parts(self) -> list:
        """What bounded_repr prints: a composite's head, its parts (rows split
        by ";", a row's entries by ","), its tail; any other form, its key."""
        t = type(self)
        if t is Comp:
            head, rows, tail = "comp(", ((self.outer,), self.inners), ")"
        elif t is Case:
            head, rows, tail = f"case[{self.algebra.key}](", (self.branches,), ")"
        elif t is SimRec:
            head, rows, tail = f"rec[{self.algebra.key}](", self.grid, f")@{self.select}"
        else:
            return [self.key]
        parts: list = [head]
        for row in rows:
            for g in row:
                parts += (g, ",")
            parts[-1] = ";"
        parts[-1] = tail
        return parts

    __repr__ = bounded_repr


def _digest(head: str, rows: Iterable[Iterable[FunctionExpr]]) -> str:
    """A composite's key: 128 bits of blake2b over its text, each part written
    as its key. A collision would merge two subexpressions into one
    operation; at 128 bits one is expected only past about 2^64 of them."""
    text = head + ";".join(",".join(g.key for g in row) for row in rows) + ")"
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


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
        self.key = _digest("comp(", ((outer,), self.inners))


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
        self.key = _digest(f"case[{algebra.key}](", (self.branches,))
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
        self.grid_key = _digest(f"rec[{algebra.key}](", self.grid)
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


def _walk(f: FunctionExpr, once: bool = False):
    """Every pass over f, on a stack: (g, None) on entering an occurrence g,
    (g, k) on leaving it, k the count of its parts (a comp's outer, then its
    inners; a case's or rec's grid, row by row). With once, an object met
    again is skipped; no expression contains itself, so it was left before."""
    seen = set()
    stack: list = [f]  # occurrences to enter, and (g, k) for each to leave
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            yield g
            continue
        if once:
            if id(g) in seen:  # f keeps every object alive, so no id is reused
                continue
            seen.add(id(g))
        yield g, None
        t = type(g)
        if t is Comp:
            stack.append((g, 1 + len(g.inners)))
            stack.extend(reversed(g.inners))
            stack.append(g.outer)
        elif t is Case or t is SimRec:
            parts = [h for row in g.grid for h in row]
            stack.append((g, len(parts)))
            stack.extend(reversed(parts))
        elif t is ConstructorFn or t is Proj:
            yield g, 0
        else:
            raise GrsrError(f"unknown function form {g!r}")


# ---------------------------------------------------------------- tiering


@dataclass(frozen=True)
class TierSignature:
    inputs: tuple[int, ...]
    output: int

    def __str__(self) -> str:
        ins = ", ".join(str(i) for i in self.inputs)
        return f"({ins}) -> {self.output}"


class _TierProblem:
    def __init__(self):
        self.parent: list[int] = []
        self.edges: list[tuple[int, int, SimRec]] = []  # hi > lo, in that rec

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

    def plan(self) -> tuple[list[int], list[tuple[int, list[int]]], Optional[str]]:
        """What every solve shares, once all unions are made: each variable's
        class; the classes, each with those it must exceed, in the order a
        depth-first search along the strict edges finishes them until it errs,
        as it would for any pins; then a strict edge inside a class or a cycle."""
        root = [self.find(v) for v in range(len(self.parent))]
        above: dict[int, list[int]] = {}
        for hi, lo, g in self.edges:
            if root[hi] == root[lo]:
                return root, [], f"recursion argument must sit strictly above the result in {g!r}"
            above.setdefault(root[hi], []).append(root[lo])
        state: dict[int, int] = {}  # 1 visiting, 2 done
        order: list[tuple[int, list[int]]] = []
        for c in {*root}:
            if c in state:
                continue
            state[c] = 1
            stack = [(c, iter(above.get(c, ())))]
            while stack:
                d, lows = stack[-1]
                for lo in lows:
                    if state.get(lo) == 1:
                        return root, order, "recursion tiers form a cycle"
                    if lo not in state:
                        state[lo] = 1
                        stack.append((lo, iter(above.get(lo, ()))))
                        break
                else:
                    stack.pop()
                    state[d] = 2
                    order.append((d, above.get(d, [])))
        return root, order, None


def _collect(f: FunctionExpr) -> tuple[list, tuple]:
    """The tier problem of f: each occurrence as (expression, part count,
    input variables, output variable) as the walk leaves them, f last, and
    the problem's plan. The checks read f's variables; tests/oracle.py
    derives from them all. A case or rec makes its variables on entering,
    every other form on leaving; the union-find roots rest on that."""
    prob = _TierProblem()
    nodes: list = []
    done: list = []  # occurrences left and not yet taken by their parent
    opened: list = []  # p, qs and m of each case or rec entered, not left
    for g, k in _walk(f):
        t = type(g)
        if k is None:
            if t is Case or t is SimRec:
                p = prob.var()
                qs = [prob.var() for _ in range(g.params)]
                m = prob.var()
                if t is SimRec:
                    prob.edges.append((p, m, g))
                opened.append((p, qs, m))
            continue
        parts = done[len(done) - k:]
        del done[len(done) - k:]
        if t is ConstructorFn:
            out = prob.var()
            ins = [out] * g.arity
        elif t is Proj:
            ins = [prob.var() for _ in range(g.arity)]
            out = ins[g.index - 1]
        elif t is Comp:
            ins = [prob.var() for _ in range(g.arity)]
            out = prob.var()
            _, _, outer_ins, outer_out = parts[0]
            prob.eq(out, outer_out)
            for (_, _, kins, kout), ov in zip(parts[1:], outer_ins):
                prob.eq(kout, ov)
                for a, b in zip(kins, ins):
                    prob.eq(a, b)
        else:
            p, qs, m = opened.pop()
            n = g.components if t is SimRec else 0  # none passed in a case
            ars = [ar for (_, ar), row in zip(g.algebra.constructors, g.grid) for _ in row]
            for ar, (_, _, kins, kout) in zip(ars, parts):
                for i in range(ar):
                    prob.eq(kins[i], p)
                for i in range(n * ar):
                    prob.eq(kins[ar + i], m)
                for i, q in enumerate(qs):
                    prob.eq(kins[ar + n * ar + i], q)
                prob.eq(kout, m)
            ins, out = [p, *qs], m
        done.append((g, k, ins, out))
        nodes.append(done[-1])
    return nodes, prob.plan()


def _solve(
    plan: tuple, pins: Iterable[tuple[int, int]], cap: Optional[int]
) -> tuple[Optional[dict[int, int]], Optional[str]]:
    """Minimal tier values per class, or a reason none exist: a pin
    conflict, else the first pin below its minimum in the plan's order,
    else the plan's fault, else a tier above cap."""
    root, order, fault = plan
    class_pin: dict[int, int] = {}
    for v, c in pins:
        r = root[v]
        if class_pin.get(r, c) != c:
            return None, f"position forced to both tier {class_pin[r]} and {c}"
        class_pin[r] = c
    val: dict[int, int] = {}
    for c, lows in order:
        bound = 0
        for lo in lows:
            if val[lo] >= bound:
                bound = val[lo] + 1
        pin = class_pin.get(c)
        if pin is None:
            val[c] = bound
        elif pin < bound:
            return None, f"tier {pin} pinned below a required minimum of {bound}"
        else:
            val[c] = pin
    if fault is not None:
        return None, fault
    if cap is not None and max(val.values()) > cap:
        return None, f"needs a tier above the bound {cap}"
    return val, None


def check_tiers_explained(f: FunctionExpr, sig: TierSignature) -> Optional[str]:
    """None when f is accepted at the given signature, else the blocker."""
    if len(sig.inputs) != f.arity:
        raise GrsrError(f"{f!r} takes {f.arity} arguments, signature has "
                        f"{len(sig.inputs)}")
    nodes, plan = _collect(f)
    _, _, ins, out = nodes[-1]
    return _solve(plan, zip([*ins, out], [*sig.inputs, sig.output]), None)[1]


def infeasibility_reason(f: FunctionExpr) -> Optional[str]:
    """Why no tier signature can exist at all, or None if some might.

    Pin-independent: detects structural contradictions (a tier forced
    strictly above itself)."""
    return _solve(_collect(f)[1], [], None)[1]


def default_tier_bound(f: FunctionExpr) -> int:
    """One more than the number of distinct recursion grids in f, found by
    visiting each subexpression object once."""
    return 1 + len({g.grid_key for g, k in _walk(f, True) if k is None and type(g) is SimRec})


def infer_tiers(
    f: FunctionExpr, t_max: int, pins: Optional[tuple[Optional[int], ...]] = None
) -> list[TierSignature]:
    """All signatures with tiers <= t_max admitting a derivation. pins, one
    per input and then one for the output, fixes each tier that is not None,
    and only the open positions are searched. More than MAX_TIER_TUPLES
    tuples to try raise GrsrError before the first."""
    if pins is not None and len(pins) != f.arity + 1:
        raise GrsrError(f"{len(pins)} pins for {f.arity} arguments and the output")
    n_open = f.arity + 1 if pins is None else pins.count(None)
    # past 64 positions any t_max above 0 tries more than 2^64 tuples
    if (t_max + 1) ** min(n_open, 64) > MAX_TIER_TUPLES:
        raise GrsrError(f"inferring tiers up to {t_max} for {f.arity} arguments would try "
                        f"{t_max + 1}^{n_open} tuples, more than {MAX_TIER_TUPLES}")
    nodes, plan = _collect(f)
    root = plan[0]
    _, _, ins, out = nodes[-1]
    positions = [*ins, out]
    pins = (None,) * len(positions) if pins is None else pins
    fixed = [(v, p) for v, p in zip(positions, pins) if p is not None]
    free = [v for v, p in zip(positions, pins) if p is None]
    found: list[TierSignature] = []
    for combo in product(range(t_max + 1), repeat=len(free)):
        val, _ = _solve(plan, fixed + list(zip(free, combo)), t_max)
        if val is not None:
            found.append(TierSignature(tuple(val[root[v]] for v in ins), val[root[out]]))
    return found


# ---------------------------------------------------------------- compiler


def _vars(prefix: str, n: int) -> list[Var]:
    return [Var(f"{prefix}{i}") for i in range(1, n + 1)]


def _free(name: str, constructors: Collection[str]) -> str:
    """name, or when a constructor has it, name_k for the least k >= 1 that
    names neither a constructor c nor the helper mk_c. So it names no other
    helper: those are mk_c, pr<m>_<i>, cp_<hash>, cs_<hash> and
    rc<j>_<hash>, and a name_k of the last four has one underscore more."""
    if name not in constructors:
        return name
    taken = {*constructors, *(f"mk_{c}" for c in constructors)}
    return fresh_names([name], taken)[name]


def _components(g: FunctionExpr, constructors: Collection[str]) -> list[tuple[str, str]]:
    """The (structural key, operation name) of each component a Case or
    SimRec compiles to, in a program declaring those constructors."""
    if type(g) is Case:
        return [(g.key, _free(f"cs_{g.key[:8]}", constructors))]
    return [
        (f"{g.grid_key}@{j}", _free(f"rc{j}_{g.grid_key[:8]}", constructors))
        for j in range(1, g.components + 1)
    ]


def operation_name(g: FunctionExpr, constructors: Collection[str] = ()) -> str:
    """The name of the operation g compiles to, as compile_function names it
    in every program that contains g and declares those constructors."""
    t = type(g)
    if t is Case or t is SimRec:
        return _components(g, constructors)[g.select - 1][1]
    if t is ConstructorFn:
        name = f"mk_{g.con}"
    elif t is Proj:
        name = f"pr{g.arity}_{g.index}"
    elif t is Comp:
        name = f"cp_{g.key[:8]}"
    else:
        raise GrsrError(f"unknown function form {g!r}")
    return _free(name, constructors)


def compile_function(f: FunctionExpr) -> tuple[Program, str]:
    """Compile to an orthogonal rewrite program; returns it with the entry
    operation's name. Structurally equal subexpressions share one operation,
    made where the walk first leaves one of them. Every helper is named as
    operation_name names it among all the constructors the walk declared."""
    cons: dict[str, int] = {}
    order: list[FunctionExpr] = []  # the first object left per structural key
    keys: set[str] = set()
    for g, k in _walk(f, True):
        t = type(g)
        if k is None:
            if t is ConstructorFn or t is Case or t is SimRec:
                for con, ar in g.algebra.constructors:
                    if cons.get(con, ar) != ar:
                        raise GrsrError(f"constructor {con} declared at two arities")
                    cons[con] = ar
        elif g.key not in keys:
            order.append(g)
            keys.add(g.key)
            if t is SimRec:  # one grid makes every component
                keys.update(f"{g.grid_key}@{j}" for j in range(1, g.components + 1))
    ops: dict[str, int] = {}
    named: dict[str, str] = {}  # structural key -> operation
    rules: list[Rule] = []
    for g in order:
        t = type(g)
        if t is Case or t is SimRec:
            comps = _components(g, cons)
            for key, cname in comps:
                named[key] = cname
                ops[cname] = g.arity
            calls = comps if t is SimRec else ()  # a case passes no component values
            zs = _vars("z", g.params)
            for (con, ar), row in zip(g.algebra.constructors, g.grid):
                ys = _vars("y", ar)
                rec_calls = tuple(App(cname, (y, *zs)) for _, cname in calls for y in ys)
                pat = App(con, tuple(ys))
                for (_, cname), h in zip(comps, row):
                    rules.append(Rule(App(cname, (pat, *zs)),
                                      App(named[h.key], (*ys, *rec_calls, *zs))))
            continue
        name = named[g.key] = operation_name(g, cons)
        ops[name] = g.arity
        xs = tuple(_vars("x", g.arity))
        if t is Comp:
            rhs = App(named[g.outer.key], tuple(App(named[h.key], xs) for h in g.inners))
        elif t is Proj:
            rhs = xs[g.index - 1]
        else:
            rhs = App(g.con, xs)
        rules.append(Rule(App(name, xs), rhs))
    return Program(Signature(cons, ops), rules), named[f.key]


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
    # renaming operations one to one, away from the constructors, keeps the
    # program valid, so it is not checked again
    rules = tuple([
        Rule(rename(r.lhs, renames, {}), rename(r.rhs, renames, {})) for r in program.rules
    ])
    new = dict(zip(map(id, program.rules), rules))
    by_op = {
        renames.get(op, op): tuple([new[id(r)] for r in group])
        for op, group in program.by_op.items()
    }
    # type(program), not the module's name Program, which a tracer may wrap
    return type(program)._valid(Signature(dict(sig.constructors), new_ops), rules, by_op)
