"""Small-step machine: expressions over heap locations with a reference cache.

Machine expressions mix symbol applications with locations and annotation
frames f<locs>{e} marking an operation call whose body is being evaluated.
One step rewrites the unique leftmost-innermost redex:

    apply   uncached call on locations: wrap the matched rule's right-hand
            side (variables become the matched locations) in an annotation
    read    cached call on locations: replace by the cached location
    store   annotation around a location: record it in the cache, keep the
            location
    merge   constructor on locations: merge into the heap, keep the location

`step` is the literal one-step transcription (re-decomposes every time and
returns fresh configurations). `run` compiles the expression and drives it
through `core.execute` over heap locations; tests hold the two to identical
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import APPLY, CALL, CON, ENTER, MERGE, READ, RET, STORE, VAL, execute
from .errors import ArityError, BudgetExceededError, HeapError, StuckError
from .heap import Heap, match_pattern_at
from .terms import App, Program, Rule, Term, Var, program_delta


class Expr:
    __slots__ = ()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return expr_equal(self, other)

    def __hash__(self):
        raise TypeError("expressions are not hashable")


class ELoc(Expr):
    __slots__ = ("loc",)

    def __init__(self, loc: int):
        self.loc = loc

    def __repr__(self) -> str:
        return f"ELoc({self.loc})"


class ECall(Expr):
    __slots__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple[Expr, ...]):
        self.sym = sym
        self.args = args

    def __repr__(self) -> str:
        return f"ECall({self.sym!r}, {list(self.args)!r})"


class ECon(Expr):
    __slots__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple[Expr, ...]):
        self.sym = sym
        self.args = args

    def __repr__(self) -> str:
        return f"ECon({self.sym!r}, {list(self.args)!r})"


class EAnnot(Expr):
    __slots__ = ("sym", "locs", "body")

    def __init__(self, sym: str, locs: tuple[int, ...], body: Expr):
        self.sym = sym
        self.locs = locs
        self.body = body

    def __repr__(self) -> str:
        return f"EAnnot({self.sym!r}, {self.locs!r}, {self.body!r})"


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


RefCache = dict[tuple[str, tuple[int, ...]], int]


@dataclass(frozen=True)
class Configuration:
    cache: RefCache
    heap: Heap
    expr: Expr


@dataclass
class RunStats:
    applies: int
    reads: int
    stores: int
    merges: int
    total: int
    delta: int
    initial_weight: int


def expression_weight(e: Expr) -> int:
    """Locations weigh 0; every symbol or annotation weighs 1."""
    w = 0
    stack = [e]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is ELoc or t is EHole:
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


def configuration_weight(cfg: Configuration) -> int:
    return expression_weight(cfg.expr)


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


def _match_call(
    program: Program, heap: Heap, sym: str, locs: tuple[int, ...]
) -> tuple[Rule, dict[str, int]]:
    for rule in program.rules_for(sym):
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


def step(cfg: Configuration, program: Program) -> Optional[tuple[Configuration, str]]:
    """One machine step on the unique redex; None when terminal."""
    d = decompose(cfg.expr)
    if d is None:
        return None
    ctx, redex = d
    t = type(redex)
    if t is ECon:
        locs = tuple(a.loc for a in redex.args)
        heap, loc = cfg.heap.merge(redex.sym, locs)
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


TraceFn = Callable[[int, str, int, int, int], None]


def _code_of_expr(e: Expr) -> list:
    """Postfix code of a machine expression: locations are pushed, and an
    annotation enters its body's code like a call whose value gets stored."""
    code: list = []
    stack: list = [((RET,), code), (e, code)]
    while stack:
        node, out = stack.pop()
        t = type(node)
        if t is ELoc:
            out.append((VAL, node.loc))
        elif t is EAnnot:
            body: list = []
            out.append((ENTER, body, (node.sym, node.locs)))
            stack.extend((((RET,), body), (node.body, body)))
        elif t is tuple:  # a finished symbol's instruction, or the end of a body
            out.append(node)
        else:
            stack.append(((CON if t is ECon else CALL, node.sym, len(node.args)), out))
            stack.extend((a, out) for a in reversed(node.args))
    return code


def run(
    program: Program,
    heap: Heap,
    expr: Expr,
    step_budget: Optional[int] = None,
    on_step: Optional[TraceFn] = None,
) -> tuple[Configuration, RunStats]:
    """Drive expr to a location; returns the final configuration and counts.

    on_step, when given, observes (index, kind, weight, heap nodes, cache
    entries) after each step. The default budget is (1+delta)*10^7 plus the
    initial weight. The given heap is left as it was.
    """
    delta = program_delta(program) if program.rules else 0
    w0 = expression_weight(expr)
    if step_budget is None:
        step_budget = (1 + delta) * 10**7 + w0
    cache: RefCache = {}

    def build(sym: str, locs: tuple[int, ...]) -> int:
        nonlocal heap
        heap, loc = heap.merge(sym, locs)
        return loc

    def match(sym: str, locs: tuple[int, ...]) -> tuple[Rule, dict[str, int]]:
        return _match_call(program, heap, sym, locs)

    def over(counts) -> BudgetExceededError:
        err = BudgetExceededError(
            f"machine exceeded {step_budget} steps", "shared", step_budget
        )
        err.stats = RunStats(*counts, delta, w0)
        return err

    w = w0

    def emit(i: int, kind: str, dw: int) -> None:
        nonlocal w
        w += dw
        on_step(i, kind, w, heap.node_count, len(cache))

    loc, counts = execute(
        program, _code_of_expr(expr), match, build, over,
        cache=cache, limit=step_budget, emit=None if on_step is None else emit,
    )
    return Configuration(cache, heap, ELoc(loc)), RunStats(*counts, delta, w0)


def run_traced(
    program: Program,
    heap: Heap,
    expr: Expr,
    out,
    step_budget: Optional[int] = None,
) -> tuple[Configuration, RunStats]:
    """run() writing a CSV trace: one post-step row per step, header included."""
    out.write("step,kind,weight,heap_size,cache_size\n")

    def emit(i: int, kind: str, w: int, h: int, c: int) -> None:
        out.write(f"{i},{kind},{w},{h},{c}\n")

    return run(program, heap, expr, step_budget=step_budget, on_step=emit)


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
    arg_locs: list[int] = []
    for v in values:
        heap, loc = heap.store_value(v)
        arg_locs.append(loc)
    return heap, ECall(op, tuple(ELoc(l) for l in arg_locs))


def initial_expression(program: Program, heap: Heap, term: Term) -> tuple[Heap, Expr]:
    """Turn a ground term into a machine expression: constructor-only
    subterms are stored as locations, operation calls stay expression nodes."""
    sig = program.signature
    built: dict[int, Expr] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in built:
            continue
        if not isinstance(node, App):
            raise HeapError(f"term is not ground: variable {node.name}")
        if done:
            kids = tuple(built[id(a)] for a in node.args)
            # a constructor over locations only is itself a storable value
            if sig.is_constructor(node.sym) and all(type(k) is ELoc for k in kids):
                heap, loc = heap.merge(node.sym, tuple(k.loc for k in kids))
                built[id(node)] = ELoc(loc)
            else:
                cls = ECon if sig.is_constructor(node.sym) else ECall
                built[id(node)] = cls(node.sym, kids)
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    return heap, built[id(term)]


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


def check_well_formed(cfg: Configuration) -> list[str]:
    """Violations of configuration well-formedness; empty means well-formed.

    Checks: maximal sharing of the heap, cache/annotation compatibility, and
    absence of dangling locations (the cache is a dict, hence functional by
    representation).
    """
    problems: list[str] = []
    heap = cfg.heap
    if not heap.is_maximally_shared():
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
