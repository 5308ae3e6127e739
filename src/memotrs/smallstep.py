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

`run` compiles the expression and drives it through `core.execute` over
heap locations. The literal one-step transcription of these rules lives
with the tests, which hold the two to identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import CALL, CON, ENTER, RET, VAL, execute
from .errors import BudgetExceededError, HeapError, StuckError
from .heap import Heap, match_pattern_at
from .terms import App, Program, Rule, Term, program_delta


class Expr:
    __slots__ = ()


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
        if t is ELoc:
            continue
        w += 1
        if t is EAnnot:
            stack.append(node.body)
        else:
            stack.extend(node.args)
    return w


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
    heap = heap.copy()

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
        program, _code_of_expr(expr), match, heap.merge, over,
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


def initial_expression(program: Program, heap: Heap, term: Term) -> tuple[Heap, Expr]:
    """Turn a ground term into a machine expression: constructor-only
    subterms are merged into heap as locations, operation calls stay
    expression nodes. Returns heap, extended, with the expression."""
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
                built[id(node)] = ELoc(heap.merge(node.sym, tuple(k.loc for k in kids)))
            else:
                cls = ECon if sig.is_constructor(node.sym) else ECall
                built[id(node)] = cls(node.sym, kids)
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    return heap, built[id(term)]
