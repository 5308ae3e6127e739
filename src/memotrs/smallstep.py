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

`run` drives what `initial_expression` builds through `core.execute` over
heap locations. The tests hold it to the literal one-step machine, whose
annotations live with them, trace for trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from .core import CALL, CON, RET, VAL, execute
from .errors import BudgetExceededError, HeapError
from .heap import Heap
from .terms import (
    App, Program, Signature, Term, bounded_repr, call_repr_parts, program_delta, validate_term
)


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


TraceFn = Callable[[int, str, int, int, int], None]
_SYM = attrgetter("sym")


def _code_of_expr(e: Expr, n: int, sig: Signature) -> tuple[list, int]:
    """Postfix code of a loaded expression over a heap of n nodes, and its
    weight, one per symbol. Any other node, an unknown location, or a
    symbol sig does not declare as that node's kind at its arity raises
    HeapError."""
    code: list = []
    weight = 0
    stack: list = [(e, None)]  # (node, None), or (None, its finished instruction)
    while stack:
        node, ins = stack.pop()
        t = type(node)
        if ins is not None:
            code.append(ins)
        elif t is ELoc:
            if not 0 <= node.loc < n:
                raise HeapError(f"unknown location {node.loc}")
            code.append((VAL, node.loc, None))
        elif t is ECon or t is ECall:
            declared = sig.constructors if t is ECon else sig.operations
            if declared.get(node.sym) != len(node.args):
                raise HeapError(f"{t.__name__} of {node.sym}/{len(node.args)} is not declared")
            weight += 1
            stack.append((None, (CON if t is ECon else CALL, node.sym, len(node.args))))
            stack.extend((a, None) for a in reversed(node.args))
        else:
            raise HeapError(f"run takes ELoc, ECon and ECall nodes, not {t.__name__}")
    code.append((RET, None, None))
    return code, weight


def run(
    program: Program,
    heap: Heap,
    expr: Expr,
    step_budget: Optional[int] = None,
    on_step: Optional[TraceFn] = None,
) -> tuple[Configuration, RunStats]:
    """Drive expr to a location; returns the final configuration and counts.
    A node initial_expression never builds raises HeapError before any step.

    on_step, when given, observes (index, kind, weight, heap nodes, cache
    entries) after each step. The default budget is (1+delta)*10^7 plus the
    initial weight. The given heap is left as it was.
    """
    def observe(w: int, nodes: list, cache: RefCache) -> Callable:
        def emit(i: int, kind: str, dw: int) -> None:
            nonlocal w
            w += dw
            on_step(i, kind, w, len(nodes), len(cache))

        return emit

    return _drive(program, heap, expr, step_budget, None if on_step is None else observe)


def run_traced(
    program: Program,
    heap: Heap,
    expr: Expr,
    out,
    step_budget: Optional[int] = None,
) -> tuple[Configuration, RunStats]:
    """run() writing a CSV trace: one post-step row per step, header included."""
    write = out.write
    write("step,kind,weight,heap_size,cache_size\n")

    def observe(w: int, nodes: list, cache: RefCache) -> Callable:
        def emit(i: int, kind: str, dw: int) -> None:  # one call per step
            nonlocal w
            w += dw
            write(f"{i},{kind},{w},{len(nodes)},{len(cache)}\n")

        return emit

    return _drive(program, heap, expr, step_budget, observe)


def _drive(
    program: Program, heap: Heap, expr: Expr, step_budget: Optional[int], observe
) -> tuple[Configuration, RunStats]:
    """run(); observe(initial weight, heap nodes, cache) makes execute's emit."""
    delta = program_delta(program) if program.rules else 0
    code, w0 = _code_of_expr(expr, heap.node_count, program.signature)
    if step_budget is None:
        step_budget = (1 + delta) * 10**7 + w0
    cache: RefCache = {}
    heap = heap.copy()

    def witness(sym: str, locs: tuple[int, ...]) -> Term:
        return App(sym, tuple(heap.unfold(l) for l in locs))

    def over(counts) -> BudgetExceededError:
        err = BudgetExceededError(
            f"machine exceeded {step_budget} steps", "shared", step_budget
        )
        err.stats = RunStats(*counts, delta, w0)
        return err

    loc, counts = execute(
        program, code, heap.entries.__getitem__, witness, heap.merge, over, cache=cache,
        limit=step_budget, emit=None if observe is None else observe(w0, heap.entries, cache),
    )
    return Configuration(cache, heap, ELoc(loc)), RunStats(*counts, delta, w0)


def initial_expression(program: Program, heap: Heap, term: Term) -> tuple[Heap, Expr]:
    """Turn a ground term into a machine expression: constructor-only
    subterms are merged into heap as locations, operation calls stay
    expression nodes. Returns heap, extended, with the expression.

    New nodes are numbered children first, last argument first, and a node
    object met again keeps the location or expression it got the first
    time. Loading is one pass, linear in the term's distinct nodes: each
    maximal run of unary nodes is walked down once, and the constructors
    at its bottom are merged by one Heap.merge_run. A symbol the signature
    does not declare at that arity raises as validate_term does, before a
    node holding it is built."""
    sig = program.signature
    constructors = sig.constructors
    arity = {**sig.operations, **constructors}
    unary = {sym for sym, n in arity.items() if n == 1}
    built: dict[int, object] = {}  # id(node) -> its location, or its Expr
    stack: list = [term]  # nodes to load; a list is a run waiting for its bottom
    while stack:
        node = stack.pop()
        if type(node) is list:
            run = node
            below = built[id(run[-1].args[0])]
        elif id(node) in built:
            continue
        else:
            run = []  # the unary nodes above the first one built or not unary
            while type(node) is App:
                args = node.args
                if len(args) != 1 or id(node) in built:
                    break
                run.append(node)
                node = args[0]
            if id(node) in built:
                below = built[id(node)]
            elif type(node) is not App:
                raise HeapError(f"term is not ground: variable {node.name}")
            else:
                todo = [a for a in node.args if id(a) not in built]
                if todo:  # load the arguments, then come back to node and run
                    if run:
                        stack.append(run)
                    stack.append(node)
                    stack += todo
                    continue
                sym = node.sym
                if arity.get(sym) != len(node.args):
                    validate_term(sig, term)  # raises the signature's complaint
                kids = tuple([built[id(a)] for a in node.args])
                if sym in constructors and all(type(k) is int for k in kids):
                    below = heap.merge(sym, kids)
                else:
                    cls = ECon if sym in constructors else ECall
                    below = cls(sym, tuple([ELoc(k) if type(k) is int else k for k in kids]))
                built[id(node)] = below
        k = len(run)
        if k:
            syms = list(map(_SYM, run))
            if not unary.issuperset(syms):
                validate_term(sig, term)
        if k and type(below) is int:  # merge the run's constructor bottom at once
            while k and syms[k - 1] in constructors:
                k -= 1
            if k < len(run):
                locs = heap.merge_run(syms[k:][::-1], below)
                built.update(zip(map(id, reversed(run[k:])), locs))
                below = locs[-1]
        while k:  # the rest, from the lowest operation call up, stays symbolic
            k -= 1
            n = run[k]
            kid = ELoc(below) if type(below) is int else below
            below = (ECon if n.sym in constructors else ECall)(n.sym, (kid,))
            built[id(n)] = below
    root = built[id(term)]
    return heap, ELoc(root) if type(root) is int else root
