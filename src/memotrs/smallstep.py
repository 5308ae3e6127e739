"""Small-step machine: the paper's machine over a maximally shared heap
with a reference cache.

The paper's machine rewrites an expression of symbol applications, heap
locations and annotation frames f<locs>{e}, the last marking an operation
call whose body is being evaluated. One step rewrites the unique
leftmost-innermost redex:

    apply   uncached call on locations: wrap the matched rule's right-hand
            side (variables become the matched locations) in an annotation
    read    cached call on locations: replace by the cached location
    store   annotation around a location: record it in the cache, keep the
            location
    merge   constructor on locations: merge into the heap, keep the location

Here no expression is built. `initial_expression` loads a ground term
with `core.compile_term`, the compiler all engines share: given the heap,
its one walk merges the term's constructor-only subterms and turns the
rest into postfix code whose values are their locations. `run` drives
that code through `core.execute`: postfix order is leftmost-innermost
order, and a call frame is an annotation. The expressions and the literal
one-step machine live beside the tests, which hold `run` to it trace for
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import CALL, CON, RET, VAL, compile_term, execute
from .errors import BudgetExceededError, HeapError
from .heap import Heap
from .terms import App, Program, Signature, Term, program_delta


RefCache = dict[tuple[str, tuple[int, ...]], int]


@dataclass(frozen=True)
class Configuration:
    cache: RefCache
    heap: Heap
    loc: int


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


def _weight(code: tuple, n: int, sig: Signature) -> int:
    """The weight of loaded code, one per symbol. HeapError for code not
    loaded against a heap of n nodes and sig: a location outside the heap,
    an undeclared symbol, any other instruction, or an unbalanced stack."""
    weight = depth = 0
    for op, a, b in code[:-1]:
        if op == VAL:
            if type(a) is not int or not 0 <= a < n:
                raise HeapError(f"unknown location {a!r}")
            depth += 1
            continue
        declared = sig.constructors if op == CON else sig.operations if op == CALL else {}
        if b is None or declared.get(a) != b or b > depth:
            raise HeapError(f"run takes loaded code, not {(op, a, b)!r}")
        weight += 1
        depth -= b - 1
    if depth != 1 or code[-1:] != ((RET, None, None),):
        raise HeapError("run takes loaded code: one value, then RET")
    return weight


def run(
    program: Program,
    heap: Heap,
    code: tuple,
    step_budget: Optional[int] = None,
    on_step: Optional[TraceFn] = None,
) -> tuple[Configuration, RunStats]:
    """Run code that initial_expression loaded into heap to a location;
    returns the final configuration and counts. Code loaded against
    another heap or program raises HeapError before any step.

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

    return _drive(program, heap, code, step_budget, None if on_step is None else observe)


def run_traced(
    program: Program,
    heap: Heap,
    code: tuple,
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

    return _drive(program, heap, code, step_budget, observe)


def _drive(
    program: Program, heap: Heap, code: tuple, step_budget: Optional[int], observe
) -> tuple[Configuration, RunStats]:
    """run(); observe(initial weight, heap nodes, cache) makes execute's emit."""
    delta = program_delta(program)
    w0 = _weight(code, heap.node_count, program.signature)
    if step_budget is None:
        step_budget = (1 + delta) * 10**7 + w0
    cache: RefCache = {}
    heap = heap.copy()

    def witness(sym: str, locs: tuple[int, ...]) -> Term:
        return App(sym, tuple(heap.unfold(l) for l in locs))

    def over(counts) -> BudgetExceededError:
        err = BudgetExceededError(f"machine exceeded {step_budget} steps", "shared", step_budget)
        err.stats = RunStats(*counts, delta, w0)
        return err

    loc, counts = execute(
        program, code, heap.entries.__getitem__, witness, heap.merge, over, cache=cache,
        limit=step_budget, emit=None if observe is None else observe(w0, heap.entries, cache),
    )
    return Configuration(cache, heap, loc), RunStats(*counts, delta, w0)


def initial_expression(program: Program, heap: Heap, term: Term) -> tuple[Heap, tuple]:
    """Load a ground term for run: compile_term merges its constructor-only
    subterms into heap and makes the rest code that pushes their
    locations. Returns heap, extended, with the code."""
    return heap, compile_term(program.signature, term, heap=heap)
