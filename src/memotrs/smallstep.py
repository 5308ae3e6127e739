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

A trace row is rebuilt from `core.execute`'s step log, a batch at a time:
an apply's leaf gives the change of weight, a merge's location is a new
node iff it is at or above the heap's size so far, and a store adds a
cache entry. `run_traced` renders each batch as CSV text and `run`
replays it to on_step, so the machine itself calls nothing per step.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional

from .core import APPLY, CALL, CON, MERGE, RET, STORE, VAL, compile_term, execute
from .errors import BudgetExceededError, HeapError
from .heap import Heap
from .terms import App, Program, Signature, Term, program_delta


RefCache = dict[tuple[str, tuple[int, ...]], int]


class Configuration(NamedTuple):
    cache: RefCache
    heap: Heap
    loc: int


class RunStats(NamedTuple):
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


class _Replay:
    """Rows rebuilt from a machine's step log batch by batch, holding the
    index, weight, heap nodes and cache entries after the last step."""

    def __init__(self, weight: int, nodes: int):
        self.i, self.w, self.n, self.c = 0, weight, nodes, 0

    def replay(self, batch: list, on_step: TraceFn) -> None:
        """Call on_step with each row, in step order."""
        i, w, n, c = self.i, self.w, self.n, self.c
        for e in batch:
            i += 1
            if type(e) is int:
                kind, w = MERGE, w - 1
                if e >= n:
                    n += 1
            elif type(e) is tuple:
                kind, w = APPLY, w + e[1]
            else:
                kind, w = e, w - 1
                if e is STORE:
                    c += 1
            on_step(i, kind, w, n, c)
        self.i, self.w, self.n, self.c = i, w, n, c

    def csv(self, batch: list) -> str:
        """The rows as CSV text: index and weight are formatted per row,
        the heap and cache sizes only when they change."""
        i, w, n, c = self.i, self.w, self.n, self.c
        tail = f",{n},{c}\n"
        rows: list[str] = []
        row = rows.append
        for e in batch:
            i += 1
            if type(e) is int:
                w -= 1
                if e >= n:
                    n += 1
                    tail = f",{n},{c}\n"
                row(f"{i},merge,{w}{tail}")
            elif type(e) is tuple:
                w += e[1]
                row(f"{i},apply,{w}{tail}")
            elif e is STORE:
                w -= 1
                c += 1
                tail = f",{n},{c}\n"
                row(f"{i},store,{w}{tail}")
            else:
                w -= 1
                row(f"{i},read,{w}{tail}")
        self.i, self.w, self.n, self.c = i, w, n, c
        return "".join(rows)


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

    on_step, when given, is called with (index, kind, weight, heap nodes,
    cache entries) after each step, in step order. The calls replay the
    machine's step log a batch at a time, so they trail the run instead
    of interleaving with it; every step taken has had its call when run
    returns or raises. The default budget is (1+delta)*10^7 plus the
    initial weight. The given heap is left as it was.
    """
    sink = None if on_step is None else lambda rows, batch: rows.replay(batch, on_step)
    return _drive(program, heap, code, step_budget, sink)


def run_traced(
    program: Program,
    heap: Heap,
    code: tuple,
    out,
    step_budget: Optional[int] = None,
) -> tuple[Configuration, RunStats]:
    """run() writing a CSV trace: one post-step row per step, header
    included, rendered from the step log a batch at a time."""
    out.write("step,kind,weight,heap_size,cache_size\n")
    return _drive(program, heap, code, step_budget, lambda rows, batch: out.write(rows.csv(batch)))


def _drive(
    program: Program, heap: Heap, code: tuple, step_budget: Optional[int], sink
) -> tuple[Configuration, RunStats]:
    """run(); sink(replay, batch), when given, takes each batch of the step
    log with the _Replay that renders it."""
    delta = program_delta(program)
    w0 = _weight(code, heap.node_count, program.signature)
    if step_budget is None:
        step_budget = (1 + delta) * 10**7 + w0
    cache: RefCache = {}
    heap = heap.copy()
    index, entries = heap.index, heap.entries

    def merge(sym: str, args: tuple[int, ...]) -> int:
        # Heap.merge without its bounds check: the machine merges only
        # locations the heap issued, and _weight checked the loaded ones
        key = (sym, args)
        loc = index.get(key)
        if loc is None:
            loc = index[key] = len(entries)
            entries.append(key)
        return loc

    def witness(sym: str, locs: tuple[int, ...]) -> Term:
        return App(sym, tuple(heap.unfold(l) for l in locs))

    def over(counts) -> BudgetExceededError:
        err = BudgetExceededError(f"machine exceeded {step_budget} steps", "shared", step_budget)
        err.stats = RunStats(*counts, delta, w0)
        return err

    loc, counts = execute(
        program, code, entries.__getitem__, witness, merge, over, cache=cache,
        limit=step_budget, log=None if sink is None else partial(sink, _Replay(w0, len(entries))),
    )
    return Configuration(cache, heap, loc), RunStats(*counts, delta, w0)


def initial_expression(program: Program, heap: Heap, term: Term) -> tuple[Heap, tuple]:
    """Load a ground term for run: compile_term merges its constructor-only
    subterms into heap and makes the rest code that pushes their
    locations. Returns heap, extended, with the code."""
    return heap, compile_term(program.signature, term, heap=heap)
