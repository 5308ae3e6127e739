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

Here no expression is built. `initial_expression` loads a ground term's
text with `parser.load_term`, or a term with `core.compile_term`: given
the heap, either merges the term's constructor-only subterms and turns
the rest into postfix code whose values are their locations. It is the
code the memo and naive engines run, which load_term gives them without
a heap, with terms as the values. `run` drives that code through
`core.execute`: postfix order is leftmost-innermost order, and a call
frame is an annotation. The expressions and the literal one-step machine
live beside the tests, which hold `run` to it trace for trace.

`run_traced` rebuilds a trace row per step from `core.execute`'s step
log, a batch at a time: an apply's leaf gives the change of weight, a
merge's location is a new node iff it is at or above the heap's size so
far, and a store adds a cache entry. So the machine itself calls nothing
per step, and `run` passes it no log at all.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .core import CALL, CON, RET, STORE, VAL, compile_term, execute
from .errors import BudgetExceededError, HeapError
from .heap import Heap
from .parser import load_term
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


class _CsvLog:
    """execute's log for a traced run: writes each batch of the step log
    to out as CSV rows, holding the index, weight, heap nodes and cache
    entries after the last step. Index and weight are formatted per row,
    the heap and cache sizes only when they change."""

    def __init__(self, out, weight: int, nodes: int):
        self.write = out.write
        self.i, self.w, self.n, self.c = 0, weight, nodes, 0

    def __call__(self, batch: list) -> None:
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
        self.write("".join(rows))


def run(
    program: Program, heap: Heap, code: tuple, step_budget: Optional[int] = None
) -> tuple[Configuration, RunStats]:
    """Run code that initial_expression loaded into heap to a location;
    returns the final configuration and counts. Code loaded against
    another heap or program raises HeapError before any step. The default
    budget is (1+delta)*10^7 plus the initial weight. The given heap is
    left as it was. run_traced observes the steps.
    """
    return _drive(program, heap, code, step_budget, None)


def run_traced(
    program: Program,
    heap: Heap,
    code: tuple,
    out,
    step_budget: Optional[int] = None,
) -> tuple[Configuration, RunStats]:
    """run() writing a CSV trace to out: the header, then one post-step
    row per step, rendered from the step log a batch at a time. Every
    step taken has its row when run_traced returns or raises."""
    out.write("step,kind,weight,heap_size,cache_size\n")
    return _drive(program, heap, code, step_budget, out)


def _drive(
    program: Program, heap: Heap, code: tuple, step_budget: Optional[int], out
) -> tuple[Configuration, RunStats]:
    """run(), writing the trace rows to out unless it is None."""
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
        limit=step_budget, log=None if out is None else _CsvLog(out, w0, len(entries)),
    )
    return Configuration(cache, heap, loc), RunStats(*counts, delta, w0)


def initial_expression(program: Program, heap: Heap, term: Union[Term, str]) -> tuple[Heap, tuple]:
    """Load a ground term, or its text, for run: constructor-only subterms
    merge into heap, the rest becomes code that pushes their locations, by
    compile_term or parser.load_term alike. Returns heap with the code."""
    if type(term) is str:
        return heap, load_term(term, program.signature, heap)
    return heap, compile_term(program.signature, term, heap=heap)
