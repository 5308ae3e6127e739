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

Here no expression is built. `initial_expression` merges a ground term's
constructor-only subterms into the heap, and `core.compile_term`, the
compiler all engines share, turns the rest into postfix code whose values
are those locations. `run` drives that code through `core.execute`: postfix
order is leftmost-innermost order, and a call frame is an annotation. The
expressions and the literal one-step machine live beside the tests, which
hold `run` to it trace for trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from .core import CALL, CON, RET, VAL, compile_term, execute
from .errors import BudgetExceededError, HeapError
from .heap import Heap
from .terms import App, Program, Signature, Term, program_delta, validate_term


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
_SYM = attrgetter("sym")


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
    """Load a ground term for run: its constructor-only subterms are merged
    into heap, and compile_term makes the rest code that pushes their
    locations. Returns heap, extended, with the code.

    New nodes are numbered children first, last argument first, and a node
    object met again keeps the location it got the first time. Merging is
    one pass, linear in the term's distinct nodes: each maximal run of
    unary nodes is walked down once, and the constructors at its bottom are
    merged by one Heap.merge_run. A symbol the signature does not declare
    at that arity raises as validate_term does, before any merge of a node
    holding it."""
    sig = program.signature
    constructors = sig.constructors
    arity = {**sig.operations, **constructors}
    unary = {sym for sym, n in arity.items() if n == 1}
    built: dict[int, Optional[int]] = {}  # id(node) -> its location, None if not a value
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
                below = heap.merge(sym, kids) if sym in constructors and None not in kids else None
                built[id(node)] = below
        k = len(run)
        if k:
            syms = list(map(_SYM, run))
            if not unary.issuperset(syms):
                validate_term(sig, term)
            if below is not None:  # merge the run's constructor bottom at once
                while k and syms[k - 1] in constructors:
                    k -= 1
                if k < len(run):
                    locs = heap.merge_run(syms[k:][::-1], below)
                    built.update(zip(map(id, reversed(run[k:])), locs))
            built.update(dict.fromkeys(map(id, run[:k])))  # from the lowest call up
    return heap, compile_term(sig, term, vals=built)
