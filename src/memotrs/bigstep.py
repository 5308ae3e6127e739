"""Big-step evaluation: plain call-by-value and the cost-annotated memoizing form.

Both run the compiled program in `core.execute` over terms. The plain
evaluator counts one inference per node of every value it touches, as a
derivation that re-derives each value node by node would (that exponential
count on duplication-heavy programs is the point of having it), and its
budget bounds the total number of inferences. It computes that count
rather than re-deriving: it does not rebuild the values it counts (they
share nodes, and each term carries its tree size), and a call equal to one
that has returned is charged the inferences and firings stored for it
then, not run again. So the count is exact at every size, goes over a
budget where re-deriving would, and is stuck where re-deriving would be;
its time and memory are the memoizing evaluator's.
The memoizing evaluator caches operation calls on evaluated arguments; its
cost counts cache writes only, reads are free, and its budget bounds
machine steps.
"""

from __future__ import annotations

import math
from functools import partial
from operator import attrgetter
from typing import Callable, Optional

from .core import compile_term, execute
from .errors import BudgetExceededError
from .terms import SIZE_CAP, App, Program, Term, term_size, term_view

CacheKey = tuple[str, tuple[Term, ...]]
TermCache = dict[CacheKey, Term]


class NaiveResult:
    __slots__ = ("value", "rewrite_steps", "total_steps")

    def __init__(self, value: Term, rewrite_steps: int, total_steps: int):
        self.value, self.rewrite_steps, self.total_steps = value, rewrite_steps, total_steps


class CostedOutcome:
    __slots__ = ("cache", "value", "cost")

    def __init__(self, cache: TermCache, value: Term, cost: int):
        self.cache, self.value, self.cost = cache, value, cost


class MemoStats:
    """eval_memo's counts, each a total over every call it was passed to."""

    __slots__ = ("updates", "reads", "work")

    def __init__(self, updates: int = 0, reads: int = 0, work: int = 0):
        self.updates, self.reads, self.work = updates, reads, work

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.updates, self.reads, self.work) == (other.updates, other.reads, other.work)


def _run_terms(
    program: Program, term: Term, over: Callable, limit: Optional[float], **domain
):
    """Run a term through `core.execute` with terms as values; over() makes
    the error raised when the run needs more than limit steps. It makes a
    new one each time, so that no frame of an error's traceback holds the
    error: that would be a reference cycle, which only the collector frees."""
    code = compile_term(program.signature, term)
    return execute(
        program, code, term_view, App, App, lambda counts: over(), limit=limit, **domain
    )


def naive_run(program: Program, term: Term, budget: Optional[int] = None) -> NaiveResult:
    """Call-by-value evaluation as if without caching.

    Every inference counts toward the budget: one per constructor node
    derived (values included, every time they are derived), one per
    operation split, one per rule firing. A call equal to one already
    returned adds the counts stored for it, as re-deriving it would. A
    value is not rebuilt to be counted: its tree size is the count. A
    saturated size (SIZE_CAP) can only exceed a budget below the cap, as
    the exact size would; without a budget, or with one at or above the
    cap, term_size sums the exact size.
    """
    over = partial(
        BudgetExceededError, f"naive evaluation exceeded {budget} inferences", "naive", budget
    )
    exact = budget is None or budget >= SIZE_CAP
    cost = term_size if exact else attrgetter("size")
    limit = math.inf if budget is None else budget
    value, (applies, _, _, _, steps) = _run_terms(program, term, over, limit, push_cost=cost)
    return NaiveResult(value, applies, steps)


def eval_memo(
    program: Program,
    cache: TermCache,
    term: Term,
    budget: Optional[int] = None,
    stats: Optional[MemoStats] = None,
) -> CostedOutcome:
    """Memoized call-by-value evaluation with cost accounting.

    Cost counts cache writes (one per operation call evaluated via its rule);
    cache reads cost nothing. The input cache is not modified; the outcome
    carries the extended one. Constructor-only subterms of the input are
    values already and cost nothing. The optional budget bounds machine
    steps (applies, reads, stores and constructor merges, as the shared
    machine counts them) and exists to abort runaway evaluations.
    """
    over = partial(
        BudgetExceededError, f"memoized evaluation exceeded {budget} steps", "memo", budget
    )
    out: TermCache = dict(cache)
    value, (applies, reads, _, _, steps) = _run_terms(program, term, over, budget, cache=out)
    if stats is not None:
        stats.updates += applies
        stats.reads += reads
        stats.work += steps
    return CostedOutcome(out, value, applies)
