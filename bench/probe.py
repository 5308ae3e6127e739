"""A fixed piece of pure-Python work that gauges the host's speed.

On a shared virtual machine the same work can take up to twice as long
from one second to the next, for every piece of code in the process at
once. The benchmark runs the probe right before and right after each job
and states the job's time in reference milliseconds:

    ref_ns = wall_ns * REF_PROBE_NS / probe_ns

that is, the time the job would take on a host where the probe takes
REF_PROBE_NS. A change to memotrs moves wall_ns and leaves the probe
alone, so it moves ref_ns by the same share; a change of host speed moves
both, and ref_ns keeps still. The probe does what memotrs does most:
calls, tuple keys in dicts, small objects and string building. It imports
nothing and keeps no state between calls.
"""

from __future__ import annotations

import gc
import time

# a probe takes about this long on the fast phase of the 2-vCPU machine
# where the benchmark was written; fixed, so that reference times compare
# across runs, commits and hosts
REF_PROBE_NS = 500_000


class _Node:
    __slots__ = ("tag", "kids", "size")

    def __init__(self, tag: str, kids: tuple):
        self.tag = tag
        self.kids = kids
        self.size = 1 + sum(k.size for k in kids)


def _work(rounds: int = 6) -> int:
    acc = 0
    for r in range(rounds):
        table: dict[tuple, _Node] = {}

        def node(tag: str, kids: tuple) -> _Node:
            key = (tag, tuple(id(k) for k in kids))
            got = table.get(key)
            if got is None:
                got = table[key] = _Node(tag, kids)
            return got

        def build(n: int) -> _Node:
            if n == 0:
                return node("zero", ())
            if n % 3 == 0:
                return node("b", (build(n - 1), build(n - 2) if n > 1 else build(0)))
            return node("suc", (build(n - 1),))

        top = build(12 + r % 3)
        parts = []
        stack = [top]
        while stack:
            t = stack.pop()
            parts.append(f"{t.tag}/{len(t.kids)}")
            stack.extend(t.kids)
            if len(parts) > 200:
                break
        acc += top.size + len(",".join(parts)) + len(table)
    return acc


def probe_ns() -> int:
    """Wall time of one probe, in ns, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - t
    finally:
        if enabled:
            gc.enable()
