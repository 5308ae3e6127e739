"""Maximally shared constructor graphs: heaps, merging, unfolding.

A heap is a multi-rooted acyclic graph of constructor nodes addressed by
integer locations. At most one node exists per (constructor, children) pair;
merge either finds that node or appends it at the next location, so
children always have smaller locations than their parents.

A heap is a plain append-only store: merge extends the receiver. A caller
that must keep a heap as it was works on a copy().
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import HeapError
from .terms import App, Term

Node = tuple[str, tuple[int, ...]]


class Heap:
    __slots__ = ("entries", "index")

    def __init__(self):
        self.entries: list[Node] = []  # location -> node
        self.index: dict[Node, int] = {}  # node -> location

    def copy(self) -> "Heap":
        h = Heap()
        h.entries = self.entries.copy()
        h.index = self.index.copy()
        return h

    @property
    def node_count(self) -> int:
        return len(self.entries)

    def entry(self, loc: int) -> Node:
        if not 0 <= loc < len(self.entries):
            raise HeapError(f"unknown location {loc}")
        return self.entries[loc]

    def merge(self, sym: str, args: tuple[int, ...]) -> int:
        """Find or append the node (sym, args); returns its location."""
        key = (sym, args)
        hit = self.index.get(key)
        if hit is not None:
            return hit
        loc = len(self.entries)
        for a in args:
            if not 0 <= a < loc:
                raise HeapError(f"dangling argument location {a}")
        self.entries.append(key)
        self.index[key] = loc
        return loc

    def merge_run(self, syms: list[str], loc: int) -> list[int]:
        """Merge the unary chain syms[0](loc), syms[1](that), ... bottom-up,
        as merge would node by node; returns each node's location."""
        entries = self.entries
        n = len(entries)
        if not 0 <= loc < n:
            raise HeapError(f"dangling argument location {loc}")
        find = self.index.setdefault
        locs: list[int] = []
        for sym in syms:
            key = (sym, (loc,))
            loc = find(key, n)
            if loc == n:  # a new node
                entries.append(key)
                n += 1
            locs.append(loc)
        return locs

    def _reachable(self, roots: Iterable[int]) -> list[int]:
        """Locations reachable from roots, in ascending order.

        One downward sweep from the highest root: children sit below their
        parents, so every location is marked before the sweep reaches it."""
        roots = list(roots)
        entries = self.entries
        for loc in roots:
            if not 0 <= loc < len(entries):
                raise HeapError(f"unknown location {loc}")
        if not roots:
            return []
        top = max(roots)
        marked = bytearray(top + 1)
        for loc in roots:
            marked[loc] = 1
        found: list[int] = []
        for loc in range(top, -1, -1):
            if marked[loc]:
                found.append(loc)
                for a in entries[loc][1]:
                    marked[a] = 1
        found.reverse()
        return found

    def reachable_count(self, loc: int) -> int:
        """Number of nodes in the sub-DAG rooted at loc."""
        return len(self._reachable([loc]))

    def unfold(self, loc: int) -> Term:
        """The tree the location denotes; shares subterm objects per location."""
        need = self._reachable([loc])  # ascending: children precede parents
        entries = self.entries
        terms: list = [None] * (loc + 1)
        for l in need:
            sym, args = entries[l]
            n = len(args)
            if n == 1:
                terms[l] = App(sym, (terms[args[0]],))
            elif n == 2:
                terms[l] = App(sym, (terms[args[0]], terms[args[1]]))
            else:
                terms[l] = App(sym, tuple([terms[a] for a in args]))
        return terms[loc]

    def unfolded_size(self, loc: int, limit: Optional[int] = None) -> int:
        """Size of the unfolded tree, computed arithmetically (never
        materialized). With limit, sizes saturate there: the result is
        min(size, limit), and every sum stays a small integer."""
        need = self._reachable([loc])
        entries = self.entries
        sizes = [0] * (loc + 1)
        for l in need:
            size = 1
            for a in entries[l][1]:
                size += sizes[a]
            sizes[l] = size if limit is None or size < limit else limit
        return sizes[loc]

    def to_dot(self, roots: Iterable[int]) -> str:
        """GraphViz rendering of the sub-DAG below roots; every location
        as a root draws the whole heap."""
        locs = self._reachable(roots)
        lines = ["digraph heap {"]
        entries = self.entries
        for l in locs:
            sym, args = entries[l]
            lines.append(f'  n{l} [label="l{l}: {sym}"];')
        for l in locs:
            _, args = entries[l]
            for i, a in enumerate(args, start=1):
                lines.append(f'  n{l} -> n{a} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Heap({len(self.entries)} nodes)"
