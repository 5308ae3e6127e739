"""Maximally shared constructor graphs: heaps, merging, unfolding, matching.

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
from .terms import App, Term, Var

Node = tuple[str, tuple[int, ...]]


class Heap:
    __slots__ = ("entries", "index")

    def __init__(self):
        self.entries: list[Node] = []  # location -> node
        self.index: dict[Node, int] = {}  # node -> location

    @classmethod
    def empty(cls) -> "Heap":
        return cls()

    def copy(self) -> "Heap":
        h = Heap()
        h.entries = self.entries.copy()
        h.index = self.index.copy()
        return h

    @property
    def node_count(self) -> int:
        return len(self.entries)

    def locations(self) -> range:
        return range(len(self.entries))

    def contains(self, loc: int) -> bool:
        return 0 <= loc < len(self.entries)

    def entry(self, loc: int) -> Node:
        if not self.contains(loc):
            raise HeapError(f"unknown location {loc}")
        return self.entries[loc]

    def nodes(self) -> list[tuple[int, str, tuple[int, ...]]]:
        return [(i, *node) for i, node in enumerate(self.entries)]

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

    def store_value(self, value: Term) -> int:
        """Merge every subterm of a constructor value; returns the root's location."""
        locs: dict[int, int] = {}
        stack: list[tuple[Term, bool]] = [(value, False)]
        while stack:
            node, done = stack.pop()
            if id(node) in locs:
                continue
            if isinstance(node, Var):
                raise HeapError("cannot store a non-ground term")
            if done:
                locs[id(node)] = self.merge(node.sym, tuple(locs[id(a)] for a in node.args))
            else:
                stack.append((node, True))
                stack.extend((a, False) for a in node.args)
        return locs[id(value)]

    def _reachable(self, roots: Iterable[int]) -> set[int]:
        seen: set[int] = set()
        stack = list(roots)
        entries = self.entries
        while stack:
            loc = stack.pop()
            if loc in seen:
                continue
            if not self.contains(loc):
                raise HeapError(f"unknown location {loc}")
            seen.add(loc)
            stack.extend(entries[loc][1])
        return seen

    def reachable_count(self, loc: int) -> int:
        """Number of nodes in the sub-DAG rooted at loc."""
        return len(self._reachable([loc]))

    def unfold(self, loc: int) -> Term:
        """The tree the location denotes; shares subterm objects per location."""
        need = sorted(self._reachable([loc]))
        entries = self.entries
        terms: dict[int, Term] = {}
        for l in need:  # children precede parents by construction
            sym, args = entries[l]
            terms[l] = App(sym, tuple(terms[a] for a in args))
        return terms[loc]

    def unfolded_size(self, loc: int) -> int:
        """Size of the unfolded tree, computed arithmetically (never materialized)."""
        need = sorted(self._reachable([loc]))
        entries = self.entries
        sizes: dict[int, int] = {}
        for l in need:
            sym, args = entries[l]
            sizes[l] = 1 + sum(sizes[a] for a in args)
        return sizes[loc]

    def to_dot(self, roots: Optional[Iterable[int]] = None) -> str:
        """GraphViz rendering; restricted to roots' sub-DAG when given."""
        if roots is None:
            locs = list(range(len(self.entries)))
        else:
            locs = sorted(self._reachable(list(roots)))
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


def match_pattern_at(heap: Heap, pattern: Term, loc: int) -> Optional[dict[str, int]]:
    """The binding of pattern's variables to locations if the pattern
    matches the sub-DAG at loc, else None. On a maximally shared heap,
    equal locations mean equal unfoldings, so a repeated variable needs
    equal locations."""
    binding: dict[str, int] = {}
    stack = [(pattern, loc)]
    entries = heap.entries
    n = len(entries)
    while stack:
        p, at = stack.pop()
        if isinstance(p, Var):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = at
            elif bound != at:
                return None
            continue
        if not 0 <= at < n:
            raise HeapError(f"unknown location {at}")
        sym, args = entries[at]
        if sym != p.sym or len(args) != len(p.args):
            return None
        stack.extend(zip(p.args, args))
    return binding
