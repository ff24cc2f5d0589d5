"""Computational DAGs (cDAGs) for the red-blue pebble game.

Each vertex is the result of a unique computation (one *version* of an
array element — Section 2.2: ``A[i,j]`` before and after an update are
different vertices).  Vertices without incoming edges are the cDAG inputs.
Its outputs are the vertices without outgoing edges and those marked with
:meth:`CDag.mark_output`: a result that later computations also read
(an ``L`` entry of LU read by the trailing updates) must still be stored.

Vertex ids are arbitrary hashables;
:func:`repro.pebbles.builders.program_cdag` uses
``(array, *subscripts, version)`` tuples.
"""

from __future__ import annotations

from typing import Hashable, Iterator

__all__ = ["CDag", "CDagError"]


class CDagError(ValueError):
    """Malformed cDAG operation."""


class CDag:
    """A directed acyclic graph with explicit input/output classification.

    Acyclicity is validated lazily by :meth:`topological_order` (which the
    pebble-game schedulers always call); ``add_edge`` only checks vertex
    existence so that construction stays linear.
    """

    def __init__(self) -> None:
        self._preds: dict[Hashable, set[Hashable]] = {}
        self._succs: dict[Hashable, set[Hashable]] = {}
        self._marked: set[Hashable] = set()

    # ------------------------------------------------------------------
    def add_vertex(self, v: Hashable) -> None:
        if v not in self._preds:
            self._preds[v] = set()
            self._succs[v] = set()

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        if u == v:
            raise CDagError(f"self-loop on {u!r}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._preds[v].add(u)
        self._succs[u].add(v)

    def mark_output(self, v: Hashable) -> None:
        """Make ``v`` an output even though other vertices read it."""
        if v not in self._preds:
            raise CDagError(f"unknown vertex {v!r}")
        self._marked.add(v)

    # ------------------------------------------------------------------
    def __contains__(self, v: Hashable) -> bool:
        return v in self._preds

    def __len__(self) -> int:
        return len(self._preds)

    @property
    def num_vertices(self) -> int:
        return len(self._preds)

    def vertices(self) -> Iterator[Hashable]:
        return iter(self._preds.keys())

    def preds(self, v: Hashable) -> frozenset:
        try:
            return frozenset(self._preds[v])
        except KeyError:
            raise CDagError(f"unknown vertex {v!r}") from None

    def in_degree(self, v: Hashable) -> int:
        return len(self.preds(v))

    def inputs(self) -> set[Hashable]:
        """Vertices with no incoming edges (initial element versions)."""
        return {v for v, p in self._preds.items() if not p}

    def outputs(self) -> set[Hashable]:
        """Final results: vertices with no outgoing edges, and the marked
        ones."""
        return {v for v, s in self._succs.items() if not s} | self._marked

    def compute_vertices(self) -> set[Hashable]:
        """Non-input vertices (the ones a schedule must compute)."""
        return {v for v, p in self._preds.items() if p}

    # ------------------------------------------------------------------
    def topological_order(self) -> list[Hashable]:
        """Kahn topological order; raises :class:`CDagError` on a cycle."""
        indeg = {v: len(p) for v, p in self._preds.items()}
        ready = sorted((v for v, d in indeg.items() if d == 0), key=repr)
        order: list[Hashable] = []
        stack = list(reversed(ready))
        while stack:
            v = stack.pop()
            order.append(v)
            for w in sorted(self._succs[v], key=repr):
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        if len(order) != len(self._preds):
            raise CDagError("cDAG contains a cycle")
        return order
