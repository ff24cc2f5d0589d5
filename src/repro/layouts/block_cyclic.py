"""2D block-cyclic layout over a processor grid.

This is the layout of ScaLAPACK, MKL and (tile-wise) SLATE, and the
within-layer layout of the 2.5D algorithms.  A global ``m x n`` matrix is
tiled into ``mb x nb`` blocks; block ``(bi, bj)`` lives on grid process
``(bi mod Pr, bj mod Pc)``.

:class:`BlockCyclicLayout` answers ownership queries (vectorized where the
trace-mode accounting needs them) and can scatter/gather real matrices
to/from a :class:`~repro.machine.comm.Machine`'s rank stores, so the same
object serves execution mode and trace mode.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Hashable

import numpy as np

from ..machine.comm import Machine
from ..machine.exceptions import LayoutError
from ..machine.grid import ProcessorGrid2D
from ..machine.store import RankStore
from .descriptors import numroc

__all__ = ["BlockCyclicLayout", "block_key", "work_name", "discard_matrix",
           "discard_work"]


def block_key(name: Hashable, bi: int, bj: int) -> tuple[Hashable, int, int]:
    """Canonical store key of tile ``(bi, bj)`` of distributed matrix ``name``."""
    return (name, bi, bj)


def work_name(name: str) -> tuple[str, str]:
    """Matrix name of a schedule's private working tiles.

    Callers name their distributed operands with strings; a schedule
    keeps its own tiles (the 2D baselines' ``A``, the matmul's
    ``A``/``B``/``C``, the 2.5D partial sums ``P``) under this
    tuple-valued name, which no operand name can equal — so a caller's
    matrix called ``"A"`` is not overwritten by the schedule running
    on it.
    """
    return ("work", name)


def _discard_names(machine: Machine, match) -> None:
    """Discard every tuple key whose first element ``match`` accepts:
    one walk over each store's keys, ``match`` asked once per distinct
    first element."""
    verdict: dict = {}
    for store in machine.stores:
        doomed = []
        for key in store.keys():
            if isinstance(key, tuple) and key:
                try:
                    hit = verdict[key[0]]
                except KeyError:
                    hit = verdict[key[0]] = match(key[0])
                if hit:
                    doomed.append(key)
        if doomed:
            store.discard(*doomed)


def discard_matrix(machine: Machine, name: Hashable) -> None:
    """Free distributed matrix ``name``: every ``(name, ...)`` key of
    every rank's store, whatever tiling it was stored in."""
    _discard_names(machine, lambda first: first == name)


def discard_work(machine: Machine, *names: Hashable) -> None:
    """Free every key under any :func:`work_name`, and of the named
    matrices ``names``, from every rank's store in one pass: a
    schedule's tiles and transients belong to the call that ran it
    (see :mod:`repro.api`)."""
    _discard_names(machine, lambda first: first in names or (
        isinstance(first, tuple) and first[:1] == ("work",)))


@dataclasses.dataclass(frozen=True)
class BlockCyclicLayout:
    """Block-cyclic distribution of an ``m x n`` matrix on a 2D grid."""

    m: int
    n: int
    mb: int
    nb: int
    grid: ProcessorGrid2D

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0:
            raise LayoutError(f"matrix extents must be positive: {self.m}x{self.n}")
        if self.mb <= 0 or self.nb <= 0:
            raise LayoutError(f"block sizes must be positive: {self.mb}x{self.nb}")

    # ------------------------------------------------------------------
    # Block geometry
    # ------------------------------------------------------------------
    @property
    def mblocks(self) -> int:
        return math.ceil(self.m / self.mb)

    @property
    def nblocks(self) -> int:
        return math.ceil(self.n / self.nb)

    def _check_block(self, bi: int, bj: int) -> None:
        if not (0 <= bi < self.mblocks and 0 <= bj < self.nblocks):
            raise LayoutError(
                f"block ({bi},{bj}) outside {self.mblocks}x{self.nblocks}")

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def owner_coords(self, bi: int, bj: int) -> tuple[int, int]:
        self._check_block(bi, bj)
        return bi % self.grid.rows, bj % self.grid.cols

    def owner_rank(self, bi: int, bj: int) -> int:
        pi, pj = self.owner_coords(bi, bj)
        return self.grid.rank(pi, pj)

    def blocks_of_rank(self, rank: int) -> list[tuple[int, int]]:
        pi, pj = self.grid.coords(rank)
        return [(bi, bj)
                for bi in range(pi, self.mblocks, self.grid.rows)
                for bj in range(pj, self.nblocks, self.grid.cols)]

    def local_words(self, rank: int) -> int:
        """Words resident on ``rank`` (0 outside the grid): local rows
        times local columns; no rank holds more than rank 0."""
        if rank >= self.grid.size:
            return 0
        pi, pj = self.grid.coords(rank)
        return (numroc(self.m, self.mb, pi, 0, self.grid.rows)
                * numroc(self.n, self.nb, pj, 0, self.grid.cols))

    def words_per_rank(self) -> np.ndarray:
        """Resident words of all ranks: local rows x local columns."""
        rows, cols = self.grid.rows, self.grid.cols
        return np.outer(
            [numroc(self.m, self.mb, pi, 0, rows) for pi in range(rows)],
            [numroc(self.n, self.nb, pj, 0, cols) for pj in range(cols)],
        ).ravel().astype(float)

    # ------------------------------------------------------------------
    # Data movement to/from a simulated machine
    # ------------------------------------------------------------------
    def _ranks(self, machine: Machine) -> list[tuple[RankStore, list]]:
        """``(store, blocks)`` of ranks ``0..`` the last one holding a
        tile, the blocks row-major.  The machine is checked once."""
        grid = self.grid
        last = grid.rank(min(self.mblocks, grid.rows) - 1,
                         min(self.nblocks, grid.cols) - 1)
        machine.store(last)
        return [(machine.stores[rank], self.blocks_of_rank(rank))
                for rank in range(last + 1)]

    def _spans(self) -> tuple[list[slice], list[slice]]:
        """The global rows of each block row, the columns of each block
        column."""
        return ([slice(i, min(i + self.mb, self.m)) for i in range(0, self.m, self.mb)],
                [slice(j, min(j + self.nb, self.n)) for j in range(0, self.n, self.nb)])

    def _held(self, machine: Machine, name: Hashable) -> list[list[np.ndarray]]:
        """The tiles of matrix ``name`` as the stores hold them, indexed
        ``[bi][bj]``."""
        held = [[None] * self.nblocks for _ in range(self.mblocks)]
        for store, blocks in self._ranks(machine):
            for (bi, bj), tile in zip(blocks, store.get_many([(name, *b) for b in blocks])):
                held[bi][bj] = tile
        return held

    def _register(self, machine: Machine, name: Hashable,
                  tiles: list[list[np.ndarray]]) -> None:
        """Store ``tiles`` (indexed ``[bi][bj]``) as matrix ``name``, one
        ``put_many`` per rank, as a ``put`` per tile in row-major order
        would: that loop refuses the least ``(bi, bj)`` that does not
        fit, so every rank stores its tiles before that one, and the
        refusing rank, last, raises at it."""
        batches = [(store, [((name, bi, bj), tiles[bi][bj]) for bi, bj in blocks])
                   for store, blocks in self._ranks(machine)]
        refused = [(batch[fit][0][1:], r) for r, (store, batch) in enumerate(batches)
                   if (fit := store.room(batch)) < len(batch)]
        if refused:
            cut, last = min(refused)
            batches = [(store, [item for item in batch if item[0][1:] <= cut]) for store, batch
                       in batches[:last] + batches[last + 1:] + batches[last:last + 1]]
        for store, batch in batches:
            store.put_many(batch)

    def _tiles(self, a: np.ndarray) -> list[list[np.ndarray]]:
        """The tiles of global matrix ``a``, indexed ``[bi][bj]``, as
        views of it."""
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (self.m, self.n):
            raise LayoutError(f"matrix shape {a.shape} != ({self.m},{self.n})")
        rows, cols = self._spans()
        return [[a[r, c] for c in cols] for r in rows]

    def scatter_from(self, machine: Machine, name: Hashable,
                     a: np.ndarray) -> None:
        """Place tiles of global matrix ``a`` into the owning rank stores,
        one array each.

        Initial distribution is free (the paper assumes the input already
        resides in the algorithm's layout; reshuffling costs only
        O(N^2/P), see Section 7.4), so no communication is recorded.
        """
        self._register(machine, name, [[tile.copy() for tile in row]
                                       for row in self._tiles(a)])

    def view_from(self, machine: Machine, name: Hashable,
                  a: np.ndarray) -> None:
        """Place the tiles of global matrix ``a`` into the owning rank
        stores as views of ``a``: the words, peaks and refusal order of
        :meth:`scatter_from` (and, like it, free), no tile copied.  The
        stores then share ``a``'s memory, so ``a`` should be read-only;
        its views are then read-only too."""
        self._register(machine, name, self._tiles(a))

    def gather_to(self, machine: Machine, name: Hashable) -> np.ndarray:
        """Reassemble the global matrix from the tiles the stores hold
        (free)."""
        out = np.empty((self.m, self.n))
        rows, cols = self._spans()
        for r, held in zip(rows, self._held(machine, name)):
            for c, tile in zip(cols, held):
                out[r, c] = tile
        return out
