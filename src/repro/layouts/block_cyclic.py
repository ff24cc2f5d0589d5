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
    for store in machine.stores:
        tiles = [key for key in store.keys() if isinstance(key, tuple) and key]
        doomed = {first for first in {key[0] for key in tiles} if match(first)}
        if doomed:
            store.discard(*[key for key in tiles if key[0] in doomed])


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

    def block_shape(self, bi: int, bj: int) -> tuple[int, int]:
        """Extents of tile ``(bi, bj)`` (edge tiles may be smaller)."""
        self._check_block(bi, bj)
        rows = min(self.mb, self.m - bi * self.mb)
        cols = min(self.nb, self.n - bj * self.nb)
        return rows, cols

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

    def element_owner(self, ig: int, jg: int) -> int:
        if not (0 <= ig < self.m and 0 <= jg < self.n):
            raise LayoutError(f"element ({ig},{jg}) outside {self.m}x{self.n}")
        return self.owner_rank(ig // self.mb, jg // self.nb)

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
    def _tiles(self, machine: Machine):
        """``(owner's store, bi, bj, row range, column range)`` of every
        tile.  The machine is checked against the grid once; owners and
        (ragged) extents are computed per block row and column."""
        grid = self.grid
        machine.store(grid.rank(min(self.mblocks, grid.rows) - 1,
                                min(self.nblocks, grid.cols) - 1))
        cols = [slice(bj * self.nb, min((bj + 1) * self.nb, self.n))
                for bj in range(self.nblocks)]
        for bi in range(self.mblocks):
            rows = slice(bi * self.mb, min((bi + 1) * self.mb, self.m))
            first = grid.rank(bi % grid.rows, 0)
            for bj, sj in enumerate(cols):
                yield machine.stores[first + bj % grid.cols], bi, bj, rows, sj

    def scatter_from(self, machine: Machine, name: Hashable,
                     a: np.ndarray) -> None:
        """Place tiles of global matrix ``a`` into the owning rank stores.

        Initial distribution is free (the paper assumes the input already
        resides in the algorithm's layout; reshuffling costs only
        O(N^2/P), see Section 7.4), so no communication is recorded.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (self.m, self.n):
            raise LayoutError(f"matrix shape {a.shape} != ({self.m},{self.n})")
        for store, bi, bj, rows, cols in self._tiles(machine):
            store.put(block_key(name, bi, bj), a[rows, cols].copy())

    def gather_to(self, machine: Machine, name: Hashable) -> np.ndarray:
        """Reassemble the global matrix from the rank stores (free)."""
        out = np.empty((self.m, self.n))
        for store, bi, bj, rows, cols in self._tiles(machine):
            out[rows, cols] = store.get(block_key(name, bi, bj))
        return out
