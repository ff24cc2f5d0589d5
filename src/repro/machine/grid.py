"""Processor grids for 2D and 2.5D decompositions.

A :class:`ProcessorGrid2D` arranges ``P = Px * Py`` ranks in row-major
order; a :class:`ProcessorGrid3D` arranges ``P = Px * Py * Pz`` ranks with
the *layer* index ``pz`` slowest, matching the paper's ``[√P1, √P1, c]``
decomposition where layer 0 holds the authoritative copy of the input and
the remaining ``c - 1`` layers hold replicas used for parallelizing the
reduction (Schur) dimension.

The helpers :func:`choose_grid_2d` and :func:`choose_grid_25d` pick grid
shapes the way the implementation section of the paper describes: 2D grids
as square as possible, and 2.5D grids with replication factor
``c = clamp(P * M / N², 1, P^(1/3))``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator

import numpy as np

from .exceptions import GridError

__all__ = [
    "ProcessorGrid2D",
    "ProcessorGrid3D",
    "choose_grid_2d",
    "choose_grid_25d",
    "largest_square_divisor",
    "replication_factor",
    "sorted_divisors",
]


def largest_square_divisor(p: int) -> tuple[int, int]:
    """Split ``p`` into ``(px, py)`` with ``px * py == p`` as square as possible.

    Returns the factorization with ``px <= py`` minimizing ``py - px``.
    """
    if p <= 0:
        raise GridError(f"need positive rank count, got {p}")
    px = int(math.isqrt(p))
    while px > 1 and p % px != 0:
        px -= 1
    return px, p // px


def sorted_divisors(n: int) -> list[int]:
    """Every positive divisor of ``n`` in ascending order (empty for
    ``n == 0``), by trial division up to ``sqrt(n)``.

    The tile-size and panel-width defaults snap to a divisor of ``N`` once
    per schedule, and a sweep builds hundreds of schedules with ``N`` up
    to 262,144: the pairing ``d <-> n // d`` keeps that at ``O(sqrt(N))``.
    """
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


@dataclasses.dataclass(frozen=True)
class ProcessorGrid2D:
    """Row-major 2D grid of ``rows * cols`` ranks."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise GridError(f"invalid grid {self.rows}x{self.cols}")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def rank(self, pi: int, pj: int) -> int:
        if not (0 <= pi < self.rows and 0 <= pj < self.cols):
            raise GridError(f"coords ({pi},{pj}) outside {self.rows}x{self.cols}")
        return pi * self.cols + pj

    def coords(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.size:
            raise GridError(f"rank {rank} outside grid of size {self.size}")
        return divmod(rank, self.cols)

    def row_ranks(self, pi: int) -> list[int]:
        """All ranks in grid row ``pi`` (communicator for row broadcasts)."""
        return [self.rank(pi, pj) for pj in range(self.cols)]

    def col_ranks(self, pj: int) -> list[int]:
        """All ranks in grid column ``pj`` (communicator for column ops)."""
        return [self.rank(pi, pj) for pi in range(self.rows)]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for pi in range(self.rows):
            for pj in range(self.cols):
                yield (pi, pj)


@dataclasses.dataclass(frozen=True)
class ProcessorGrid3D:
    """3D grid ``[rows, cols, layers]``; ``layers`` is the replication dim.

    Rank order: layer-major, then row-major within a layer, i.e.
    ``rank = pk * rows * cols + pi * cols + pj``.  Layer ``pk = 0`` is the
    home layer (owns the authoritative input copy).
    """

    rows: int
    cols: int
    layers: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0 or self.layers <= 0:
            raise GridError(
                f"invalid grid {self.rows}x{self.cols}x{self.layers}")

    @property
    def size(self) -> int:
        return self.rows * self.cols * self.layers

    @property
    def layer_size(self) -> int:
        return self.rows * self.cols

    def rank(self, pi: int, pj: int, pk: int) -> int:
        if not (0 <= pi < self.rows and 0 <= pj < self.cols
                and 0 <= pk < self.layers):
            raise GridError(
                f"coords ({pi},{pj},{pk}) outside "
                f"{self.rows}x{self.cols}x{self.layers}")
        return pk * self.layer_size + pi * self.cols + pj

    def coords(self, rank: int) -> tuple[int, int, int]:
        if not 0 <= rank < self.size:
            raise GridError(f"rank {rank} outside grid of size {self.size}")
        pk, rem = divmod(rank, self.layer_size)
        pi, pj = divmod(rem, self.cols)
        return pi, pj, pk

    def layer_ranks(self, pk: int) -> list[int]:
        base = pk * self.layer_size
        return list(range(base, base + self.layer_size))

    def fiber_ranks(self, pi: int, pj: int) -> list[int]:
        """Ranks sharing 2D position ``(pi, pj)`` across all layers.

        This is the communicator of the reduction in steps 1 and 5 of
        Algorithm 1 (summing partial Schur contributions over layers).
        """
        return [self.rank(pi, pj, pk) for pk in range(self.layers)]

    def layer_grid(self) -> ProcessorGrid2D:
        """The 2D grid of a single layer."""
        return ProcessorGrid2D(self.rows, self.cols)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for pk in range(self.layers):
            for pi in range(self.rows):
                for pj in range(self.cols):
                    yield (pi, pj, pk)


def replication_factor(p: int, n: int, mem_words: float) -> int:
    """Replication depth ``c = clamp(P*M/N², 1, P^(1/3))`` (Section 7.2).

    ``c`` is additionally clamped to a divisor of ``p`` so the 3D grid is
    realizable.
    """
    if p <= 0 or n <= 0 or mem_words <= 0:
        raise GridError("p, n, mem_words must be positive")
    c_mem = int(p * mem_words / (n * n))
    c_max = int(round(p ** (1.0 / 3.0)))
    c = max(1, min(c_mem, c_max))
    while c > 1 and p % c != 0:
        c -= 1
    return c


def choose_grid_2d(p: int) -> ProcessorGrid2D:
    """As-square-as-possible 2D grid for ``p`` ranks (ScaLAPACK default)."""
    px, py = largest_square_divisor(p)
    return ProcessorGrid2D(px, py)


def choose_grid_25d(p: int, n: int, mem_words: float,
                    c: int | None = None) -> ProcessorGrid3D:
    """2.5D grid ``[rows, cols, c]`` with ``rows*cols = p/c``.

    If ``c`` is not given it is chosen by :func:`replication_factor`.
    """
    if c is None:
        c = replication_factor(p, n, mem_words)
    if c <= 0 or p % c != 0:
        raise GridError(f"replication factor {c} does not divide P={p}")
    p1 = p // c
    rows, cols = largest_square_divisor(p1)
    return ProcessorGrid3D(rows, cols, c)


def balanced_block_count(nblocks: int, nprocs: int, proc: int | np.ndarray,
                         first: int = 0):
    """Number of block indices in ``[first, nblocks)`` owned by ``proc``
    under a cyclic distribution ``owner(b) = b mod nprocs``.

    Vectorized over ``proc`` so trace-mode accounting can evaluate all grid
    coordinates at once.
    """
    if nblocks < 0 or first < 0:
        raise GridError("negative block range")
    remaining = max(0, nblocks - first)
    proc_arr = np.asarray(proc)
    # Shift so that the first remaining block has cyclic position 0.
    offset = (proc_arr - first) % nprocs
    counts = np.maximum(0, (remaining - offset + nprocs - 1) // nprocs)
    if np.isscalar(proc) or proc_arr.ndim == 0:
        return int(counts)
    return counts
