"""Distributed solves on top of the factorizations.

The paper's library is a drop-in ScaLAPACK replacement, so factorizations
are only half the story: this module provides the ``pdgetrs`` /
``pdpotrs`` counterparts — right-hand-side solves against a
:class:`~repro.factorizations.common.FactorizationResult` — with the same
dual execution/accounting structure.

The solve is 1D-parallel over block rows (the standard distributed
substitution schedule): per block step, the owning rank solves its
diagonal block and broadcasts the fresh solution block; every rank then
updates its local rows.  Communication per rank is ``O(N * nrhs / v * 1)``
broadcast receives — ``O(N^2/P)``-free, i.e. asymptotically negligible
against the factorization, which the tests verify.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import blas
from ..machine.stats import CommStats
from .common import FactorizationResult

__all__ = ["lu_solve", "cholesky_solve", "SolveResult"]


class SolveResult:
    """Solution plus the solve's own communication counters."""

    def __init__(self, x: np.ndarray, comm: CommStats) -> None:
        self.x = x
        self.comm = comm

    @property
    def max_recv_words(self) -> float:
        return self.comm.max_recv_words


def _block_triangular_solve(tri: np.ndarray, b: np.ndarray, v: int,
                            nranks: int, stats: CommStats, lower: bool,
                            unit_diagonal: bool) -> np.ndarray:
    """1D block substitution with broadcast accounting.

    Block rows are distributed cyclically over ranks; each step solves
    one ``v x v`` diagonal block locally and broadcasts the solution
    block (``v * nrhs`` words to every other rank), then all ranks update
    their remaining rows.
    """
    n = tri.shape[0]
    nrhs = b.shape[1]
    x = b.astype(np.float64, copy=True)
    nblocks = math.ceil(n / v)
    order = range(nblocks) if lower else range(nblocks - 1, -1, -1)
    for idx, bi in enumerate(order):
        owner = bi % nranks
        lo, hi = bi * v, min((bi + 1) * v, n)
        xb, fl = blas.trsm(tri[lo:hi, lo:hi], x[lo:hi], side="left",
                           lower=lower, unit_diagonal=unit_diagonal)
        x[lo:hi] = xb
        stats.record_flops(owner, fl)
        if idx == nblocks - 1:
            continue
        # Broadcast the solved block to the other ranks.
        words = (hi - lo) * nrhs
        for r in range(nranks):
            if r != owner:
                stats.record_recv(r, words)
        # Trailing update: every rank updates its cyclic share of the
        # remaining rows.
        if lower:
            rest = slice(hi, n)
            block = tri[rest, lo:hi]
        else:
            rest = slice(0, lo)
            block = tri[rest, lo:hi]
        nrest = block.shape[0]
        if nrest:
            x[rest] -= block @ xb
            per_rank = 2.0 * nrest * nrhs * (hi - lo) / nranks
            for r in range(nranks):
                stats.record_flops(r, per_rank)
    return x


def lu_solve(result: FactorizationResult, b: np.ndarray,
             v: int | None = None) -> SolveResult:
    """Solve ``A x = b`` from a COnfLUX (or 2D LU) result.

    Applies the pivot permutation, then forward/backward substitution
    with broadcast-counted 1D block parallelism.
    """
    if result.lower is None or result.upper is None or result.perm is None:
        raise ValueError("need an executed LU result (lower/upper/perm)")
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.shape[0] != result.n:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix is {result.n}")
    v = v or int(result.params.get("v", result.params.get("nb", 64)))
    stats = CommStats(result.nranks)
    y = _block_triangular_solve(result.lower, b[result.perm], v,
                                result.nranks, stats, lower=True,
                                unit_diagonal=True)
    x = _block_triangular_solve(result.upper, y, v, result.nranks, stats,
                                lower=False, unit_diagonal=False)
    return SolveResult(x[:, 0] if squeeze else x, stats)


def cholesky_solve(result: FactorizationResult, b: np.ndarray,
                   v: int | None = None) -> SolveResult:
    """Solve ``A x = b`` from a COnfCHOX (or 2D Cholesky) result:
    ``L y = b`` then ``L^T x = y``."""
    if result.lower is None:
        raise ValueError("need an executed Cholesky result")
    if result.upper is not None:
        raise ValueError("got an LU result; use lu_solve")
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.shape[0] != result.n:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix is {result.n}")
    v = v or int(result.params.get("v", result.params.get("nb", 64)))
    stats = CommStats(result.nranks)
    y = _block_triangular_solve(result.lower, b, v, result.nranks, stats,
                                lower=True, unit_diagonal=False)
    x = _block_triangular_solve(result.lower.T, y, v, result.nranks, stats,
                                lower=False, unit_diagonal=False)
    return SolveResult(x[:, 0] if squeeze else x, stats)
