"""Flop-count formulas for the local kernels.

These are the standard LAPACK working-note counts; the factorization
schedules use them to attribute computation to ranks (the gamma term of
the performance model) and the benchmarks use them to convert time into
achieved flop/s.

All formulas accept NumPy arrays as well as scalars (broadcasting
elementwise), so the step-vectorized trace accounting in
:mod:`repro.engine.accounting` can evaluate them for every step at once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gemm_flops",
    "trsm_flops",
    "getrf_flops",
    "potrf_flops",
]


def _check_nonneg(**kwargs: float) -> None:
    # Schedules attribute flops per kernel call with scalar extents:
    # decide those by plain comparison, arrays (the step-vectorized
    # accounting, a batch of kernel calls) elementwise.
    for name, value in kwargs.items():
        if isinstance(value, (int, float, np.generic)):
            negative = value < 0
        else:
            negative = (value < 0).any()
        if negative:
            raise ValueError(f"{name} must be non-negative, got {value}")


def gemm_flops(m: float, n: float, k: float) -> float:
    """C (m x n) += A (m x k) @ B (k x n): ``2 m n k`` flops."""
    _check_nonneg(m=m, n=n, k=k)
    return 2.0 * m * n * k


def trsm_flops(m: float, n: float) -> float:
    """Triangular solve with ``m x m`` triangle and ``m x n`` RHS: ``m^2 n``."""
    _check_nonneg(m=m, n=n)
    return m * m * n


def getrf_flops(m: float, n: float) -> float:
    """LU of an ``m x n`` panel (LAPACK dgetrf count)."""
    _check_nonneg(m=m, n=n)
    if np.isscalar(m) and np.isscalar(n):
        if m >= n:
            return m * n * n - n ** 3 / 3.0 - n * n / 2.0 + 5.0 * n / 6.0
        return n * m * m - m ** 3 / 3.0 - m * m / 2.0 + 5.0 * m / 6.0
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    tall = m * n * n - n ** 3 / 3.0 - n * n / 2.0 + 5.0 * n / 6.0
    wide = n * m * m - m ** 3 / 3.0 - m * m / 2.0 + 5.0 * m / 6.0
    return np.where(m >= n, tall, wide)


def potrf_flops(n: float) -> float:
    """Cholesky of an ``n x n`` block: ``n^3/3 + n^2/2 + n/6``."""
    _check_nonneg(n=n)
    return n ** 3 / 3.0 + n * n / 2.0 + n / 6.0
