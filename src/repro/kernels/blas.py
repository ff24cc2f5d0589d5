"""Local dense kernels (the BLAS/LAPACK calls of Section 8).

The paper's implementation performs all node-local work through MKL BLAS
(``gemm``, ``trsm``) and LAPACK (``getrf``, ``potrf``).  Here the same
operations are provided as validated NumPy/SciPy routines that return both
the result and the exact flop count, so schedules can attribute
computation to the owning rank.

All routines are pure (inputs are never mutated) except the in-place
``gemm_acc`` / ``gemm_acc_many`` (into ``c``) and ``trsm_rows`` (into
``rows``), and all of them validate shapes eagerly: a schedule bug
should fail at the kernel boundary, not as a silent broadcast.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import flops as _flops

__all__ = ["gemm", "gemm_acc", "gemm_acc_many", "trsm", "trsm_rows",
           "getrf", "potrf", "KernelError", "SingularMatrixError"]


class KernelError(ValueError):
    """Invalid kernel invocation (shape mismatch, bad triangle, ...)."""


class SingularMatrixError(KernelError):
    """Factorization hit an exactly-zero pivot."""


@functools.cache
def _lapack():
    """``scipy.linalg``, imported by the first ``gemm_acc``/``trsm``/
    ``getrf``/``potrf`` call.

    Trace-mode processes (sweep workers, the planner, the plan service)
    import this module through the schedules but never solve anything;
    a module-level import would cost each of them SciPy's load time.
    """
    import scipy.linalg
    return scipy.linalg


def _as2d(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise KernelError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None,
         alpha: float = 1.0, beta: float = 1.0) -> tuple[np.ndarray, float]:
    """``alpha * A @ B + beta * C``; returns ``(result, flops)``."""
    a = _as2d(a, "a")
    b = _as2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise KernelError(f"gemm inner dims differ: {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    prod = a @ b
    if alpha != 1.0:
        prod *= alpha           # the product is this call's own array
    if c is None:
        result = prod
    else:
        c = _as2d(c, "c")
        if c.shape != (m, n):
            raise KernelError(f"gemm C shape {c.shape} != ({m},{n})")
        result = c + prod if beta == 1.0 else beta * c + prod
    return result, _flops.gemm_flops(m, n, k)


def gemm_acc(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """``C += A @ B`` into ``c`` itself, no ``m x n`` product temporary;
    returns the flops.  One product of :func:`gemm_acc_many`, its
    operands validated first."""
    a, b = _as2d(a, "a"), _as2d(b, "b")
    (m, k), n = a.shape, b.shape[1]
    if k != b.shape[0]:
        raise KernelError(f"gemm inner dims differ: {a.shape} @ {b.shape}")
    if (not isinstance(c, np.ndarray) or c.dtype != np.float64
            or c.shape != (m, n) or not c.flags.writeable):
        raise KernelError(f"gemm_acc needs a writeable float64 ({m},{n}) C")
    gemm_acc_many([(c, a, b)])
    return _flops.gemm_flops(m, n, k)


def gemm_acc_many(products: Sequence[tuple[np.ndarray, np.ndarray,
                                            np.ndarray]],
                  alpha: float = 1.0) -> None:
    """``C += alpha * A @ B`` into ``C`` itself, for every ``(C, A, B)``
    of ``products``.

    BLAS ``dgemm`` with ``beta = 1`` wants Fortran order, so a C-ordered
    ``c`` (a run of rows of a C-ordered array is one) is updated through
    its transpose, ``C^T += alpha B^T A^T`` (cf. :func:`_trtrs`); any
    other ``c`` takes ``c += alpha * (a @ b)``.  Every operand must be a
    2-D float64 ndarray, every ``c`` writeable, every product's shapes
    must agree: all checked from attributes in one pass before any
    ``c`` changes, so a product costs one Python-level call, the BLAS
    one.  Returns nothing: a caller that pads its operands with zeros
    charges the flops of the entries it means to update.
    """
    for c, a, b in products:
        if not (c.dtype == a.dtype == b.dtype == np.float64
                and c.ndim == a.ndim == b.ndim == 2 and c.flags.writeable
                and c.shape == (a.shape[0], b.shape[1])
                and a.shape[1] == b.shape[0]):
            raise KernelError(f"gemm_acc needs writeable float64 C {c.shape}"
                              f" += A {a.shape} @ B {b.shape}")
    dgemm = _lapack().blas.dgemm
    for c, a, b in products:
        if not (c.size and a.shape[1]):
            continue
        if c.flags.c_contiguous:
            dgemm(alpha, b.T, a.T, 1.0, c.T, overwrite_c=True)
        else:
            prod = a @ b
            if alpha != 1.0:
                prod *= alpha
            c += prod


def trsm(tri: np.ndarray, rhs: np.ndarray, side: str = "left",
         lower: bool = True, unit_diagonal: bool = False,
         ) -> tuple[np.ndarray, float]:
    """Triangular solve ``T X = RHS`` (side='left') or ``X T = RHS``.

    Returns ``(X, flops)``.
    """
    tri = _as2d(tri, "tri")
    rhs = _as2d(rhs, "rhs")
    if tri.shape[0] != tri.shape[1]:
        raise KernelError(f"triangle must be square, got {tri.shape}")
    t = tri.shape[0]
    if not unit_diagonal and np.any(np.diagonal(tri) == 0.0):
        raise SingularMatrixError("zero diagonal entry in triangular solve")
    if side == "left":
        if rhs.shape[0] != t:
            raise KernelError(f"trsm left: {tri.shape} vs rhs {rhs.shape}")
        x = _trtrs(tri, rhs, lower, unit_diagonal)
        fl = _flops.trsm_flops(t, rhs.shape[1])
    elif side == "right":
        if rhs.shape[1] != t:
            raise KernelError(f"trsm right: {tri.shape} vs rhs {rhs.shape}")
        # X T = RHS  <=>  T^T X^T = RHS^T
        x = _trtrs(tri.T, rhs.T, not lower, unit_diagonal).T
        fl = _flops.trsm_flops(t, rhs.shape[0])
    else:
        raise KernelError(f"side must be 'left' or 'right', got {side!r}")
    return x, fl


def trsm_rows(tris: Sequence[np.ndarray], rows: np.ndarray,
              parts: Sequence[slice],
              unit_diagonal: bool = False) -> np.ndarray:
    """``X T = B`` for an upper triangle ``T`` (:func:`trsm`'s
    ``side="right", lower=False``) for every block of rows
    ``B = rows[parts[i]]``, solved into ``rows`` itself; returns each
    block's flops.

    ``tris[i]`` is block ``i``'s copy of one triangle ``T`` (the copies
    of one broadcast block: equal values, possibly different memory
    orders).  ``rows`` must be a C-ordered, writeable float64 array, so
    every block's transpose is Fortran-ordered and LAPACK ``dtrtrs``
    solves it in place — the call :func:`trsm` makes, on the same
    data.  The triangle's diagonal is validated once, before any block
    changes; LAPACK's ``info`` is checked once, after the last solve.
    """
    if not parts:
        return np.zeros(0)
    tri = _as2d(tris[0], "tri")
    t = tri.shape[0]
    if tri.shape != (t, t):
        raise KernelError(f"triangle must be square, got {tri.shape}")
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64
            and rows.ndim == 2 and rows.shape[1] == t
            and rows.flags.c_contiguous and rows.flags.writeable):
        raise KernelError(f"trsm_rows needs a writeable C-ordered float64 "
                          f"(m,{t}) array")
    if len(tris) != len(parts) or any(part.step not in (None, 1)
                                      for part in parts):
        raise KernelError("trsm_rows needs one triangle per contiguous block")
    if not unit_diagonal and np.any(np.diagonal(tri) == 0.0):
        raise SingularMatrixError("zero diagonal entry in triangular solve")
    trtrs = _lapack().lapack.dtrtrs
    info = 0
    for tri, part in zip(tris, parts):
        if part.stop <= part.start:
            continue
        # _trtrs(T^T, B^T) with B^T overwritten: a C-ordered T^T (lower)
        # is passed as the upper T, transposed.
        if tri.T.flags.f_contiguous:
            _, bad = trtrs(tri.T, rows[part].T, True, 0, unit_diagonal,
                           overwrite_b=True)
        else:
            _, bad = trtrs(tri, rows[part].T, False, 1, unit_diagonal,
                           overwrite_b=True)
        info = info or bad
    if info:
        raise KernelError(f"dtrtrs failed with info={info}")
    return _flops.trsm_flops(t, np.array([part.stop - part.start
                                          for part in parts]))


def _trtrs(tri: np.ndarray, rhs: np.ndarray, lower: bool,
           unit_diagonal: bool) -> np.ndarray:
    """``tri @ x = rhs`` through LAPACK ``dtrtrs``, called as
    ``scipy.linalg.solve_triangular`` calls it (the same bits) minus
    that wrapper's per-call validation.  ``dtrtrs`` wants Fortran
    order, so a C-ordered triangle is passed as its transpose."""
    if rhs.size == 0:
        return np.empty_like(rhs)
    trtrs = _lapack().lapack.dtrtrs
    if tri.flags.f_contiguous:
        x, info = trtrs(tri, rhs, lower=lower, trans=0,
                        unitdiag=unit_diagonal)
    else:
        x, info = trtrs(tri.T, rhs, lower=not lower, trans=1,
                        unitdiag=unit_diagonal)
    if info:
        raise KernelError(f"dtrtrs failed with info={info}")
    return x


def getrf(a: np.ndarray,
          tolerant: bool = False) -> tuple[np.ndarray, np.ndarray, float]:
    """Partial-pivoting LU of a rectangular panel, packed LAPACK-style.

    Returns ``(lu, piv, flops)`` where ``lu`` holds ``L`` (unit diagonal
    implicit) below and ``U`` on/above the diagonal, and ``piv[i]`` is the
    row swapped with row ``i`` at step ``i`` (LAPACK ipiv, 0-based).
    The factorization is LAPACK ``dgetrf``; the leading ``k x k`` block
    of ``lu`` (``k = min(m, n)``) factors the first ``k`` rows of the
    pivoted panel.

    ``tolerant=True`` mirrors LAPACK's ``info > 0`` behaviour: an exactly
    zero pivot leaves the column uneliminated instead of raising — used
    by tournament pivoting's candidate selection, where rank-deficient
    local blocks are legal (the playoff rounds weed them out).
    """
    a = _as2d(a, "a")
    m, n = a.shape
    if min(m, n) == 0:
        return a.copy(), np.arange(0), _flops.getrf_flops(m, n)
    a, piv, info = _lapack().lapack.dgetrf(a)
    if info < 0:
        raise KernelError(f"dgetrf failed with info={info}")
    if info > 0 and not tolerant:
        raise SingularMatrixError(f"zero pivot at column {info - 1}")
    return a, piv, _flops.getrf_flops(m, n)


def potrf(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor (lower) of a symmetric positive-definite block.

    Returns ``(L, flops)``; raises :class:`KernelError` if the block is
    not positive definite.
    """
    a = _as2d(a, "a")
    if a.shape[0] != a.shape[1]:
        raise KernelError(f"potrf needs a square block, got {a.shape}")
    try:
        chol = _lapack().cholesky(a, lower=True)
    except np.linalg.LinAlgError as exc:
        raise KernelError(f"block not positive definite: {exc}") from exc
    return chol, _flops.potrf_flops(a.shape[0])


def pivots_to_permutation(piv: np.ndarray, m: int) -> np.ndarray:
    """Convert LAPACK-style swap vector to a permutation ``perm`` such that
    ``A[perm]`` equals the row ordering produced by the swaps."""
    perm = list(range(m))
    for i, p in enumerate(np.asarray(piv).tolist()):
        perm[i], perm[p] = perm[p], perm[i]
    return np.array(perm, dtype=np.intp)


__all__.append("pivots_to_permutation")
