"""Catalog of additional DAAP kernels (framework generality).

Section 3 stresses the method "covers a much wider spectrum of
algorithms" than the factorizations; Section 4 names "matrix
factorizations, tensor products, or solvers".  This catalog applies the
pipeline to more kernels, each with its derived intensity and bound:

========================  ===========  =====================
kernel                     rho          sequential bound
========================  ===========  =====================
triangular solve (TRSM)    sqrt(M)/2    ~ N^3 / sqrt(M)
symmetric rank-k (SYRK)    sqrt(M)/2    ~ N^3 / sqrt(M) *
LDL^T factorization        sqrt(M)/2    ~ N^3 / (3 sqrt(M))
matrix-vector (GEMV)       1            ~ N^2
2D Jacobi stencil          (rejected)   outside the DAAP class
========================  ===========  =====================

(* with the triangular iteration space folded into |V|.)

GEMV illustrates Lemma 6 / the no-reuse regime: every multiply consumes
an out-degree-one matrix element, so no amount of fast memory helps —
the bound is Omega(N^2) regardless of M, the defining property of
BLAS-2 kernels.  The Jacobi stencil illustrates the *boundary* of the
framework: its offset accesses violate the disjoint access property, so
program construction raises (polyhedral techniques cover that class —
the paper's Table 3 comparison).
"""

from __future__ import annotations

from .bounds import ProgramBound, derive_program_bound
from .daap import ArrayAccess, Program, Statement

__all__ = [
    "trsm_program", "syrk_program", "ldlt_program", "gemv_program",
    "jacobi2d_program",
    "derive_trsm_bound", "derive_syrk_bound", "derive_ldlt_bound",
    "derive_gemv_bound",
]


def trsm_program() -> Program:
    """Triangular solve with N right-hand sides, ``L X = B``::

        S1: X[k,j] <- B[k,j] / L[k,k]
        S2: B[i,j] <- B[i,j] - L[i,k] * X[k,j]   (k < i)

    The update statement is matmul-shaped: rho = sqrt(M)/2.
    """
    s1 = Statement(
        name="S1",
        loop_vars=("k", "j"),
        output=ArrayAccess("X", ("k", "j")),
        inputs=(ArrayAccess("B", ("k", "j")), ArrayAccess("L", ("k", "k"))),
        num_vertices=lambda n: float(n) * n,
        min_unique_inputs=1,
    )
    s2 = Statement(
        name="S2",
        loop_vars=("k", "i", "j"),
        output=ArrayAccess("B", ("i", "j")),
        inputs=(ArrayAccess("B", ("i", "j")), ArrayAccess("L", ("i", "k")),
                ArrayAccess("X", ("k", "j"))),
        num_vertices=lambda n: n * n * (n - 1) / 2.0,
    )
    return Program("trsm", (s1, s2))


def syrk_program() -> Program:
    """Symmetric rank-k update ``C <- C - A A^T`` (lower triangle)::

        S1: C[i,j] <- C[i,j] - A[i,k] * A[j,k]   (j <= i)

    Same access structure as matmul (the two A accesses are distinct
    patterns), so rho = sqrt(M)/2; |V| = n^2(n+1)/2 over the triangle.
    """
    s1 = Statement(
        name="S1",
        loop_vars=("i", "j", "k"),
        output=ArrayAccess("C", ("i", "j")),
        inputs=(ArrayAccess("C", ("i", "j")), ArrayAccess("A", ("i", "k")),
                ArrayAccess("A", ("j", "k"))),
        num_vertices=lambda n: n * n * (n + 1) / 2.0,
    )
    return Program("syrk", (s1,))


def ldlt_program() -> Program:
    """LDL^T factorization of a symmetric indefinite matrix (no
    pivoting)::

        S1: D[k]   <- A[k,k]                       (after updates)
        S2: L[i,k] <- A[i,k] / D[k]                (k < i)
        S3: A[i,j] <- A[i,j] - L[i,k]*D[k]*L[j,k]  (k < j <= i)

    Cholesky-shaped: the Schur statement dominates with rho = sqrt(M)/2
    and |V3| = n(n-1)(n-2)/6.
    """
    s1 = Statement(
        name="S1",
        loop_vars=("k",),
        output=ArrayAccess("D", ("k",)),
        inputs=(ArrayAccess("A", ("k", "k")),),
        num_vertices=lambda n: float(n),
        min_unique_inputs=1,
    )
    s2 = Statement(
        name="S2",
        loop_vars=("k", "i"),
        output=ArrayAccess("L", ("i", "k")),
        inputs=(ArrayAccess("A", ("i", "k")), ArrayAccess("D", ("k",))),
        num_vertices=lambda n: n * (n - 1) / 2.0,
        min_unique_inputs=1,
    )
    s3 = Statement(
        name="S3",
        loop_vars=("k", "i", "j"),
        output=ArrayAccess("A", ("i", "j")),
        inputs=(ArrayAccess("A", ("i", "j")), ArrayAccess("L", ("i", "k")),
                ArrayAccess("L", ("j", "k"))),
        num_vertices=lambda n: n * (n - 1) * (n - 2) / 6.0,
    )
    return Program("ldlt", (s1, s2, s3))


def gemv_program() -> Program:
    """Matrix-vector product ``y <- y + A x`` — the BLAS-2 archetype::

        S1: y[i] <- y[i] + A[i,j] * x[j]

    Every compute vertex consumes the out-degree-one input ``A[i,j]``
    (Lemma 6 with u = 1 — Figure 5a of the paper), so rho <= 1 for any
    M: fast memory cannot reduce the Omega(N^2) traffic.
    """
    s1 = Statement(
        name="S1",
        loop_vars=("i", "j"),
        output=ArrayAccess("y", ("i",)),
        inputs=(ArrayAccess("y", ("i",)), ArrayAccess("A", ("i", "j")),
                ArrayAccess("x", ("j",))),
        num_vertices=lambda n: float(n) * n,
        min_unique_inputs=1,
    )
    return Program("gemv", (s1,))


def jacobi2d_program(steps_fraction: float = 1.0) -> Program:
    """T-step 2D Jacobi stencil — deliberately NOT a DAAP.

        S1: B[t,i,j] <- f(B[t-1,i,j], B[t-1,i-1,j], B[t-1,i+1,j],
                          B[t-1,i,j-1], B[t-1,i,j+1])

    The five reads differ only by constant offsets, so across iterations
    the *same vertex* is referenced by several access function vectors —
    the disjoint access property fails, and the DAAP intensity arguments
    would produce an invalid bound (rho would be capped at 1/5 while the
    real reuse allows far more).  Constructing this program therefore
    raises :class:`~repro.lowerbounds.daap.DAAPError` — the framework
    boundary the paper's Table 3 assigns to polyhedral techniques.
    """
    s1 = Statement(
        name="S1",
        loop_vars=("t", "i", "j"),
        output=ArrayAccess("B", ("t", "i", "j")),
        inputs=(ArrayAccess("B", ("t-1", "i", "j")),
                ArrayAccess("B", ("t-1", "i-1", "j")),
                ArrayAccess("B", ("t-1", "i+1", "j")),
                ArrayAccess("B", ("t-1", "i", "j-1")),
                ArrayAccess("B", ("t-1", "i", "j+1"))),
        num_vertices=lambda n: steps_fraction * float(n) ** 3,
    )
    return Program("jacobi2d", (s1,))


def derive_trsm_bound(n: float, mem_words: float,
                      p: float = 1.0) -> ProgramBound:
    """Pipeline on TRSM: the S2 bound is ~N^3/sqrt(M) leading order."""
    return derive_program_bound(trsm_program(), n, mem_words, p)


def derive_syrk_bound(n: float, mem_words: float,
                      p: float = 1.0) -> ProgramBound:
    """Pipeline on SYRK: ~N^3/sqrt(M) over the triangular domain."""
    return derive_program_bound(syrk_program(), n, mem_words, p)


def derive_ldlt_bound(n: float, mem_words: float,
                      p: float = 1.0) -> ProgramBound:
    """Pipeline on LDL^T: identical leading term to Cholesky."""
    return derive_program_bound(ldlt_program(), n, mem_words, p)


def derive_gemv_bound(n: float, mem_words: float,
                      p: float = 1.0) -> ProgramBound:
    """Pipeline on GEMV: Omega(N^2) regardless of M (BLAS-2)."""
    return derive_program_bound(gemv_program(), n, mem_words, p)
