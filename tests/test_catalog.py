"""Tests for the extended kernel catalog (framework generality)."""

import math

import pytest

from repro.lowerbounds import (
    DAAPError,
    derive_gemv_bound,
    derive_ldlt_bound,
    derive_syrk_bound,
    derive_trsm_bound,
    gemv_program,
    jacobi2d_program,
    ldlt_program,
    statement_intensity,
    syrk_program,
    trsm_program,
)


class TestTrsm:
    def test_update_statement_intensity(self):
        m = 1024.0
        res = statement_intensity(trsm_program().statement("S2"), m)
        assert res.rho == pytest.approx(math.sqrt(m) / 2, rel=1e-3)

    def test_bound_scales_as_matmul(self):
        """TRSM with N RHS does ~N^3 work with matmul-like structure:
        Q ~ N^3/sqrt(M)."""
        n, m = 2048, 1024.0
        b = derive_trsm_bound(n, m)
        assert b.sequential_bound == pytest.approx(
            n ** 3 / math.sqrt(m), rel=0.1)

    def test_divide_statement_capped(self):
        res = statement_intensity(trsm_program().statement("S1"), 4096.0)
        assert res.rho == 1.0


class TestSyrk:
    def test_intensity(self):
        m = 4096.0
        res = statement_intensity(syrk_program().statement("S1"), m)
        assert res.rho == pytest.approx(math.sqrt(m) / 2, rel=1e-3)

    def test_triangular_volume(self):
        n, m = 1024, 1024.0
        b = derive_syrk_bound(n, m)
        # |V| = n^2 (n+1)/2 over rho = sqrt(M)/2.
        expected = (n * n * (n + 1) / 2) / (math.sqrt(m) / 2)
        assert b.sequential_bound == pytest.approx(expected, rel=1e-2)

    def test_distinct_a_accesses_are_legal(self):
        """A[i,k] and A[j,k] use different dim-1 variables — disjoint."""
        syrk_program()  # must not raise


class TestLdlt:
    def test_matches_cholesky_shape(self):
        """LDL^T has the same leading bound as Cholesky."""
        from repro.lowerbounds import derive_cholesky_bound

        n, m = 2048, 1024.0
        ldlt = derive_ldlt_bound(n, m).sequential_bound
        chol = derive_cholesky_bound(n, m).sequential_bound
        assert ldlt == pytest.approx(chol, rel=0.05)

    def test_statement_rhos(self):
        m = 1024.0
        prog = ldlt_program()
        assert statement_intensity(prog.statement("S1"), m).rho == 1.0
        assert statement_intensity(prog.statement("S2"), m).rho == 1.0
        assert statement_intensity(prog.statement("S3"), m).rho == \
            pytest.approx(math.sqrt(m) / 2, rel=1e-3)


class TestGemv:
    def test_memory_insensitive(self):
        """BLAS-2: the bound is ~N^2 for any M (Lemma 6 / Figure 5a).

        The X-partition optimizer even tightens it slightly past N^2
        (rho dips below 1 at finite X because the vector accesses eat
        into the dominator budget), but the headline is that a 16K-fold
        increase in fast memory moves the bound by < 2%.
        """
        n = 4096
        b_small = derive_gemv_bound(n, 64.0).sequential_bound
        b_large = derive_gemv_bound(n, 2.0 ** 20).sequential_bound
        assert n * n <= b_small <= 1.1 * n * n
        assert n * n <= b_large <= 1.1 * n * n
        assert abs(b_small - b_large) / b_small < 0.02

    def test_rho_capped_at_one(self):
        res = statement_intensity(gemv_program().statement("S1"), 2.0 ** 20)
        assert res.rho <= 1.0 + 1e-9


class TestJacobiBoundary:
    def test_stencil_rejected(self):
        """Offset accesses violate the disjoint access property: the
        framework refuses rather than emitting an invalid bound."""
        with pytest.raises(DAAPError, match="constant offsets"):
            jacobi2d_program()

    def test_lu_not_flagged_by_offset_check(self):
        """The conservative check must not reject the paper's kernels."""
        from repro.lowerbounds import cholesky_program, lu_program, \
            matmul_program

        lu_program()
        cholesky_program()
        matmul_program()
        trsm_program()
        syrk_program()
        ldlt_program()
