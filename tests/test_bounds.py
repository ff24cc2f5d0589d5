"""Tests for the lower-bound pipeline and closed forms (Sections 4-6)."""

import math

import pytest

from repro.analysis.reporting import derived_bounds
from repro.lowerbounds import (
    analyze_statement,
    cholesky_io_lower_bound,
    cholesky_program,
    derive_cholesky_bound,
    derive_lu_bound,
    derive_matmul_bound,
    lu_io_lower_bound,
    lu_program,
    matmul_io_lower_bound,
    output_reuse_weights,
)

from oracle import statement


NON_FINITE = [(math.nan, 4, 64.0), (math.inf, 4, 64.0), (64, math.nan, 64.0),
              (64, math.inf, 64.0), (64, 4, math.nan), (64, 4, math.inf)]


#: kernel's pipeline entry point -> its Schur-update statement.
SCHUR = {derive_lu_bound: "S2", derive_cholesky_bound: "S3"}


def schur_bound(derive, n, p, m):
    """The bound's share from the Schur statement, per rank: its
    leading term."""
    return derive(n, m, p).per_statement[SCHUR[derive]].io_lower_bound / p


class TestDerivedScaling:
    def test_lu_leading_term(self):
        """LU's Schur share is ``2 |S2| / (P sqrt(M))``, ``|S2| =
        (N-1)N(2N-1)/6``: ``2N^3/(3P sqrt(M))`` to leading order."""
        n, p, m = 2 ** 14, 1024, 2.0 ** 20
        assert schur_bound(derive_lu_bound, n, p, m) == pytest.approx(
            (n - 1) * n * (2 * n - 1) / (3 * p * math.sqrt(m)), rel=1e-12)

    def test_cholesky_is_half_of_lu(self):
        """Cholesky's leading term is half of LU's (Section 6.2)."""
        n, p, m = 2 ** 16, 256, 2.0 ** 22
        assert schur_bound(derive_cholesky_bound, n, p, m) == pytest.approx(
            schur_bound(derive_lu_bound, n, p, m) / 2, rel=1e-4)

    def test_scaling_in_p(self):
        n, m = 8192, 2.0 ** 20
        assert derive_lu_bound(n, m, 64).parallel_bound == pytest.approx(
            2 * derive_lu_bound(n, m, 128).parallel_bound, rel=1e-15)

    def test_scaling_in_m(self):
        """Doubling M cuts the leading term by sqrt(2) — the 2.5D payoff."""
        n, p = 2 ** 15, 512
        q1 = schur_bound(derive_lu_bound, n, p, 2.0 ** 20)
        q2 = schur_bound(derive_lu_bound, n, p, 2.0 ** 21)
        assert q1 / q2 == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_full_bound_exceeds_leading(self):
        n, p, m = 4096, 64, 2.0 ** 18
        for derive in (derive_lu_bound, derive_cholesky_bound):
            assert derive(n, m, p).parallel_bound > \
                schur_bound(derive, n, p, m)


class TestClosedForms:
    """The printed Section 6 formulas, kept as a reference column."""

    def test_matmul(self):
        assert matmul_io_lower_bound(1024, 1, 4096) == \
            pytest.approx(2 * 1024 ** 3 / 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            lu_io_lower_bound(10, 0, 10)
        with pytest.raises(ValueError):
            cholesky_io_lower_bound(10, 1, -1)

    @pytest.mark.parametrize("closed", [
        lu_io_lower_bound, cholesky_io_lower_bound, matmul_io_lower_bound])
    @pytest.mark.parametrize("n, p, m", NON_FINITE)
    def test_rejects_non_finite(self, closed, n, p, m):
        with pytest.raises(ValueError):
            closed(n, p, m)


def assert_lu_identity(n, p, m):
    """The derivation over the exact vertex count (``(N-1)N(2N-1)/6``
    Schur updates over ``k < i, j < N``) exceeds the printed Section 6.1
    form, which counts ``N(N-1)(N-2)/3``, by exactly ``N(N-1)/(P sqrt(M))``."""
    derived = derive_lu_bound(n, m, p).parallel_bound
    closed = lu_io_lower_bound(n, p, m)
    assert derived - closed == pytest.approx(
        n * (n - 1) / (p * math.sqrt(m)), abs=1e-9 * closed)


def assert_cholesky_identity(n, p, m):
    """The derivation over the exact vertex count is
    ``(N^3 - N)/(3P sqrt(M)) + N(N+1)/(2P)``; the printed Section 6.2 form
    exceeds it by exactly ``N/(3P sqrt(M)) + N/(2P)``."""
    derived = derive_cholesky_bound(n, m, p).parallel_bound
    closed = cholesky_io_lower_bound(n, p, m)
    assert closed - derived == pytest.approx(
        n / (3 * p * math.sqrt(m)) + n / (2 * p), abs=1e-9 * closed)


#: Two (P, M) per N: M = N^2/P and M = 4 N^2/P.
GAP_POINTS = [(n, p, k * n * n / p) for n in (64, 4096, 16384, 65536)
              for p, k in ((16, 1), (256, 4))]


class TestPrintedFormulas:
    """The pipeline table's "paper formula" column against the
    derivation, to 1e-12 of the bound: the printed LU formula is weaker
    by ``N(N-1)/(P sqrt(M))`` and the matmul one equal, so the derivation
    backs both; the printed Cholesky formula exceeds it by
    ``N/(3P sqrt(M)) + N/(2P)``, which it does not back."""

    @pytest.mark.parametrize("n, p, m", GAP_POINTS)
    def test_gaps_and_verdicts(self, n, p, m):
        """What no lemma backs, the Cholesky excess, is exactly Listing
        1's S3 and S2 domains rounded up to ``N^3/6`` and ``N^2/2``
        points.  Lemma 6 caps S1/S2 at the rho = 1 they already have, the
        bound counts received words (output stores, were they counted,
        would add ``N(N+1)/(2P)``, not this), and Case I input reuse
        only subtracts."""
        rows = {r["kernel"]: r for r in derived_bounds(
            ("LU", "Cholesky", "Matmul"), n, m, p)}
        sm = math.sqrt(m)
        size = {s.name: s.num_vertices(n) for s in cholesky_program().statements}
        rounded = (2 * (n ** 3 / 6 - size["S3"]) / sm
                   + n * n / 2 - size["S2"]) / p
        gaps = {"LU": [-n * (n - 1) / (p * sm)],
                "Cholesky": [n / (3 * p * sm) + n / (2 * p), rounded],
                "Matmul": [0.0]}
        for kernel, expected in gaps.items():
            row = rows[kernel]
            for gap in expected:
                assert abs(row["closed_form"] - row["bound"] - gap) \
                    <= 1e-12 * row["bound"], kernel
            assert row["backed"] == ("no" if gap > 0 else "yes"), kernel


class TestDerivationPipeline:
    """The DAAP machinery against the closed forms (Section 6)."""

    @pytest.mark.parametrize("n,p,m", [
        (4096, 16, 1024.0), (16384, 256, 2.0 ** 16), (1024, 1, 4096.0)])
    def test_lu_matches_closed_form(self, n, p, m):
        assert_lu_identity(n, p, m)

    @pytest.mark.parametrize("n,p,m", [(4096, 16, 1024.0), (8192, 64, 4096.0)])
    def test_cholesky_matches_closed_form(self, n, p, m):
        assert_cholesky_identity(n, p, m)

    def test_matmul_matches_closed_form(self):
        n, m = 1024, 4096.0
        derived = derive_matmul_bound(n, m).sequential_bound
        assert derived == pytest.approx(matmul_io_lower_bound(n, 1, m),
                                        rel=1e-9)

    @pytest.mark.parametrize("n", [8, 20, 64, 257, 4096])
    @pytest.mark.parametrize("m, p", [
        (16.0, 1), (121.0, 3), (256.0, 16), (2.0 ** 16, 64)])
    def test_derived_equals_closed_form(self, n, m, p):
        """Property over toy to large sizes: matmul equals its closed form,
        LU and Cholesky differ from theirs by exact identities, to 1e-9."""
        assert_lu_identity(n, p, m)
        assert derive_matmul_bound(n, m, p).parallel_bound == pytest.approx(
            matmul_io_lower_bound(n, p, m), rel=1e-9)
        assert_cholesky_identity(n, p, m)

    def test_parallel_is_sequential_over_p(self):
        b = derive_lu_bound(2048, 1024.0, p=32)
        assert b.parallel_bound == pytest.approx(b.sequential_bound / 32)

    def test_per_statement_detail_exposed(self):
        b = derive_lu_bound(2048, 1024.0)
        assert set(b.per_statement) == {"S1", "S2"}
        assert b.intensity("S1").rho == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_lu_bound(1, 100.0)

    @pytest.mark.parametrize("derive", [
        derive_lu_bound, derive_cholesky_bound, derive_matmul_bound])
    @pytest.mark.parametrize("n, p, m", NON_FINITE)
    def test_rejects_non_finite(self, derive, n, p, m):
        with pytest.raises(ValueError):
            derive(n, m, p)


class TestReuse:
    def test_output_reuse_weights_lu(self):
        """The paper's S1->S2 output reuse: rho_S1 = 1 leaves S2's
        dominator unchanged (all weights 1)."""
        prog = lu_program()
        weights = output_reuse_weights(prog, statement(prog, "S2"),
                                       {"S1": 1.0})
        assert weights == [1.0, 1.0, 1.0]

    def test_output_reuse_weights_shrink_for_cheap_producers(self):
        """A producer with rho > 1 can recompute: the consumed access's
        dominator shrinks by 1/rho (Corollary 1)."""
        prog = lu_program()
        weights = output_reuse_weights(prog, statement(prog, "S2"),
                                       {"S1": 4.0})
        # Only the A[i,k] access (the S1 output pattern) is affected.
        assert weights[1] == pytest.approx(0.25)
        assert weights[0] == weights[2] == 1.0

    def test_io_lower_bound_property(self):
        prog = cholesky_program()
        analysis = analyze_statement(statement(prog, "S3"), 256, 1024.0)
        assert analysis.io_lower_bound == pytest.approx(
            analysis.num_vertices / analysis.intensity.rho)
