"""Tests for the lower-bound pipeline and closed forms (Sections 4-6)."""

import math

import pytest

from repro.lowerbounds import (
    analyze_statement,
    array_accesses_per_schedule,
    cholesky_io_lower_bound,
    cholesky_program,
    derive_cholesky_bound,
    derive_lu_bound,
    derive_matmul_bound,
    input_reuse_bound,
    lu_io_lower_bound,
    lu_program,
    matmul_io_lower_bound,
    max_usable_memory,
    memory_feasible,
    min_required_memory,
    output_reuse_weights,
)


class TestMemoryRegimes:
    def test_min_memory(self):
        assert min_required_memory(1000, 100) == 10000

    def test_max_usable(self):
        assert max_usable_memory(1000, 1000) == pytest.approx(10000.0)

    def test_feasible_band(self):
        n, p = 16384, 1024
        assert memory_feasible(n, p, n * n / p)
        assert memory_feasible(n, p, n * n / p ** (2 / 3))
        assert not memory_feasible(n, p, n * n / p / 2)
        assert not memory_feasible(n, p, 2 * n * n / p ** (2 / 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            min_required_memory(0, 4)


NON_FINITE = [(math.nan, 4, 64.0), (math.inf, 4, 64.0), (64, math.nan, 64.0),
              (64, math.inf, 64.0), (64, 4, math.nan), (64, 4, math.inf)]


class TestClosedForms:
    def test_lu_leading_term(self):
        n, p, m = 2.0 ** 14, 1024.0, 2.0 ** 20
        assert lu_io_lower_bound(n, p, m, leading_only=True) == \
            pytest.approx(2 * n ** 3 / (3 * p * math.sqrt(m)))

    def test_lu_full_exceeds_leading(self):
        n, p, m = 4096.0, 64.0, 2.0 ** 18
        assert lu_io_lower_bound(n, p, m) > \
            lu_io_lower_bound(n, p, m, leading_only=True)

    def test_cholesky_is_half_of_lu(self):
        """Cholesky's leading term is half of LU's (Section 6.2)."""
        n, p, m = 2.0 ** 16, 256.0, 2.0 ** 22
        lu = lu_io_lower_bound(n, p, m, leading_only=True)
        ch = cholesky_io_lower_bound(n, p, m, leading_only=True)
        assert ch == pytest.approx(lu / 2)

    def test_matmul(self):
        assert matmul_io_lower_bound(1024, 1, 4096) == \
            pytest.approx(2 * 1024 ** 3 / 64)

    def test_scaling_in_p(self):
        n, m = 8192.0, 2.0 ** 20
        assert lu_io_lower_bound(n, 64, m) == pytest.approx(
            2 * lu_io_lower_bound(n, 128, m))

    def test_scaling_in_m(self):
        """Doubling M cuts the leading term by sqrt(2) — the 2.5D payoff."""
        n, p = 2.0 ** 15, 512.0
        q1 = lu_io_lower_bound(n, p, 2.0 ** 20, leading_only=True)
        q2 = lu_io_lower_bound(n, p, 2.0 ** 21, leading_only=True)
        assert q1 / q2 == pytest.approx(math.sqrt(2))

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


def cholesky_vertex_bound(n, p, m):
    """Cholesky's bound over the exact vertex count of its program:
    ``N(N-1)(N-2)/6`` Schur updates at intensity ``sqrt(M)/2`` and
    ``N(N+1)/2`` panel vertices at intensity 1."""
    return n * (n - 1) * (n - 2) / (3 * p * math.sqrt(m)) \
        + n * (n + 1) / (2 * p)


def assert_cholesky_identity(n, p, m):
    """The derivation equals the vertex-count form, and the closed form
    exceeds it by exactly ``(3N^2 - 2N)/(3P sqrt(M)) + N/(2P)``."""
    derived = derive_cholesky_bound(n, m, p).parallel_bound
    closed = cholesky_io_lower_bound(n, p, m)
    assert derived == pytest.approx(cholesky_vertex_bound(n, p, m), rel=1e-9)
    assert closed - derived == pytest.approx(
        (3 * n * n - 2 * n) / (3 * p * math.sqrt(m)) + n / (2 * p),
        abs=1e-9 * closed)


class TestDerivationPipeline:
    """The DAAP machinery must reproduce the closed forms (Section 6)."""

    @pytest.mark.parametrize("n,p,m", [
        (4096, 16, 1024.0), (16384, 256, 2.0 ** 16), (1024, 1, 4096.0)])
    def test_lu_matches_closed_form(self, n, p, m):
        derived = derive_lu_bound(n, m, p).parallel_bound
        closed = lu_io_lower_bound(n, p, m)
        assert derived == pytest.approx(closed, rel=1e-9)

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
        """Property over toy to large sizes: exact to 1e-9, not O(1/N)."""
        assert derive_lu_bound(n, m, p).parallel_bound == pytest.approx(
            lu_io_lower_bound(n, p, m), rel=1e-9)
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
        weights = output_reuse_weights(prog, prog.statement("S2"),
                                       {"S1": 1.0})
        assert weights == [1.0, 1.0, 1.0]

    def test_output_reuse_weights_shrink_for_cheap_producers(self):
        """A producer with rho > 1 can recompute: the consumed access's
        dominator shrinks by 1/rho (Corollary 1)."""
        prog = lu_program()
        weights = output_reuse_weights(prog, prog.statement("S2"),
                                       {"S1": 4.0})
        # Only the A[i,k] access (the S1 output pattern) is affected.
        assert weights[1] == pytest.approx(0.25)
        assert weights[0] == weights[2] == 1.0

    def test_input_reuse_bound_is_min_rule(self):
        prog = lu_program()
        m = 1024.0
        analyses = {s.name: analyze_statement(s, 512, m)
                    for s in prog.statements}
        reuse = input_reuse_bound(analyses, "A", ["S1", "S2"])
        a_s1 = array_accesses_per_schedule(analyses["S1"], "A")
        a_s2 = array_accesses_per_schedule(analyses["S2"], "A")
        assert reuse == pytest.approx(a_s1 + a_s2 - max(a_s1, a_s2))
        assert reuse == pytest.approx(min(a_s1, a_s2))

    def test_single_reader_no_reuse(self):
        prog = lu_program()
        analyses = {s.name: analyze_statement(s, 128, 256.0)
                    for s in prog.statements}
        assert input_reuse_bound(analyses, "A", ["S2"]) == 0.0

    def test_accesses_per_schedule_unknown_array(self):
        prog = lu_program()
        analysis = analyze_statement(prog.statement("S2"), 128, 256.0)
        with pytest.raises(ValueError):
            array_accesses_per_schedule(analysis, "Z")

    def test_io_lower_bound_property(self):
        prog = cholesky_program()
        analysis = analyze_statement(prog.statement("S3"), 256, 1024.0)
        assert analysis.io_lower_bound == pytest.approx(
            analysis.num_vertices / analysis.intensity.rho)
