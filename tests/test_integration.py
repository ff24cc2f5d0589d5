"""Cross-module integration tests: the theory pipeline, the pebbling
games, and the distributed schedules must agree with each other."""


import numpy as np
import pytest

from repro.analysis import estimate_time, trace, trace_cholesky, trace_lu
from repro.factorizations import build, conflux_lu, run_impl
from repro.layouts import BlockCyclicLayout, redistribute
from repro.lowerbounds import (
    derive_cholesky_bound,
    derive_lu_bound,
    lu_io_lower_bound,
    lu_program,
)
from repro.machine import Machine, ProcessorGrid2D
from repro.pebbles import program_cdag, run_greedy


class TestTheoryToAlgorithm:
    """The paper's central claim chain: bound <= COnfLUX <= baselines."""

    @pytest.mark.parametrize("n,p,c,v", [
        (8192, 256, 4, 32), (16384, 512, 8, 32)])
    def test_sandwich_lu(self, n, p, c, v):
        m = c * float(n) * n / p
        bound = derive_lu_bound(n, m, p).parallel_bound
        ours = trace(build("lu", "conflux", n, p, v=v, c=c))[0].max_recv_words
        mkl = trace(build("lu", "mkl", n, p, nb=128))[0].max_recv_words
        assert bound <= ours <= mkl

    def test_sandwich_cholesky(self):
        n, p, c, v = 16384, 512, 8, 32
        m = c * float(n) * n / p
        bound = derive_cholesky_bound(n, m, p).parallel_bound
        ours = trace(build("cholesky", "confchox", n, p, v=v, c=c))[0].max_recv_words
        assert bound <= ours

    def test_derived_bound_backs_closed_form_at_algorithm_params(self):
        """The printed Section 6.1 form is weaker than the derivation,
        within 1 % at the algorithm's parameters."""
        n, p, c = 4096, 64, 4
        m = c * float(n) * n / p
        derived = derive_lu_bound(n, m, p).parallel_bound
        closed = lu_io_lower_bound(n, p, m)
        assert closed <= derived <= closed * 1.01

    def test_pebbling_vs_derived_bound_same_cdag(self):
        """Greedy pebbling of the literal LU cDAG respects the bound
        derived from the same program's DAAP form."""
        n, m = 8, 12
        q = run_greedy(program_cdag(lu_program(), n), m).io_cost
        bound = derive_lu_bound(n, m).sequential_bound
        assert q >= bound


class TestEndToEndScaLAPACKCompat:
    """Section 8: ScaLAPACK layout in, COSTA reshuffle, factorize, out."""

    def test_scalapack_layout_roundtrip_through_factorization(self, rng):
        n, p = 64, 4
        machine = Machine(p)
        # User data arrives in a ScaLAPACK-style 2D block-cyclic layout.
        user_layout = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        user_layout.scatter_from(machine, "A", a)
        # COSTA reshuffles into the algorithm's native tile size.
        native = BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(2, 2))
        redistribute(machine, "A", user_layout, native, dst_name="A-native")
        reshuffle_cost = machine.stats.max_recv_words
        gathered = native.gather_to(machine, "A-native")
        assert np.allclose(gathered, a)
        # Factorize the reshuffled matrix.
        res = conflux_lu(n, p, v=8, c=2, a=gathered)
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-12
        # Reshuffle cost is O(N^2/P): negligible vs the factorization.
        assert reshuffle_cost <= 2 * n * n / p


class TestPerformancePipeline:
    def test_time_estimates_rank_implementations(self):
        """At bandwidth-bound scale the time ordering follows the volume
        ordering: COnfLUX fastest."""
        n, p = 32768, 1024
        ours = estimate_time(trace_lu("conflux", n, p)).time_s
        mkl = estimate_time(trace_lu("mkl", n, p)).time_s
        candmc = estimate_time(trace_lu("candmc", n, p)).time_s
        assert ours < mkl
        assert ours < candmc

    def test_peak_fraction_degrades_at_small_local_domain(self):
        """Figures 9/10: below N^2/P ~ 2^27 the run goes latency-bound."""
        big = estimate_time(trace_lu("conflux", 65536, 256)).peak_fraction
        small = estimate_time(trace_lu("conflux", 4096, 1024)).peak_fraction
        assert big > 3 * small

    def test_cholesky_faster_than_lu_same_size(self):
        """Half the flops, same volume: Cholesky takes less time."""
        n, p = 32768, 1024
        lu = estimate_time(trace_lu("conflux", n, p)).time_s
        ch = estimate_time(trace_cholesky("confchox", n, p)).time_s
        assert ch < lu

    def test_strong_scaling_reduces_time(self):
        n = 32768
        t256 = estimate_time(trace_lu("conflux", n, 256)).time_s
        t1024 = estimate_time(trace_lu("conflux", n, 1024)).time_s
        assert t1024 < t256


class TestConsistencyAcrossModes:
    def test_conflux_results_deterministic(self, rng):
        a = rng.standard_normal((64, 64)) + 64 * np.eye(64)
        r1 = conflux_lu(64, 8, v=8, c=2, a=a.copy())
        r2 = conflux_lu(64, 8, v=8, c=2, a=a.copy())
        assert np.array_equal(r1.perm, r2.perm)
        assert np.allclose(r1.lower, r2.lower)

    def test_conflux_matches_scalapack_factors_up_to_pivoting(self, rng):
        """Both produce valid LU factorizations of the same matrix —
        the products PA must match LU to machine precision for each."""
        n = 64
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        r_ours = conflux_lu(n, 8, v=8, c=2, a=a)
        r_2d = run_impl("lu", "mkl", n, 4, nb=8, a=a)
        x = rng.standard_normal(n)
        # Both factorizations must solve identically well.
        for r in (r_ours, r_2d):
            import scipy.linalg

            b = a @ x
            y = scipy.linalg.solve_triangular(
                r.lower, b[r.perm], lower=True, unit_diagonal=True)
            xx = scipy.linalg.solve_triangular(r.upper, y)
            assert np.allclose(xx, x, atol=1e-8)
