"""Tests for the 2.5D SUMMA matmul substrate."""

import numpy as np
import pytest

from repro.analysis.harness import trace
from repro.engine import DistributedBackend, machine_for
from repro.factorizations import build, run_impl
from repro.lowerbounds import derive_matmul_bound


class TestNumerics:
    @pytest.mark.parametrize("n,p,s,c", [
        (32, 4, 8, 1), (64, 8, 8, 2), (64, 16, 8, 4)])
    def test_product_correct(self, rng, n, p, s, c):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        res = run_impl("gemm", "25d", n, p, s=s, c=c, a=(a, b))
        assert np.allclose(res.lower, a @ b)

    def test_random_operands_by_default(self, rng):
        res = run_impl("gemm", "25d", 32, 4, s=8, c=2, rng=rng)
        assert res.lower.shape == (32, 32)

    def test_slice_divisibility_checked(self):
        with pytest.raises(ValueError):
            # s*c=32 does not divide 48
            run_impl("gemm", "25d", 48, 8, s=16, c=2)


class TestAccounting:
    def test_flops_exact(self):
        res = trace(build("gemm", "25d", 4096, 64, s=32, c=4))[0]
        assert res.total_flops == pytest.approx(2 * 4096 ** 3)

    def test_respects_sc19_bound(self):
        """Counted volume >= the derived parallel bound, SC19's
        2N^3/(P sqrt(M))."""
        for (n, p, c, s) in [(16384, 1024, 8, 32), (8192, 256, 4, 32)]:
            res = trace(build("gemm", "25d", n, p, s=s, c=c))[0]
            bound = derive_matmul_bound(n, res.mem_words, p).parallel_bound
            assert res.max_recv_words >= bound
            # Near-optimal: within a small constant (sqrt(3) from the
            # three-operand memory convention + the layer reduction).
            assert res.max_recv_words < 3.2 * bound

    def test_replication_helps(self):
        n, p, s = 16384, 1024, 32
        v1 = trace(build("gemm", "25d", n, p, s=s, c=1))[0].mean_recv_words
        v8 = trace(build("gemm", "25d", n, p, s=s, c=8))[0].mean_recv_words
        assert v8 < v1


class TestRaggedGrid:
    """Grids that do not divide ``N``: rows (columns) split into ``Pr``
    (``Pc``) contiguous blocks at ``i N // Pr``, so blocks differ in
    size by one and a round's strip may straddle two of them."""

    @pytest.mark.parametrize("n,p,s,c", [
        (16, 3, None, None), (16, 9, 4, 1), (16, 6, 4, 2), (32, 12, 4, 2)])
    def test_multiplies_counts_and_fits(self, rng, n, p, s, c):
        a, b = rng.standard_normal((2, n, n))
        sched = build("gemm", "25d", n, p, s=s, c=c)
        assert n % sched.grid.rows or n % sched.grid.cols
        res = run_impl("gemm", "25d", n, p, s=s, c=c, a=(a, b))
        assert np.abs(res.lower - a @ b).max() <= 1e-12 * n
        [traced] = trace(sched)
        assert res.comm.total_recv_words == pytest.approx(
            traced.comm.total_recv_words, rel=1e-12)
        backend = DistributedBackend(machine_for(sched))
        backend.run(build("gemm", "25d", n, p, s=s, c=c), a=(a, b))
        assert backend.memory_report().max_peak_words <= \
            sched.required_words()
