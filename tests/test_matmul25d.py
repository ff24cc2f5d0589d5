"""Tests for the 2.5D SUMMA matmul substrate."""

import numpy as np
import pytest

from repro.analysis.harness import trace
from repro.factorizations import build, matmul_25d
from repro.lowerbounds import matmul_io_lower_bound


class TestNumerics:
    @pytest.mark.parametrize("n,p,s,c", [
        (32, 4, 8, 1), (64, 8, 8, 2), (64, 16, 8, 4)])
    def test_product_correct(self, rng, n, p, s, c):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        res = matmul_25d(n, p, s=s, c=c, a=a, b=b)
        assert np.allclose(res.lower, a @ b)

    def test_random_operands_by_default(self, rng):
        res = matmul_25d(32, 4, s=8, c=2, rng=rng)
        assert res.lower.shape == (32, 32)

    def test_slice_divisibility_checked(self):
        with pytest.raises(ValueError):
            matmul_25d(48, 8, s=16, c=2)  # s*c=32 does not divide 48


class TestAccounting:
    def test_flops_exact(self):
        res = trace(build("gemm", "25d", 4096, 64, s=32, c=4))[0]
        assert res.total_flops == pytest.approx(2 * 4096 ** 3)

    def test_respects_sc19_bound(self):
        """Counted volume >= the SC19 parallel bound 2N^3/(P sqrt(M))."""
        for (n, p, c, s) in [(16384, 1024, 8, 32), (8192, 256, 4, 32)]:
            res = trace(build("gemm", "25d", n, p, s=s, c=c))[0]
            bound = matmul_io_lower_bound(n, p, res.mem_words)
            assert res.max_recv_words >= bound
            # Near-optimal: within a small constant (sqrt(3) from the
            # three-operand memory convention + the layer reduction).
            assert res.max_recv_words < 3.2 * bound

    def test_replication_helps(self):
        n, p, s = 16384, 1024, 32
        v1 = trace(build("gemm", "25d", n, p, s=s, c=1))[0].mean_recv_words
        v8 = trace(build("gemm", "25d", n, p, s=s, c=8))[0].mean_recv_words
        assert v8 < v1

    def test_trace_equals_execute_accounting(self, rng):
        t = trace(build("gemm", "25d", 64, 8, s=8, c=2))[0]
        e = matmul_25d(64, 8, s=8, c=2, rng=rng)
        assert np.allclose(t.comm.recv_words, e.comm.recv_words)
