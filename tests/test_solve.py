"""Tests for the distributed solves (repro.factorizations.solve)."""

import numpy as np
import pytest

from repro.analysis.harness import trace
from repro.factorizations import (
    build,
    cholesky_solve,
    confchox_cholesky,
    conflux_lu,
    lu_solve,
)
from repro.factorizations.baselines import scalapack_lu


def make_system(rng, n):
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    x = rng.standard_normal(n)
    return a, x, a @ x


class TestLUSolve:
    def test_single_rhs(self, rng):
        a, x, b = make_system(rng, 64)
        res = conflux_lu(64, 8, v=8, c=2, a=a)
        sol = lu_solve(res, b)
        assert np.allclose(sol.x, x, atol=1e-8)

    def test_multiple_rhs(self, rng):
        n, k = 64, 5
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        x = rng.standard_normal((n, k))
        res = conflux_lu(n, 8, v=8, c=2, a=a)
        sol = lu_solve(res, a @ x)
        assert sol.x.shape == (n, k)
        assert np.allclose(sol.x, x, atol=1e-8)

    def test_works_on_2d_baseline_result(self, rng):
        a, x, b = make_system(rng, 64)
        res = scalapack_lu(64, 4, nb=16, a=a)
        sol = lu_solve(res, b)
        assert np.allclose(sol.x, x, atol=1e-8)

    def test_trace_result_rejected(self):
        res = trace(build("lu", "conflux", 64, 8, v=8, c=2))[0]
        with pytest.raises(ValueError):
            lu_solve(res, np.zeros(64))

    def test_rhs_size_checked(self, rng):
        a, _, _ = make_system(rng, 32)
        res = conflux_lu(32, 4, v=8, c=2, a=a)
        with pytest.raises(ValueError):
            lu_solve(res, np.zeros(16))

    def test_solve_communication_is_lower_order(self, rng):
        """The solve moves O(N * nrhs) words — negligible against the
        factorization's N^3/(P sqrt(M))."""
        n, p = 128, 8
        a, _, b = make_system(rng, n)
        res = conflux_lu(n, p, v=16, c=2, a=a)
        sol = lu_solve(res, b)
        assert sol.max_recv_words < res.max_recv_words
        assert sol.max_recv_words <= 4 * n  # ~2 substitutions x N words

    def test_solve_flops_attributed(self, rng):
        a, _, b = make_system(rng, 64)
        res = conflux_lu(64, 8, v=8, c=2, a=a)
        sol = lu_solve(res, b)
        # Two triangular solves: ~2 * N^2 flops total.
        assert sol.comm.total_flops == pytest.approx(2 * 64 * 64, rel=0.5)


class TestCholeskySolve:
    def test_single_rhs(self, rng):
        n = 64
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        x = rng.standard_normal(n)
        res = confchox_cholesky(n, 8, v=8, c=2, a=a)
        sol = cholesky_solve(res, a @ x)
        assert np.allclose(sol.x, x, atol=1e-7)

    def test_lu_result_rejected(self, rng):
        a, _, b = make_system(rng, 32)
        res = conflux_lu(32, 4, v=8, c=2, a=a)
        with pytest.raises(ValueError):
            cholesky_solve(res, b)

    def test_multiple_rhs(self, rng):
        n, k = 48, 3
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        x = rng.standard_normal((n, k))
        res = confchox_cholesky(n, 4, v=8, c=2, a=a)
        sol = cholesky_solve(res, a @ x)
        assert np.allclose(sol.x, x, atol=1e-7)
