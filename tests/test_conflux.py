"""Tests for COnfLUX (Section 7 / Algorithm 1)."""


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.harness import trace
from repro.factorizations import (
    ConfluxSchedule,
    build,
    conflux_lu,
    default_block_size,
)
from repro.lowerbounds import lu_io_lower_bound
from repro.models import costmodels as cm


def block_size_by_scan(n, c, a, max_steps):
    """Reference for ``default_block_size``: the O(N) divisor scan it
    replaced, kept here only to compare against."""
    want = max(a * c, c, (n + max_steps - 1) // max_steps)
    candidates = [d for d in range(1, n + 1) if n % d == 0 and d % c == 0]
    if not candidates:
        raise ValueError(f"no tile size divides N={n} and replication c={c}")
    for d in candidates:
        if d >= want:
            return d
    return candidates[-1]


def lu_residual(a, res):
    pa = a[res.perm]
    return np.linalg.norm(pa - res.lower @ res.upper) / np.linalg.norm(a)


class TestNumericalCorrectness:
    @pytest.mark.parametrize("n,p,v,c", [
        (32, 4, 8, 1),      # 2D degenerate
        (64, 8, 8, 2),      # 2.5D
        (64, 16, 16, 4),    # deeper replication
        (96, 12, 12, 3),    # non-power-of-two
    ])
    def test_factorization_residual(self, rng, n, p, v, c):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        res = conflux_lu(n, p, v=v, c=c, a=a)
        assert lu_residual(a, res) < 1e-12

    def test_random_nonsymmetric_with_pivoting(self, rng):
        """General (not diagonally dominant) matrices need the pivoting
        to stay stable."""
        n = 64
        a = rng.standard_normal((n, n))
        res = conflux_lu(n, 8, v=8, c=2, a=a)
        assert lu_residual(a, res) < 1e-10

    def test_perm_is_permutation(self, rng):
        res = conflux_lu(32, 4, v=8, c=2, rng=rng)
        assert sorted(res.perm.tolist()) == list(range(32))

    def test_lower_is_unit_triangular(self, rng):
        res = conflux_lu(32, 4, v=8, c=2, rng=rng)
        assert np.allclose(np.diag(res.lower), 1.0)
        assert np.allclose(np.triu(res.lower, 1), 0.0)

    def test_upper_is_triangular(self, rng):
        res = conflux_lu(32, 4, v=8, c=2, rng=rng)
        assert np.allclose(np.tril(res.upper, -1), 0.0)

    def test_matches_scipy_solution(self, rng):
        """The factorization must solve linear systems correctly."""
        import scipy.linalg

        n = 48
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        res = conflux_lu(n, 4, v=8, c=2, a=a)
        y = scipy.linalg.solve_triangular(res.lower, b[res.perm], lower=True,
                                          unit_diagonal=True)
        x = scipy.linalg.solve_triangular(res.upper, y)
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_single_rank_no_communication(self, rng):
        a = rng.standard_normal((16, 16)) + 16 * np.eye(16)
        res = conflux_lu(16, 1, v=4, c=1, a=a)
        assert lu_residual(a, res) < 1e-12
        assert res.comm.total_recv_words == 0

    def test_reconstruct(self, rng):
        a = rng.standard_normal((32, 32)) + 32 * np.eye(32)
        res = conflux_lu(32, 4, v=8, c=2, a=a)
        assert np.allclose(res.reconstruct(), a[res.perm])


class TestParameterValidation:
    def test_v_must_divide_n(self):
        with pytest.raises(ValueError):
            ConfluxSchedule(60, 4, v=8, c=2)

    def test_c_must_divide_v(self):
        with pytest.raises(ValueError):
            ConfluxSchedule(64, 32, v=8, c=16)

    def test_wrong_matrix_shape(self):
        with pytest.raises(ValueError):
            conflux_lu(64, 8, v=8, c=2, a=np.eye(32))

    def test_default_block_size_properties(self):
        for n, p, c in [(1024, 64, 4), (4096, 512, 8), (512, 8, 2)]:
            v = default_block_size(n, p, c)
            assert n % v == 0
            assert v % c == 0
            assert v >= c

    @given(n=st.integers(1, 6000), c=st.integers(1, 12),
           a=st.integers(1, 8), max_steps=st.integers(1, 5000))
    def test_default_block_size_equals_scan(self, n, c, a, max_steps):
        if n % c != 0:
            with pytest.raises(ValueError, match="no tile size"):
                default_block_size(n, 1, c, a, max_steps)
            with pytest.raises(ValueError, match="no tile size"):
                block_size_by_scan(n, c, a, max_steps)
        else:
            assert default_block_size(n, 1, c, a, max_steps) \
                == block_size_by_scan(n, c, a, max_steps)

    def test_default_block_size_at_large_n(self):
        """Only an O(sqrt(N)) resolution returns at N = 2**40; the step
        cap N / max_steps = 2**28 decides the tile here."""
        assert default_block_size(2 ** 40, 4096, 16) == 2 ** 28

    def test_default_c_divides_p(self):
        algo = ConfluxSchedule(243, 27)
        assert 27 % algo.c == 0
        assert algo.c == 3


class TestCommunicationCost:
    def test_trace_matches_execution_accounting(self, rng):
        """A trace and a dense run share the same accounting."""
        t = trace(build("lu", "conflux", 64, 8, v=8, c=2))[0]
        e = conflux_lu(64, 8, v=8, c=2, rng=rng)
        assert t.max_recv_words == e.max_recv_words
        assert np.allclose(t.comm.recv_words, e.comm.recv_words)

    def test_volume_matches_full_model(self):
        for (n, p, c, v) in [(8192, 256, 4, 32), (16384, 1024, 8, 32)]:
            res = trace(build("lu", "conflux", n, p, v=v, c=c))[0]
            model = cm.conflux_full_model(n, p, c, v)
            assert res.mean_recv_words == pytest.approx(model, rel=0.03)

    def test_leading_term_near_paper_model(self):
        """For M small relative to N^2 (c modest), the traced volume
        approaches N^3/(P sqrt(M)) — Lemma 10's leading term."""
        n, p, c = 65536, 1024, 2
        v = 32
        res = trace(build("lu", "conflux", n, p, v=v, c=c))[0]
        m = c * n * n / p
        lead = cm.conflux_paper_model(n, p, m)
        assert res.mean_recv_words == pytest.approx(lead, rel=0.2)

    def test_volume_respects_lower_bound(self):
        """Counted max-rank volume >= the parallel I/O lower bound."""
        for (n, p, c, v) in [(8192, 256, 4, 32), (16384, 1024, 8, 32)]:
            res = trace(build("lu", "conflux", n, p, v=v, c=c))[0]
            m = c * n * n / p
            assert res.max_recv_words >= lu_io_lower_bound(n, p, m)

    def test_near_optimality_factor(self):
        """COnfLUX is within ~1.5x of the bound plus lower-order terms;
        in a regime where O(M) is small the measured factor must be
        below 2."""
        n, p, c, v = 65536, 1024, 4, 32
        res = trace(build("lu", "conflux", n, p, v=v, c=c))[0]
        m = c * n * n / p
        ratio = res.max_recv_words / lu_io_lower_bound(n, p, m)
        assert 1.0 <= ratio < 2.0

    def test_replication_reduces_volume(self):
        """More replication (larger c, hence larger M) must reduce the
        leading-order communication."""
        n, p = 32768, 512
        v_small = trace(build("lu", "conflux", n, p, v=32, c=2))[0].mean_recv_words
        v_large = trace(build("lu", "conflux", n, p, v=32, c=8))[0].mean_recv_words
        assert v_large < v_small

    def test_flops_match_lu_total(self):
        """Total attributed flops ~ 2N^3/3 regardless of grid."""
        for (n, p, c, v) in [(4096, 64, 4, 16), (8192, 256, 4, 32)]:
            res = trace(build("lu", "conflux", n, p, v=v, c=c))[0]
            assert res.total_flops == pytest.approx(2 * n ** 3 / 3, rel=0.05)

    def test_step_log_length(self):
        res = trace(build("lu", "conflux", 1024, 16, v=32, c=2))[0]
        assert len(res.step_log) == 1024 // 32

    def test_load_balance(self):
        """Max per-rank volume within a modest factor of the mean."""
        res = trace(build("lu", "conflux", 16384, 256, v=32, c=4))[0]
        assert res.max_recv_words <= 1.5 * res.mean_recv_words
