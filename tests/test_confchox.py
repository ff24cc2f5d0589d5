"""Tests for COnfCHOX (Section 7.5)."""

import numpy as np
import pytest

from repro.analysis.harness import trace
from repro.factorizations import ConfchoxSchedule, build, confchox_cholesky
from repro.lowerbounds import derive_cholesky_bound
from repro.models import costmodels as cm


def chol_residual(a, res):
    return np.linalg.norm(a - res.lower @ res.lower.T) / np.linalg.norm(a)


def make_spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


class TestNumericalCorrectness:
    @pytest.mark.parametrize("n,p,v,c", [
        (32, 4, 8, 1),
        (64, 8, 8, 2),
        (64, 16, 16, 4),
        (96, 12, 12, 3),
    ])
    def test_factorization_residual(self, rng, n, p, v, c):
        a = make_spd(rng, n)
        res = confchox_cholesky(n, p, v=v, c=c, a=a)
        assert chol_residual(a, res) < 1e-12

    def test_lower_triangular_output(self, rng):
        res = confchox_cholesky(32, 4, v=8, c=2, rng=rng)
        assert np.allclose(np.triu(res.lower, 1), 0.0)
        assert np.all(np.diag(res.lower) > 0)

    def test_matches_scipy(self, rng):
        import scipy.linalg

        a = make_spd(rng, 48)
        res = confchox_cholesky(48, 4, v=8, c=2, a=a)
        assert np.allclose(res.lower, scipy.linalg.cholesky(a, lower=True))

    def test_default_random_input(self, rng):
        res = confchox_cholesky(32, 4, v=8, c=2, rng=rng)
        assert res.lower is not None

    def test_non_symmetric_rejected(self, rng):
        a = rng.standard_normal((32, 32)) + 32 * np.eye(32)
        with pytest.raises(ValueError):
            confchox_cholesky(32, 4, v=8, c=2, a=a)

    def test_reconstruct(self, rng):
        a = make_spd(rng, 32)
        res = confchox_cholesky(32, 4, v=8, c=2, a=a)
        assert np.allclose(res.lower @ res.lower.T, a)


class TestParameterValidation:
    def test_v_must_divide_n(self):
        with pytest.raises(ValueError):
            ConfchoxSchedule(60, 4, v=8, c=2)


class TestCommunicationCost:
    def test_volume_matches_full_model(self):
        for (n, p, c, v) in [(8192, 256, 4, 32), (16384, 1024, 8, 32)]:
            res = trace(build("cholesky", "confchox", n, p, v=v, c=c))[0]
            model = cm.confchox_full_model(n, p, c, v)
            assert res.mean_recv_words == pytest.approx(model, rel=0.03)

    def test_volume_respects_lower_bound(self):
        for (n, p, c, v) in [(8192, 256, 4, 32), (16384, 1024, 8, 32)]:
            res = trace(build("cholesky", "confchox", n, p, v=v, c=c))[0]
            m = c * n * n / p
            assert res.max_recv_words >= \
                derive_cholesky_bound(n, m, p).parallel_bound

    def test_communicates_like_lu_but_computes_half(self):
        """Table 1's punchline: COnfCHOX moves about as much data as
        COnfLUX but performs half the flops."""
        n, p, c, v = 16384, 1024, 4, 32
        lu = trace(build("lu", "conflux", n, p, v=v, c=c))[0]
        ch = trace(build("cholesky", "confchox", n, p, v=v, c=c))[0]
        assert ch.mean_recv_words == pytest.approx(lu.mean_recv_words,
                                                   rel=0.25)
        assert ch.total_flops == pytest.approx(lu.total_flops / 2, rel=0.1)

    def test_flops_match_cholesky_total(self):
        for (n, p, c, v) in [(4096, 64, 4, 16), (8192, 256, 4, 32)]:
            res = trace(build("cholesky", "confchox", n, p, v=v, c=c))[0]
            assert res.total_flops == pytest.approx(n ** 3 / 3, rel=0.05)

    def test_replication_reduces_volume(self):
        n, p = 32768, 512
        v2 = trace(build("cholesky", "confchox", n, p, v=32, c=2))[0].mean_recv_words
        v8 = trace(build("cholesky", "confchox", n, p, v=32, c=8))[0].mean_recv_words
        assert v8 < v2

    def test_beats_capital_model(self):
        """COnfCHOX's traced volume is far below CAPITAL's 45/8 model."""
        n, p, c, v = 32768, 1024, 8, 32
        res = trace(build("cholesky", "confchox", n, p, v=v, c=c))[0]
        m = c * n * n / p
        assert res.mean_recv_words < cm.capital_paper_model(n, p, m) / 2
