"""Tests for the baseline implementations (MKL/ScaLAPACK, SLATE, CANDMC,
CAPITAL)."""


import json
import math
import pathlib

import numpy as np
import pytest

from repro.analysis.harness import (
    estimate_time,
    trace,
    trace_case,
    trace_cholesky,
    trace_lu,
)
from repro.engine import DenseBackend
from repro.factorizations import build
from repro.factorizations.baselines import (
    scalapack_cholesky,
    scalapack_lu,
    slate_cholesky,
    slate_lu,
)
from repro.models import costmodels as cm


class TestScalapackLUNumerics:
    @pytest.mark.parametrize("n,p,nb", [(64, 4, 8), (96, 6, 16), (64, 1, 16)])
    def test_residual(self, rng, n, p, nb):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        res = scalapack_lu(n, p, nb=nb, a=a)
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-12

    def test_partial_pivoting_on_general_matrix(self, rng):
        n = 64
        a = rng.standard_normal((n, n))
        res = scalapack_lu(n, 4, nb=8, a=a)
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-10

    def test_matches_scipy_lu(self, rng):
        import scipy.linalg

        n = 32
        a = rng.standard_normal((n, n))
        res = scalapack_lu(n, 4, nb=8, a=a)
        p_sp, l_sp, u_sp = scipy.linalg.lu(a)
        assert np.allclose(res.lower @ res.upper, a[res.perm])
        # Same pivot choices as unblocked partial pivoting.
        assert np.allclose(np.abs(np.diag(res.upper)),
                           np.abs(np.diag(u_sp)))


class TestScalapackCholeskyNumerics:
    @pytest.mark.parametrize("n,p,nb", [(64, 4, 8), (96, 6, 16)])
    def test_residual(self, rng, n, p, nb):
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        res = scalapack_cholesky(n, p, nb=nb, a=a)
        err = np.linalg.norm(a - res.lower @ res.lower.T)
        assert err / np.linalg.norm(a) < 1e-12

    def test_rejects_asymmetric(self, rng):
        a = rng.standard_normal((32, 32)) + 32 * np.eye(32)
        with pytest.raises(ValueError):
            scalapack_cholesky(32, 4, nb=8, a=a)


class TestOneCallAccounting:
    """A 2D one-call function is a dense run of its table row: it
    factors, and it counts exactly what a trace of that row counts."""

    @pytest.mark.parametrize("fn,op,label", [
        (scalapack_lu, "lu", "mkl"),
        (slate_lu, "lu", "slate"),
        (scalapack_cholesky, "cholesky", "mkl-chol"),
        (slate_cholesky, "cholesky", "slate-chol"),
    ], ids=["mkl", "slate", "mkl-chol", "slate-chol"])
    def test_dense_run_counts_its_trace(self, rng, fn, op, label):
        n, p, nb = 64, 4, 16
        dense = fn(n, p, nb=nb, rng=rng)
        [traced] = trace(build(op, label, n, p, nb=nb))
        assert dense.lower is not None and traced.lower is None
        assert dense.params == traced.params
        for field in ("recv_words", "flops"):
            assert np.allclose(getattr(dense.comm, field),
                               getattr(traced.comm, field)), field


class TestVolumeModels:
    def test_mkl_matches_full_model(self):
        for (n, p) in [(8192, 256), (16384, 1024)]:
            res = trace(build("lu", "mkl", n, p, nb=128))[0]
            assert res.mean_recv_words == pytest.approx(
                cm.mkl_lu_full_model(n, p, 128), rel=0.03)

    def test_slate_matches_full_model(self):
        for (n, p) in [(8192, 256), (16384, 1024)]:
            res = trace(build("lu", "slate", n, p, nb=128))[0]
            assert res.mean_recv_words == pytest.approx(
                cm.slate_lu_full_model(n, p, 128), rel=0.03)

    def test_cholesky_2d_matches_full_model(self):
        res = trace(build("cholesky", "mkl-chol", 16384, 1024, nb=128))[0]
        assert res.mean_recv_words == pytest.approx(
            cm.mkl_cholesky_full_model(16384, 1024, 128), rel=0.03)

    def test_slate_slightly_below_mkl(self):
        """The paper: volumes 'mostly equal, with a slight advantage for
        SLATE'."""
        n, p = 16384, 1024
        mkl = trace(build("lu", "mkl", n, p, nb=128))[0].mean_recv_words
        slate = trace(build("lu", "slate", n, p, nb=128))[0].mean_recv_words
        assert slate < mkl
        assert slate > 0.9 * mkl

    def test_2d_volume_scales_as_inverse_sqrt_p(self):
        """Table 2: 2D codes move ~N^2/sqrt(P) per rank."""
        n = 16384
        v256 = trace(build("lu", "mkl", n, 256, nb=128))[0].mean_recv_words
        v1024 = trace(build("lu", "mkl", n, 1024, nb=128))[0].mean_recv_words
        assert v256 / v1024 == pytest.approx(2.0, rel=0.15)

    def test_candmc_near_author_model(self):
        """CANDMC's traced volume tracks 5 N^3/(P sqrt(M))."""
        for (n, p, c) in [(16384, 1024, 8), (32768, 4096, 16)]:
            [res] = trace(build("lu", "candmc", n, p, c=c))
            m = c * float(n) * n / p
            model = cm.candmc_paper_model(n, p, m)
            assert res.mean_recv_words == pytest.approx(model, rel=0.25)

    def test_capital_near_author_model(self):
        for (n, p, c) in [(16384, 1024, 8), (32768, 4096, 16)]:
            [res] = trace(build("cholesky", "capital", n, p, c=c))
            m = c * float(n) * n / p
            model = cm.capital_paper_model(n, p, m)
            assert res.mean_recv_words == pytest.approx(model, rel=0.25)

    @pytest.mark.parametrize("n,p,c,b", [
        (8192, 256, 4, 1024), (16384, 1024, 8, 1024),
        (32768, 4096, 16, 2048),    # the Table-2 validation points
        (3000, 12, 2, 1000),        # N not a power of two
    ])
    def test_default_panel_width_pinned(self, n, p, c, b):
        """The divisor of N nearest N/sqrt(P/c), as the linear scan
        over 1..N picked it."""
        assert build("lu", "candmc", n, p, c=c).b == b
        assert build("cholesky", "capital", n, p, c=c).b == b
        target = max(1, int(n / math.sqrt(p / c)))
        assert b == min((d for d in range(1, n + 1) if n % d == 0),
                        key=lambda d: abs(d - target))

    def test_candmc_has_no_dense_view(self):
        with pytest.raises(NotImplementedError, match="no dense execution"):
            DenseBackend().run(build("lu", "candmc", 1024, 64))

    def test_capital_has_no_dense_view(self):
        with pytest.raises(NotImplementedError, match="no dense execution"):
            DenseBackend().run(build("cholesky", "capital", 1024, 64))


#: Per-rank counters, params and time estimates of CANDMC/CAPITAL as the
#: per-step ``RankAccountant`` loops produced them at commit 135e8bb,
#: before the two models became cost-term schedules.
PINNED = json.loads((pathlib.Path(__file__).parent
                     / "baseline_models_pinned.json").read_text())


class TestPortedModelsPinned:
    @pytest.mark.parametrize(
        "row", PINNED,
        ids=lambda r: f"{r['impl']}-{r['n']}-{r['p']}-c{r['c']}")
    def test_counters_params_and_time(self, row):
        op = "lu" if row["impl"] == "candmc" else "cholesky"
        [res] = trace(build(op, row["impl"], row["n"], row["p"], c=row["c"],
                            mem_words=row["mem_words"]))
        for field in ("recv_words", "flops"):
            arr = getattr(res.comm, field)
            assert [arr.mean(), arr.max()] == pytest.approx(
                row[field], rel=1e-12)
        arr = res.comm.recv_msgs
        assert [arr.sum(), arr.max()] == row["recv_msgs"]
        assert dict(res.params, grid=list(res.params["grid"])) \
            == row["params"]
        timed = estimate_time(res)
        assert timed.time_s == pytest.approx(row["time_s"], rel=1e-12)
        assert timed.peak_fraction == pytest.approx(
            row["peak_fraction"], rel=1e-12)

    def test_trace_case_equals_each_label_alone(self):
        """The models batch with the executable schedules: one
        TermBatch over all eight labels is bit-identical to eight
        single traces."""
        n, p = 4096, 64
        lu = ("conflux", "mkl", "slate", "candmc")
        chol = ("confchox", "mkl-chol", "slate-chol", "capital")
        batched = trace_case(n, p, lu_impls=lu, chol_impls=chol)
        alone = [trace_lu(name, n, p, steps="none") for name in lu] + \
            [trace_cholesky(name, n, p, steps="none") for name in chol]
        assert [r.name for r in batched] == [*lu, *chol]
        for got, want in zip(batched, alone):
            assert (got.name, got.params) == (want.name, want.params)
            for field in ("recv_words", "flops", "recv_msgs"):
                assert np.array_equal(getattr(got.comm, field),
                                      getattr(want.comm, field))


def lu_words(label, n, p, **params):
    """Mean received words of a trace of LU implementation ``label``."""
    return trace(build("lu", label, n, p, **params))[0].mean_recv_words


def chol_words(label, n, p, **params):
    """Mean received words of a trace of Cholesky implementation
    ``label``."""
    return trace(build("cholesky", label, n, p, **params))[0].mean_recv_words


class TestPaperOrdering:
    """The headline comparison: COnfLUX < SLATE <= MKL < CANDMC at the
    paper's scales, and CANDMC ~5x COnfLUX's leading term."""

    @pytest.mark.parametrize("n,p", [(16384, 1024), (32768, 4096)])
    def test_lu_volume_ordering(self, n, p):
        c = max(1, int(round(p ** (1 / 3))))
        while p % c:
            c -= 1
        conflux = lu_words("conflux", n, p, v=32, c=c)
        mkl = lu_words("mkl", n, p, nb=128)
        slate = lu_words("slate", n, p, nb=128)
        candmc = lu_words("candmc", n, p, c=c)
        assert conflux < slate <= mkl < candmc

    def test_candmc_vs_conflux_factor(self):
        """Paper: 'Compared to ... CANDMC ... COnfLUX communicates five
        times less' (leading terms; measured factor above 2.5x once
        COnfLUX's O(M) term is included)."""
        n, p, c = 32768, 4096, 8
        conflux = lu_words("conflux", n, p, v=32, c=c)
        candmc = lu_words("candmc", n, p, c=c)
        assert candmc / conflux > 2.5
        # Leading-order (model) factor is the full 5x.
        m = c * float(n) * n / p
        assert cm.candmc_paper_model(n, p, m) / \
            cm.conflux_paper_model(n, p, m) == pytest.approx(5.0)

    def test_2d_wins_at_small_p_for_candmc_only(self):
        """The motivation in Section 1: CANDMC needs huge P to beat 2D,
        COnfLUX beats 2D immediately."""
        n, p = 16384, 64
        c = 4
        mkl = lu_words("mkl", n, p, nb=128)
        candmc = lu_words("candmc", n, p, c=c)
        conflux = lu_words("conflux", n, p, v=32, c=c)
        assert candmc > mkl          # CANDMC loses to 2D at small P
        assert conflux < mkl         # COnfLUX already wins

    def test_cholesky_volume_ordering(self):
        n, p, c = 16384, 1024, 8
        ours = chol_words("confchox", n, p, v=32, c=c)
        mkl = chol_words("mkl-chol", n, p, nb=128)
        slate = chol_words("slate-chol", n, p, nb=128)
        capital = chol_words("capital", n, p, c=c)
        assert ours < slate <= mkl < capital
