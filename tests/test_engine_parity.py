"""Trace-vs-distributed parity: the analytic accounting must agree with
counted execution — for *every* schedule in the engine.

The paper's central empirical claim is that the *measured* per-rank I/O
of COnfLUX/COnfCHOX matches the analytic near-optimal cost, and that
the 2D baselines measurably move more.  The engine makes both claims
checkable in-repo: the trace backend produces the analytic volumes, the
distributed backend counts words actually moved through the Machine,
and the totals must agree for all five schedules (conflux, confchox,
matmul25d, scalapack-lu, scalapack-chol).

Documented tolerances: the analytic models deliberately idealize a few
things the executable schedules do not —

* every rank is charged its full ``1/P`` share of the 1D panel
  scatters and piece distributions (COnfLUX steps 4, 6, 8, 10), while
  pieces already resident at their destination move zero words — a
  relative ``O(1/P)`` over-count that is negligible at paper scale but
  visible on the tiny machines these tests can afford;
* the COnfLUX A00 broadcast is charged at every rank of the
  communicator including the root, while the machine counts ``g - 1``
  receivers.  The 2D and SUMMA traces charge ``g - 1`` receivers
  exactly (the broadcast-root fix): the SUMMA and 2D-Cholesky traces
  now match the counted volumes to rounding, and the 2D-LU gap is down
  to its pivoting idealizations;
* COnfLUX step 8 spreads ``nrem`` masked rows where the machine moves
  the ``n11 = nrem - v`` actual Schur rows (an edge term per step);
* the tournament charges ``min(Pr, N/v, nrem)`` active participants
  (exact whp — :func:`repro.engine.accounting.butterfly_pair_exchanges`),
  while late steps may cluster the surviving rows on fewer fiber roots
  and exchange blocks shorter than ``v`` rows;
* the 2D LU trace charges ``nb`` pivot swaps per panel at the whp rate
  ``(Pr-1)/Pr``, while an actual run swaps only where the argmax landed
  (on diagonally dominant inputs: never — the 2D parity rows therefore
  factor generic matrices, with pivoting fully engaged); its
  eliminating-row broadcasts assume every column rank still holds
  active rows, which late panel columns need not.

Every idealization *over*-counts, so the measured volume sits below the
trace; the gap shrinks with both the step count and the machine size,
which the asymptotic tests assert.  Both views count what the paper
measures — received words, received messages and flops — and nothing
on the sending side.

This suite also absorbs the retired ``distributed2d`` module's checks:
the 2D distributed factors must match LAPACK's (``scipy.linalg.lu`` —
the same pivots — and ``scipy.linalg.cholesky``) to rounding, and the
final stores may hold only tiles their rank owns.  A one-call function
runs the same distributed view (``tests/test_api.py::TestOneCall``),
so these relations hold for it too.
"""

import numpy as np
import pytest
import scipy.linalg

from oracle import lapack_lu
from repro.analysis import harness
from repro.engine import DistributedBackend
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    Matmul25DSchedule,
)
from repro.factorizations.baselines.scalapack_chol import (
    ScalapackCholeskySchedule,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule

#: Relative tolerance for total received words, trace vs counted, on
#: 2.5D grids with at least 8 ranks and at least 8 panel steps.  The
#: exact tournament accounting (butterfly_pair_exchanges) brought this
#: down from the 0.20 the rounds-at-every-rank idealization needed.
PARITY_RTOL = 0.15

#: Small machines (P <= 6 or c = 1) and tiny step counts see the
#: O(1/P) local-share idealization at full strength.
PARITY_RTOL_EDGE = 0.34

#: 2D ScaLAPACK LU on generic (pivoting-active) inputs: broadcasts are
#: charged at g-1 receivers now, so what remains is the whp swap-rate
#: charge and the eliminating-row/edge idealizations.
PARITY_RTOL_2D = 0.13

#: 2D Cholesky: broadcast roots fixed and no pivot terms — the trace
#: matches the counted volume to cyclic rounding.
PARITY_RTOL_2D_CHOL = 0.02

#: 2.5D SUMMA: panel rings and the layered reduce-scatter are counted
#: identically by trace and machine (g-1 receivers everywhere).
PARITY_RTOL_SUMMA = 0.02

GRID = [
    # (n, p, v, c) — P >= 8, at least 8 panel steps each
    (64, 8, 8, 2),
    (96, 12, 12, 3),
    (128, 8, 8, 2),
    (128, 16, 16, 4),
]

EDGE = [(32, 4, 8, 1), (48, 6, 8, 2), (64, 4, 8, 1), (128, 4, 8, 1)]

GRID_2D = [(96, 16, 8), (128, 16, 16), (128, 36, 8)]

GRID_SUMMA = [(128, 32, 8, 2), (128, 64, 8, 4), (128, 128, 8, 2)]


def lu_pair(n, p, v, c, rng):
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    [trace] = harness.trace(ConfluxSchedule(n, p, v=v, c=c))
    dist = DistributedBackend().run(ConfluxSchedule(n, p, v=v, c=c), a=a)
    return trace, dist, a


def chol_pair(n, p, v, c, rng):
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    [trace] = harness.trace(ConfchoxSchedule(n, p, v=v, c=c))
    dist = DistributedBackend().run(ConfchoxSchedule(n, p, v=v, c=c), a=a)
    return trace, dist, a


def lu2d_sched(n, p, nb):
    return ScalapackLUSchedule(n, p, nb=nb, panel_rebroadcast=False)


def lu2d_pair(n, p, nb, rng):
    a = rng.standard_normal((n, n))      # generic: pivoting engages
    [trace] = harness.trace(lu2d_sched(n, p, nb))
    dist = DistributedBackend().run(lu2d_sched(n, p, nb), a=a)
    return trace, dist, a


def chol2d_pair(n, p, nb, rng):
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    [trace] = harness.trace(ScalapackCholeskySchedule(n, p, nb=nb))
    dist = DistributedBackend().run(ScalapackCholeskySchedule(n, p, nb=nb),
                                    a=a)
    return trace, dist, a


def summa_pair(n, p, s, c, rng):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    [trace] = harness.trace(Matmul25DSchedule(n, p, s=s, c=c))
    dist = DistributedBackend().run(Matmul25DSchedule(n, p, s=s, c=c),
                                    a=(a, b))
    return trace, dist, a, b


class TestEveryScheduleDistributed:
    """The backend abstraction is total: all five schedules run
    message-passing, which is what makes the baseline comparison a
    same-execution-model comparison."""

    def test_all_schedules_support_distributed(self):
        schedules = [
            ConfluxSchedule(32, 4, v=8, c=1),
            ConfchoxSchedule(32, 4, v=8, c=1),
            Matmul25DSchedule(32, 4, s=8, c=1),
            ScalapackLUSchedule(32, 4, nb=8),
            ScalapackCholeskySchedule(32, 4, nb=8),
        ]
        assert all(s.supports_distributed for s in schedules)


class TestLUParity:
    @pytest.mark.parametrize("n,p,v,c", GRID)
    def test_total_recv_words(self, rng, n, p, v, c):
        trace, dist, _ = lu_pair(n, p, v, c, rng)
        assert dist.comm.total_recv_words == pytest.approx(
            trace.comm.total_recv_words, rel=PARITY_RTOL)

    @pytest.mark.parametrize("n,p,v,c", EDGE)
    def test_total_recv_words_edge(self, rng, n, p, v, c):
        trace, dist, _ = lu_pair(n, p, v, c, rng)
        assert dist.comm.total_recv_words == pytest.approx(
            trace.comm.total_recv_words, rel=PARITY_RTOL_EDGE)

    @pytest.mark.parametrize("n,p,v,c", GRID)
    def test_counted_run_stays_numerically_exact(self, rng, n, p, v, c):
        _, dist, a = lu_pair(n, p, v, c, rng)
        err = np.linalg.norm(a[dist.perm] - dist.lower @ dist.upper)
        assert err / np.linalg.norm(a) < 1e-12

    def test_trace_overcounts(self, rng):
        """Every trace idealization over-counts (module docstring), so
        the counted volume must sit at or below the analytic one."""
        for n, p, v, c in GRID:
            trace, dist, _ = lu_pair(n, p, v, c, rng)
            assert (dist.comm.total_recv_words
                    <= trace.comm.total_recv_words * 1.001)

    def test_gap_shrinks_with_step_count(self, rng):
        """The trace-vs-counted gap is a lower-order edge effect: more
        panel steps at fixed (P, v, c) must shrink the relative gap."""
        def rel_gap(n):
            trace, dist, _ = lu_pair(n, 8, 8, 2, rng)
            t = trace.comm.total_recv_words
            return abs(t - dist.comm.total_recv_words) / t

        assert rel_gap(160) < rel_gap(48)

    def test_gap_shrinks_with_machine_size(self, rng):
        """The 1/P local-share idealization fades as P grows at fixed
        steps-per-rank shape."""
        def rel_gap(n, p, c):
            trace, dist, _ = lu_pair(n, p, 8, c, rng)
            t = trace.comm.total_recv_words
            return abs(t - dist.comm.total_recv_words) / t

        assert rel_gap(128, 16, 4) < rel_gap(128, 4, 1)


class TestCholeskyParity:
    @pytest.mark.parametrize("n,p,v,c", GRID)
    def test_total_recv_words(self, rng, n, p, v, c):
        trace, dist, _ = chol_pair(n, p, v, c, rng)
        assert dist.comm.total_recv_words == pytest.approx(
            trace.comm.total_recv_words, rel=PARITY_RTOL)

    @pytest.mark.parametrize("n,p,v,c", EDGE)
    def test_total_recv_words_edge(self, rng, n, p, v, c):
        trace, dist, _ = chol_pair(n, p, v, c, rng)
        assert dist.comm.total_recv_words == pytest.approx(
            trace.comm.total_recv_words, rel=PARITY_RTOL_EDGE)

    @pytest.mark.parametrize("n,p,v,c", GRID)
    def test_counted_run_stays_numerically_exact(self, rng, n, p, v, c):
        _, dist, a = chol_pair(n, p, v, c, rng)
        err = np.linalg.norm(a - dist.lower @ dist.lower.T)
        assert err / np.linalg.norm(a) < 1e-12

    def test_lu_and_cholesky_counted_volumes_comparable(self, rng):
        """Table 1: Cholesky communicates about as much as LU — also in
        the counted (not just analytic) volumes."""
        _, lu, _ = lu_pair(128, 8, 8, 2, rng)
        _, ch, _ = chol_pair(128, 8, 8, 2, rng)
        assert ch.comm.total_recv_words == pytest.approx(
            lu.comm.total_recv_words, rel=0.35)


class TestScalapackLUParity:
    """The 2D baseline through the same execution model — absorbing the
    retired distributed2d module's ground-truth checks, now with real
    partial pivoting instead of the old block-diagonal restriction."""

    @pytest.mark.parametrize("n,p,nb", GRID_2D)
    def test_total_recv_words(self, rng, n, p, nb):
        trace, dist, _ = lu2d_pair(n, p, nb, rng)
        assert dist.comm.total_recv_words == pytest.approx(
            trace.comm.total_recv_words, rel=PARITY_RTOL_2D)

    @pytest.mark.parametrize("n,p,nb", GRID_2D)
    def test_trace_overcounts(self, rng, n, p, nb):
        trace, dist, _ = lu2d_pair(n, p, nb, rng)
        assert (dist.comm.total_recv_words
                <= trace.comm.total_recv_words * 1.001)

    @pytest.mark.parametrize("n,p,nb", GRID_2D)
    def test_counted_run_stays_numerically_exact(self, rng, n, p, nb):
        _, dist, a = lu2d_pair(n, p, nb, rng)
        err = np.linalg.norm(a[dist.perm] - dist.lower @ dist.upper)
        assert err / np.linalg.norm(a) < 1e-11

    def test_pivoting_engages_on_generic_input(self, rng):
        _, dist, _ = lu2d_pair(96, 16, 8, rng)
        assert np.any(dist.perm != np.arange(96))

    def test_factors_match_lapack(self, rng):
        """The distributed elimination is LAPACK's partial pivoting: on
        a general input (pivoting engaged) it picks the same pivots and
        forms the same factors to rounding."""
        n, p, nb = 64, 16, 8
        a = rng.standard_normal((n, n))
        dist = DistributedBackend().run(lu2d_sched(n, p, nb), a=a)
        perm, lower, upper = lapack_lu(a)
        assert np.array_equal(dist.perm, perm)
        assert np.max(np.abs(dist.lower - lower)) < 1e-10
        assert np.max(np.abs(dist.upper - upper)) < 1e-10

    def test_final_stores_hold_only_owned_tiles(self, rng):
        """No rank may end up holding data it does not own: the
        distributed contract the accounting layer abstracts away."""
        from repro.layouts import BlockCyclicLayout
        from repro.machine import Machine

        n, p, nb = 64, 4, 8
        sched = lu2d_sched(n, p, nb)
        machine = Machine(p)
        a = rng.standard_normal((n, n))
        DistributedBackend(machine).run(sched, a=a)
        lay = BlockCyclicLayout(n, n, nb, nb, sched.grid.layer_grid())
        for rank in range(p):
            for key in list(machine.store(rank).keys()):
                _, bi, bj = key
                assert lay.owner_rank(bi, bj) == rank, \
                    f"rank {rank} still holds foreign tile {key}"

    def test_single_rank_no_communication(self, rng):
        from repro.machine import Machine

        machine = Machine(1)
        a = rng.standard_normal((32, 32))
        DistributedBackend(machine).run(lu2d_sched(32, 1, 8), a=a)
        assert machine.stats.total_recv_words == 0

    def test_volume_scales_like_2d(self, rng):
        """Per-rank counted volume ~ N^2/sqrt(P): the 4->16 rank ratio
        lands between sqrt(4)=2 and the correction-free 2.7."""
        n, nb = 128, 16
        _, m4, _ = lu2d_pair(n, 4, nb, rng)
        _, m16, _ = lu2d_pair(n, 16, nb, rng)
        ratio = m4.comm.mean_recv_words / m16.comm.mean_recv_words
        assert 1.3 < ratio < 3.0


class TestScalapackCholParity:
    @pytest.mark.parametrize("n,p,nb", GRID_2D)
    def test_total_recv_words(self, rng, n, p, nb):
        trace, dist, _ = chol2d_pair(n, p, nb, rng)
        assert dist.comm.total_recv_words == pytest.approx(
            trace.comm.total_recv_words, rel=PARITY_RTOL_2D_CHOL)

    @pytest.mark.parametrize("n,p,nb", GRID_2D)
    def test_trace_overcounts(self, rng, n, p, nb):
        trace, dist, _ = chol2d_pair(n, p, nb, rng)
        assert (dist.comm.total_recv_words
                <= trace.comm.total_recv_words * 1.001)

    @pytest.mark.parametrize("n,p,nb", GRID_2D)
    def test_counted_run_stays_numerically_exact(self, rng, n, p, nb):
        _, dist, a = chol2d_pair(n, p, nb, rng)
        err = np.linalg.norm(a - dist.lower @ dist.lower.T)
        assert err / np.linalg.norm(a) < 1e-12

    def test_factors_match_lapack(self, rng):
        n, p, nb = 64, 16, 8
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        dist = DistributedBackend().run(ScalapackCholeskySchedule(n, p,
                                                                  nb=nb), a=a)
        lower = scipy.linalg.cholesky(a, lower=True)
        assert np.max(np.abs(dist.lower - lower)) < 1e-10

    def test_final_stores_hold_only_owned_lower_tiles(self, rng):
        from repro.layouts import BlockCyclicLayout
        from repro.machine import Machine

        n, p, nb = 64, 4, 8
        sched = ScalapackCholeskySchedule(n, p, nb=nb)
        machine = Machine(p)
        g = rng.standard_normal((n, n))
        DistributedBackend(machine).run(sched, a=g @ g.T + n * np.eye(n))
        lay = BlockCyclicLayout(n, n, nb, nb, sched.grid.layer_grid())
        for rank in range(p):
            for key in list(machine.store(rank).keys()):
                _, bi, bj = key
                assert bi >= bj, f"upper tile {key} stored"
                assert lay.owner_rank(bi, bj) == rank


class TestMatmulParity:
    @pytest.mark.parametrize("n,p,s,c", GRID_SUMMA)
    def test_total_recv_words(self, rng, n, p, s, c):
        trace, dist, _, _ = summa_pair(n, p, s, c, rng)
        assert dist.comm.total_recv_words == pytest.approx(
            trace.comm.total_recv_words, rel=PARITY_RTOL_SUMMA)

    @pytest.mark.parametrize("n,p,s,c", GRID_SUMMA)
    def test_trace_overcounts(self, rng, n, p, s, c):
        trace, dist, _, _ = summa_pair(n, p, s, c, rng)
        assert (dist.comm.total_recv_words
                <= trace.comm.total_recv_words * 1.001)

    @pytest.mark.parametrize("n,p,s,c", GRID_SUMMA)
    def test_counted_product_exact(self, rng, n, p, s, c):
        _, dist, a, b = summa_pair(n, p, s, c, rng)
        assert np.allclose(dist.lower, a @ b)

    def test_reduction_volume_exact(self, rng):
        """The final layered reduce-scatter is the one term both models
        count identically: with zero SUMMA rounds' worth of panels (a
        1-layer grid row/column) ... instead check c=1 has no reduce."""
        trace, dist, a, b = summa_pair(64, 16, 8, 1, rng)
        # c=1: the reduce step moves nothing in either model.
        last_trace = trace.comm.steps[-1]
        assert last_trace.recv_words_total == 0
        assert np.allclose(dist.lower, a @ b)

    def test_trace_matches_counted_exactly(self, rng):
        """With g-1 receivers charged everywhere, the SUMMA trace and
        the counted execution agree to float rounding — no residual
        idealization at any grid width."""
        for n, p, s, c in ((128, 128, 8, 2), (128, 32, 8, 2)):
            trace, dist, _, _ = summa_pair(n, p, s, c, rng)
            assert dist.comm.total_recv_words == pytest.approx(
                trace.comm.total_recv_words, rel=1e-12)
