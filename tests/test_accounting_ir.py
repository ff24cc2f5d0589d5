"""The cost-term IR's central contract: the closed-form evaluator
reproduces the dense ``(steps x P)`` oracle (``tests/oracle.py`` — the
chunked reference interpretation of the term stream) for every schedule
and for randomized configurations.

* **Exactness** — received/sent words and message counts agree exactly
  (``==``, not approx): words/msgs profiles are integer-valued, both
  sides accumulate those integers exactly, and the one float
  coefficient multiplies the identical integer total in the identical
  term order.  Flop terms may carry a non-integer step column (the 2D
  panel getrf count), so flops agree to float rounding.
* **Step columns** — per-step maxima are bitwise equal to the oracle's,
  per-step totals agree to rounding (``assert_matches_oracle`` checks
  totals and columns together; ``test_analytic_steps.py`` spells the
  step-log facets out per schedule).
* **Step-log equivalence** — the columnar log and the eager records
  log hold the same values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import assert_matches_oracle, oracle_stats
from repro.analysis import harness
from repro.analysis.harness import sweep_traces
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    Matmul25DSchedule,
)
from repro.factorizations.baselines.scalapack_chol import (
    ScalapackCholeskySchedule,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule


class TestFixedConfigs:
    """The parity suite's fixed grid: all five schedules."""

    @pytest.mark.parametrize("n,p,v,c", [
        (64, 8, 8, 2), (96, 12, 12, 3), (128, 16, 16, 4), (64, 1, 8, 1),
        (128, 4, 8, 1),
    ])
    def test_conflux(self, n, p, v, c):
        assert_matches_oracle(ConfluxSchedule(n, p, v=v, c=c))

    @pytest.mark.parametrize("n,p,v,c", [
        (64, 8, 8, 2), (96, 12, 12, 3), (128, 16, 16, 4), (48, 6, 8, 2),
    ])
    def test_confchox(self, n, p, v, c):
        assert_matches_oracle(ConfchoxSchedule(n, p, v=v, c=c))

    @pytest.mark.parametrize("n,p,s,c", [
        (128, 32, 8, 2), (128, 64, 8, 4), (64, 16, 8, 1),
    ])
    def test_matmul25d(self, n, p, s, c):
        assert_matches_oracle(Matmul25DSchedule(n, p, s=s, c=c))

    @pytest.mark.parametrize("n,p,nb", [
        (96, 16, 8), (128, 16, 16), (128, 36, 8), (64, 4, 64),
    ])
    def test_scalapack_lu(self, n, p, nb):
        assert_matches_oracle(ScalapackLUSchedule(n, p, nb=nb))
        assert_matches_oracle(
            ScalapackLUSchedule(n, p, nb=nb, panel_rebroadcast=False))

    @pytest.mark.parametrize("n,p,nb", [
        (96, 16, 8), (128, 16, 16), (128, 36, 8), (64, 4, 64),
    ])
    def test_scalapack_chol(self, n, p, nb):
        assert_matches_oracle(ScalapackCholeskySchedule(n, p, nb=nb))


class TestHypothesisParity:
    """Randomized (n, v/nb, grid) configurations, every schedule."""

    @settings(max_examples=25, deadline=None)
    @given(nsteps=st.integers(2, 12), vk=st.integers(1, 4),
           pr=st.integers(1, 4), pc=st.integers(1, 4),
           c=st.integers(1, 3))
    def test_conflux_and_confchox(self, nsteps, vk, pr, pc, c):
        v = vk * c
        n, p = v * nsteps, pr * pc * c
        from repro.machine.grid import ProcessorGrid3D

        grid = ProcessorGrid3D(pr, pc, c)
        assert_matches_oracle(ConfluxSchedule(n, p, v=v, c=c, grid=grid))
        assert_matches_oracle(ConfchoxSchedule(n, p, v=v, c=c, grid=grid))

    @settings(max_examples=25, deadline=None)
    @given(nsteps=st.integers(1, 12), nb=st.sampled_from([4, 8, 16]),
           p=st.integers(1, 20), rebroadcast=st.booleans())
    def test_scalapack_2d(self, nsteps, nb, p, rebroadcast):
        n = nb * nsteps
        assert_matches_oracle(ScalapackLUSchedule(
            n, p, nb=nb, panel_rebroadcast=rebroadcast))
        assert_matches_oracle(ScalapackCholeskySchedule(n, p, nb=nb))

    @settings(max_examples=25, deadline=None)
    @given(rounds=st.integers(1, 10), s=st.sampled_from([2, 4, 8]),
           c=st.integers(1, 3), p_base=st.integers(1, 8))
    def test_matmul25d(self, rounds, s, c, p_base):
        n, p = rounds * s * c, p_base * c
        try:
            sched = Matmul25DSchedule(n, p, s=s, c=c)
        except ValueError:      # no 2.5D grid for this (p, c)
            return
        assert_matches_oracle(sched)


class TestStepLogEquivalence:
    """Per-step maxima, when requested, agree across log flavours."""

    @pytest.mark.parametrize("sched_fn", [
        lambda: ConfluxSchedule(96, 12, v=12, c=3),
        lambda: ScalapackLUSchedule(96, 16, nb=8),
        lambda: Matmul25DSchedule(64, 16, s=8, c=2),
    ])
    def test_columnar_equals_records(self, sched_fn):
        columnar = sched_fn().trace_stats(steps="columnar")
        records = sched_fn().trace_stats(steps="records")
        assert len(columnar.steps) == len(records.steps)
        for rc, rr in zip(columnar.steps, records.steps):
            assert rc == rr          # StepRecord is a frozen dataclass

    def test_columnar_labels_are_lazy(self):
        calls = []
        sched = ConfluxSchedule(64, 8, v=8, c=2)
        orig = sched.step_label
        sched.step_label = lambda t: calls.append(t) or orig(t)
        stats = sched.trace_stats(steps="columnar")
        # Columns are readable without a single label materialization.
        assert stats.steps.column("recv_words_max").shape == (8,)
        assert stats.steps.total("recv_words_max") > 0
        assert calls == []
        assert stats.steps[3].label == "t=3"
        assert calls == [3]

    def test_none_means_no_steps(self):
        stats = ConfluxSchedule(64, 8, v=8, c=2).trace_stats(steps="none")
        assert len(stats.steps) == 0
        assert stats.steps.total("recv_words_max") == 0.0


class TestBuilderValidation:
    """The IR's emission-time contract (what makes exactness provable)."""

    def _acct(self, nsteps=4):
        from repro.engine.accounting import StepAccounting
        from repro.machine.grid import ProcessorGrid3D

        return StepAccounting(ProcessorGrid3D(2, 2, 1), nsteps)

    def test_words_profiles_must_be_integer_valued(self):
        acct = self._acct()
        with pytest.raises(ValueError, match="integer"):
            acct.add_recv(1.0, step=acct.column(np.full(4, 0.5)))
        with pytest.raises(ValueError, match="integer coefficients"):
            acct.affine(1.5, 1.0)
        # Flops may carry fractional columns (documented exception).
        acct.add_flops(1.0, step=acct.column(np.full(4, 0.5)))

    def test_negative_words_coeff_rejected(self):
        acct = self._acct()
        with pytest.raises(ValueError, match="negative"):
            acct.add_recv(-1.0)
        acct.add_flops(-1.0)          # flop constants may be negative

    def test_bad_gate_and_own_rejected(self):
        acct = self._acct()
        with pytest.raises(ValueError, match="gate atom"):
            acct.add_recv(1.0, gate=("x",))
        with pytest.raises(ValueError, match="duplicate"):
            acct.add_recv(1.0, gate=("j", "!j"))
        with pytest.raises(ValueError, match="ownership"):
            acct.add_recv(1.0, own=("j", "j"))

    def test_rank_const_shape_checked(self):
        acct = self._acct()
        with pytest.raises(ValueError, match="rank_const"):
            acct.add_recv(1.0, rank_const=np.ones(3))

    def test_column_shape_checked(self):
        acct = self._acct()
        with pytest.raises(ValueError, match="column"):
            acct.column(np.zeros(3))


#: Small paper-shaped smoke-sweep cases (fast, non-trivial steps).
SWEEP_CASES = [(1024, 16), (2048, 64)]


def _case_schedules(n, p):
    """The four default sweep flavours of one case, as
    ``trace_case`` builds them."""
    c = harness.max_replication(p, n)
    return [harness._sweep_schedule("lu", name, n, p, c)
            for name in ("conflux", "mkl")] + \
        [harness._sweep_schedule("cholesky", name, n, p, c)
         for name in ("confchox", "mkl-chol")]


class TestSweepChecksum:
    def test_closed_equals_chunked_checksum(self):
        closed = sweep_traces(SWEEP_CASES)
        chunked = [oracle_stats(sched) for case in SWEEP_CASES
                   for sched in _case_schedules(*case)]
        assert sum(r.mean_recv_words for r in closed) == \
            sum(stats.mean_recv_words for stats in chunked)
        for a, b in zip(closed, chunked):
            assert np.array_equal(a.comm.recv_words, b.recv_words)

    def test_paper_scale_point_matches_oracle(self):
        """One bench-matrix point, all four sweep flavours, totals and
        step columns."""
        for sched in _case_schedules(65536, 1024):
            assert_matches_oracle(sched)

    def test_sweep_default_has_no_step_log(self):
        results = sweep_traces([(1024, 16)])
        assert all(len(r.step_log) == 0 for r in results)
