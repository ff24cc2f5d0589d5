"""The cost-term IR's central contract: the closed-form evaluator
reproduces the dense ``(steps x P)`` oracle (``tests/oracle.py`` — the
chunked reference interpretation of the term stream) for every schedule
and for randomized configurations.

* **Exactness** — received words and message counts agree exactly
  (``==``, not approx): words/msgs profiles are integer-valued, both
  sides accumulate those integers exactly, and the one float
  coefficient multiplies the identical integer total in the identical
  term order.  Flop terms may carry a non-integer step column (the 2D
  panel getrf count), so flops agree to float rounding.
* **Step columns** — per-step maxima are bitwise equal to the oracle's,
  per-step totals agree to rounding (``assert_matches_oracle`` checks
  totals and columns together; ``test_analytic_steps.py`` spells the
  step-log facets out per schedule).
* **Step-log equivalence** — the columnar log's lazily materialized
  records hold the columns' values.
* **One path** — there is one reduction per term; what it cannot reduce
  exactly is refused with a typed error, and fractional flop columns
  go through the same kernels as integer ones.
"""

import dataclasses
import itertools
import math
import operator
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import TOTAL_FIELDS, assert_matches_oracle, oracle_stats
from repro.analysis import harness
from repro.analysis.harness import sweep_traces
from repro.engine.accounting import (
    StepAccounting,
    StepFn,
    TermBatch,
    butterfly_pair_exchanges,
)
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    Matmul25DSchedule,
)
from repro.factorizations.baselines.scalapack_chol import (
    ScalapackCholeskySchedule,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule
from repro.factorizations.registry import IMPLS, build
from repro.machine.grid import ProcessorGrid3D
from repro.machine.stats import STEP_FIELDS, StepRecord
from repro.planner import PlanRequest, plan_request
from test_engine_parity import EDGE, GRID, GRID_2D, GRID_SUMMA


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
    @example(nsteps=37, vk=1, pr=3, pc=5, c=2)
    @given(nsteps=st.integers(13, 160), vk=st.integers(1, 2),
           pr=st.integers(2, 5), pc=st.integers(2, 5), c=st.integers(1, 3))
    def test_period_shorter_than_the_run(self, nsteps, vk, pr, pc, c):
        """Several full cycles of the terms' periods (``lcm`` of their
        axis dims, co-prime shapes like 3x5 included) plus a ragged
        tail: the affine terms reduce per residue class, the oracle
        step by step."""
        v = vk * c
        grid = ProcessorGrid3D(pr, pc, c)
        schedules = [cls(v * nsteps, grid.size, v=v, c=c, grid=grid)
                     for cls in (ConfluxSchedule, ConfchoxSchedule)]
        for sched in schedules:
            assert_matches_oracle(sched)
        _assert_recv_words_is_the_full_reductions_column(schedules)

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


def _assert_recv_words_is_the_full_reductions_column(schedules):
    batch = TermBatch()
    for sched in schedules:
        batch.add(sched)
    got, want = batch.recv_words(), batch.evaluate()
    assert len(got) == len(want) == len(schedules)
    for sched, words, stats in zip(schedules, got, want):
        assert words.dtype == stats.recv_words.dtype
        assert np.array_equal(words, stats.recv_words), type(sched).__name__
        assert float(words.mean()) == stats.mean_recv_words


class TestRecvWordsOnly:
    """``TermBatch.recv_words()`` — the reduction the planner ranks by —
    is bitwise the ``recv_words`` column of ``evaluate()``."""

    #: The parity suite's points, keyed by a table row's tunable params.
    POINTS = {("v", "c"): GRID + EDGE, ("b", "c"): GRID + EDGE,
              ("nb",): GRID_2D, ("s", "c"): GRID_SUMMA}

    @pytest.mark.parametrize("op, label", list(IMPLS))
    def test_every_table_row_on_the_parity_points(self, op, label):
        names = IMPLS[op, label].params
        _assert_recv_words_is_the_full_reductions_column([
            build(op, label, n, p, **dict(zip(names, params)))
            for n, p, *params in self.POINTS[names]])

    @settings(max_examples=25, deadline=None)
    @given(nsteps=st.integers(2, 12), vk=st.integers(1, 4),
           pr=st.integers(1, 4), pc=st.integers(1, 4), c=st.integers(1, 3),
           nb=st.sampled_from([4, 8, 16]), p2d=st.integers(1, 20))
    def test_generated_grid(self, nsteps, vk, pr, pc, c, nb, p2d):
        v = vk * c
        grid = ProcessorGrid3D(pr, pc, c)
        schedules = [
            ConfluxSchedule(v * nsteps, grid.size, v=v, c=c, grid=grid),
            ConfchoxSchedule(v * nsteps, grid.size, v=v, c=c, grid=grid),
            ScalapackLUSchedule(nb * nsteps, p2d, nb=nb),
            ScalapackCholeskySchedule(nb * nsteps, p2d, nb=nb)]
        try:
            schedules.append(Matmul25DSchedule(nsteps * nb * c, pr * c,
                                               s=nb, c=c))
        except ValueError:      # no 2.5D grid for this (p, c)
            pass
        _assert_recv_words_is_the_full_reductions_column(schedules)


class TestClassMoments:
    """Affine gated/owned terms reduce over residue classes, whose
    moments are closed-form integers: O(period), and exact."""

    @staticmethod
    def _python_int_moments(c0, c1, lo, hi, period):
        """``sum w`` and ``sum w t`` per class by brute-force ``sum()``
        over the class's steps in Python ints (``sum t`` and ``sum t^2``
        summed, then combined with the coefficients)."""
        moments = []
        for r in range(period):
            ts = range(lo + (r - lo) % period, hi, period)
            s1, s2 = sum(ts), sum(map(operator.mul, ts, ts))
            moments.append((c0 * len(ts) + c1 * s1, c0 * s1 + c1 * s2))
        return moments

    @settings(max_examples=40, deadline=None)
    @example(c0=2 ** 23, c1=-2 ** 10, lo=0, steps=2 ** 23, period=8)
    @given(c0=st.integers(-2 ** 30, 2 ** 30),
           c1=st.integers(-2 ** 10, 2 ** 10), lo=st.integers(0, 1000),
           steps=st.integers(2, 3000), period=st.integers(1, 64))
    def test_moments_are_python_int_sums_rounded_once(self, c0, c1, lo,
                                                      steps, period):
        """At ``2^23`` steps the ``sum w t`` moments pass ``2^63``:
        plain int64 would wrap there."""
        period = min(period, steps - 1)
        hi = lo + steps
        step = StepFn(c0=c0, c1=c1, lo=lo, hi=hi)
        dtype = StepAccounting._class_dtype(step, lo, hi, period)
        M0, M1 = StepAccounting._basis_moments(
            step, StepAccounting._class_basis(lo, hi, period, dtype))
        want = self._python_int_moments(c0, c1, lo, hi, period)
        assert M0.tolist() == [float(m0) for m0, _ in want]
        assert M1.tolist() == [float(m1) for _, m1 in want]
        if steps == 2 ** 23:
            assert max(abs(m1) for _, m1 in want) > 2 ** 63

    def test_affine_flops_past_2_53_are_exact(self):
        """COnfLUX's Schur-update flops (``own=("j",)``) at N = 2^20,
        v = 1 reach ~2^55 per rank; their closed form is the exact
        integer, where step-order float sums were ~1.75e-12 off."""
        sched = ConfluxSchedule(2 ** 20, 64, v=1, c=1)
        acct = StepAccounting(sched.grid, sched.steps())
        [term] = [tm for tm in acct._collect(sched.accounting)
                  if tm.counter == "flops" and tm.own == ("j",)
                  and tm.step.column is None and tm.step.c1 != 0]
        total = np.broadcast_to(acct._term_total(term, msgs=False),
                                acct.shape).reshape(-1)
        nsteps, m, pj = acct.nsteps, acct.grid.cols, 3
        # nrem = N - t times the tiles in (t, nsteps) owned by column pj.
        want = sum((nsteps - t) * ((nsteps - 1 - pj) // m - (t - pj) // m)
                   for t in range(nsteps))
        assert want > 2 ** 53
        assert total[np.flatnonzero(acct.pj == pj)[0]] == float(want)

    def test_recv_words_of_affine_terms_materialise_no_step(self,
                                                             monkeypatch):
        """At v = 1 a candidate has N steps; ranking it touches no
        step-long array: COnfLUX's tournament profiles keep at most Pr
        explicit steps, the rest reduces as affine residue classes."""
        calls = []
        values = StepFn.values
        monkeypatch.setattr(StepFn, "values", lambda self, t0, t1: (
            calls.append((t0, t1)) or values(self, t0, t1)))
        for sched in (ConfchoxSchedule(65536, 4096, v=1, c=1),
                      ConfluxSchedule(65536, 4096, v=1, c=1),
                      ConfluxSchedule(65536, 4096, v=16, c=16)):
            acct = StepAccounting(sched.grid, sched.steps())
            assert all(tm.step.column is None
                       or tm.step.column.size <= sched.grid.rows
                       for tm in acct._collect(sched.accounting))
            batch = TermBatch()
            batch.add(sched)
            words = batch.recv_words()[0]
            assert calls == []
            assert words.min() > 0


def _xor_pairings(m):
    """Brute force: one transfer per participant per XOR-butterfly round
    whose partner ``i ^ 2^r`` exists."""
    total, q = 0, 1
    while q < m:
        total += sum(1 for i in range(m) if i ^ q < m)
        q *= 2
    return total


class TestTournamentTable:
    """``butterfly_pair_exchanges`` is a table over ``0 .. max(m)``
    indexed by the step column."""

    def test_every_participant_count_up_to_130(self):
        m = np.arange(131)
        got = butterfly_pair_exchanges(m)
        assert got.dtype == np.int64 and got.shape == m.shape
        assert got.tolist() == [_xor_pairings(k) for k in range(131)]
        square = butterfly_pair_exchanges(m[:121].reshape(11, 11))
        assert np.array_equal(square, got[:121].reshape(11, 11))

    @pytest.mark.parametrize("m, want", [
        (0, 0), (1, 0), (-1, 0), (-64, 0), (2, 2), (3, 4), (8, 24),
        (np.int64(5), 10), (np.array(6), 14)])
    def test_scalars_and_0d(self, m, want):
        got = butterfly_pair_exchanges(m)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.dtype == np.int64 and got == want

    def test_negative_counts_do_not_wrap(self):
        got = butterfly_pair_exchanges(np.array([-130, -2, -1, 0, 1, 4]))
        assert got.tolist() == [0, 0, 0, 0, 0, 8]

    @pytest.mark.parametrize("n, p, v, c", GRID + EDGE)
    def test_conflux_exchange_column_on_the_parity_points(self, n, p, v, c):
        """The exchange profile is a constant head plus a tail of at most
        Pr steps; at every step it is the brute-force pairing count."""
        sched = ConfluxSchedule(n, p, v=v, c=c)
        acct = StepAccounting(sched.grid, sched.steps())
        [term] = [tm for tm in acct._collect(sched.accounting)
                  if tm.gate == ("j", "k") and tm.counter == "recv"]
        T, pr = acct.nsteps, sched.grid.rows
        assert term.msgs_step is term.step
        assert term.step.values(0, T).tolist() == [
            _xor_pairings(min(pr, n // v, n - v * t)) for t in range(T)]
        assert term.step.column.size <= pr
    """Per-step maxima, when requested, agree across log flavours."""

    @pytest.mark.parametrize("sched_fn", [
        lambda: ConfluxSchedule(96, 12, v=12, c=3),
        lambda: ScalapackLUSchedule(96, 16, nb=8),
        lambda: Matmul25DSchedule(64, 16, s=8, c=2),
    ])
    def test_columnar_equals_records(self, sched_fn):
        sched = sched_fn()
        log = sched.trace_stats(steps="columnar").steps
        assert len(log.records) == len(log) == sched.steps()
        for t, rec in enumerate(log):
            assert rec == StepRecord(      # a frozen dataclass
                label=sched.step_label(t),
                **{f: float(log.column(f)[t]) for f in STEP_FIELDS})

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
        return StepAccounting(ProcessorGrid3D(2, 2, 1), nsteps)

    def test_words_profiles_must_be_integer_valued(self):
        acct = self._acct()
        with pytest.raises(ValueError, match="integer"):
            acct.add_recv(1.0, step=acct.column(np.full(4, 0.5)))
        with pytest.raises(ValueError, match="integer coefficients"):
            acct.affine(1.5, 1.0)
        # Flops may carry fractional columns (documented exception).
        acct.add_flops(1.0, step=acct.column(np.full(4, 0.5)))
        # Integrality is settled once, when the profile is built.
        assert acct.column(np.full(4, 0.5)).exact is False
        assert acct.column(np.arange(4.0)).exact and acct.affine(3, 2).exact

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

    @pytest.mark.parametrize("msgs", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("with_step", [False, True],
                             ids=["default-step", "msgs-step"])
    def test_bad_msgs_coefficient_rejected(self, msgs, with_step):
        """Like ``coeff``: a nan message count would poison every rank,
        a negative one charge (or, without a ``msgs_step``, silently
        drop) messages."""
        acct = self._acct()
        msgs_step = acct.const() if with_step else None
        with pytest.raises(ValueError, match="msgs"):
            acct.add_recv(1.0, msgs=msgs, msgs_step=msgs_step)
        assert acct._terms == []

    def test_rank_const_shape_checked(self):
        acct = self._acct()
        with pytest.raises(ValueError, match="rank_const"):
            acct.add_recv(1.0, rank_const=np.ones(3))

    def test_column_shape_checked(self):
        acct = self._acct()
        with pytest.raises(ValueError, match="column"):
            acct.column(np.zeros(3))
        with pytest.raises(ValueError, match="tail"):
            acct.tail(0, 0, np.zeros(5))
        with pytest.raises(ValueError, match="integer coefficients"):
            acct.tail(0.5, 0, np.zeros(2))

    def test_nan_profile_value_is_refused_at_its_step(self):
        """A NaN flop column used to yield NaN flop counters silently."""
        acct = self._acct()
        with pytest.raises(ValueError, match="nan at step 1"):
            acct.add_flops(1.0, step=acct.column([1, np.nan, 2, 3]))
        with pytest.raises(ValueError, match="nan at step 3"):
            acct.tail(5, -1, [2, np.nan])
        assert acct._terms == []

    def test_inf_profile_value_is_refused_not_overflowed(self):
        """``inf == floor(inf)`` passed the words integrality check, and
        evaluation then failed with a misleading 2^52 OverflowError."""
        acct = self._acct()
        with pytest.raises(ValueError, match="inf at step 1"):
            acct.add_recv(1.0, step=acct.column([1, np.inf, 2, 3]))
        with pytest.raises(ValueError, match="-inf at step 2"):
            acct.tail(0, 0, [-np.inf, 1])
        # Negative values stay allowed (the oracle agrees with them).
        acct.add_recv(1.0, step=acct.column([-1, 2, -3, 4]))
        acct.add_recv(1.0, step=acct.tail(-2, 1, [-1, 0]))
        assert len(acct._terms) == 2


def _adhoc(grid, nsteps, accounting):
    """An accounting callable as the schedule the evaluator and the
    oracle both accept."""
    sched = types.SimpleNamespace(
        grid=grid, steps=lambda: nsteps, accounting=accounting,
        step_label=lambda t: f"t={t}")
    sched.trace_stats = lambda steps="columnar": _evaluate(sched, steps)
    return sched


def _evaluate(sched, steps="columnar"):
    batch = TermBatch()
    batch.add(sched)
    return batch.evaluate(steps)[0]


class TestOnePath:
    """``_term_total`` is the only reduction: no silent second path."""

    GRID = ProcessorGrid3D(2, 2, 2)

    @pytest.mark.parametrize("emit", [
        lambda a: a.add_recv(1.0, step=a.affine(0, 2 ** 51)),
        lambda a: a.add_recv(1.0, step=a.affine(2 ** 50), gate=("j",)),
        # Refused on its first step's 2^50, its largest value.
        lambda a: a.add_recv(1.0, step=a.affine(2 ** 50, -2 ** 48),
                             gate=("j",)),
        lambda a: a.add_recv(1.0, step=a.affine(2 ** 50), own=("i",)),
        lambda a: a.add_recv(1.0, msgs_step=a.affine(0, 2 ** 51)),
    ], ids=["uniform", "gated", "gated-decreasing", "owned", "msgs"])
    def test_moments_past_2_52_raise_instead_of_rounding(self, emit):
        with pytest.raises(OverflowError,
                           match=r"recv term .*cross 2\^52"):
            _evaluate(_adhoc(self.GRID, 4, emit))

    def test_moments_below_the_guard_match_the_oracle(self):
        sched = _adhoc(self.GRID, 4, lambda a: (
            a.add_recv(1.0, step=a.affine(0, 2 ** 40)),
            a.add_recv(1.0, step=a.affine(2 ** 40), gate=("j",))))
        assert np.array_equal(_evaluate(sched).recv_words,
                              oracle_stats(sched).recv_words)

    def test_ownership_free_words_are_guarded_on_the_sum_only(self):
        """Without an ownership factor no ``w * t`` moment is formed, so
        the refusal tracks the sum (``amax * steps``), not the moment
        (``amax * steps^2``, 2^54 here): the planner's 2D candidates at
        N = 2^21 have this shape."""
        sched = _adhoc(self.GRID, 4096, lambda a: (
            a.add_recv(1.0, step=a.affine(2 ** 30), gate=("!j",)),
            a.add_recv(1.0, step=a.affine(2 ** 30, -2 ** 10),
                       gate=("j", "k"))))
        got, want = _evaluate(sched, "none"), oracle_stats(sched)
        assert np.array_equal(got.recv_words, want.recv_words)
        assert np.array_equal(got.recv_msgs, want.recv_msgs)

    @pytest.mark.parametrize("kwargs", [
        dict(), dict(gate=("j", "k")), dict(gate=("!i",), own=("i",)),
        dict(own=("j",)), dict(own=("i", "j")),
    ], ids=["uniform", "gated", "negated-owned", "owned", "two-axis"])
    def test_flops_carry_no_exactness_refusal(self, kwargs):
        """Flop moments pass 2^52 at paper scale (COnfLUX's
        ``N (N/v)^2`` at N = 262144, v <= 2); flops have no exactness
        contract, so they are summed, to rounding, never refused."""
        sched = _adhoc(self.GRID, 64, lambda a: a.add_flops(
            0.5, step=a.affine(2 ** 50, -2 ** 44), **kwargs))
        np.testing.assert_allclose(_evaluate(sched, "none").flops,
                                   oracle_stats(sched).flops, rtol=1e-12)

    def test_largest_sweep_n_at_the_planners_smallest_tile(self):
        """N = 262144 (the sweep's largest) at v = 1 — a planner
        candidate — evaluates, as it did through the dense fallback."""
        stats = ConfluxSchedule(262144, 1024, v=1, c=1).trace_stats("none")
        # The parent's value (dense fallback), here to rounding.
        assert stats.flops.sum() == pytest.approx(1.2009702169111836e16,
                                                  rel=1e-12)
        plan = plan_request(PlanRequest("lu", 262144, 1024,
                                        harness.NODE_MEM_WORDS))
        assert plan.ranked[0].params == {"v": 4, "c": 4}

    @pytest.mark.parametrize("emit", [
        lambda a: a.add_flops(1.0, gate=("k",), own=("i", "j")),
        lambda a: a.add_flops(1.0, gate=("!i",), own=("i", "j")),
        lambda a: a.add_recv(1.0, own=("i", "j")),      # msgs ride along
        lambda a: a.add_flops(1.0, own=("i", "j", "k")),
    ], ids=["gated", "negated", "msgs", "three-axis"])
    def test_rich_two_axis_ownership_is_refused_at_evaluation(self, emit):
        sched = _adhoc(self.GRID, 6, emit)
        batch = TermBatch()
        batch.add(sched)                  # emission accepts the term
        with pytest.raises(NotImplementedError, match="two-axis ownership"):
            batch.evaluate()

    def test_plain_two_axis_ownership_matches_the_oracle(self):
        sched = _adhoc(self.GRID, 6, lambda a: (
            a.add_flops(2.0, own=("i", "j")),
            a.add_recv(3.0, own=("i", "j"), msgs=0.0)))
        got, want = _evaluate(sched), oracle_stats(sched)
        assert np.array_equal(got.flops, want.flops)
        assert np.array_equal(got.recv_words, want.recv_words)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 4)] * 3),
           column=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1,
                           max_size=24),
           gate=st.lists(st.sampled_from(["i", "j", "k"]), unique=True,
                         max_size=3),
           negate=st.tuples(*[st.booleans()] * 3),
           window=st.tuples(st.integers(0, 24), st.integers(0, 24)),
           own=st.sampled_from([(), ("i",), ("j",)]))
    def test_gated_fractional_flop_column(self, dims, column, gate, negate,
                                          window, own):
        """A non-integer flop column reduces through the residue-class
        kernels like any other — only the mkl/candmc/capital schedules
        reach that shape (positive gates only); here every positive
        gate, a step window and an ownership factor.  A negated gate
        reduces as a complement, exact on integer profiles only, so
        with a fractional profile it is refused at emission."""
        column = np.asarray(column) + 0.25           # fractional for sure
        atoms = tuple(("!" if neg else "") + axis
                      for axis, neg in zip(gate, negate))

        def accounting(a):
            a.add_flops(1.5, step=a.column(column, lo=min(window),
                                           hi=max(window)),
                        gate=atoms, own=own)

        sched = _adhoc(ProcessorGrid3D(*dims), column.size, accounting)
        if any(atom.startswith("!") for atom in atoms):
            with pytest.raises(ValueError, match="negated gate"):
                TermBatch().add(sched)
            return
        got, want = _evaluate(sched), oracle_stats(sched)
        scale = 1.5 * column.sum() * (column.size if own else 1)
        np.testing.assert_allclose(got.flops, want.flops, rtol=1e-12,
                                   atol=1e-12 * scale)
        for field in ("flops_max", "flops_total"):
            np.testing.assert_allclose(
                got.steps.column(field), want.steps.column(field),
                rtol=1e-12, atol=1e-12 * scale)


#: One random cost term: its counter, gate atoms (one per axis at most),
#: ownership (a two-axis pair in either order is emitted ungated and
#: message-free), an optional axis-functional rank constant, an affine
#: or integer-column profile (by rng seed) on a step window.
_TERM = st.fixed_dictionaries({
    "counter": st.sampled_from(["recv", "flops"]),
    "coeff": st.sampled_from([1.0, 0.5, 3.0]),
    "gate": st.lists(st.sampled_from(["i", "j", "k", "!i", "!j", "!k"]),
                     max_size=3, unique_by=lambda atom: atom.lstrip("!")),
    "own": st.sampled_from([(), ("i",), ("j",), ("k",), ("i", "j"),
                            ("j", "i")]),
    "rc": st.one_of(st.none(), st.tuples(st.sampled_from("ijk"),
                                         st.integers(0, 2 ** 16))),
    "profile": st.one_of(
        st.tuples(st.just("affine"), st.integers(0, 40), st.integers(-3, 3)),
        st.tuples(st.just("column"), st.integers(0, 2 ** 16))),
    "window": st.tuples(st.integers(0, 40), st.integers(0, 40)),
    "msgs": st.sampled_from([0.0, 1.0, 2.0]),
})


def _emit(specs, nsteps):
    def accounting(a):
        for spec in specs:
            kind, arg0, *arg1 = spec["profile"]
            lo, hi = sorted(spec["window"])
            if kind == "affine":
                step = a.affine(arg0, arg1[0], lo=lo, hi=hi)
            else:
                step = a.column(np.random.default_rng(arg0).integers(
                    0, 30, nsteps), lo=lo, hi=hi)
            gate, msgs = spec["gate"], spec["msgs"]
            if len(spec["own"]) == 2:
                gate, msgs = (), 0.0
            rank_const = None
            if spec["rc"] is not None:
                axis, seed = spec["rc"]
                vals = np.random.default_rng(seed).integers(
                    0, 4, a._axis_dim(axis))
                rank_const = vals[a._axis_coords(axis)]
            kw = dict(step=step, gate=gate, own=spec["own"],
                      rank_const=rank_const)
            if spec["counter"] == "flops":
                a.add_flops(spec["coeff"], **kw)
            else:
                getattr(a, "add_" + spec["counter"])(spec["coeff"],
                                                     msgs=msgs, **kw)
    return accounting


class TestGridSpace:
    """Per-term totals live in grid space ``(layers, rows, cols)``: each
    broadcasts to ``acct.shape``, size 1 on every axis the term does not
    name.  Three distinct grid dims make a transposed reduction either
    fail to broadcast or miss the oracle — the schedules' fixed axis
    pairings cannot tell."""

    @settings(max_examples=60, deadline=None)
    @example(dims=[3, 5, 2], nsteps=23, specs=[dict(
        counter="recv", coeff=1.0, gate=["i"], own=("k",), rc=None,
        profile=("affine", 7, 2), window=(0, 40), msgs=1.0)])
    @example(dims=[5, 2, 3], nsteps=17, specs=[dict(
        counter="flops", coeff=0.5, gate=[], own=("j", "i"), rc=("k", 1),
        profile=("column", 3), window=(2, 40), msgs=0.0)])
    @given(dims=st.lists(st.integers(2, 5), min_size=3, max_size=3,
                         unique=True),
           nsteps=st.integers(2, 40),
           specs=st.lists(_TERM, min_size=1, max_size=4))
    def test_random_terms_match_the_oracle(self, dims, nsteps, specs):
        grid = ProcessorGrid3D(*dims)
        sched = _adhoc(grid, nsteps, _emit(specs, nsteps))
        assert_matches_oracle(sched)
        acct = StepAccounting(grid, nsteps)
        assert acct.shape == (grid.layers, grid.rows, grid.cols)
        for term in acct._collect(sched.accounting):
            named = {a.lstrip("!") for a in term.gate + term.own}
            if term.rank_const is not None:
                named = set("ijk")
            for msgs in {False, term.msgs_step is not None}:
                shape = np.shape(acct._term_total(term, msgs))
                assert len(shape) in (0, 3)
                assert np.broadcast_shapes(shape, acct.shape) == acct.shape
                assert all(size == 1 for axis, size in zip("kij", shape)
                           if axis not in named), (term, shape)


def _head_tail_emit(specs, as_column):
    """Emit each spec's ``acct.tail`` profile, or (``as_column``) the
    same values as one full-length column."""
    def accounting(a):
        for spec in specs:
            lo, hi = sorted(spec["window"])
            vals = np.random.default_rng(spec["seed"]).integers(
                0, 30, a.nsteps - min(spec["start"], a.nsteps))
            step = a.tail(spec["c0"], spec["c1"], vals, lo=lo, hi=hi)
            if as_column:
                step = a.column(step.values(0, a.nsteps), lo=lo, hi=hi)
            if spec["counter"] == "flops":
                a.add_flops(0.5, step=step, gate=spec["gate"],
                            own=spec["own"])
            elif len(spec["own"]) == 2:
                a.add_recv(2.0, step=step, own=spec["own"], msgs=0.0)
            else:
                a.add_recv(2.0, step=step, gate=spec["gate"],
                           own=spec["own"], msgs=1.0, msgs_step=step)
    return accounting


def _msgs_emit(specs, as_column):
    """Emit each spec as a recv term whose words and msgs profiles are
    both ``acct.tail`` profiles, each ``(c0, c1, start, window, seed)``
    (``as_column``: the same values as full-length columns), with a
    rank constant that is zero on the even coordinates of ``rc``."""
    def profile(a, c0, c1, start, window, seed):
        lo, hi = sorted(window)
        vals = np.random.default_rng(seed).integers(
            0, 30, a.nsteps - min(start, a.nsteps))
        step = a.tail(c0, c1, vals, lo=lo, hi=hi)
        if as_column:
            step = a.column(step.values(0, a.nsteps), lo=lo, hi=hi)
        return step

    def accounting(a):
        for spec in specs:
            rank_const = None
            if spec.get("rc"):
                coord = a._axis_coords(spec["rc"])
                rank_const = 3.0 * (coord % 2)
            a.add_recv(2.0, step=profile(a, *spec["words"]),
                       gate=spec["gate"], own=spec["own"],
                       rank_const=rank_const, msgs=1.0,
                       msgs_step=profile(a, *spec["msgs"]))
    return accounting


def _assert_head_tail_is_the_column(grid, nsteps, specs,
                                    emit=_head_tail_emit):
    """Head + tail profiles reduce bit for bit as their full columns do
    (whose steps all reduce one by one), and match the dense oracle."""
    split = _adhoc(grid, nsteps, emit(specs, False))
    full = _adhoc(grid, nsteps, emit(specs, True))
    got, want = _evaluate(split, "none"), _evaluate(full, "none")
    for field in TOTAL_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), \
            field
    batches = []
    for sched in (split, full):
        batches.append(TermBatch())
        batches[-1].add(sched)
    [a], [b] = (batch.recv_words() for batch in batches)
    assert np.array_equal(a, b)
    assert_matches_oracle(split)


_SIGNED_GATES = [tuple(atom for atom in combo if atom)
                 for combo in itertools.product(
                     ["", "i", "!i"], ["", "j", "!j"], ["", "k", "!k"])]
#: Every signed gate with at most one ownership axis; two-axis ownership
#: products reduce ungated only.
_GATE_OWN = [(gate, own) for gate in _SIGNED_GATES
             for own in [(), ("i",), ("j",), ("k",)]] + [
    ((), own) for own in [("i", "j"), ("j", "k"), ("k", "i")]]


class TestHeadTailProfiles:
    """A profile that is affine but for its explicit tail (``acct.tail``)
    reduces its head as residue classes and its tail as steps in one
    pass: bit for bit the reduction of its full-length column."""

    DIMS = (2, 3, 4)                   # rows, cols, layers: all distinct
    T, LO, HI = 40, 3, 37

    @pytest.mark.parametrize("gate, own", _GATE_OWN, ids=[
        f"{','.join(gate) or 'ungated'}/{''.join(own) or 'unowned'}"
        for gate, own in _GATE_OWN])
    def test_every_gate_and_own_at_every_split(self, gate, own):
        """Splits at ``lo``, at a period boundary, at ``hi``, inside the
        first period, and no tail, all in one candidate — plus two tails
        whose concatenated classes have one length but different steps
        (a step-key memo that ignored the split would mix them)."""
        period = math.lcm(*(self.DIMS["ijk".index(a.lstrip("!"))]
                            for a in gate + own))
        lo, hi = self.LO, self.HI
        boundary = lo + 2 * period
        starts = [lo, boundary, hi, lo + period - 1, self.T]
        specs = [dict(counter=counter, gate=gate, own=own, c0=c0, c1=c1,
                      start=start, window=(lo, hi), seed=seed)
                 for seed, start in enumerate(starts)
                 for counter, c0, c1 in (("recv", 50, -1), ("flops", 7, 2))]
        specs.append(dict(specs[2], start=boundary - 1, window=(lo, hi - 1),
                          seed=9))
        _assert_head_tail_is_the_column(ProcessorGrid3D(*self.DIMS), self.T,
                                        specs)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(2, 5), min_size=3, max_size=3,
                         unique=True),
           nsteps=st.integers(2, 40),
           specs=st.lists(st.fixed_dictionaries({
               "counter": st.sampled_from(["recv", "flops"]),
               "gate": st.sampled_from(_SIGNED_GATES),
               "own": st.sampled_from([(), ("i",), ("j",), ("k",),
                                       ("i", "j"), ("k", "j")]),
               "c0": st.integers(-20, 60), "c1": st.integers(-3, 3),
               "start": st.integers(0, 40), "seed": st.integers(0, 2 ** 16),
               "window": st.tuples(st.integers(0, 40),
                                   st.integers(0, 40))}),
               min_size=1, max_size=4))
    def test_generated_terms(self, dims, nsteps, specs):
        specs = [dict(spec, gate=()) if len(spec["own"]) == 2 else spec
                 for spec in specs]
        _assert_head_tail_is_the_column(ProcessorGrid3D(*dims), nsteps,
                                        specs)

    @pytest.mark.parametrize("n, p, v, c", GRID + EDGE + [
        (64, 16, 1, 1), (96, 12, 2, 1), (256, 64, 2, 2), (4096, 64, 4, 4),
        (65536, 4096, 1, 1), (65536, 4096, 16, 16)])
    def test_conflux_profiles_are_the_old_columns(self, n, p, v, c):
        """COnfLUX's three tournament profiles hold the full-length
        ``np.maximum`` / ``np.minimum`` formulas at every step, and each
        tail is exactly the steps where the formula leaves the head."""
        sched = ConfluxSchedule(n, p, v=v, c=c)
        acct = StepAccounting(sched.grid, sched.steps())
        terms = acct._collect(sched.accounting)
        T, pr = acct.nsteps, sched.grid.rows
        t = np.arange(T)
        m_t = np.minimum(pr, np.minimum(n // v, n - v * t))
        [exch] = [tm.step for tm in terms
                  if tm.counter == "recv" and tm.gate == ("j", "k")]
        m_rows, rounds = [tm.step for tm in terms
                          if tm.counter == "flops" and tm.step.column is not None]
        for step, want in (
                (m_rows, np.maximum(n - v * t, v * pr)),
                (exch, butterfly_pair_exchanges(m_t)),
                (rounds, np.ceil(np.log2(np.maximum(m_t, 1))) * m_t)):
            assert np.array_equal(step.values(0, T), want)
            assert step.column.size == np.count_nonzero(
                want != step.c0 + step.c1 * t)


class TestMsgsThroughClasses:
    """A msgs pass weighs step ``t`` by ``mu(t) = msgs_step(t) [step(t) >
    0]``, affine — the msgs profile's head — where the words head is
    positive, before the msgs profile's tail and, owned, before
    ``nsteps - m``: those residue classes plus the steps after them, in
    one reduction, bit for bit the per-step reduction of the same
    profiles as full columns."""

    DIMS = (2, 3, 4)                   # rows, cols, layers: all distinct
    T, LO = 40, 3

    def specs(self, gate, own):
        T, lo = self.T, self.LO
        period = math.lcm(*(self.DIMS["ijk".index(a.lstrip("!"))]
                            for a in gate + own))
        full, words_const = (0, T), (5, 0, T, (0, T), 1)
        cases = [
            # Words positive up to t = 25, inside the head, then up to
            # 30 with a tail from 34.
            ((50, -2, T, (lo, T), 2), (1, 1, T, full, 3)),
            ((60, -2, 34, (lo, T), 4), (2, 0, T, full, 5)),
            # A msgs profile with its own tail, also cut at 38.
            (words_const, (1, 0, 30, (lo, T), 6)),
            ((4, 1, 33, full, 7), (3, 0, 28, (0, 38), 8)),
            # The ownership cut nsteps - m inside the head, after it
            # (head up to 20), before it (head from 38).
            (words_const, (1, 1, T, full, 9)),
            ((5, 1, 20, full, 10), (2, 1, T, full, 11)),
            ((5, 1, T, (38, T), 12), (1, 0, T, full, 13)),
            # A head shorter than one period.
            ((5, 1, lo + period - 1, (lo, T), 14), (1, 1, T, full, 15)),
        ]
        specs = [dict(gate=gate, own=own, words=w, msgs=m)
                 for w, m in cases]
        # A rank constant with zeros.
        specs.append(dict(specs[4], rc="j"))
        return specs

    @pytest.mark.parametrize("gate, own", _GATE_OWN[:-3], ids=[
        f"{','.join(gate) or 'ungated'}/{''.join(own) or 'unowned'}"
        for gate, own in _GATE_OWN[:-3]])
    def test_every_gate_and_own(self, gate, own):
        _assert_head_tail_is_the_column(ProcessorGrid3D(*self.DIMS), self.T,
                                        self.specs(gate, own), _msgs_emit)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(2, 5), min_size=3, max_size=3,
                         unique=True),
           nsteps=st.integers(2, 40),
           specs=st.lists(st.fixed_dictionaries({
               "gate": st.sampled_from(_SIGNED_GATES),
               "own": st.sampled_from([(), ("i",), ("j",), ("k",)]),
               "words": st.tuples(
                   st.integers(-20, 60), st.integers(-3, 3),
                   st.integers(0, 40),
                   st.tuples(st.integers(0, 40), st.integers(0, 40)),
                   st.integers(0, 2 ** 16)),
               "msgs": st.tuples(
                   st.integers(0, 9), st.integers(0, 2), st.integers(0, 40),
                   st.tuples(st.integers(0, 40), st.integers(0, 40)),
                   st.integers(0, 2 ** 16)),
               "rc": st.sampled_from([None, "i", "j", "k"])}),
               min_size=1, max_size=4))
    def test_generated_terms(self, dims, nsteps, specs):
        _assert_head_tail_is_the_column(ProcessorGrid3D(*dims), nsteps,
                                        specs, _msgs_emit)

    @pytest.mark.parametrize("sched", [
        ConfluxSchedule(65536, 4096, v=1, c=1),
        harness._sweep_schedule("lu", "mkl", 262144, 16384,
                                harness.max_replication(16384, 262144)),
    ], ids=["conflux-v1", "mkl-sweep-largest"])
    def test_evaluate_reads_no_step_long_range(self, sched, monkeypatch):
        """At v = 1 COnfLUX has N steps, the sweep's largest 2D LU 2048:
        the words and msgs passes read profile values only on ranges of
        at most ``max(grid dims, Pr)`` steps (short heads, tails and the
        steps past the ownership cut)."""
        calls = []
        values = StepFn.values
        monkeypatch.setattr(StepFn, "values", lambda self, t0, t1: (
            calls.append(t1 - t0) or values(self, t0, t1)))
        batch = TermBatch()
        batch.add(sched)
        [stats] = batch.evaluate()
        grid = sched.grid
        assert sched.steps() >= 16 * max(grid.rows, grid.cols, grid.layers)
        assert calls and max(calls) <= max(grid.rows, grid.cols, grid.layers)
        assert stats.recv_msgs.min() > 0


class TestNegatedComplements:
    """A negated gate ``!x`` reduces as the complement of the reduction
    gated on ``x`` — every step hits one coordinate along ``x`` — or,
    on the ownership axis, as the ungated owned reduction minus the
    gated one: bit for bit the inclusion-exclusion over the negated
    atoms, on words and msgs."""

    DIMS = (2, 3, 4)
    T = 40

    @staticmethod
    def _inclusion_exclusion(acct, term, msgs):
        pos = tuple(a for a in term.gate if not a.startswith("!"))
        neg = [a[1:] for a in term.gate if a.startswith("!")]
        total = 0.0
        for k in range(len(neg) + 1):
            for sub in itertools.combinations(neg, k):
                part = acct._term_total(
                    dataclasses.replace(term, gate=pos + sub), msgs)
                total = total - part if k % 2 else total + part
        return total

    @pytest.mark.parametrize("gate, own", [
        (("!j",), ()), (("!j",), ("i",)), (("!i",), ("i",)),
        (("k", "!j"), ("i",)), (("!j", "!k"), ()), (("!j", "!k"), ("i",)),
        (("!i", "!k"), ("i",)), (("!i", "j", "!k"), ("k",)),
    ], ids=["one", "one-off-own", "one-on-own", "one-with-positive",
            "two", "two-off-own", "two-one-on-own", "two-on-own-gated"])
    def test_complement_is_inclusion_exclusion(self, gate, own):
        def accounting(a):
            T = a.nsteps
            a.add_recv(1.0, step=a.affine(T, -1), gate=gate, own=own)
            a.add_recv(2.0, step=a.tail(30, -1, [4, 0, 7, 1], lo=2),
                       gate=gate, own=own,
                       msgs_step=a.tail(1, 1, [3, 3, 0], hi=T - 1))
            a.add_recv(1.0, step=a.column(np.arange(T) % 5), gate=gate,
                       own=own, rank_const=3.0 * (a.pj % 2), msgs=2.0)
            a.add_flops(0.5, step=a.affine(7, 2), gate=gate, own=own)

        sched = _adhoc(ProcessorGrid3D(*self.DIMS), self.T, accounting)
        acct = StepAccounting(sched.grid, self.T)
        for term in acct._collect(sched.accounting):
            for msgs in {False, term.msgs_step is not None}:
                got = np.broadcast_to(acct._term_total(term, msgs),
                                      acct.shape)
                want = np.broadcast_to(
                    self._inclusion_exclusion(acct, term, msgs), acct.shape)
                assert np.array_equal(got, want), (term.gate, msgs)
        assert_matches_oracle(sched)

    def test_two_reductions_per_term(self, monkeypatch):
        """However many atoms are negated: one reduction, two when the
        ownership axis is among them."""
        calls = []
        reduce = StepAccounting._residue_reduce
        monkeypatch.setattr(StepAccounting, "_residue_reduce",
                            lambda self, *args: (calls.append(args[3])
                                                 or reduce(self, *args)))
        acct = StepAccounting(ProcessorGrid3D(*self.DIMS), self.T)
        for gate, own, want in ((("!i", "!j", "!k"), (), 1),
                                (("!i", "!j", "!k"), ("j",), 2),
                                (("!k",), ("i",), 1)):
            acct._terms = []
            acct.add_recv(1.0, gate=gate, own=own, msgs=0.0)
            [term] = acct._terms
            calls.clear()
            acct._term_total(term, msgs=False)
            assert len(calls) == want, (gate, own, calls)

    @pytest.mark.parametrize("gate", [("!j",), ("i", "!k")])
    def test_fractional_profile_under_a_negated_gate_is_refused(self, gate):
        """Its complement would round: refused at emission, like every
        shape the kernels cannot reduce exactly."""
        acct = StepAccounting(ProcessorGrid3D(*self.DIMS), self.T)
        with pytest.raises(ValueError, match="negated gate"):
            acct.add_flops(1.0, step=acct.column(np.full(self.T, 0.5)),
                           gate=gate)
        acct.add_flops(1.0, step=acct.column(np.full(self.T, 0.5)),
                       gate=tuple(a.lstrip("!") for a in gate))
        acct.add_flops(1.0, step=acct.column(np.full(self.T, 2.0)),
                       gate=gate)


class TestReturnedArrays:
    """The counters are flat per-rank arrays however the terms reduce."""

    def test_paper_scale_counters_are_flat_float64(self):
        schedules = [ScalapackLUSchedule(65536, 16384),
                     ConfluxSchedule(65536, 16384, v=64, c=16)]
        assert [(s.grid.rows, s.grid.cols) for s in schedules] == \
            [(128, 128), (32, 32)] and schedules[1].grid.layers == 16
        batch = TermBatch()
        for sched in schedules:
            batch.add(sched)
        arrays = [getattr(stats, field) for stats in batch.evaluate()
                  for field in TOTAL_FIELDS] + batch.recv_words()
        for arr in arrays:
            assert arr.shape == (16384,) and arr.dtype == np.float64
            assert arr.flags.c_contiguous
        _assert_recv_words_is_the_full_reductions_column(schedules)


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
