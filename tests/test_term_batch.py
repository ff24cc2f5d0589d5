"""Batch-composition parity: a ``TermBatch`` of N vs N batches of one.

The evaluator must return *bit-identical* stats for a schedule whatever
else shares its batch — same exact integer accumulation, only
vectorized across configs.  These tests randomize candidate grids over
all five engine schedules (hypothesis) and pin the planner's whole-grid
scoring to planning each request alone on the paper's Table-2 points.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import TOTAL_FIELDS, oracle_stats
from repro.analysis.harness import NODE_MEM_WORDS
from repro.engine.accounting import TermBatch
from repro.machine.exceptions import GridError
from repro.machine.grid import ProcessorGrid3D
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    Matmul25DSchedule,
)
from repro.factorizations.baselines.scalapack_chol import (
    ScalapackCholeskySchedule,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule
from repro.machine.stats import STEP_FIELDS
from repro.planner import PlanRequest, plan_batch, plan_request

TABLE2_POINTS = [(8192, 256), (16384, 1024), (32768, 4096)]


def _candidate_pool():
    """Every valid small configuration of the five schedules."""
    pool = []
    for n in (64, 96, 128):
        for p in (8, 12, 16):
            for c in (1, 2, 3, 4):
                for v in (n // 4, n // 8, n // 16):
                    for cls in (ConfluxSchedule, ConfchoxSchedule):
                        try:
                            pool.append(cls(n, p, v=v, c=c))
                        except (ValueError, GridError):
                            pass
                for s in (n // 4, n // 8):
                    try:
                        pool.append(Matmul25DSchedule(n, p, s=s, c=c))
                    except (ValueError, GridError):
                        pass
            for nb in (8, 16):
                for cls in (ScalapackLUSchedule, ScalapackCholeskySchedule):
                    try:
                        pool.append(cls(n, p, nb=nb))
                    except (ValueError, GridError):
                        pass
    try:
        pool.append(ScalapackLUSchedule(96, 12, nb=8,
                                        panel_rebroadcast=True))
    except (ValueError, GridError):
        pass
    return pool


POOL = _candidate_pool()


def _assert_stats_identical(batch_stats, ref_stats):
    for field in TOTAL_FIELDS:
        got = getattr(batch_stats, field)
        want = getattr(ref_stats, field)
        assert np.array_equal(got, want), field


class TestBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(idx=st.lists(st.integers(0, len(POOL) - 1), min_size=1,
                        max_size=6))
    def test_random_grids_bit_identical(self, idx):
        """Any mix of candidates reduces to the same bits as each
        candidate alone (``trace_stats`` is a batch of one)."""
        scheds = [POOL[i] for i in idx]
        batch = TermBatch()
        for sched in scheds:
            batch.add(sched)
        for sched, stats in zip(scheds, batch.evaluate()):
            _assert_stats_identical(stats, sched.trace_stats(steps="none"))

    def test_all_five_schedules_in_one_batch(self):
        scheds = [
            ConfluxSchedule(128, 16, v=16, c=4),
            ConfchoxSchedule(128, 16, v=16, c=4),
            Matmul25DSchedule(96, 16, s=24, c=4),
            ScalapackLUSchedule(96, 12, nb=8),
            ScalapackCholeskySchedule(96, 12, nb=8),
        ]
        batch = TermBatch()
        assert all(batch.add(s) == i for i, s in enumerate(scheds))
        assert len(batch) == len(scheds)
        for sched, stats in zip(scheds, batch.evaluate()):
            _assert_stats_identical(stats, sched.trace_stats(steps="none"))
        # The step log is an output of the same pass: also unchanged
        # by batch composition.
        for sched, stats in zip(scheds, batch.evaluate("columnar")):
            alone = sched.trace_stats(steps="columnar")
            _assert_stats_identical(stats, alone)
            for field in STEP_FIELDS:
                assert np.array_equal(stats.steps.column(field),
                                      alone.steps.column(field)), field

    def test_batch_matches_chunked_reference(self):
        """Transitivity check straight to the dense oracle."""
        sched = ConfchoxSchedule(128, 16, v=16, c=4)
        _assert_stats_identical(sched.trace_stats(steps="none"),
                                oracle_stats(sched))


def _mixed_schedule(rows, cols, layers, nsteps):
    """An ad-hoc schedule on any grid: gated, negated, owned, two-axis,
    head-plus-tail and message-carrying terms — every kind of entry the
    reduction memo holds (step keys, class bases, ownership residues)."""
    def accounting(a):
        T = a.nsteps
        a.add_recv(1.0, step=a.affine(T, -1), gate=("j",), own=("i",))
        a.add_recv(2.0, step=a.tail(3, 0, [1, 0, 2]), gate=("!i", "k"),
                   msgs_step=a.affine(1, 1))
        a.add_recv(1.0, gate=("!j",), own=("j",), msgs=2.0)
        a.add_recv(3.0, step=a.affine(5, 1, lo=2), gate=("!k",), own=("i",))
        a.add_flops(0.5, step=a.affine(2, 1), own=("i", "j"))
        a.add_flops(1.5, step=a.column(np.arange(T) + 0.25), gate=("i",))

    return types.SimpleNamespace(
        grid=ProcessorGrid3D(rows, cols, layers), steps=lambda: nsteps,
        accounting=accounting, step_label=lambda t: f"t={t}")


class TestSharedMemo:
    """A pass shares one reduction memo per ``(shape, nsteps)`` group;
    what a candidate reduces to must not depend on its neighbours."""

    @staticmethod
    def _interleaved():
        """Equal grids at different step counts, transposed grids, and
        three schedules on one ``(shape, nsteps)``, interleaved."""
        return [
            _mixed_schedule(2, 3, 2, 17),
            ScalapackLUSchedule(64, 8, nb=8),
            _mixed_schedule(3, 2, 2, 17),             # transposed
            ScalapackLUSchedule(64, 8, nb=4),         # 16 steps, same grid
            _mixed_schedule(2, 3, 2, 23),             # 23 steps, same grid
            ScalapackCholeskySchedule(64, 8, nb=8),   # the first's group
            _mixed_schedule(3, 2, 2, 17),
            ConfluxSchedule(64, 8, v=8, c=1),         # the first's group
            _mixed_schedule(2, 3, 2, 17),
        ]

    def test_each_candidate_reduces_as_a_batch_of_one(self):
        scheds = self._interleaved()
        batch = TermBatch()
        for sched in scheds:
            batch.add(sched)
        shapes = {(acct.shape, acct.nsteps) for acct, _, _ in batch._entries}
        assert len({shape for shape, _ in shapes}) < len(shapes)
        assert (1, 2, 4) in {shape for shape, _ in shapes}

        def alone(sched, steps):
            one = TermBatch()
            one.add(sched)
            return one.evaluate(steps)[0], one.recv_words()[0]

        def memos_empty():
            return all(not acct._memo for acct, _, _ in batch._entries)

        for steps in ("none", "columnar"):
            for sched, stats in zip(scheds, batch.evaluate(steps)):
                assert memos_empty()
                want, _ = alone(sched, steps)
                _assert_stats_identical(stats, want)
                for field in STEP_FIELDS if steps == "columnar" else ():
                    assert np.array_equal(stats.steps.column(field),
                                          want.steps.column(field)), field
        for sched, words in zip(scheds, batch.recv_words()):
            assert memos_empty()
            assert np.array_equal(words, alone(sched, "none")[1])
            assert np.array_equal(words, oracle_stats(sched).recv_words)


class TestPlannerDeterminism:
    @pytest.mark.parametrize("n,p", TABLE2_POINTS)
    def test_batched_scoring_picks_identical_plans(self, n, p):
        """Scoring all three ops' candidates in one ``TermBatch`` pass
        returns the exact ranked configurations of planning each
        request alone."""
        requests = [PlanRequest(op, n, p, NODE_MEM_WORDS, api_copies=3)
                    for op in ("lu", "cholesky", "gemm")]
        for fast, req in zip(plan_batch(requests), requests):
            ref = plan_request(req)
            assert fast.ranked == ref.ranked
            assert fast.chosen == ref.chosen
