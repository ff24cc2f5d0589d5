"""Batch-composition parity: a ``TermBatch`` of N vs N batches of one.

The evaluator must return *bit-identical* stats for a schedule whatever
else shares its batch — same exact integer accumulation, only
vectorized across configs.  These tests randomize candidate grids over
all five engine schedules (hypothesis) and pin the planner's whole-grid
scoring to planning each request alone on the paper's Table-2 points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import TOTAL_FIELDS, oracle_stats
from repro.analysis.harness import NODE_MEM_WORDS
from repro.engine.accounting import TermBatch
from repro.machine.exceptions import GridError
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
