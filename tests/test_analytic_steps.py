"""Analytic step columns: the evaluator's per-step log vs the chunked
dense reference in ``tests/oracle.py``.

The analytic path repeats the oracle's float operations on one column
per residue class instead of one per rank, so per-step *maxima* are
bitwise equal; per-step *totals* multiply analytic class counts and
agree to float rounding.  The BSP perf model must therefore time both
logs identically (to rounding).
"""

import numpy as np
import pytest

from oracle import oracle_stats
from repro.machine import PerfModel
from repro.machine.stats import STEP_FIELDS, ColumnarStepLog


def _five_schedules():
    from repro.factorizations import (
        ConfchoxSchedule,
        ConfluxSchedule,
        Matmul25DSchedule,
    )
    from repro.factorizations.baselines.scalapack_chol import (
        ScalapackCholeskySchedule,
    )
    from repro.factorizations.baselines.scalapack_lu import (
        ScalapackLUSchedule,
    )

    return [
        ConfluxSchedule(128, 16, v=16, c=4),
        ConfchoxSchedule(128, 16, v=16, c=4),
        Matmul25DSchedule(96, 16, s=24, c=4),
        ScalapackLUSchedule(96, 12, nb=8),
        ScalapackLUSchedule(96, 12, nb=8, panel_rebroadcast=True),
        ScalapackCholeskySchedule(96, 12, nb=8),
    ]


MAX_FIELDS = [f for f in STEP_FIELDS if f.endswith("_max")]
TOTAL_FIELDS = [f for f in STEP_FIELDS if f.endswith("_total")]


@pytest.mark.parametrize("sched", _five_schedules(),
                         ids=lambda s: s.name)
class TestAnalyticStepColumns:
    def test_maxima_bitwise_equal_to_chunked(self, sched):
        closed = sched.trace_stats(steps="columnar")
        chunked = oracle_stats(sched)
        assert len(closed.steps) == len(chunked.steps)
        for field in MAX_FIELDS:
            assert np.array_equal(closed.steps.column(field),
                                  chunked.steps.column(field)), field

    def test_totals_agree_to_rounding(self, sched):
        closed = sched.trace_stats(steps="columnar")
        chunked = oracle_stats(sched)
        for field in TOTAL_FIELDS:
            assert np.allclose(closed.steps.column(field),
                               chunked.steps.column(field),
                               rtol=1e-12, atol=0.0), field

    def test_labels_match(self, sched):
        closed = sched.trace_stats(steps="columnar")
        chunked = oracle_stats(sched)
        for i in (0, len(closed.steps) - 1):
            assert closed.steps.label(i) == chunked.steps.label(i)

    def test_perf_model_times_both_logs_identically(self, sched):
        model = PerfModel()
        local_words = sched.n * sched.n / sched.nranks
        a = model.evaluate(sched.trace_stats(steps="columnar").steps,
                           sched.nranks, local_words)
        b = model.evaluate(oracle_stats(sched).steps,
                           sched.nranks, local_words)
        assert a.total_s == pytest.approx(b.total_s, rel=1e-9)
        assert a.peak_fraction == pytest.approx(b.peak_fraction, rel=1e-9)

    def test_records_flavour_matches_columnar(self, sched):
        """One log, two writers: the trace flushes its steps as arrays
        (``extend``), the machine's superstep bracketing appends one
        record at a time.  The trace's records appended one by one
        rebuild its columns bit for bit."""
        col = sched.trace_stats(steps="columnar").steps
        rec = ColumnarStepLog()
        for record in col:
            rec.append(record)
        assert len(col) == len(rec)
        for field in STEP_FIELDS:
            assert np.array_equal(col.column(field), rec.column(field))
        assert col.label(len(col) - 1) == rec.label(len(rec) - 1)
