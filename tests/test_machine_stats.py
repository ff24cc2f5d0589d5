"""Unit tests for per-rank counters (repro.machine.stats)."""

import numpy as np
import pytest

from repro.machine import CommStats, Machine, RankError
from repro.machine.stats import (
    STEP_FIELDS,
    ColumnarStepLog,
    NullStepLog,
    StepRecord,
)


class TestCommStatsBasics:
    def test_initial_counters_zero(self):
        s = CommStats(4)
        assert s.max_recv_words == 0
        assert s.total_recv_words == 0
        assert s.total_flops == 0

    def test_invalid_rank_count(self):
        with pytest.raises(RankError):
            CommStats(0)

    def test_record_recv(self):
        s = CommStats(3)
        s.record_recv(1, 10)
        assert s.recv_words[1] == 10
        assert s.recv_words[0] == 0

    def test_record_transfer_counts_the_receiver(self):
        s = CommStats(2)
        s.record_transfer(0, 1, 7)
        assert s.recv_words.tolist() == [0, 7]
        assert s.recv_msgs.tolist() == [0, 1]

    def test_self_transfer_is_free(self):
        s = CommStats(2)
        s.record_transfer(1, 1, 100)
        assert s.total_recv_words == 0
        assert float(s.recv_msgs.sum()) == 0

    def test_rank_out_of_range(self):
        s = CommStats(2)
        with pytest.raises(RankError):
            s.record_recv(2, 1)
        with pytest.raises(RankError):
            s.record_recv(-1, 1)
        with pytest.raises(RankError):
            s.record_transfer(-7, -7, 3.0)      # even a self-send

    def test_negative_words_rejected(self):
        s = CommStats(2)
        with pytest.raises(ValueError):
            s.record_recv(0, -1)

    def test_flops_accumulate(self):
        s = CommStats(2)
        s.record_flops(0, 100)
        s.record_flops(0, 50)
        assert s.flops[0] == 150
        assert s.total_flops == 150
        assert s.flops.max() == 150

    def test_mean_recv_words(self):
        s = CommStats(4)
        s.record_recv(0, 8)
        assert s.mean_recv_words == 2.0
        assert s.max_recv_words == 8.0


class TestVectorizedRecording:
    def test_record_transfers_is_one_record_transfer_per_entry(self):
        rng = np.random.default_rng(0)
        src, dst = rng.integers(0, 5, size=(2, 40))     # self-sends too
        words = rng.integers(1, 30, size=40)
        batched, looped = CommStats(5), CommStats(5)
        batched.record_transfers(src, dst, words)
        for s, d, w in zip(src, dst, words):
            looped.record_transfer(s, d, w)
        for field in ("recv_words", "recv_msgs"):
            assert np.array_equal(getattr(batched, field),
                                  getattr(looped, field))
        assert batched.total_recv_words == words[src != dst].sum()

    def test_record_transfers_validates(self):
        s = CommStats(3)
        s.record_transfers([], [], [])                  # empty: a no-op
        with pytest.raises(RankError):
            s.record_transfers([0, 3], [1, 3], [1, 1])  # even a self-send
        with pytest.raises(RankError):
            s.record_transfers([-1], [1], [1])
        with pytest.raises(ValueError):
            s.record_transfers([0], [1], [-2])
        with pytest.raises(ValueError):
            s.record_transfers([0, 1], [1], [2])
        assert s.total_recv_words == 0

    def test_record_flops_many_is_one_record_flops_per_entry(self):
        rng = np.random.default_rng(1)
        ranks = rng.integers(0, 5, size=40)             # repeats too
        fl = rng.random(40) * 1e17                      # rounding-sensitive
        batched, looped = CommStats(5), CommStats(5)
        batched.record_flops_many(ranks, fl)
        for r, f in zip(ranks, fl):
            looped.record_flops(r, f)
        assert np.array_equal(batched.flops, looped.flops)

    def test_record_flops_many_validates(self):
        s = CommStats(3)
        s.record_flops_many([], [])                     # empty: a no-op
        with pytest.raises(RankError):
            s.record_flops_many([0, 3], [1.0, 1.0])
        with pytest.raises(ValueError):
            s.record_flops_many([0], [-1.0])
        with pytest.raises(ValueError):
            s.record_flops_many([0, 1], [1.0])
        assert s.total_flops == 0


#: Every way words, messages or flops reach a machine's counters, each
#: fed one bad amount ``x``.
RECORDERS = {
    "record_recv-words": lambda m, x: m.stats.record_recv(1, x),
    "record_recv-msgs": lambda m, x: m.stats.record_recv(1, 4, msgs=x),
    "record_transfer-words": lambda m, x: m.stats.record_transfer(0, 1, x),
    "record_transfer-msgs": lambda m, x: m.stats.record_transfer(
        0, 1, 4, msgs=x),
    "record_transfer-self": lambda m, x: m.stats.record_transfer(1, 1, x),
    "record_transfers": lambda m, x: m.stats.record_transfers(
        np.array([0, 1]), np.array([1, 1]), np.array([4.0, x])),
    "record_flops": lambda m, x: m.stats.record_flops(1, x),
    "record_flops_many": lambda m, x: m.stats.record_flops_many(
        [0, 1], np.array([4.0, x])),
    "charge_bcast-words": lambda m, x: m.charge_bcast(0, [0, 1, 2], x),
    "charge_bcast-count": lambda m, x: m.charge_bcast(0, [0, 1, 2], 4, x),
    "compute": lambda m, x: m.compute(1, x),
    "compute_many": lambda m, x: m.compute_many([0, 1], np.array([4.0, x])),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("recorder", RECORDERS)
def test_recorders_refuse_non_finite_or_negative_amounts(recorder, bad):
    """A nan would poison every later max and total, an inf or negative
    amount every total: each recorder refuses them and counts nothing."""
    m = Machine(3)
    with pytest.raises(ValueError):
        RECORDERS[recorder](m, bad)
    for field in ("recv_words", "recv_msgs", "flops"):
        assert not getattr(m.stats, field).any(), field


class TestSteps:
    def test_step_record_captures_deltas(self):
        s = CommStats(2)
        s.record_recv(0, 3)  # before the step: excluded
        s.begin_step("phase")
        s.record_recv(0, 10)
        s.record_recv(1, 20)
        s.record_flops(0, 5)
        rec = s.end_step()
        assert rec.label == "phase"
        assert rec.recv_words_max == 20
        assert rec.recv_words_total == 30
        assert rec.flops_max == 5

    def test_nested_steps_rejected(self):
        s = CommStats(1)
        s.begin_step("a")
        with pytest.raises(RuntimeError):
            s.begin_step("b")

    def test_end_without_begin_rejected(self):
        s = CommStats(1)
        with pytest.raises(RuntimeError):
            s.end_step()

    def test_step_log_total(self):
        s = CommStats(1)
        for i in range(3):
            s.begin_step(f"s{i}")
            s.record_recv(0, 10)
            s.end_step()
        assert s.steps.total("recv_words_max") == 30
        assert len(s.steps) == 3
        assert s.steps[1].label == "s1"

    def test_steps_mode_selects_log_flavour(self):
        assert isinstance(CommStats(2).steps, ColumnarStepLog)
        assert isinstance(CommStats(2, steps="columnar").steps,
                          ColumnarStepLog)
        assert isinstance(CommStats(2, steps="none").steps, NullStepLog)
        with pytest.raises(ValueError, match="steps mode"):
            CommStats(2, steps="sometimes")
        with pytest.raises(ValueError, match="steps mode"):
            CommStats(2, steps="records")

    def test_none_mode_drops_step_records(self):
        s = CommStats(2, steps="none")
        s.begin_step("a")
        s.record_recv(0, 5)
        rec = s.end_step()
        assert rec.recv_words_max == 5      # the record is still returned
        assert len(s.steps) == 0            # ...but not retained
        with pytest.raises(IndexError):
            s.steps[0]


class TestColumnarStepLog:
    def _filled(self):
        log = ColumnarStepLog()
        cols = {f: np.arange(3, dtype=float) + i
                for i, f in enumerate(STEP_FIELDS)}
        log.extend(lambda t: f"t={t}", 0, 3, **cols)
        return log

    def test_extend_and_columns(self):
        log = self._filled()
        assert len(log) == 3
        assert np.array_equal(log.column("flops_max"), [0.0, 1.0, 2.0])
        # recv_words_max is STEP_FIELDS[2] -> values [2, 3, 4]
        assert log.total("recv_words_max") == 9.0

    def test_lazy_records_and_labels(self):
        log = self._filled()
        rec = log[1]
        assert rec.label == "t=1"
        assert rec.flops_max == 1.0
        assert log[-1].label == "t=2"
        assert [r.label for r in log] == ["t=0", "t=1", "t=2"]
        assert len(log.records) == 3

    def test_append_record_interleaves(self):
        log = self._filled()
        log.append(StepRecord("extra", recv_words_max=9.0))
        assert len(log) == 4
        assert log[3].label == "extra"
        assert log.column("recv_words_max")[3] == 9.0

    def test_appends_reads_and_extends_keep_step_order(self):
        """The executed path appends one record per superstep; a column
        read between appends, or an ``extend`` in the middle, must not
        reorder or drop anything."""
        log = ColumnarStepLog()
        log.append(StepRecord("a", flops_max=1))        # an int is fine
        assert np.array_equal(log.column("flops_max"), [1.0])
        log.append(StepRecord("b", flops_max=2.5))
        log.extend(lambda t: f"t={t}", 5, 2,
                   **{f: np.full(2, 7.0) for f in STEP_FIELDS})
        for i in range(3):
            log.append(StepRecord(f"c{i}", flops_max=10.0 + i))
        assert [r.label for r in log.records] == \
            ["a", "b", "t=5", "t=6", "c0", "c1", "c2"]
        col = log.column("flops_max")
        assert col.dtype == np.float64
        assert np.array_equal(col, [1.0, 2.5, 7.0, 7.0, 10.0, 11.0, 12.0])
        assert log.label(-1) == "c2" and log[1] == StepRecord(
            "b", flops_max=2.5)

    def test_extend_shape_checked(self):
        log = ColumnarStepLog()
        cols = {f: np.zeros(3) for f in STEP_FIELDS}
        cols["msgs_max"] = np.zeros(2)
        with pytest.raises(ValueError, match="msgs_max"):
            log.extend(str, 0, 3, **cols)

    def test_out_of_range(self):
        log = self._filled()
        with pytest.raises(IndexError):
            log[3]
        with pytest.raises(KeyError):
            log.column("nope")


class TestNullStepLog:
    def test_everything_is_empty(self):
        log = NullStepLog()
        log.append(StepRecord("x", flops_max=1.0))
        assert len(log) == 0
        assert list(log) == []
        assert log.records == ()
        assert log.total("flops_max") == 0.0
