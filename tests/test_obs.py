"""Tests for the unified telemetry layer (``repro.obs``).

Covers the span API (nesting, attributes, error capture, the shared
null span on the disabled path, the injectable clock, cross-process
re-parenting), the metrics registry (instrument kinds, snapshot,
reset), the Chrome-trace/metrics exporters, and the instrumentation
seams the rest of the system leans on: the registry-backed
``ServiceStats`` view, the cache's hit/miss/stale/corrupt accounting,
the executors' span shipping, and the spans + comm-stats + memory
interplay on a run aborted by ``MemoryBudgetExceeded``.
"""

import json
import logging
import os

import numpy as np
import pytest

from oracle import TOTAL_FIELDS
from repro import obs
from repro.machine.stats import ColumnarStepLog, NullStepLog, StepRecord
from repro.obs.export import (
    metrics_json,
    span_events,
    step_timeline_events,
    write_chrome_trace,
)


class TestSpans:
    def test_disabled_records_nothing_and_shares_null_span(self, tel):
        span = tel.span("x", cat="t", a=1)
        assert span is obs.NULL_SPAN
        with span as sp:
            sp.set(b=2)  # no-op, no error
        assert tel.spans() == ()

    def test_enabled_records_name_cat_args(self, tel):
        tel.enable()
        with tel.span("work", cat="test", n=4) as sp:
            sp.set(outcome="hit")
        (rec,) = tel.spans()
        assert rec.name == "work" and rec.cat == "test"
        assert rec.args == {"n": 4, "outcome": "hit"}
        assert rec.pid == os.getpid()
        assert rec.dur >= 0.0

    def test_nesting_records_inner_before_outer(self, tel):
        tel.enable()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        names = [r.name for r in tel.spans()]
        assert names == ["inner", "outer"]

    def test_exception_captured_and_propagated(self, tel):
        tel.enable()
        with pytest.raises(ValueError):
            with tel.span("boom"):
                raise ValueError("no")
        (rec,) = tel.spans()
        assert rec.args["error"] == "ValueError"

    def test_injectable_clock_is_deterministic(self, tel):
        ticks = iter(range(100))
        tel.enable(clock=lambda: float(next(ticks)))
        with tel.span("a"):
            pass
        with tel.span("b"):
            pass
        a, b = tel.spans()
        # enable() reads the clock once for the epoch (t=0); each span
        # then reads entry and exit ticks.
        assert (a.ts, a.dur) == (1.0, 1.0)
        assert (b.ts, b.dur) == (3.0, 1.0)

    def test_enable_clears_previous_buffer(self, tel):
        tel.enable()
        with tel.span("old"):
            pass
        tel.enable()
        assert tel.spans() == ()

    def test_disable_keeps_buffer_readable(self, tel):
        tel.enable()
        with tel.span("kept"):
            pass
        tel.disable()
        assert [r.name for r in tel.spans()] == ["kept"]

    def test_adopt_rebases_child_timestamps(self):
        # Parent epoch: wall 1000 at clock 50.  Child epoch: wall 1002
        # at clock 7.  A child span at its clock 9 happened at wall
        # 1004, i.e. parent clock 54.
        parent = obs.Telemetry()
        parent.epoch_wall, parent.epoch_clock = 1000.0, 50.0
        rec = obs.SpanRecord(name="w", cat="c", ts=9.0, dur=0.5,
                             pid=999, tid=1, args={})
        parent.adopt([rec], epoch_wall=1002.0, epoch_clock=7.0)
        (adopted,) = parent.spans()
        assert adopted.ts == pytest.approx(54.0)
        assert adopted.pid == 999  # worker identity preserved


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.0)
        reg.gauge("g").set(7.5)
        reg.histogram("h").observe(1.0)
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert snap["c"] == 3.0
        assert snap["g"] == 7.5
        assert snap["h.count"] == 2.0
        assert snap["h.sum"] == 4.0
        assert snap["h.mean"] == 2.0
        assert snap["h.min"] == 1.0 and snap["h.max"] == 3.0

    def test_empty_histogram_omits_min_max(self):
        reg = obs.MetricsRegistry()
        reg.histogram("h")
        snap = reg.snapshot()
        assert snap["h.count"] == 0.0 and snap["h.mean"] == 0.0
        assert "h.min" not in snap and "h.max" not in snap

    def test_kind_mismatch_raises(self):
        reg = obs.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")


class TestExport:
    def test_span_events_are_complete_events_in_microseconds(self):
        rec = obs.SpanRecord(name="s", cat="c", ts=1.5, dur=0.25,
                             pid=1, tid=2, args={"k": "v"})
        (ev,) = span_events([rec])
        assert ev["ph"] == "X"
        assert ev["ts"] == pytest.approx(1.5e6)
        assert ev["dur"] == pytest.approx(0.25e6)
        assert ev["args"] == {"k": "v"}

    def test_step_timeline_from_step_log(self):
        log = ColumnarStepLog()
        log.append(StepRecord(label="panel", recv_words_max=10.0,
                              recv_words_total=40.0))
        log.append(StepRecord(label="update", recv_words_max=20.0,
                              recv_words_total=80.0))
        events = step_timeline_events(log)
        labels = [e["name"] for e in events if e["ph"] == "I"]
        assert labels == ["step:panel", "step:update"]
        counters = [e for e in events if e["ph"] == "C"
                    and e["name"] == "recv_words_max"]
        assert [e["args"]["recv_words_max"] for e in counters] == \
            [10.0, 20.0]

    def test_null_step_log_yields_no_events(self):
        assert step_timeline_events(NullStepLog()) == []

    def test_write_chrome_trace_roundtrips_as_json(self, tel, tmp_path):
        tel.enable()
        with tel.span("a", cat="app"):
            pass
        path = write_chrome_trace(tmp_path / "t.json", tel)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert [e["name"] for e in doc["traceEvents"]] == ["a"]

    def test_metrics_json_merges_with_prefixes(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter("hits").inc()
        b.counter("hits").inc(5)
        merged = metrics_json(a, b, prefix=("", "svc"))
        assert merged == {"hits": 1.0, "svc.hits": 5.0}


class TestServiceStats:
    """The registry-backed compatibility view (and its hit_rate edge
    cases: zero lookups, post-reset)."""

    def test_hit_rate_zero_lookups(self):
        from repro.planner.service import ServiceStats

        stats = ServiceStats()
        assert stats.served == 0
        assert stats.hit_rate == 0.0  # no division by zero

    def test_hit_rate_after_reset(self):
        from repro.planner.service import ServiceStats

        stats = ServiceStats(lru_hits=8, lru_misses=2, live_plans=2)
        assert stats.hit_rate == pytest.approx(0.8)
        stats.reset()
        assert stats.served == 0 and stats.hit_rate == 0.0

    def test_augmented_assignment_lands_in_registry(self):
        reg = obs.MetricsRegistry()
        from repro.planner.service import ServiceStats

        stats = ServiceStats(registry=reg)
        stats.lru_hits += 3
        assert stats.lru_hits == 3
        assert reg.snapshot()["plan.service.lru_hits"] == 3.0

    def test_services_do_not_share_counters(self):
        from repro.planner.service import PlanService

        a, b = PlanService(), PlanService()
        a.stats.live_plans += 1
        assert a.stats.live_plans == 1 and b.stats.live_plans == 0

    def test_equality_and_unknown_field(self):
        from repro.planner.service import ServiceStats

        assert ServiceStats(lru_hits=1) == ServiceStats(lru_hits=1)
        assert ServiceStats(lru_hits=1) != ServiceStats(lru_hits=2)
        with pytest.raises(TypeError, match="unknown"):
            ServiceStats(bogus=1)


class TestNullStepLog:
    def test_totals_are_zero_for_every_field(self):
        log = NullStepLog()
        for field in ("flops_max", "flops_total", "recv_words_max",
                      "recv_words_total", "msgs_max", "msgs_total"):
            assert log.total(field) == 0.0

    def test_append_iter_len_getitem(self):
        log = NullStepLog()
        log.append(StepRecord(label="dropped"))
        assert len(log) == 0
        assert list(log) == []
        with pytest.raises(IndexError):
            log[0]


class TestCacheAccounting:
    def _cache(self, tmp_path, fingerprint="f" * 64):
        from repro.runtime.cache import ResultCache

        return ResultCache(tmp_path, fingerprint=fingerprint)

    def test_cold_miss_then_hit(self, tel, tmp_path):
        cache = self._cache(tmp_path)
        assert cache.get("tok") is None
        cache.put("tok", 42)
        assert cache.get("tok") == 42
        assert (cache.hits, cache.misses) == (1, 1)
        assert (cache.stale, cache.corrupt) == (0, 0)

    def test_stale_miss_classified(self, tel, tmp_path):
        old = self._cache(tmp_path, fingerprint="a" * 64)
        old.put("tok", 1)
        new = self._cache(tmp_path, fingerprint="b" * 64)
        assert new.get("tok") is None
        assert new.misses == 1 and new.stale == 1
        assert tel.metrics.snapshot()["cache.stale"] == 1.0

    def test_corrupt_entry_counted_deleted_and_warned(self, tel,
                                                      tmp_path, caplog):
        cache = self._cache(tmp_path)
        cache.put("tok", 42)
        path = cache._path("tok")
        path.write_bytes(b"not a pickle")
        with caplog.at_level(logging.WARNING, logger="repro.runtime.cache"):
            assert cache.get("tok") is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert not path.exists()  # poisoned entry removed
        assert any(str(path) in r.getMessage() for r in caplog.records)
        snap = tel.metrics.snapshot()
        assert snap["cache.corrupt"] == 1.0
        assert snap["cache.corrupt_deleted"] == 1.0
        # The slot is writable again after deletion.
        cache.put("tok", 7)
        assert cache.get("tok") == 7

    def test_get_spans_carry_outcome(self, tel, tmp_path):
        cache = self._cache(tmp_path)
        tel.enable()
        cache.get("tok")
        cache.put("tok", 1)
        cache.get("tok")
        gets = [r for r in tel.spans() if r.name == "cache.get"]
        assert [r.args["outcome"] for r in gets] == ["miss", "hit"]


class TestPlannerTelemetry:
    def test_joint_plan_spans_and_counters(self, tel):
        from repro.analysis.harness import dft_workload_request
        from repro.planner import NoFeasiblePlanError, plan_workload

        tel.enable()
        plan_workload(dft_workload_request(128, 16))
        batch, search = tel.spans()
        assert (batch.name, search.name) == ("plan.batch", "plan.workload")
        assert batch.cat == search.cat == "planner"
        assert set(batch.args) == {"requests", "reduced"}
        assert set(search.args) == {"nodes", "product", "scored",
                                    "conversions"}
        assert search.args["nodes"] == 4
        assert search.args["product"] == 6 ** 4
        assert 8 <= search.args["scored"] <= search.args["product"]
        assert search.args["conversions"] >= 1
        snap = tel.metrics.snapshot()
        # f1 and f2 are the same question: their schedules reduce once.
        assert (snap["planner.candidates"]
                > snap["planner.schedules_reduced"] == batch.args["reduced"])
        assert snap["planner.assignments_scored"] == search.args["scored"]

        # A refused search still reports: both passes, every assignment.
        with pytest.raises(NoFeasiblePlanError):
            plan_workload(dft_workload_request(128, 16, 9.5 * 1024))
        refused = tel.spans()[-1]
        assert refused.name == "plan.workload"
        assert refused.args["scored"] == refused.args["product"]


def _result_key(r):
    """One sweep result with every per-rank counter, as plain values."""
    return (r.name, r.n, r.nranks, r.mem_words, r.params,
            [getattr(r.comm, field).tolist() for field in TOTAL_FIELDS])


class TestExecutorTelemetry:
    def _tasks(self):
        from repro.runtime.executor import SweepTask

        return [SweepTask("lu", "conflux", 2048, 64),
                SweepTask("cholesky", "confchox", 2048, 64)]

    def test_serial_run_sets_wall_metrics(self, tel):
        from repro.runtime.executor import SerialExecutor

        SerialExecutor().run(self._tasks())
        snap = tel.metrics.snapshot()
        assert snap["runtime.executor.tasks"] == 2.0
        assert snap["runtime.executor.last_run_s"] > 0.0
        assert snap["runtime.executor.run.wall_s.count"] == 1.0

    def test_serial_run_records_task_spans_when_enabled(self, tel):
        from repro.runtime.executor import SerialExecutor

        tel.enable()
        SerialExecutor().run(self._tasks())
        names = [r.name for r in tel.spans()]
        assert names.count("sweep.task") == 2
        assert names[-1] == "sweep.run"

    def test_pool_ships_worker_spans_home(self, tel):
        from repro.runtime.executor import ProcessPoolSweepExecutor

        tel.enable()
        ProcessPoolSweepExecutor(max_workers=2).run(self._tasks())
        task_spans = [r for r in tel.spans() if r.name == "sweep.task"]
        assert len(task_spans) == 2
        # Worker spans keep the worker's pid — one trace lane each.
        assert all(r.pid != os.getpid() for r in task_spans)
        assert tel.metrics.snapshot()[
            "runtime.executor.pool.queue_latency_s.count"] == 2.0

    def test_pool_disabled_path_matches_serial(self, tel):
        from repro.runtime.executor import (
            ProcessPoolSweepExecutor,
            SerialExecutor,
        )

        tasks = self._tasks()
        serial = SerialExecutor().run(tasks)
        pooled = ProcessPoolSweepExecutor(max_workers=2).run(tasks)
        assert tel.spans() == ()
        assert [r.mean_recv_words for r in pooled] == \
            [r.mean_recv_words for r in serial]

    def test_recording_spans_never_perturbs_the_sweep(self, tel):
        """The 12-point subset the ``perf/`` ledger pins, traced with
        spans disabled, enabled, and enabled through the pool (worker
        spans shipped home and adopted): identical results, identical
        checksum."""
        from repro.analysis.harness import sweep_traces
        from repro.runtime.executor import ProcessPoolSweepExecutor

        cases = [(65536, 1024), (65536, 4096), (131072, 4096)]
        disabled = sweep_traces(cases)
        assert tel.spans() == ()
        tel.enable()
        enabled = sweep_traces(cases)
        with ProcessPoolSweepExecutor(2) as pool:
            pooled = sweep_traces(cases, executor=pool)
        names = [r.name for r in tel.spans()]
        assert names.count("sweep.task") == 2 * len(cases)
        for results in (enabled, pooled):
            assert [_result_key(r) for r in results] == \
                [_result_key(r) for r in disabled]
            assert sum(r.mean_recv_words for r in results) == 1423773488.0


class TestAbortedRunTelemetry:
    """Spans + CommStats + memory report on a run that dies with
    MemoryBudgetExceeded mid-superstep."""

    def _run(self, budget=None):
        from repro.engine.backends import DistributedBackend
        from repro.factorizations import ConfluxSchedule
        from repro.machine import Machine

        n, p = 32, 4
        sched = ConfluxSchedule(n, p, v=8, c=1)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        machine = (Machine(p) if budget is None
                   else Machine(p, mem_words=budget, enforce_memory=True))
        backend = DistributedBackend(machine)
        backend.run(sched, a=a)
        return backend, machine

    def test_aborted_run_leaves_usable_telemetry(self, tel):
        from repro.machine import MemoryBudgetExceeded

        ok_backend, _ = self._run()
        peak = ok_backend.memory_report().max_peak_words

        tel.enable()
        with pytest.raises(MemoryBudgetExceeded):
            self._run(budget=peak - 1)
        tel.disable()
        # The failing superstep's span records the abort.
        engine = [r for r in tel.spans() if r.cat == "engine"]
        assert engine
        assert engine[-1].args.get("error") == "MemoryBudgetExceeded"

    def test_trace_exports_aborted_memory_report(self, tel, tmp_path):
        from repro.engine.backends import DistributedBackend
        from repro.factorizations import ConfluxSchedule
        from repro.machine import Machine, MemoryBudgetExceeded

        ok_backend, _ = self._run()
        peak = ok_backend.memory_report().max_peak_words

        n, p = 32, 4
        machine = Machine(p, mem_words=peak - 1, enforce_memory=True)
        backend = DistributedBackend(machine)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        tel.enable()
        with pytest.raises(MemoryBudgetExceeded):
            backend.run(ConfluxSchedule(n, p, v=8, c=1), a=a)
        tel.disable()
        report = backend.memory_report()  # covers however far it got
        path = write_chrome_trace(tmp_path / "aborted.json", tel,
                                  step_log=machine.stats.steps,
                                  memory_report=report)
        doc = json.loads(path.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert "engine" in cats and "memory" in cats
        mem = [e for e in doc["traceEvents"]
               if e["name"] == "memory.per_rank_peaks"]
        assert mem[0]["args"]["enforced"] is True
