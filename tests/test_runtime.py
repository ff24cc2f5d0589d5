"""Tests for the parallel sweep runtime (repro.runtime).

The executor contract: results come back in task order, the process
pool reproduces the serial path exactly (same FactorizationResults,
bit-identical sweep checksum), and the content-addressed cache serves
hits, recomputes misses, ignores stale-fingerprint entries, and makes
interrupted sweeps resumable.
"""

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.analysis.harness import sweep_traces
from repro.runtime import (
    ProcessPoolSweepExecutor,
    ResultCache,
    SerialExecutor,
    SweepTask,
    code_fingerprint,
    run_task,
)
from repro.runtime.executor import default_workers

#: Small paper-shaped cases: fast to trace, non-trivial step counts.
CASES = [(2048, 64), (4096, 256)]


def checksum(results):
    return sum(r.mean_recv_words for r in results)


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.name == rb.name
        assert (ra.n, ra.nranks) == (rb.n, rb.nranks)
        assert ra.mean_recv_words == rb.mean_recv_words
        assert ra.max_recv_words == rb.max_recv_words
        assert ra.total_flops == rb.total_flops
        np.testing.assert_array_equal(ra.comm.recv_words, rb.comm.recv_words)


class TestSweepTask:
    def test_cache_token_is_stable_and_distinct(self):
        t1 = SweepTask("lu", "conflux", 2048, 64)
        assert t1.cache_token() == SweepTask("lu", "conflux", 2048,
                                             64).cache_token()
        assert t1.cache_token() != SweepTask("lu", "mkl", 2048,
                                             64).cache_token()
        assert t1.cache_token() != SweepTask("lu", "conflux", 2048,
                                             128).cache_token()

    def test_run_task_dispatch(self):
        res = run_task(SweepTask("cholesky", "confchox", 2048, 64))
        assert res.name == "confchox"
        with pytest.raises(ValueError, match="unknown sweep task"):
            run_task(SweepTask("nope", "x", 8, 2))


class TestSerialExecutor:
    def test_matches_plain_loop(self):
        plain = sweep_traces(CASES)
        via_exec = sweep_traces(CASES, executor=SerialExecutor())
        assert_results_equal(plain, via_exec)


class TestProcessPool:
    def test_parallel_equals_serial(self):
        """The acceptance property: identical results (and therefore an
        identical bench checksum) through the pool path."""
        serial = sweep_traces(CASES)
        par = sweep_traces(
            CASES, executor=ProcessPoolSweepExecutor(max_workers=2))
        assert_results_equal(serial, par)
        assert checksum(par) == checksum(serial)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolSweepExecutor(max_workers=0)


class TestPersistentPool:
    """The pool survives across run() calls: one worker spawn, many
    sweeps — released explicitly via close() or the context manager."""

    def test_pool_reused_across_runs(self):
        created = obs.metrics().counter("runtime.executor.pool.created")
        before = created.value
        tasks = [SweepTask("lu", "conflux", n, p) for n, p in CASES]
        ex = ProcessPoolSweepExecutor(max_workers=1)
        try:
            first = ex.run(tasks)
            pool = ex._pool
            assert pool is not None
            second = ex.run(tasks)
            assert ex._pool is pool
            assert created.value == before + 1
            assert_results_equal(first, second)
        finally:
            ex.close()

    def test_close_is_idempotent_and_context_manager_closes(self):
        with ProcessPoolSweepExecutor(max_workers=1) as ex:
            ex.run([SweepTask("lu", "conflux", 2048, 64)])
            assert ex._pool is not None
        assert ex._pool is None
        ex.close()                       # second close: no-op
        ex.close()

    def test_run_after_close_recreates_pool(self):
        task = [SweepTask("lu", "mkl", 2048, 64)]
        ex = ProcessPoolSweepExecutor(max_workers=1)
        try:
            ex.run(task)
            first_pool = ex._pool
            ex.close()
            ex.run(task)
            assert ex._pool is not None
            assert ex._pool is not first_pool
        finally:
            ex.close()


class TestDefaultWorkers:
    def test_cpu_count_none_degrades_to_one(self, monkeypatch):
        """os.cpu_count() may return None on restricted platforms —
        that must mean 1 worker, not a TypeError."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        # One sweep task (and so one cache entry) per (N, P) case — the
        # whole flavour set batch-evaluates inside the task.
        cache = ResultCache(tmp_path)
        ex = SerialExecutor(cache=cache)
        first = sweep_traces(CASES, executor=ex)
        assert cache.hits == 0 and cache.misses == len(CASES)
        second = sweep_traces(CASES, executor=ex)
        assert cache.hits == len(CASES)
        assert_results_equal(first, second)

    def test_stale_fingerprint_recomputes(self, tmp_path):
        warm = ResultCache(tmp_path, fingerprint="code-v1")
        sweep_traces(CASES, executor=SerialExecutor(cache=warm))
        stale = ResultCache(tmp_path, fingerprint="code-v2")
        sweep_traces(CASES, executor=SerialExecutor(cache=stale))
        assert stale.hits == 0
        assert stale.misses > 0

    def test_resumable_partial_sweep(self, tmp_path):
        """An interrupted sweep keeps finished entries: a rerun serves
        them as hits and computes only what is missing."""
        tasks = [SweepTask("lu", "conflux", n, p) for n, p in CASES]
        cache = ResultCache(tmp_path, fingerprint="pin")
        cache.put(tasks[0].cache_token(), run_task(tasks[0]))
        ex = SerialExecutor(cache=ResultCache(tmp_path, fingerprint="pin"))
        results = ex.run(tasks)
        assert ex.cache.hits == 1
        assert ex.cache.misses == len(tasks) - 1
        assert results[1].name == "conflux"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="pin")
        token = "some-task"
        cache.put(token, {"ok": 1})
        cache._path(token).write_bytes(b"not a pickle")
        assert cache.get(token) is None
        cache.put(token, {"ok": 2})
        assert cache.get(token) == {"ok": 2}

    def test_values_roundtrip_pickle(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="pin")
        res = run_task(SweepTask("lu", "mkl", 2048, 64))
        cache.put("t", res)
        back = cache.get("t")
        assert back.mean_recv_words == res.mean_recv_words

    def test_code_fingerprint_stable_in_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestCacheGC:
    """gc() prunes what no lookup can ever serve (other-fingerprint
    entries, orphaned temp files) plus, on request, a retention window
    over current entries — always safe, since a pruned entry just reads
    as a cold miss."""

    def test_prunes_stale_fingerprints_keeps_current(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="code-v1")
        old.put("a", 1)
        old.put("b", 2)
        cur = ResultCache(tmp_path, fingerprint="code-v2")
        cur.put("a", 10)
        assert len(cur) == 3
        assert cur.gc() == 2
        assert len(cur) == 1
        assert cur.get("a") == 10

    def test_max_age_prunes_old_current_entries(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="pin")
        cache.put("old", 1)
        cache.put("new", 2)
        t = time.time() - 100.0
        os.utime(cache._path("old"), (t, t))
        assert cache.gc(max_age_s=50.0) == 1
        assert cache.get("old") is None
        assert cache.get("new") == 2

    def test_prunes_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="pin")
        cache.put("a", 1)
        dead = tmp_path / "deadwriter.tmp"
        dead.write_bytes(b"partial")
        t = time.time() - 7200.0
        os.utime(dead, (t, t))
        fresh = tmp_path / "livewriter.tmp"
        fresh.write_bytes(b"in flight")
        assert cache.gc() == 1
        assert not dead.exists()
        assert fresh.exists()
        assert cache.get("a") == 1

    def test_counts_into_registry(self, tmp_path):
        pruned_ctr = obs.metrics().counter("cache.gc_pruned")
        runs_ctr = obs.metrics().counter("cache.gc_runs")
        pruned_before, runs_before = pruned_ctr.value, runs_ctr.value
        stale = ResultCache(tmp_path, fingerprint="gone")
        stale.put("x", 1)
        cache = ResultCache(tmp_path, fingerprint="pin")
        assert cache.gc() == 1
        assert pruned_ctr.value == pruned_before + 1
        assert runs_ctr.value == runs_before + 1

    def test_gc_on_missing_directory_is_safe(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.gc() == 0
