"""Tests for the work-stealing sweep fabric (repro.runtime.fabric).

The fabric contract: however many workers (in-process, spawned, or
killed mid-batch) execute the leased batches, the reconciled result
list is bit-identical to SerialExecutor — and the done-marker ledger
accounts for every task exactly once.  The fault-injection tests drive
the protocol through its failure modes directly: a SIGKILL'd worker
whose lease must be stolen, a corrupt lease file, an expired
heartbeat, and a doubly-executed batch whose duplicate loses the
``O_EXCL`` done-marker race.
"""

import atexit
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.analysis.harness import sweep_tasks, sweep_traces
from repro.runtime import (
    DistributedSweepExecutor,
    ResultCache,
    SerialExecutor,
    SweepTask,
    publish_run,
)
from repro.runtime import fabric
from repro.runtime.executor import run_task

#: Small paper-shaped cases — the same shape test_runtime uses.
CASES = [(2048, 64), (4096, 256)]


def checksum(results):
    return sum(r.mean_recv_words for r in results)


def counter(name: str) -> float:
    return obs.metrics().counter(name).value


def backdate(path: pathlib.Path, age_s: float = 1000.0) -> None:
    t = time.time() - age_s
    os.utime(path, (t, t))


def lu_tasks():
    tasks = [SweepTask("lu", "conflux", n, p) for n, p in CASES]
    tasks.append(SweepTask("cholesky", "confchox", 2048, 64))
    return tasks


class TestPublishRun:
    def test_idempotent_and_content_addressed(self, tmp_path):
        tasks = lu_tasks()
        run1 = publish_run(tmp_path, tasks, batch_size=1)
        run2 = publish_run(tmp_path, tasks, batch_size=1)
        assert run1.run_id == run2.run_id
        assert run1.run_dir == run2.run_dir
        assert (run1.run_dir / "manifest.json").exists()
        # A different batch size is a different run.
        run3 = publish_run(tmp_path, tasks, batch_size=2)
        assert run3.run_id != run1.run_id

    def test_batches_partition_tasks(self, tmp_path):
        run = publish_run(tmp_path, lu_tasks(), batch_size=2)
        covered = [i for b in run.batches for i in b]
        assert covered == list(range(len(run.tasks)))

    def test_empty_run_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            publish_run(tmp_path, [])

    def test_load_run_roundtrip(self, tmp_path):
        run = publish_run(tmp_path, lu_tasks(), batch_size=1)
        back = fabric.load_run(tmp_path, run.run_id)
        assert back.tasks == run.tasks
        assert back.batch_size == run.batch_size
        assert back.fingerprint == run.fingerprint


class TestInlineParity:
    def test_fabric_equals_serial(self, tmp_path):
        """The acceptance property: the distributed path is a drop-in
        executor with a bit-identical sweep checksum."""
        serial = sweep_traces(CASES)
        ex = DistributedSweepExecutor(tmp_path, workers=0)
        fab = sweep_traces(CASES, executor=ex)
        assert checksum(fab) == checksum(serial)
        for rs, rf in zip(serial, fab):
            assert rs.name == rf.name
            assert rs.mean_recv_words == rf.mean_recv_words

    def test_report_ledger_accounts_every_task(self, tmp_path):
        tasks = lu_tasks()
        ex = DistributedSweepExecutor(tmp_path, workers=0, batch_size=1)
        ex.run(tasks)
        report = ex.last_report
        assert report.tasks == len(tasks)
        assert report.batches == len(tasks)
        assert report.tasks_computed + report.tasks_cache_served \
            == report.tasks
        assert sum(report.by_worker.values()) == report.batches

    def test_rejects_zero_workers_without_participation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one worker"):
            DistributedSweepExecutor(tmp_path, workers=0,
                                     participate=False)


class TestResume:
    def test_resume_recomputes_nothing(self, tmp_path):
        """Killing everything and re-running the same sweep serves all
        results from cache: same checksum, zero recomputes."""
        tasks = lu_tasks()
        cache = ResultCache(tmp_path)
        first = DistributedSweepExecutor(cache, workers=0, batch_size=1)
        r1 = first.run(tasks)

        retried_before = counter("fabric.tasks.retried")
        hits_before = cache.hits
        second = DistributedSweepExecutor(cache, workers=0, batch_size=1)
        r2 = second.run(tasks)
        assert counter("fabric.tasks.retried") == retried_before
        assert cache.hits == hits_before + len(tasks)
        assert [type(v) for v in r1] == [type(v) for v in r2]
        assert second.last_report.run_id == first.last_report.run_id
        # The report describes the call, not the run directory's history.
        assert first.last_report.tasks_computed == len(tasks)
        assert second.last_report.tasks_computed == 0
        assert second.last_report.tasks_cache_served == len(tasks)
        assert second.last_report.tasks == len(tasks)

    def test_partial_resume_counts_only_this_call(self, tmp_path):
        """One batch finished by an earlier (dead) coordinator: the
        resuming call computes the rest and reports exactly that."""
        tasks = lu_tasks()
        cache = ResultCache(tmp_path)
        run = publish_run(cache, tasks, batch_size=1)
        lease = fabric._try_claim(run, 0, "earlier", ttl_s=30.0)
        fabric._execute_batch(run, lease, cache)
        ex = DistributedSweepExecutor(cache, workers=0, batch_size=1)
        ex.run(tasks)
        report = ex.last_report
        assert report.run_id == run.run_id
        assert report.tasks_computed == len(tasks) - 1
        assert report.tasks_cache_served == 1
        assert report.by_worker["earlier"] == 1

    def test_partial_results_survive(self, tmp_path):
        """A pre-cached task is served, not recomputed — the resumable
        contract extended to the fabric."""
        tasks = lu_tasks()
        cache = ResultCache(tmp_path)
        cache.put(tasks[0].cache_token(), run_task(tasks[0]))
        ex = DistributedSweepExecutor(cache, workers=0, batch_size=1)
        ex.run(tasks)
        assert ex.last_report.tasks_cache_served >= 1
        assert ex.last_report.tasks_computed == len(tasks) - 1


class TestLeaseProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        run = publish_run(tmp_path, lu_tasks(), batch_size=1)
        lease = fabric._try_claim(run, 0, "w1", ttl_s=30.0)
        assert lease is not None and lease.stolen_from is None
        # A live (heartbeating) lease can be neither claimed nor stolen.
        assert fabric._try_claim(run, 0, "w2", ttl_s=30.0) is None
        lease.release()
        assert not run.lease_path(0).exists()

    def test_expired_heartbeat_is_stolen(self, tmp_path):
        """A lease whose heartbeat went stale is stolen — and the
        thief's lease records whom the batch was stolen from."""
        run = publish_run(tmp_path, lu_tasks(), batch_size=1)
        dead = fabric._try_claim(run, 0, "crashed-worker", ttl_s=5.0)
        assert dead is not None
        backdate(run.lease_path(0))
        stolen_before = counter("fabric.lease.stolen")
        expired_before = counter("fabric.lease.expired")
        thief = fabric._try_claim(run, 0, "rescuer", ttl_s=5.0)
        assert thief is not None
        assert thief.stolen_from == "crashed-worker"
        assert counter("fabric.lease.stolen") == stolen_before + 1
        assert counter("fabric.lease.expired") == expired_before + 1

    def test_corrupt_lease_is_still_stolen(self, tmp_path):
        """A lease file holding garbage bytes cannot name its owner,
        but mtime still governs expiry — the batch is recoverable."""
        run = publish_run(tmp_path, lu_tasks(), batch_size=1)
        path = run.lease_path(0)
        path.write_bytes(b"\x00\xffnot json at all")
        backdate(path)
        thief = fabric._try_claim(run, 0, "rescuer", ttl_s=5.0)
        assert thief is not None
        assert thief.stolen_from == "unknown"

    def test_heartbeat_refreshes_mtime(self, tmp_path):
        run = publish_run(tmp_path, lu_tasks(), batch_size=1)
        lease = fabric._try_claim(run, 0, "w", ttl_s=4.0)
        backdate(run.lease_path(0), age_s=100.0)
        lease._last_beat = time.time() - lease.ttl_s  # force a beat
        lease.heartbeat()
        assert time.time() - run.lease_path(0).stat().st_mtime < 5.0

    def test_duplicate_execution_writes_one_done_marker(self, tmp_path):
        """Two workers racing over one batch (the steal window) both
        execute safely, but exactly one done marker wins — the ledger
        stays exactly-once."""
        run = publish_run(tmp_path, lu_tasks(), batch_size=1)
        cache = ResultCache(tmp_path)
        first = fabric._try_claim(run, 0, "first", ttl_s=30.0)
        fabric._execute_batch(run, first, cache)
        marker = json.loads(run.done_path(0).read_text())
        assert marker["worker"] == "first"

        dup_before = counter("fabric.batches.duplicate")
        second = fabric._try_claim(run, 0, "second", ttl_s=30.0)
        fabric._execute_batch(run, second, cache)
        assert counter("fabric.batches.duplicate") == dup_before + 1
        assert json.loads(run.done_path(0).read_text())["worker"] \
            == "first"


def _spawn_worker(run, worker_id: str, ttl: float, hold_s: float):
    """A real worker subprocess against the run's shared directory,
    holding ``hold_s`` (while heartbeating) before executing — the
    deterministic SIGKILL window."""
    import repro

    env = dict(os.environ)
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    env["REPRO_FABRIC_HOLD_S"] = str(hold_s)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.fabric",
         "--cache", str(run.cache_root), "--run", run.run_id,
         "--ttl", str(ttl), "--worker-id", worker_id, "--no-linger"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


class TestFaultInjection:
    def test_sigkilled_worker_batch_is_stolen(self, tmp_path):
        """Kill a worker mid-batch with SIGKILL: its lease expires, the
        coordinator steals it, and the sweep finishes bit-identical to
        serial with every task accounted for exactly once."""
        serial = sweep_traces(CASES)
        tasks = sweep_tasks(CASES)
        cache = ResultCache(tmp_path)
        run = publish_run(cache, tasks, batch_size=1)

        victim = _spawn_worker(run, "victim", ttl=2.0, hold_s=120.0)
        try:
            deadline = time.time() + 60.0
            while not list(run.run_dir.glob("lease-*.json")):
                if victim.poll() is not None:
                    _, err = victim.communicate()
                    pytest.fail("victim worker exited before claiming: "
                                + err.decode(errors="replace"))
                if time.time() > deadline:
                    pytest.fail("victim worker never claimed a lease")
                time.sleep(0.05)
        finally:
            victim.kill()               # SIGKILL: no cleanup, no release
            victim.communicate()

        expired_before = counter("fabric.lease.expired")
        ex = DistributedSweepExecutor(cache, workers=0, batch_size=1,
                                      ttl_s=1.0, poll_s=0.05,
                                      timeout_s=120.0)
        results = ex.run(tasks)
        report = ex.last_report

        assert checksum([r for case in results for r in case]) \
            == checksum(serial)
        # Exactly-once: each batch has one done marker, summing to the
        # published task count; the victim's batch shows as stolen.
        assert report.tasks == len(tasks)
        assert sum(report.by_worker.values()) == len(run.batches)
        assert report.stolen >= 1
        assert counter("fabric.lease.expired") >= expired_before + 1
        markers = [json.loads(run.done_path(b).read_text())
                   for b in range(len(run.batches))]
        assert sum(m["stolen_from"] == "victim" for m in markers) == 1

    def test_spawned_workers_parity(self, tmp_path):
        """The executor's own subprocess-spawning path (workers=1, the
        coordinator participating) still reconciles bit-identical."""
        serial = sweep_traces(CASES)
        ex = DistributedSweepExecutor(tmp_path, workers=1, batch_size=1,
                                      ttl_s=10.0, timeout_s=120.0)
        fab = sweep_traces(CASES, executor=ex)
        assert checksum(fab) == checksum(serial)
        assert ex.last_report.tasks_computed \
            + ex.last_report.tasks_cache_served == ex.last_report.tasks


class TestWorkerStderr:
    def test_flooding_worker_does_not_block(self, tmp_path, monkeypatch):
        """A forked worker writing more than a pipe buffer to stderr
        (here: 128 KiB to fd 2 before every task) still does all the
        work — its stderr is a file, not a pipe that nobody reads until
        join."""
        def flooding_run_task(task):
            os.write(2, b"x" * 131072)
            return run_task(task)

        monkeypatch.setattr(fabric, "run_task", flooding_run_task)
        tasks = lu_tasks()
        ex = DistributedSweepExecutor(tmp_path, workers=1,
                                      participate=False, batch_size=1,
                                      ttl_s=10.0, timeout_s=30.0)
        results = ex.run(tasks)
        assert len(results) == len(tasks)
        assert ex.last_report.tasks_computed == len(tasks)
        run = publish_run(tmp_path, tasks, batch_size=1)
        (log,) = run.run_dir.glob("worker-*.stderr")
        assert log.stat().st_size > 65536    # the Linux pipe buffer

    def test_failed_worker_error_carries_stderr_tail(self, tmp_path):
        """A worker that dies leaves its traceback in the run directory
        and the coordinator's error quotes the end of it."""
        tasks = lu_tasks()
        run = publish_run(tmp_path, tasks, batch_size=1, expected_workers=1)
        (run.run_dir / "tasks.pkl").write_bytes(b"not a pickle")
        ex = DistributedSweepExecutor(tmp_path, workers=1,
                                      participate=False, batch_size=1,
                                      ttl_s=10.0, timeout_s=1.0)
        with pytest.raises(RuntimeError, match="UnpicklingError") as info:
            ex.run(tasks)
        (log,) = run.run_dir.glob("worker-*.stderr")
        assert str(log) in str(info.value)
        assert "Traceback" in log.read_text()


class TestForkedWorkers:
    def test_forked_workers_run_no_parent_exit_hooks(self, tmp_path):
        """Forked workers leave through ``os._exit``: an ``atexit`` hook
        the coordinator registered before the run never fires in them,
        and every batch is done by a ``sub{i}-<coordinator pid>``
        worker, reconciled bit-identical to serial."""
        hook_log = tmp_path / "atexit.log"
        hook_log.touch()

        def hook():
            with open(hook_log, "a") as fh:
                fh.write(f"{os.getpid()}\n")

        atexit.register(hook)
        try:
            tasks = lu_tasks()
            ex = DistributedSweepExecutor(tmp_path / "cache", workers=2,
                                          participate=False, batch_size=1,
                                          ttl_s=10.0, timeout_s=120.0)
            results = ex.run(tasks)
        finally:
            atexit.unregister(hook)
        assert hook_log.read_text() == ""
        assert checksum(results) == checksum(SerialExecutor().run(tasks))
        run = publish_run(tmp_path / "cache", tasks, batch_size=1)
        workers = {json.loads(run.done_path(b).read_text())["worker"]
                   for b in range(len(run.batches))}
        assert workers <= {f"sub{i}-{os.getpid()}" for i in range(2)}

    def test_hung_worker_is_killed_at_join(self, tmp_path, monkeypatch):
        """A forked worker still alive ``4 * ttl_s`` after the run is
        done is killed, not waited on: the coordinator returns the
        serial checksum and leaves no child behind."""
        coordinator = os.getpid()
        real_work_run = fabric.work_run

        def work_run(run, **kw):
            if os.getpid() != coordinator:
                time.sleep(120.0)
            return real_work_run(run, **kw)

        monkeypatch.setattr(fabric, "work_run", work_run)
        tasks = lu_tasks()
        ex = DistributedSweepExecutor(tmp_path, workers=1, batch_size=1,
                                      ttl_s=0.25, timeout_s=60.0)
        t0 = time.time()
        results = ex.run(tasks)
        assert time.time() - t0 < 30.0
        assert checksum(results) == checksum(SerialExecutor().run(tasks))
        assert multiprocessing.active_children() == []
