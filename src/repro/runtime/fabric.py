"""Multi-host work-stealing sweep fabric over the content-addressed cache.

One process pool tops out at one host; the paper-scale (n, P, M) grids
behind Table 2 / Fig. 8 want more.
This module turns the :class:`~repro.runtime.cache.ResultCache`
directory — already content-addressed, atomic, and stale-proof — into
the *coordination substrate* of a distributed sweep:

* A **coordinator** (:class:`DistributedSweepExecutor`, a drop-in for
  the executor protocol ``run(tasks) -> list``) publishes a *run*: the
  pickled task list plus a manifest partitioning it into batches, under
  ``{cache}/fabric/{run_id}/``.  The run id is a content hash of the
  task tokens, the code fingerprint, and the batch size, so any
  coordinator publishing the same sweep against the same cache
  converges on the same run directory and cooperates instead of
  duplicating work.
* **Workers** — the coordinator's in-process loop, processes it forks,
  or any host running ``python -m repro.runtime.fabric --cache DIR``
  against the shared directory —
  **lease** batches through lock files claimed with
  ``O_CREAT | O_EXCL`` (exactly one winner per claim), heartbeat the
  lease mtime while executing, and write every task result through the
  ``ResultCache`` as it finishes.
* A lease whose heartbeat is older than the TTL is **expired**: any
  worker may *steal* it by atomically renaming the stale lease aside
  (``os.rename`` — exactly one stealer wins; the loser's rename raises
  ``FileNotFoundError``) and then competing for a fresh ``O_EXCL``
  claim.  Because results are written through the cache per task, a
  stolen batch recomputes only the tasks its dead owner had not yet
  finished — a SIGKILL'd worker costs at most one batch's tail.
* A finished batch writes a **done marker**, also ``O_EXCL``-created,
  recording the executing worker, steal status, and per-task
  cache-hit counts.  Done markers are the cross-process ledger: each
  batch completes exactly once no matter how many workers raced over
  it, which is what makes the steal/expiry accounting exact.
* The coordinator **reconciles** when every batch has a done marker:
  it reads each task's result back from the cache *in task order*, so
  the result list — and therefore the sweep checksum — is bit-identical
  to :class:`~repro.runtime.executor.SerialExecutor` by construction
  (the PR-4 contract extended one level: distributed == pool ==
  serial, checked on every ``perf/`` ``sweep_fanout`` operation).

Resumability falls out of the construction: killing *everything* and
re-running the same sweep re-publishes the same run id, sees the done
markers and cached results, and completes without recomputing a single
finished task.

Telemetry: the coordinator brackets the run in ``fabric.run`` /
``fabric.reconcile`` spans and every executed batch in a
``fabric.batch`` span (cat ``"fabric"``); claims, steals, expiries,
and completions count into the always-on registry (``fabric.lease.*``,
``fabric.tasks.*``), and after reconciliation the done-marker ledger
feeds per-worker utilization gauges (``fabric.worker.{id}.busy_s`` /
``fabric.worker.{id}.utilization``).  ``make trace`` drives a fabric
run and fails if the ``fabric`` span layer goes missing.

Fault-injection hook: when ``REPRO_FABRIC_HOLD_S`` is set (tests
only), a worker sleeps that long — heartbeating — between claiming a
batch and executing it, giving a test a deterministic window to
SIGKILL it mid-batch.  Unset, the hook costs one ``os.environ.get``.

The lease protocol assumes the shared directory gives atomic
``open(O_CREAT|O_EXCL)`` and ``rename`` with coherent mtimes — true of
local disks and most cluster filesystems; on NFS, mount with actimeo
small enough for the TTL in use.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import pathlib
import pickle
import sys
import time
import uuid
from multiprocessing.process import BaseProcess
from typing import Any, Sequence

from .. import obs
from .cache import ResultCache, code_fingerprint
from .executor import FORK, SweepTask, run_task

__all__ = [
    "DistributedSweepExecutor", "FabricRun", "FabricReport",
    "publish_run", "work_run", "DEFAULT_TTL_S", "DEFAULT_POLL_S",
]

#: Lease time-to-live: a heartbeat older than this marks the owner
#: dead and the batch stealable.  Generous by default — sweeps
#: heartbeat between tasks, and a false steal only wastes work (the
#: cache and done markers keep correctness).
DEFAULT_TTL_S = 30.0

#: How often an idle worker re-scans for stealable or finished work.
DEFAULT_POLL_S = 0.05

#: Heartbeats per TTL while executing a batch.
_HEARTBEAT_FRACTION = 4.0

#: Tests only — see the module docstring.
_FAULT_HOLD_ENV = "REPRO_FABRIC_HOLD_S"


# ----------------------------------------------------------------------
# Run publication


@dataclasses.dataclass(frozen=True)
class FabricRun:
    """One published sweep: the shared-directory layout every worker
    and coordinator of the sweep agrees on.

    ``batches`` partitions ``range(len(tasks))`` into contiguous index
    runs; batch ``b``'s lease and done marker are
    ``lease-{b:05d}.json`` / ``done-{b:05d}.json`` in ``run_dir``.
    """

    cache_root: pathlib.Path
    run_id: str
    tasks: tuple[SweepTask, ...]
    batch_size: int
    fingerprint: str

    @property
    def run_dir(self) -> pathlib.Path:
        return self.cache_root / "fabric" / self.run_id

    @property
    def batches(self) -> list[range]:
        n = len(self.tasks)
        return [range(lo, min(lo + self.batch_size, n))
                for lo in range(0, n, self.batch_size)]

    def lease_path(self, batch: int) -> pathlib.Path:
        return self.run_dir / f"lease-{batch:05d}.json"

    def done_path(self, batch: int) -> pathlib.Path:
        return self.run_dir / f"done-{batch:05d}.json"

    def done_batches(self) -> list[int]:
        return [b for b in range(len(self.batches))
                if self.done_path(b).exists()]

    def complete(self) -> bool:
        return all(self.done_path(b).exists()
                   for b in range(len(self.batches)))


def _run_id(tasks: Sequence[SweepTask], batch_size: int,
            fingerprint: str) -> str:
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    h.update(f"|batch={batch_size}|".encode())
    for t in tasks:
        h.update(t.cache_token().encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _tail(path: pathlib.Path) -> str:
    """The last 2000 bytes of a worker's stderr file, for error text."""
    try:
        with open(path, "rb") as fh:
            fh.seek(max(0, os.path.getsize(path) - 2000))
            return fh.read().decode(errors="replace")
    except OSError as exc:
        return f"(unreadable: {exc})"


def _atomic_write(path: pathlib.Path, data: bytes) -> None:
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def publish_run(cache: ResultCache | str | os.PathLike,
                tasks: Sequence[SweepTask],
                batch_size: int | None = None,
                expected_workers: int = 2) -> FabricRun:
    """Publish (or re-derive) the fabric run for ``tasks``.

    Idempotent: the run id is content-addressed, so publishing the same
    sweep twice lands on the same directory; the manifest and task
    pickle are only written when absent.  ``batch_size`` defaults to
    ~4 batches per expected worker, the same amortization the process
    pool uses.
    """
    cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
    tasks = tuple(tasks)
    if not tasks:
        raise ValueError("cannot publish an empty fabric run")
    if batch_size is None:
        batch_size = max(1, math.ceil(
            len(tasks) / (max(1, expected_workers) * 4)))
    run = FabricRun(cache_root=pathlib.Path(cache.root),
                    run_id=_run_id(tasks, batch_size, cache.fingerprint),
                    tasks=tasks, batch_size=batch_size,
                    fingerprint=cache.fingerprint)
    run.run_dir.mkdir(parents=True, exist_ok=True)
    tasks_path = run.run_dir / "tasks.pkl"
    if not tasks_path.exists():
        _atomic_write(tasks_path,
                      pickle.dumps(list(tasks),
                                   protocol=pickle.HIGHEST_PROTOCOL))
    manifest = run.run_dir / "manifest.json"
    if not manifest.exists():
        _atomic_write(manifest, json.dumps({
            "run": run.run_id,
            "fingerprint": run.fingerprint,
            "tasks": len(tasks),
            "batch_size": batch_size,
            "batches": len(run.batches),
            "created_wall": time.time(),
        }, indent=1).encode())
    return run


def load_run(cache_root: str | os.PathLike, run_id: str,
             fingerprint: str | None = None) -> FabricRun:
    """Rehydrate a published run from its directory (worker side)."""
    root = pathlib.Path(cache_root)
    run_dir = root / "fabric" / run_id
    manifest = json.loads((run_dir / "manifest.json").read_text())
    with open(run_dir / "tasks.pkl", "rb") as fh:
        tasks = pickle.load(fh)
    return FabricRun(cache_root=root, run_id=run_id, tasks=tuple(tasks),
                     batch_size=manifest["batch_size"],
                     fingerprint=manifest["fingerprint"])


# ----------------------------------------------------------------------
# The lease protocol


class _Lease:
    """A held batch lease: heartbeats the file mtime while the owner
    executes, releases (unlinks) when done."""

    def __init__(self, run: FabricRun, batch: int, worker_id: str,
                 ttl_s: float, stolen_from: str | None) -> None:
        self.path = run.lease_path(batch)
        self.batch = batch
        self.worker_id = worker_id
        self.ttl_s = ttl_s
        self.stolen_from = stolen_from
        self._last_beat = time.time()

    def heartbeat(self) -> None:
        """Refresh the lease mtime if a heartbeat interval elapsed."""
        now = time.time()
        if now - self._last_beat >= self.ttl_s / _HEARTBEAT_FRACTION:
            try:
                os.utime(self.path)
            except FileNotFoundError:
                pass        # stolen under us; results stay safe anyway
            self._last_beat = now

    def release(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def _try_claim(run: FabricRun, batch: int, worker_id: str,
               ttl_s: float) -> _Lease | None:
    """One claim attempt: ``O_CREAT | O_EXCL`` on the lease file —
    exactly one winner.  If the lease exists but its heartbeat expired,
    rename it aside (exactly one stealer wins the rename) and compete
    for a fresh claim; losing either race returns None."""
    reg = obs.default_telemetry().metrics
    path = run.lease_path(batch)
    stolen_from: str | None = None
    for attempt in (0, 1):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if attempt:
                return None
            stolen_from = _clear_expired(path, ttl_s)
            if stolen_from is None:
                return None
            continue
        except OSError as exc:  # pragma: no cover - exotic fs errors
            if exc.errno == errno.EEXIST:
                return None
            raise
        with os.fdopen(fd, "w") as fh:
            json.dump({"owner": worker_id, "batch": batch,
                       "claimed_wall": time.time(),
                       "stolen_from": stolen_from}, fh)
        reg.counter("fabric.lease.claimed").inc()
        if stolen_from is not None:
            reg.counter("fabric.lease.stolen").inc()
        return _Lease(run, batch, worker_id, ttl_s, stolen_from)
    return None


def _clear_expired(path: pathlib.Path, ttl_s: float) -> str | None:
    """Remove ``path`` if its heartbeat expired; returns the dead
    owner's id (``"unknown"`` for an unreadable/corrupt lease) when
    this process won the removal race, else None.

    The removal is an atomic rename to a unique tombstone: after the
    first stealer's rename succeeds the source is gone, so every other
    stealer's rename raises FileNotFoundError — exactly one winner.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    if time.time() - st.st_mtime <= ttl_s:
        return None
    tomb = path.with_name(f"{path.name}.expired-{uuid.uuid4().hex}")
    try:
        os.rename(path, tomb)
    except FileNotFoundError:
        return None             # another worker stole it first
    owner = "unknown"
    try:
        owner = json.loads(tomb.read_text()).get("owner", "unknown")
    except (OSError, ValueError):
        pass                    # corrupt lease: mtime still governed expiry
    try:
        os.unlink(tomb)
    except FileNotFoundError:  # pragma: no cover
        pass
    obs.default_telemetry().metrics.counter("fabric.lease.expired").inc()
    return owner


# ----------------------------------------------------------------------
# Worker execution


def _execute_batch(run: FabricRun, lease: _Lease,
                   cache: ResultCache) -> None:
    """Run one leased batch: serve each task from the cache when
    possible, compute and write through otherwise, heartbeat between
    tasks, then write the done marker (``O_EXCL`` — the first finisher
    of a doubly-claimed batch wins; the loser counts a duplicate)."""
    tel = obs.default_telemetry()
    reg = tel.metrics
    indices = run.batches[lease.batch]
    hold = float(os.environ.get(_FAULT_HOLD_ENV, "0") or 0)
    with tel.span("fabric.batch", cat="fabric", batch=lease.batch,
                  tasks=len(indices), worker=lease.worker_id,
                  stolen=lease.stolen_from is not None):
        deadline = time.time() + hold
        while time.time() < deadline:     # fault-injection hold (tests)
            lease.heartbeat()
            time.sleep(min(0.01, lease.ttl_s / 10))
        t0 = time.time()
        served = computed = 0
        for i in indices:
            lease.heartbeat()
            task = run.tasks[i]
            token = task.cache_token()
            value = cache.get(token)
            if value is None:
                value = run_task(task)
                cache.put(token, value)
                computed += 1
            else:
                served += 1
        wall = time.time() - t0
        try:
            fd = os.open(run.done_path(lease.batch),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            reg.counter("fabric.batches.duplicate").inc()
        else:
            with os.fdopen(fd, "w") as fh:
                json.dump({"batch": lease.batch,
                           "worker": lease.worker_id,
                           "tasks": len(indices),
                           "computed": computed,
                           "cache_served": served,
                           "stolen_from": lease.stolen_from,
                           "wall_s": wall,
                           "finished_wall": time.time()}, fh)
            reg.counter("fabric.batches.done").inc()
            reg.counter("fabric.tasks.done").inc(len(indices))
            reg.counter("fabric.tasks.computed").inc(computed)
            reg.counter("fabric.tasks.cache_served").inc(served)
    lease.release()


def work_run(run: FabricRun, worker_id: str | None = None,
             ttl_s: float = DEFAULT_TTL_S,
             poll_s: float = DEFAULT_POLL_S,
             linger: bool = True,
             timeout_s: float | None = None,
             cache: ResultCache | None = None) -> int:
    """Work-steal batches of ``run`` until every batch is done.

    Returns the number of batches this worker completed.  With
    ``linger`` (the default) the worker keeps polling a fully-claimed
    run so it can steal expired leases of crashed peers; without it the
    worker exits as soon as nothing is claimable (the coordinator's
    reconcile loop takes over stealing).
    """
    tel = obs.default_telemetry()
    worker_id = worker_id or f"{os.uname().nodename}-{os.getpid()}"
    cache = cache or ResultCache(run.cache_root,
                                 fingerprint=run.fingerprint)
    nbatches = len(run.batches)
    mine = 0
    start = time.time()
    with tel.span("fabric.worker", cat="fabric", worker=worker_id,
                  run=run.run_id, batches=nbatches) as sp:
        while True:
            progressed = False
            # Worker-specific scan offset: spreads first claims across
            # workers so they collide (and retry) less.
            offset = int(hashlib.sha256(worker_id.encode())
                         .hexdigest(), 16) % max(1, nbatches)
            for k in range(nbatches):
                b = (offset + k) % nbatches
                if run.done_path(b).exists():
                    continue
                lease = _try_claim(run, b, worker_id, ttl_s)
                if lease is None:
                    continue
                _execute_batch(run, lease, cache)
                mine += 1
                progressed = True
            if run.complete():
                break
            if not progressed:
                if not linger:
                    break
                if timeout_s is not None \
                        and time.time() - start > timeout_s:
                    raise TimeoutError(
                        f"fabric run {run.run_id} incomplete after "
                        f"{timeout_s:.0f}s: "
                        f"{len(run.done_batches())}/{nbatches} batches")
                time.sleep(poll_s)
        sp.set(completed=mine)
    return mine


def _forked_worker(cache_root: pathlib.Path, run_id: str, worker_id: str,
                   ttl_s: float, poll_s: float, log: pathlib.Path) -> None:
    """A coordinator's local worker, in the forked child: stderr (fd 2
    and ``sys.stderr``) goes to ``log``, telemetry starts fresh, and the
    run is rebuilt from the shared directory — the same on-disk protocol
    a worker on another host follows."""
    fd = os.open(log, os.O_WRONLY | os.O_APPEND)
    os.dup2(fd, 2)
    os.close(fd)
    sys.stderr = open(2, "w", buffering=1, closefd=False)
    obs.set_default_telemetry(obs.Telemetry())
    work_run(load_run(cache_root, run_id), worker_id=worker_id,
             ttl_s=ttl_s, poll_s=poll_s, linger=False)


# ----------------------------------------------------------------------
# Coordinator


@dataclasses.dataclass(frozen=True)
class FabricReport:
    """The reconciled ledger of one fabric sweep, aggregated from the
    done markers (the exactly-once record: every batch appears in
    exactly one marker regardless of claim races).

    ``stolen`` counts batches completed off a stolen lease;
    ``by_worker`` maps worker id → batches completed; ``busy_s`` maps
    worker id → summed batch execution wall — all three over the whole
    run directory, whichever call finished the batch.
    ``tasks_computed`` / ``tasks_cache_served`` describe *this*
    ``run()`` call: a batch whose marker predates the call (a resume)
    counts entirely as cache-served, so a resume over a finished run
    reports 0 computed.  ``tasks_computed`` + ``tasks_cache_served``
    == ``tasks`` always.
    """

    run_id: str
    workers: int
    batches: int
    tasks: int
    stolen: int
    tasks_computed: int
    tasks_cache_served: int
    by_worker: dict[str, int]
    busy_s: dict[str, float]
    wall_s: float


class DistributedSweepExecutor:
    """Work-stealing sweep executor over a shared cache directory —
    a drop-in for the executor protocol (``harness.sweep_traces`` takes
    it via ``executor=``).

    Parameters
    ----------
    cache:
        The shared :class:`ResultCache` (or its directory).  Results,
        leases, and done markers all live under it; any host pointing a
        worker at the same directory joins the sweep.
    workers:
        Local worker processes to fork per run (0 = none; the
        coordinator still participates unless ``participate=False``).
    participate:
        Whether the coordinator itself executes batches.  With
        ``participate=False`` and external workers only, the
        coordinator still steals expired leases while waiting, so a
        crashed external worker cannot wedge the run.
    batch_size:
        Tasks per lease; default ~4 batches per active worker.
    ttl_s / poll_s:
        Lease expiry and idle-scan cadence.
    timeout_s:
        Hard cap on one ``run()`` call; None = wait forever.
    """

    def __init__(self, cache: ResultCache | str | os.PathLike,
                 workers: int = 0, *, participate: bool = True,
                 batch_size: int | None = None,
                 ttl_s: float = DEFAULT_TTL_S,
                 poll_s: float = DEFAULT_POLL_S,
                 timeout_s: float | None = 600.0,
                 worker_id: str | None = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if workers == 0 and not participate:
            raise ValueError(
                "need at least one worker: workers >= 1 or participate")
        self.cache = (cache if isinstance(cache, ResultCache)
                      else ResultCache(cache))
        self.workers = workers
        self.participate = participate
        self.batch_size = batch_size
        self.ttl_s = ttl_s
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.worker_id = worker_id
        self.last_report: FabricReport | None = None

    # ------------------------------------------------------------------
    def _spawn_worker(self, run: FabricRun, index: int,
                      ) -> tuple[BaseProcess, pathlib.Path]:
        """One local worker, forked from this process, and its stderr
        file in the run directory: a pipe read only at join would block
        a worker that writes more than the pipe buffer until the run
        timed out."""
        worker_id = f"sub{index}-{os.getpid()}"
        log = run.run_dir / f"worker-{worker_id}.stderr"
        log.write_bytes(b"")
        proc = FORK.Process(target=_forked_worker, name=worker_id,
                            args=(run.cache_root, run.run_id, worker_id,
                                  self.ttl_s, self.poll_s, log))
        proc.start()
        return proc, log

    def run(self, tasks: Sequence[SweepTask]) -> list[Any]:
        """All task results in task order — bit-identical to
        :class:`~repro.runtime.executor.SerialExecutor` on the same
        tasks, however many workers (local, forked, or remote hosts)
        executed the batches."""
        tel = obs.default_telemetry()
        reg = tel.metrics
        tasks = list(tasks)
        if not tasks:
            return []
        t0 = time.time()
        active = self.workers + (1 if self.participate else 0)
        with tel.span("fabric.run", cat="fabric", tasks=len(tasks),
                      workers=active) as sp:
            run = publish_run(self.cache, tasks,
                              batch_size=self.batch_size,
                              expected_workers=active)
            sp.set(run=run.run_id, batches=len(run.batches))
            # Batches finished before this call (a resume): this call
            # only reads their results back.
            prior = frozenset(run.done_batches())
            reg.gauge("fabric.workers").set(active)
            procs = [self._spawn_worker(run, i)
                     for i in range(self.workers)]
            try:
                if self.participate:
                    work_run(run, worker_id=self.worker_id,
                             ttl_s=self.ttl_s, poll_s=self.poll_s,
                             timeout_s=self.timeout_s, cache=self.cache)
                else:
                    self._await_completion(run)
            finally:
                errs = []
                for proc, log in procs:
                    proc.join(self.ttl_s * 4)
                    if proc.exitcode is None:      # join timed out
                        proc.kill()
                        proc.join()
                    if proc.exitcode not in (0, -9):
                        errs.append(f"exit {proc.exitcode}, stderr in "
                                    f"{log}:\n{_tail(log)}")
                if errs and not run.complete():
                    raise RuntimeError(
                        "fabric worker process failed:\n"
                        + "\n".join(errs))
            results = self._reconcile(run)
        wall = time.time() - t0
        self.last_report = self._report(run, active, wall, prior)
        self._publish_report_metrics(self.last_report)
        reg.gauge("runtime.executor.last_run_s").set(wall)
        reg.histogram("runtime.executor.run.wall_s").observe(wall)
        reg.counter("runtime.executor.tasks").inc(len(tasks))
        return results

    # ------------------------------------------------------------------
    def _await_completion(self, run: FabricRun) -> None:
        """Non-participating wait: poll for completion, stealing
        expired leases so crashed workers cannot wedge the run."""
        start = time.time()
        while not run.complete():
            for b in range(len(run.batches)):
                if run.done_path(b).exists():
                    continue
                lease = None
                # Only steal: claim solely when an expired lease was
                # cleared, so a healthy external worker keeps its work.
                if _clear_expired(run.lease_path(b), self.ttl_s):
                    lease = _try_claim(run, b, self.worker_id
                                       or f"coord-{os.getpid()}",
                                       self.ttl_s)
                if lease is not None:
                    _execute_batch(run, lease, self.cache)
            if self.timeout_s is not None \
                    and time.time() - start > self.timeout_s:
                raise TimeoutError(
                    f"fabric run {run.run_id} incomplete after "
                    f"{self.timeout_s:.0f}s: "
                    f"{len(run.done_batches())}/{len(run.batches)} "
                    "batches done")
            time.sleep(self.poll_s)

    def _reconcile(self, run: FabricRun) -> list[Any]:
        """Order-preserving result assembly from the cache.  A result
        missing despite its done marker (corrupt entry deleted by the
        cache layer) is recomputed locally and counted as a retry."""
        tel = obs.default_telemetry()
        reg = tel.metrics
        with tel.span("fabric.reconcile", cat="fabric",
                      tasks=len(run.tasks)):
            results: list[Any] = []
            for task in run.tasks:
                token = task.cache_token()
                value = self.cache.get(token)
                if value is None:
                    value = run_task(task)
                    self.cache.put(token, value)
                    reg.counter("fabric.tasks.retried").inc()
                results.append(value)
        return results

    # ------------------------------------------------------------------
    def _report(self, run: FabricRun, workers: int, wall_s: float,
                prior: frozenset[int]) -> FabricReport:
        by_worker: dict[str, int] = {}
        busy: dict[str, float] = {}
        stolen = computed = served = ntasks = 0
        for b in range(len(run.batches)):
            try:
                marker = json.loads(run.done_path(b).read_text())
            except (OSError, ValueError):  # pragma: no cover
                continue
            who = marker.get("worker", "unknown")
            by_worker[who] = by_worker.get(who, 0) + 1
            busy[who] = busy.get(who, 0.0) + marker.get("wall_s", 0.0)
            stolen += marker.get("stolen_from") is not None
            if b in prior:
                served += marker.get("tasks", 0)
            else:
                computed += marker.get("computed", 0)
                served += marker.get("cache_served", 0)
            ntasks += marker.get("tasks", 0)
        return FabricReport(run_id=run.run_id, workers=workers,
                            batches=len(run.batches), tasks=ntasks,
                            stolen=stolen, tasks_computed=computed,
                            tasks_cache_served=served,
                            by_worker=by_worker, busy_s=busy,
                            wall_s=wall_s)

    def _publish_report_metrics(self, report: FabricReport) -> None:
        reg = obs.default_telemetry().metrics
        reg.counter("fabric.runs").inc()
        reg.gauge("fabric.last.batches").set(report.batches)
        reg.gauge("fabric.last.stolen").set(report.stolen)
        reg.gauge("fabric.last.tasks_computed").set(report.tasks_computed)
        reg.gauge("fabric.last.tasks_cache_served").set(
            report.tasks_cache_served)
        for who, busy_s in report.busy_s.items():
            reg.gauge(f"fabric.worker.{who}.busy_s").set(busy_s)
            if report.wall_s > 0:
                reg.gauge(f"fabric.worker.{who}.utilization").set(
                    min(1.0, busy_s / report.wall_s))


# ----------------------------------------------------------------------
# Worker entry point: python -m repro.runtime.fabric


def _discover_runs(cache_root: pathlib.Path) -> list[str]:
    fabric_root = cache_root / "fabric"
    if not fabric_root.is_dir():
        return []
    return sorted(p.parent.name
                  for p in fabric_root.glob("*/manifest.json"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fabric sweep worker: lease and execute batches of "
                    "published runs under a shared cache directory.")
    parser.add_argument("--cache", required=True, metavar="DIR",
                        help="shared ResultCache directory")
    parser.add_argument("--run", default=None, metavar="ID",
                        help="run id to serve (default: every "
                             "published run under the cache)")
    parser.add_argument("--ttl", type=float, default=DEFAULT_TTL_S,
                        metavar="S", help="lease TTL seconds")
    parser.add_argument("--poll", type=float, default=DEFAULT_POLL_S,
                        metavar="S", help="idle poll seconds")
    parser.add_argument("--worker-id", default=None, metavar="NAME",
                        help="stable worker name (default host-pid)")
    parser.add_argument("--wait-s", type=float, default=10.0, metavar="S",
                        help="how long to wait for a --run manifest (or, "
                             "without --run, for any published run) to "
                             "appear before giving up")
    parser.add_argument("--no-linger", action="store_true",
                        help="exit when nothing is claimable instead of "
                             "polling for expired leases until the run "
                             "completes")
    args = parser.parse_args(argv)

    cache_root = pathlib.Path(args.cache)
    if args.run is not None:
        deadline = time.time() + args.wait_s
        while not (cache_root / "fabric" / args.run
                   / "manifest.json").exists():
            if time.time() > deadline:
                print(f"ERROR: run {args.run} not published under "
                      f"{cache_root}", file=sys.stderr)
                return 1
            time.sleep(min(0.05, args.poll))
        run_ids = [args.run]
    else:
        deadline = time.time() + args.wait_s
        while not (run_ids := _discover_runs(cache_root)):
            if time.time() > deadline:
                print(f"no published runs under {cache_root}/fabric "
                      f"after {args.wait_s:.0f}s")
                return 0
            time.sleep(max(0.05, args.poll))

    fp = code_fingerprint()
    total = 0
    for run_id in run_ids:
        run = load_run(cache_root, run_id)
        if run.fingerprint != fp:
            print(f"skipping run {run_id}: published for fingerprint "
                  f"{run.fingerprint[:16]}, this tree is {fp[:16]}")
            continue
        done = work_run(run, worker_id=args.worker_id, ttl_s=args.ttl,
                        poll_s=args.poll, linger=not args.no_linger)
        total += done
        print(f"run {run_id}: completed {done}/{len(run.batches)} "
              "batches")
    print(f"worker done: {total} batches across {len(run_ids)} run(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
