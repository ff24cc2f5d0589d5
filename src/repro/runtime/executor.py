"""Sweep executors: serial and multiprocessing, cache-aware.

The ``perf/`` sweeps evaluate grids of
independent ``(impl, N, P)`` trace tasks.  This module gives that loop
a pluggable execution strategy:

* :class:`SerialExecutor` — in-process, same order as the plain loop;
* :class:`ProcessPoolSweepExecutor` — a ``ProcessPoolExecutor`` fan-out
  with chunked task batches.  ``Executor.map`` preserves submission
  order, so results are deterministic and the sweep checksum is
  *bit-identical* to the serial path (same tasks, same per-task NumPy
  arithmetic, same float summation order downstream).

Both honour an optional :class:`~repro.runtime.cache.ResultCache`:
cached tasks are served without dispatch, fresh results are written
through *as they arrive* — an interrupted sweep resumes from what
finished.

Tasks are declarative (:class:`SweepTask`), not closures, so they
pickle cheaply and carry a stable ``cache_token``.  The worker function
resolves the actual computation by name at execution time, importing
inside the worker to keep module import cycles out of the package
graph.

Telemetry: every run records wall time and task counts in the
always-on metrics registry (``runtime.executor.*`` — ``make trace``
exports them in its metrics snapshot).  With spans enabled, each
task gets a ``sweep.task`` span; pool workers run under a *fresh*
telemetry (the fork start method would otherwise hand children the
parent's span buffer) and ship their spans home inside the result,
where :meth:`~repro.obs.core.Telemetry.adopt` re-bases them onto the
parent timeline.  The pool also reports chunk queue latency and worker
utilization.  When spans are *disabled* the pool dispatches the plain
``run_task`` — identical pickling and execution to the untraced path,
preserving the bit-identical-checksum contract.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

from .. import obs
from .cache import ResultCache

__all__ = ["SweepTask", "SerialExecutor", "ProcessPoolSweepExecutor",
           "run_task", "default_workers"]

#: The start method of every local worker, pool child and fabric
#: worker alike: a forked child inherits the imported package instead
#: of paying ``import repro`` again (the forkserver and spawn defaults
#: of other platforms and Python versions would).
FORK = multiprocessing.get_context("fork")


@dataclasses.dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work, picklable and content-addressable.

    ``kind`` selects the computation (``"lu"`` / ``"cholesky"`` trace a
    harness implementation; ``"case"`` batch-traces one (N, P) point's
    whole flavour set; ``"workload"`` jointly plans — and with
    ``execute=True`` runs — the DFT workload chain at one (N, P)
    point); ``impl`` names the implementation within the kind
    (``"all"`` for the per-point kinds); ``extra`` carries any further
    keyword parameters as a sorted tuple of pairs.
    """

    kind: str
    impl: str
    n: int
    p: int
    extra: tuple[tuple[str, Any], ...] = ()

    def cache_token(self) -> str:
        ex = ",".join(f"{k}={v!r}" for k, v in self.extra)
        return f"{self.kind}:{self.impl}:n={self.n}:p={self.p}:{ex}"


def run_task(task: SweepTask) -> Any:
    """Execute one task (also the process-pool worker entry point)."""
    from ..analysis import harness

    kw = dict(task.extra)
    if task.kind == "lu":
        return harness.trace_lu(task.impl, task.n, task.p, **kw)
    if task.kind == "cholesky":
        return harness.trace_cholesky(task.impl, task.n, task.p, **kw)
    if task.kind == "case":
        return harness.trace_case(task.n, task.p, **kw)
    if task.kind == "workload":
        return harness.workload_case(task.n, task.p, **kw)
    raise ValueError(f"unknown sweep task kind {task.kind!r}")


@dataclasses.dataclass
class _TracedResult:
    """A pool result plus the worker spans that produced it.

    ``epoch_wall``/``epoch_clock`` are the worker telemetry's paired
    epochs; ``start_wall``/``end_wall`` bracket the task on the wall
    clock (shared across processes), which is what queue-latency and
    utilization are computed from in the parent.
    """

    value: Any
    spans: tuple
    epoch_wall: float
    epoch_clock: float
    start_wall: float
    end_wall: float


def _run_task_traced(item: tuple[SweepTask, float]) -> _TracedResult:
    """Pool worker entry for traced runs: execute under a fresh,
    enabled telemetry and ship the spans home with the result."""
    task, _submit_wall = item
    tel = obs.Telemetry()
    previous = obs.set_default_telemetry(tel)
    tel.enable()
    start_wall = time.time()
    try:
        with tel.span("sweep.task", cat="executor", kind=task.kind,
                      impl=task.impl, n=task.n, p=task.p):
            value = run_task(task)
    finally:
        obs.set_default_telemetry(previous)
    return _TracedResult(value=value, spans=tel.spans(),
                         epoch_wall=tel.epoch_wall,
                         epoch_clock=tel.epoch_clock,
                         start_wall=start_wall, end_wall=time.time())


def default_workers() -> int:
    """Worker count for the pool: the cores this process may use.

    The CPU affinity mask, then ``os.cpu_count()``, which may
    legitimately return None (rare platforms, restricted containers) —
    that degrades to 1, not a crash.  Callers that need a fixed width
    pass ``max_workers=``.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class SerialExecutor:
    """The plain loop, cache-aware — the reference execution order."""

    def __init__(self, cache: ResultCache | None = None) -> None:
        self.cache = cache

    def _compute(self, tasks: Sequence[SweepTask]):
        tel = obs.default_telemetry()
        for t in tasks:
            with tel.span("sweep.task", cat="executor", kind=t.kind,
                          impl=t.impl, n=t.n, p=t.p):
                yield run_task(t)

    def run(self, tasks: Sequence[SweepTask]) -> list[Any]:
        """All task results, in task order.

        Cache hits are served without dispatch; misses are computed
        (serially or on the pool) and written through one by one, so an
        interrupted sweep keeps every finished result.
        """
        tel = obs.default_telemetry()
        reg = tel.metrics
        t0 = tel.clock()
        tasks = list(tasks)
        with tel.span("sweep.run", cat="executor",
                      executor=type(self).__name__, tasks=len(tasks)):
            results: list[Any] = [None] * len(tasks)
            miss_idx = []
            if self.cache is None:
                miss_idx = list(range(len(tasks)))
            else:
                for i, t in enumerate(tasks):
                    hit = self.cache.get(t.cache_token())
                    if hit is None:
                        miss_idx.append(i)
                    else:
                        results[i] = hit
            missing = [tasks[i] for i in miss_idx]
            for i, value in zip(miss_idx, self._compute(missing)):
                results[i] = value
                if self.cache is not None:
                    self.cache.put(tasks[i].cache_token(), value)
        wall = tel.clock() - t0
        reg.gauge("runtime.executor.last_run_s").set(wall)
        reg.histogram("runtime.executor.run.wall_s").observe(wall)
        reg.counter("runtime.executor.tasks").inc(len(tasks))
        reg.counter("runtime.executor.cache_served").inc(
            len(tasks) - len(miss_idx))
        return results


class ProcessPoolSweepExecutor(SerialExecutor):
    """Multiprocessing fan-out over the sweep's independent tasks.

    The pool is **persistent**: lazily created on the first
    :meth:`run` and reused by every subsequent one, so repeated small
    sweeps pay the worker spawn/import cost once instead of per call
    (the ``perf/`` ledger records the warm-vs-cold win as
    ``executor.pool_warm_s`` against ``executor.pool_cold_s``).
    Release it with :meth:`close` or use the executor as a context
    manager; an unclosed pool is reaped at interpreter exit like any
    ``ProcessPoolExecutor``.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to :func:`default_workers`.
    chunksize:
        Tasks per dispatched batch; defaults to spreading the task list
        over ~4 batches per worker (amortizes IPC without starving the
        tail).
    cache:
        Optional write-through :class:`ResultCache`.
    """

    def __init__(self, max_workers: int | None = None,
                 chunksize: int | None = None,
                 cache: ResultCache | None = None) -> None:
        super().__init__(cache=cache)
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or default_workers()
        self.chunksize = chunksize
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=FORK)
            obs.default_telemetry().metrics.counter(
                "runtime.executor.pool.created").inc()
        return self._pool

    def close(self) -> None:
        """Shut the persistent pool down (idempotent); the next
        :meth:`run` would lazily create a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ProcessPoolSweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _compute(self, tasks: Sequence[SweepTask]):
        if not tasks:
            return
        tel = obs.default_telemetry()
        workers = min(self.max_workers, len(tasks))
        chunk = self.chunksize or max(
            1, math.ceil(len(tasks) / (workers * 4)))
        pool = self._ensure_pool()
        if not tel.enabled:
            # Untraced path: dispatch run_task directly — identical
            # pickling and execution order to the pre-telemetry
            # executor, so the sweep checksum stays bit-identical.
            yield from pool.map(run_task, tasks, chunksize=chunk)
            return
        submit_wall = time.time()
        busy_s = 0.0
        items = [(t, submit_wall) for t in tasks]
        for res in pool.map(_run_task_traced, items, chunksize=chunk):
            tel.adopt(res.spans, res.epoch_wall, res.epoch_clock)
            tel.metrics.histogram(
                "runtime.executor.pool.queue_latency_s").observe(
                    max(0.0, res.start_wall - submit_wall))
            busy_s += res.end_wall - res.start_wall
            yield res.value
        pool_wall = time.time() - submit_wall
        if pool_wall > 0.0:
            tel.metrics.gauge(
                "runtime.executor.pool.utilization").set(
                    min(1.0, busy_s / (workers * pool_wall)))
