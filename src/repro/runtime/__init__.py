"""Parallel sweep runtime: executors + content-addressed result cache.

The execution side of the planner/runtime subsystem: independent
``(impl, N, P)`` sweep tasks fan out over a process pool — or, through
the work-stealing fabric (:mod:`repro.runtime.fabric`), over any
number of worker processes and hosts sharing one cache directory —
with deterministic result ordering, and an on-disk cache keyed by
(task, code fingerprint) makes sweeps resumable and never recomputes a
trace the current code has already produced.
``analysis.harness.sweep_traces`` accepts any of these executors via
``executor=``.
"""

from .cache import ResultCache, code_fingerprint
from .executor import (
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepTask,
    default_workers,
    run_task,
)
from .fabric import DistributedSweepExecutor, FabricReport, publish_run

__all__ = [
    "ResultCache", "code_fingerprint",
    "SweepTask", "SerialExecutor", "ProcessPoolSweepExecutor",
    "DistributedSweepExecutor", "FabricReport", "publish_run",
    "run_task", "default_workers",
]
