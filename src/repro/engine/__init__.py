"""Execution engine: algorithm schedules + pluggable backends.

See ``ARCHITECTURE.md`` at the repo root for the layer diagram.  In
short: a :class:`~repro.engine.schedule.Schedule` describes *what
happens at step t* of an algorithm; a backend decides *how* the steps
run — through counted :class:`~repro.machine.comm.Machine`
communication on per-rank stores (:class:`DistributedBackend`, what
the pd* entry points and the one-call functions run), or on global
NumPy arrays (:class:`DenseBackend`, the benchmark's machine-free
reference).  Counters alone come from
:func:`repro.analysis.harness.trace`.
"""

from .accounting import StepAccounting
from .backends import (
    DenseBackend,
    DistributedBackend,
    MemoryReport,
    machine_for,
)
from .schedule import Schedule

__all__ = [
    "Schedule",
    "StepAccounting",
    "DenseBackend",
    "DistributedBackend",
    "MemoryReport",
    "machine_for",
]
