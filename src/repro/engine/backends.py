"""Execution backends: one schedule, two ways to run it.

* :class:`DenseBackend` — the analytic accounting plus global-view
  NumPy execution of every step, producing verifiable factors: counters
  are analytic, numerics are real.  What every one-call function
  (``conflux_lu``, ``slate_lu`` ...) runs.
* :class:`DistributedBackend` — message-passing execution on a
  :class:`~repro.machine.comm.Machine`: operands live in per-rank
  stores and move only through counted communication, so received-word
  counts come from actual data movement rather than formulas.  The
  parity tests check the two agree.

Counters without numerics — any problem scale — are
:func:`repro.analysis.harness.trace`: the accounting alone, reduced in
closed form (see :mod:`repro.engine.accounting`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING

import numpy as np

from .. import obs
from ..machine.comm import Machine
from ..machine.stats import CommStats
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover
    from ..factorizations.common import FactorizationResult

__all__ = ["DenseBackend", "DistributedBackend", "MemoryReport",
           "machine_for"]


def machine_for(schedule: Schedule, enforce_memory: bool = True,
                slack: float = 1.0) -> Machine:
    """A machine sized to the schedule's declared memory need.

    The budget is ``slack * schedule.required_words()`` — the paper's
    per-processor ``M`` with the schedule's transient working set
    accounted for — and ``enforce_memory=True`` (the default) makes the
    stores raise :class:`~repro.machine.exceptions.MemoryBudgetExceeded`
    on any overflow, turning the M-words constraint into a runtime
    invariant.
    """
    if slack <= 0:
        raise ValueError("slack must be positive")
    return Machine(schedule.nranks,
                   mem_words=slack * schedule.required_words(),
                   enforce_memory=enforce_memory)


@dataclasses.dataclass(frozen=True)
class MemoryReport:
    """Per-rank memory behaviour of one distributed run vs the budget.

    ``peak_words`` are run-wide high-water marks (transient peaks
    included — every ``put`` updates them, not just the at-rest state
    between steps); ``step_peaks`` holds the max-over-ranks transient
    peak of each superstep, so the step that drove the high-water mark
    is identifiable.
    """

    budget_words: float
    enforced: bool
    peak_words: np.ndarray
    resident_words: np.ndarray
    step_peaks: tuple[tuple[str, float], ...]

    @property
    def max_peak_words(self) -> float:
        return float(self.peak_words.max())

    @property
    def within_budget(self) -> bool:
        return bool(self.max_peak_words <= self.budget_words)

    @property
    def utilization(self) -> float:
        """Fraction of the budget the fullest rank touched (``nan``
        for an unbounded machine)."""
        if math.isinf(self.budget_words):
            return float("nan")
        return self.max_peak_words / self.budget_words

    def peak_step(self) -> tuple[str, float]:
        """The superstep with the largest transient peak."""
        if not self.step_peaks:
            return ("<init>", self.max_peak_words)
        return max(self.step_peaks, key=lambda lp: lp[1])

    def summary(self) -> str:
        label, peak = self.peak_step()
        budget = ("unbounded" if math.isinf(self.budget_words)
                  else f"{self.budget_words:.0f}")
        flag = "enforced" if self.enforced else "reported"
        return (f"memory: peak {self.max_peak_words:.0f} words "
                f"(rank {int(self.peak_words.argmax())}, "
                f"hottest step {label!r} at {peak:.0f}) vs "
                f"budget {budget} [{flag}]")


def _result_cls():
    # Deferred: factorizations.common is a client of the engine's
    # schedules, so importing it at module load would be circular.
    from ..factorizations.common import FactorizationResult
    return FactorizationResult


class DenseBackend:
    """Global-view NumPy execution with analytic per-rank accounting."""

    def run(self, schedule: Schedule, a: np.ndarray | None = None,
            rng: np.random.Generator | None = None) -> "FactorizationResult":
        stats = schedule.trace_stats()
        state = schedule.dense_init(a, rng)
        for t in range(schedule.steps()):
            schedule.dense_step(state, t)
        outputs = schedule.dense_finalize(state)
        return _result_cls()(
            schedule.name, schedule.n, schedule.nranks, schedule.mem_words,
            stats, schedule.params(), **outputs)


class DistributedBackend:
    """Message-passing execution on a simulated machine.

    Parameters
    ----------
    machine:
        The machine to run on; its stores must have (or will receive)
        the input tiles and its :class:`CommStats` counts every word the
        schedule moves.  If None, a fresh machine with
        ``schedule.nranks`` ranks is created per run — unbounded by
        default, or budget-enforced at ``schedule.required_words()``
        when ``enforce_memory=True``.
    enforce_memory:
        Size the fresh machine to the schedule's declared budget and
        enforce it (see :func:`machine_for`).  Mutually exclusive with
        passing a ``machine`` — an explicit machine carries its own
        enforcement policy, and silently ignoring the flag would let a
        caller believe an unbounded machine is being checked.

    After a run, :meth:`memory_report` summarizes the per-rank memory
    high-water marks against the machine's budget.
    """

    def __init__(self, machine: Machine | None = None,
                 enforce_memory: bool = False) -> None:
        if machine is not None and enforce_memory:
            raise ValueError(
                "pass either a machine (with its own enforcement policy) "
                "or enforce_memory=True for an auto-sized one, not both")
        self.machine = machine
        self.enforce_memory = enforce_memory
        self._last_machine: Machine | None = None
        self._step_peaks: list[tuple[str, float]] = []

    def run(self, schedule: Schedule, a: np.ndarray | None = None,
            rng: np.random.Generator | None = None,
            in_name: str | tuple[str, str] | None = None,
            ) -> "FactorizationResult":
        """Run ``schedule`` through the machine's counted communication.

        ``in_name`` names already-resident input tiles for
        ``dist_init`` to adopt; multi-operand schedules (the 2.5D
        matmul) take one name per operand as a tuple.

        The returned result's ``comm`` holds only this run's counters
        (the machine's own stats keep accumulating, so a caller like
        :mod:`repro.api` sees the factorization traffic alongside its
        reshuffles).
        """
        if not schedule.supports_distributed:
            raise NotImplementedError(
                f"{type(schedule).__name__} has no distributed execution")
        machine = self.machine or (
            machine_for(schedule) if self.enforce_memory
            else Machine(schedule.nranks))
        if machine.nranks != schedule.nranks:
            raise ValueError(
                f"machine has {machine.nranks} ranks, schedule needs "
                f"{schedule.nranks}")
        self._last_machine = machine
        self._step_peaks = []
        run_stats = CommStats(schedule.nranks)
        before = _snapshot(machine.stats)
        tel = obs.default_telemetry()
        state = schedule.dist_init(machine, a, rng, in_name=in_name)
        for t in range(schedule.steps()):
            label = schedule.step_label(t)
            machine.begin_step(label)
            # Superstep spans reuse the schedule's own step labels, so
            # the trace's engine lane lines up with the step log.
            with tel.span(f"step:{label}", cat="engine", step=t):
                try:
                    schedule.dist_step(machine, state, t)
                finally:
                    self._step_peaks.append(
                        (label, float(max(s.step_peak_words
                                          for s in machine.stores))))
                    run_stats.steps.append(machine.end_step())
        outputs = schedule.dist_finalize(machine, state)
        _apply_delta(run_stats, machine.stats, before)
        return _result_cls()(
            schedule.name, schedule.n, schedule.nranks, schedule.mem_words,
            run_stats, schedule.params(), **outputs)

    def memory_report(self) -> MemoryReport:
        """Per-rank memory peaks of the last (possibly aborted) run.

        Available after :meth:`run` returns *or* raises
        :class:`~repro.machine.exceptions.MemoryBudgetExceeded` —
        the report of an aborted run shows how far execution got.
        """
        machine = self._last_machine
        if machine is None:
            raise RuntimeError("no distributed run has executed yet")
        return MemoryReport(
            budget_words=machine.mem_words,
            enforced=machine.enforces_memory,
            peak_words=machine.peak_words_per_rank(),
            resident_words=machine.words_per_rank(),
            step_peaks=tuple(self._step_peaks))


def _snapshot(stats: CommStats) -> tuple[np.ndarray, ...]:
    return (stats.recv_words.copy(), stats.recv_msgs.copy(),
            stats.flops.copy())


def _apply_delta(dst: CommStats, stats: CommStats,
                 before: tuple[np.ndarray, ...]) -> None:
    recv, msgs, flops = before
    dst.recv_words += stats.recv_words - recv
    dst.recv_msgs += stats.recv_msgs - msgs
    dst.flops += stats.flops - flops
