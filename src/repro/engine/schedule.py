"""The schedule side of the execution engine.

A :class:`Schedule` is one algorithm's *what happens at step t*: the
11 sub-steps of COnfLUX's Algorithm 1, the ScaLAPACK right-looking
loops, the SUMMA rounds.  It owns the problem parameters (``N``, ``P``,
tile size, replication depth, processor grid) and exposes the same step
sequence through three views, one per backend:

* :meth:`accounting` — the analytic per-rank cost of every step,
  declared as cost terms through
  :class:`~repro.engine.accounting.StepAccounting` (reduced by
  :func:`repro.analysis.harness.trace` and, for the counters, by
  ``DenseBackend``);
* :meth:`dense_init` / :meth:`dense_step` / :meth:`dense_finalize` —
  global-view NumPy execution producing verifiable factors (optional:
  the cost-model baselines have none);
* :meth:`dist_init` / :meth:`dist_step` / :meth:`dist_finalize` —
  message-passing execution on a :class:`~repro.machine.comm.Machine`,
  where every operand a rank touches arrived through a counted
  collective (optional; :attr:`supports_distributed` says whether a
  schedule implements it).

Backends in :mod:`repro.engine.backends` drive these views; schedules
never count communication themselves in distributed mode — the
:class:`Machine` does.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from ..machine.comm import Machine
from ..machine.grid import ProcessorGrid3D
from ..machine.stats import CommStats
from .accounting import StepAccounting, TermBatch

__all__ = ["Schedule"]


class Schedule(abc.ABC):
    """One factorization/multiplication problem instance, backend-agnostic.

    Concrete schedules set ``name``, ``n``, ``nranks``, ``mem_words``
    and ``grid`` in their constructor and implement the step views.
    """

    name: str
    n: int
    nranks: int
    mem_words: float
    grid: ProcessorGrid3D

    supports_distributed: bool = False

    # ------------------------------------------------------------------
    # Step structure
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def steps(self) -> int:
        """Number of supersteps."""

    def required_words(self) -> float:
        """Per-rank fast-memory capacity sufficient for the distributed
        view: a closed form in the schedule's parameters.

        This is the checkable side of the paper's ``M``-words model
        parameter: ``mem_words`` is the *model* memory (e.g. the 2.5D
        replication footprint ``c N^2 / P``) that the lower bounds are
        stated in, while ``required_words`` additionally covers the
        schedule's transient working set (panel copies, broadcast
        buffers, 1D chunks), so a machine built with this capacity and
        ``enforce_memory=True`` is guaranteed to complete the run.  The
        memory-enforcement test suite pins the bound: every schedule
        must run green under it, and its per-rank peaks must stay at or
        below it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares no memory requirement")

    def step_label(self, t: int) -> str:
        return f"t={t}"

    def params(self) -> dict[str, Any]:
        """Algorithm parameters recorded on the result."""
        return {}

    # ------------------------------------------------------------------
    # Trace view (declarative cost terms)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def accounting(self, acct: StepAccounting) -> None:
        """Emit the schedule's cost terms (called once per evaluation).

        Declare every analytic per-step cost through the term IR of
        :class:`~repro.engine.accounting.StepAccounting` — coefficient
        times integer step profile, gated by cyclic coordinate masks
        and cyclic-ownership factors.  No per-step state: the emitted
        terms describe *all* steps at once and are reduced in closed
        form by :class:`~repro.engine.accounting.TermBatch`.
        """

    def trace_stats(self, steps: str = "columnar") -> CommStats:
        """Evaluate the accounting into a fresh :class:`CommStats`.

        A :class:`~repro.engine.accounting.TermBatch` of one: totals
        reduce analytically per rank, and ``steps`` selects the step-log
        flavour derived alongside (``"none"`` / ``"columnar"``).
        """
        batch = TermBatch()
        batch.add(self)
        return batch.evaluate(steps)[0]

    # ------------------------------------------------------------------
    # Dense view (global NumPy arrays)
    # ------------------------------------------------------------------
    def dense_init(self, a: np.ndarray | None,
                   rng: np.random.Generator | None) -> Any:
        """Build the dense execution state (generating inputs if needed)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no dense execution")

    def dense_step(self, state: Any, t: int) -> None:
        """Execute step ``t`` on the global-view state."""
        raise NotImplementedError(
            f"{type(self).__name__} has no dense execution")

    def dense_finalize(self, state: Any) -> dict[str, Any]:
        """Numeric outputs: ``lower`` / ``upper`` / ``perm`` (as applicable)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no dense execution")

    # ------------------------------------------------------------------
    # Distributed view (per-rank stores, counted communication)
    # ------------------------------------------------------------------
    def dist_init(self, machine: Machine, a: np.ndarray | None,
                  rng: np.random.Generator | None,
                  in_name: str | tuple[str, str] | None = None) -> Any:
        raise NotImplementedError(
            f"{type(self).__name__} has no distributed execution")

    def dist_step(self, machine: Machine, state: Any, t: int) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} has no distributed execution")

    def dist_finalize(self, machine: Machine, state: Any) -> dict[str, Any]:
        raise NotImplementedError(
            f"{type(self).__name__} has no distributed execution")
