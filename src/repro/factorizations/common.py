"""Shared result type, parameter policies and input defaults of the
factorization schedules.

Every algorithm is an engine schedule (see ``ARCHITECTURE.md``) whose
trace and distributed runs both produce a
:class:`FactorizationResult`: per-rank counters plus (outside a trace)
verifiable factors.  :func:`resolve_25d` is the one statement of
the 2.5D default policy, :func:`default_input` the one default-matrix
generator, and :func:`run_impl` the body of every one-call function.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..engine.backends import DistributedBackend
from ..machine.grid import (
    ProcessorGrid3D,
    choose_grid_25d,
    replication_factor,
)
from ..machine.stats import ColumnarStepLog, CommStats, NullStepLog

__all__ = ["FactorizationResult", "validate_problem", "resolve_25d",
           "default_input", "run_impl"]


def validate_problem(n: int, v: int, nranks: int) -> None:
    """Common parameter validation: positive sizes, tiles divide N."""
    if n <= 0 or v <= 0 or nranks <= 0:
        raise ValueError(f"need positive N={n}, v={v}, P={nranks}")
    if n % v != 0:
        raise ValueError(f"tile size v={v} must divide N={n}")


def resolve_25d(n: int, nranks: int, c: int | None,
                mem_words: float | None,
                grid: ProcessorGrid3D | None = None,
                copies: int = 1) -> tuple[int, float, ProcessorGrid3D]:
    """The 2.5D default policy, shared by every replicated schedule.

    Returns ``(c, mem_words, grid)``: ``c ~ P^(1/3)`` (clamped to a
    divisor of ``P``) when nothing is given, else the depth the budget
    allows; the as-square-as-possible ``[Pr, Pc, c]`` grid; and
    ``M = copies * c N^2 / P`` for one replica of each of the
    schedule's ``copies`` operands per layer (1 for the factorizations,
    3 for the matmul's A/B/C).
    """
    if mem_words is None and c is None:
        c = max(1, int(round(nranks ** (1.0 / 3.0))))
        while nranks % c != 0:
            c -= 1
    if c is None:
        c = replication_factor(nranks, n, mem_words)
    if mem_words is None:
        mem_words = copies * c * float(n) * n / nranks
    if grid is None:
        grid = choose_grid_25d(nranks, n, mem_words, c=c)
    if grid.layers != c or grid.size != nranks:
        raise ValueError(f"grid {grid} inconsistent with P={nranks}, c={c}")
    return c, float(mem_words), grid


def default_input(n: int, a: np.ndarray | None,
                  rng: np.random.Generator | None,
                  spd: bool = False) -> np.ndarray:
    """The matrix to factor: ``a`` validated (float64, ``N x N``,
    finite, symmetric when ``spd``), or a random well-conditioned
    default.  A NaN or infinite entry is refused by position, the first
    in row-major order."""
    if a is None:
        rng = rng or np.random.default_rng(0)
        g = rng.standard_normal((n, n))
        a = (g @ g.T if spd else g) + n * np.eye(n)
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} != ({n},{n})")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValueError(f"input entry ({i}, {j}) is {a[i, j]}; "
                         "the matrix must be finite")
    if spd and not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("input must be symmetric")
    return a


@dataclasses.dataclass
class FactorizationResult:
    """Outcome of one factorization run.

    ``comm`` holds the per-rank counters; ``max_recv_words`` is the
    communicated-elements-per-processor metric of the paper's figures.
    Numeric outputs (``lower``, ``upper``, ``perm``) are None on a
    trace (:func:`repro.analysis.harness.trace`).
    """

    name: str
    n: int
    nranks: int
    mem_words: float
    comm: CommStats
    params: dict[str, Any]
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    perm: np.ndarray | None = None

    @property
    def max_recv_words(self) -> float:
        return self.comm.max_recv_words

    @property
    def mean_recv_words(self) -> float:
        return self.comm.mean_recv_words

    @property
    def total_flops(self) -> float:
        return self.comm.total_flops

    @property
    def step_log(self) -> ColumnarStepLog | NullStepLog:
        return self.comm.steps

    def reconstruct(self) -> np.ndarray:
        """``L @ U`` (or ``L @ L.T`` for Cholesky) — execution mode only."""
        if self.lower is None:
            raise ValueError("trace-mode result has no factors")
        if self.upper is not None:
            return self.lower @ self.upper
        return self.lower @ self.lower.T


def run_impl(op: str, label: str, n: int, nranks: int,
             a: np.ndarray | tuple | None = None,
             rng: np.random.Generator | None = None,
             **params: Any) -> FactorizationResult:
    """Build ``(op, label)`` from the implementation table and run it on
    a fresh, unbounded machine — what every one-call function
    (``conflux_lu``, ``slate_lu`` ...) is: the pd* entry points'
    execution, with counted words and the same factors."""
    # Deferred: the table imports the schedule modules, which import
    # this one.
    from .registry import build

    return DistributedBackend().run(build(op, label, n, nranks, **params),
                                    a=a, rng=rng)
