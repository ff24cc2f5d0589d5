"""The table of implementations: every ``(op, label)`` stated once.

The paper's evaluation (Section 9) is one comparison — COnfLUX/COnfCHOX
against MKL, SLATE, CANDMC and CAPITAL — and this module is the one
place that says which engine schedule, with which pinned constructor
arguments, each of those labels *is*.  The sweep harness, the planner,
the pd* entry points and the one-call functions all look labels up
here (:func:`build`); outside :mod:`repro.factorizations` nothing calls
a schedule constructor (``tests/test_import_hygiene.py`` holds the
tree to that).  Adding or re-flavouring an implementation is one row.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from ..engine.schedule import Schedule
from .baselines.candmc import CandmcSchedule
from .baselines.capital import CapitalSchedule
from .baselines.scalapack_chol import ScalapackCholeskySchedule
from .baselines.scalapack_lu import ScalapackLUSchedule
from .common import FactorizationResult
from .confchox import ConfchoxSchedule
from .conflux import ConfluxSchedule
from .matmul25d import Matmul25DSchedule

__all__ = ["Op", "Impl", "OPS", "IMPLS", "labels", "implementation",
           "build", "width"]


@dataclasses.dataclass(frozen=True)
class Op:
    """What every implementation of one problem kind shares.

    ``arity`` is the operand count of a pd* call; ``flops(n, p)`` the
    leading flops per rank the planner's time estimate uses;
    ``packed(result)`` the single matrix a pd* call writes back.
    """

    arity: int
    flops: Callable[[int, int], float]
    packed: Callable[[FactorizationResult], np.ndarray]


OPS: dict[str, Op] = {
    "lu": Op(1, lambda n, p: 2.0 * n ** 3 / (3.0 * p),
             lambda res: np.tril(res.lower, -1) + res.upper),
    "cholesky": Op(1, lambda n, p: n ** 3 / (3.0 * p),
                   lambda res: res.lower),
    "gemm": Op(2, lambda n, p: 2.0 * n ** 3 / p,
               lambda res: res.lower),
}


@dataclasses.dataclass(frozen=True)
class Impl:
    """One labelled implementation: ``cls(n, p, **pinned, **params)``.

    ``params`` names the constructor arguments a caller may tune —
    first the block width (tile ``v``, panel ``nb``/``b``, strip ``s``:
    the schedule attribute reported as the run's width and, for the
    factorizations, the native layout's blocking), then the replication
    depth ``c`` where the schedule has one.  ``pinned`` are the
    arguments the label fixes.
    """

    cls: type[Schedule]
    params: tuple[str, ...]
    pinned: dict[str, Any] = dataclasses.field(default_factory=dict)


#: ``"scalapack"`` is the label the planner and the pd* entry points
#: use for the 2D baselines; the pd* 2D LU route runs without MKL's
#: panel rebroadcast, so that is the model it names.
IMPLS: dict[tuple[str, str], Impl] = {
    ("lu", "conflux"): Impl(ConfluxSchedule, ("v", "c")),
    ("lu", "scalapack"): Impl(ScalapackLUSchedule, ("nb",),
                              {"panel_rebroadcast": False}),
    ("lu", "mkl"): Impl(ScalapackLUSchedule, ("nb",)),
    ("lu", "slate"): Impl(ScalapackLUSchedule, ("nb",),
                          {"panel_rebroadcast": False, "name": "slate"}),
    ("lu", "candmc"): Impl(CandmcSchedule, ("b", "c")),
    ("cholesky", "confchox"): Impl(ConfchoxSchedule, ("v", "c")),
    ("cholesky", "scalapack"): Impl(ScalapackCholeskySchedule, ("nb",)),
    ("cholesky", "mkl-chol"): Impl(ScalapackCholeskySchedule, ("nb",)),
    ("cholesky", "slate-chol"): Impl(ScalapackCholeskySchedule, ("nb",),
                                     {"name": "slate-chol"}),
    ("cholesky", "capital"): Impl(CapitalSchedule, ("b", "c")),
    ("gemm", "25d"): Impl(Matmul25DSchedule, ("s", "c")),
}


def labels(op: str) -> tuple[str, ...]:
    """Every implementation label of ``op``, in table order."""
    return tuple(label for o, label in IMPLS if o == op)


def implementation(op: str, label: str) -> Impl:
    """The table row of ``(op, label)``; ``ValueError`` naming the
    valid choices otherwise."""
    if op not in OPS:
        raise ValueError(f"unknown op {op!r}; have {', '.join(sorted(OPS))}")
    impl = IMPLS.get((op, label))
    if impl is None:
        raise ValueError(f"unknown {op} implementation {label!r}; have "
                         f"{', '.join(labels(op))}")
    return impl


def build(op: str, label: str, n: int, p: int, **params: Any) -> Schedule:
    """Instantiate the schedule ``(op, label)`` names for an ``n x n``
    problem on ``p`` ranks; ``params`` are constructor arguments on top
    of the label's pinned ones (omitted: the schedule's own default)."""
    impl = implementation(op, label)
    return impl.cls(n, p, **impl.pinned, **params)


_WIDTH = {impl.cls: impl.params[0] for impl in IMPLS.values()}


def width(schedule: Schedule) -> int:
    """The block width ``schedule`` runs with: the attribute its table
    rows name first."""
    return getattr(schedule, _WIDTH[type(schedule)])
