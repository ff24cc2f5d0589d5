"""Experiment harness: trace runners at the sweep's parameter defaults
and the text-table formatting the paper's artefacts print through.

The paper's evaluation space is (implementation, N, P) with the memory /
replication policy of Section 9: every run gets the maximum replication
``c = P^(1/3)`` (the experiments "allowed for the maximum number of
replications"), Piz Daint nodes hold two ranks, and configurations where
the input does not fit or every library lands below 3% of peak are
discarded.
"""

from __future__ import annotations

import dataclasses
import math

from ..engine.accounting import TermBatch
from ..engine.schedule import Schedule
from ..factorizations.common import FactorizationResult
from ..factorizations.registry import build, implementation, labels
from ..machine.perf_model import PIZ_DAINT_XC40, MachineParams, PerfModel
from ..planner.candidates import config_25d, panel_width_2d

__all__ = [
    "LU_IMPLEMENTATIONS", "CHOLESKY_IMPLEMENTATIONS",
    "NODE_MEM_WORDS", "RANKS_PER_NODE",
    "max_replication", "feasible",
    "trace", "trace_lu", "trace_cholesky", "trace_case", "sweep_traces",
    "sweep_tasks",
    "MemoryFeasibility", "memory_feasibility",
    "dft_workload_request", "workload_case",
    "estimate_time", "TimedRun", "format_table",
]

#: One Piz Daint XC40 node: 64 GiB, two ranks -> 32 GiB/rank in words.
NODE_MEM_WORDS = 32 * 2 ** 30 / 8
RANKS_PER_NODE = 2


def max_replication(p: int, n: int,
                    node_mem_words: float = NODE_MEM_WORDS) -> int:
    """Replication depth used in the paper's runs: the largest
    ``c <= P^(1/3)`` dividing ``P`` whose replicated footprint
    ``c N^2 / P`` fits in a rank's memory."""
    if p <= 0 or n <= 0:
        raise ValueError("p and n must be positive")
    c = int(round(p ** (1.0 / 3.0)))
    while c > 1 and (p % c != 0 or c * n * n / p > node_mem_words):
        c -= 1
    return max(1, c)


def feasible(n: int, p: int,
             node_mem_words: float = NODE_MEM_WORDS) -> bool:
    """The input fits: ``N^2 / P <= M`` (the grey cells of Figure 1)."""
    return n * n / p <= node_mem_words


#: The evaluation's implementations per kernel (Section 9), in the
#: order the figures list them: every table label but ``"scalapack"``,
#: the planner/pd* name of the 2D route.
LU_IMPLEMENTATIONS, CHOLESKY_IMPLEMENTATIONS = (
    tuple(name for name in labels(op) if name != "scalapack")
    for op in ("lu", "cholesky"))


def _sweep_schedule(op: str, name: str, n: int, p: int, c: int) -> Schedule:
    """``(op, name)`` at the sweep's parameter defaults for replication
    depth ``c``: the 2.5D schedules get :func:`config_25d`'s ``(c, v)``,
    the 2D ones :func:`panel_width_2d`, the model baselines ``c`` with
    their authors' panel width."""
    if name not in labels(op):
        raise KeyError(f"unknown {op} implementation {name!r}; have "
                       f"{', '.join(labels(op))}")
    tunable = implementation(op, name).params
    if "v" in tunable:
        c, v = config_25d(n, p, c)
        return build(op, name, n, p, v=v, c=c)
    if "nb" in tunable:
        return build(op, name, n, p, nb=panel_width_2d(n))
    return build(op, name, n, p, c=c)


def trace(*schedules: Schedule,
          steps: str = "columnar") -> list[FactorizationResult]:
    """Trace-mode results of ``schedules``, in order: counters only, no
    numerics, any problem scale.

    The schedules' cost terms reduce in one :class:`TermBatch` pass —
    bit-identical to tracing each alone.  ``steps`` selects the step
    log kept on each result: ``"columnar"`` (per-step maxima, what
    :func:`estimate_time` consumes) or ``"none"`` (what sweeps use).
    """
    batch = TermBatch()
    for sched in schedules:
        batch.add(sched)
    return [FactorizationResult(sched.name, sched.n, sched.nranks,
                                sched.mem_words, stats, sched.params())
            for sched, stats in zip(schedules, batch.evaluate(steps))]


def trace_lu(name: str, n: int, p: int, c: int | None = None,
             steps: str = "columnar") -> FactorizationResult:
    """Trace one LU implementation at the sweep's parameter defaults
    (see :func:`trace` for ``steps``)."""
    c = max_replication(p, n) if c is None else c
    return trace(_sweep_schedule("lu", name, n, p, c), steps=steps)[0]


def trace_cholesky(name: str, n: int, p: int, c: int | None = None,
                   steps: str = "columnar") -> FactorizationResult:
    """Trace one Cholesky implementation at paper scale."""
    c = max_replication(p, n) if c is None else c
    return trace(_sweep_schedule("cholesky", name, n, p, c), steps=steps)[0]


def trace_case(n: int, p: int,
               lu_impls: tuple[str, ...] = ("conflux", "mkl"),
               chol_impls: tuple[str, ...] = ("confchox", "mkl-chol"),
               steps: str = "none") -> list[FactorizationResult]:
    """Trace one ``(N, P)`` case's whole flavour set, batched.

    Results come back in ``[*lu_impls, *chol_impls]`` order.  Every
    schedule of the case is collected into one
    :class:`~repro.engine.accounting.TermBatch` — bit-identical to
    tracing each implementation on its own.
    """
    c = max_replication(p, n)
    return trace(
        *(_sweep_schedule("lu", name, n, p, c) for name in lu_impls),
        *(_sweep_schedule("cholesky", name, n, p, c) for name in chol_impls),
        steps=steps)


def sweep_traces(cases: list[tuple[int, int]],
                 lu_impls: tuple[str, ...] = ("conflux", "mkl"),
                 chol_impls: tuple[str, ...] = ("confchox", "mkl-chol"),
                 executor=None,
                 steps: str = "none") -> list[FactorizationResult]:
    """Trace every ``(impl, N, P)`` combination of the sweep.

    This is the paper-style evaluation loop of the ``perf/`` sweep
    workloads.  Each ``(N, P)`` case is one sweep task whose flavour set
    evaluates through :func:`trace_case` — one :class:`TermBatch` per
    case.  Pass ``steps="columnar"`` when per-step data is needed downstream.

    ``executor`` accepts a :mod:`repro.runtime` sweep executor (serial
    or process-pool, optionally cache-backed); the result order — and
    therefore the sweep checksum — is identical to the in-process loop.
    """
    from ..runtime.executor import SerialExecutor

    tasks = sweep_tasks(cases, lu_impls=lu_impls, chol_impls=chol_impls,
                        steps=steps)
    results = (executor or SerialExecutor()).run(tasks)
    return [res for case in results for res in case]


def sweep_tasks(cases: list[tuple[int, int]],
                lu_impls: tuple[str, ...] = ("conflux", "mkl"),
                chol_impls: tuple[str, ...] = ("confchox", "mkl-chol"),
                steps: str = "none"):
    """The declarative task list :func:`sweep_traces` executes — one
    ``"case"`` task per ``(N, P)`` point.  Exposed so out-of-process
    coordinators (the ``sweep_fanout`` ledger workload, external
    publishers) can build the *identical* task list — same extras, same order, same cache
    tokens — without going through ``sweep_traces`` itself."""
    from ..runtime.executor import SweepTask

    extra = (("lu_impls", tuple(lu_impls)),
             ("chol_impls", tuple(chol_impls)), ("steps", steps))
    return [SweepTask("case", "all", n, p, extra=extra)
            for n, p in cases]


@dataclasses.dataclass(frozen=True)
class MemoryFeasibility:
    """One ``(schedule, N, P)`` point of the memory-budget sweep.

    ``model_words`` is the paper's model memory ``M`` the schedule
    reports (e.g. ``c N^2 / P`` for the 2.5D algorithms);
    ``required_words`` is the schedule's declared closed-form peak
    bound — model memory plus the transient working set — which a
    budget-enforced run is guaranteed to fit in.  ``overhead`` is their
    ratio; ``fits_node`` checks the bound against a physical per-rank
    memory.
    """

    schedule: str
    n: int
    nranks: int
    c: int
    model_words: float
    required_words: float
    fits_node: bool

    @property
    def overhead(self) -> float:
        """Transient overhead factor: required / model memory."""
        return self.required_words / self.model_words


def _feasibility_schedules(n: int, p: int) -> list[Schedule]:
    """Instantiate all five executable schedules at their sweep
    defaults."""
    c, _ = config_25d(n, p, max_replication(p, n))
    try:
        summa = build("gemm", "25d", n, p, c=c)
    except ValueError:             # no SUMMA strip width fits this c
        summa = build("gemm", "25d", n, p, c=1)
    return [
        _sweep_schedule("lu", "conflux", n, p, c),
        _sweep_schedule("cholesky", "confchox", n, p, c),
        summa,
        _sweep_schedule("lu", "mkl", n, p, c),
        _sweep_schedule("cholesky", "mkl-chol", n, p, c),
    ]


def memory_feasibility(cases: list[tuple[int, int]],
                       node_mem_words: float = NODE_MEM_WORDS,
                       ) -> list[MemoryFeasibility]:
    """Memory-budget sweep over ``(N, P)`` for all five schedules.

    For each configuration, evaluates every schedule's declared
    ``required_words`` closed form (no execution — paper scale is
    cheap) against the model memory and a physical node budget.  This
    is the planning-side counterpart of a bare backend run under
    ``Machine(..., enforce_memory=True)``; a pd* call needs its layout
    copies on top (:func:`repro.planner.core.call_memory`), so a config
    infeasible here is one :func:`repro.api.pdgetrf` refuses too.
    """
    rows: list[MemoryFeasibility] = []
    for n, p in cases:
        for sched in _feasibility_schedules(n, p):
            req = sched.required_words()
            rows.append(MemoryFeasibility(
                schedule=sched.name, n=n, nranks=p,
                c=sched.params().get("c", 1),
                model_words=sched.mem_words,
                required_words=req,
                fits_node=req <= node_mem_words))
    return rows


# ----------------------------------------------------------------------
# Workload-DAG sweep support (the joint-planning counterpart of
# trace_case).

def dft_workload_request(n: int, p: int, mem_words: float | None = None):
    """The DFT-shaped workload chain of ``examples/dft_workload.py`` as
    a :class:`~repro.planner.workload.WorkloadRequest`: an interaction
    build ``k = A @ B``, two Cholesky factorizations sharing the SPD
    overlap ``S`` (successive SCF steps reuse the operand), and an LU
    of the freshly built ``k`` — mixed GEMM+LU+Cholesky traffic with
    both kinds of cross-stage reuse (shared external operand,
    producer->consumer edge)."""
    from ..planner.workload import WorkloadNode, WorkloadRequest

    nodes = (
        WorkloadNode("k", "gemm", n, ("A", "B")),
        WorkloadNode("f1", "cholesky", n, ("S",)),
        WorkloadNode("f2", "cholesky", n, ("S",)),
        WorkloadNode("lu", "lu", n, ("k",)),
    )
    return WorkloadRequest(nodes, p=p, mem_words=mem_words)


def workload_case(n: int, p: int, mem_words: float | None = None,
                  execute: bool = False, seed: int = 0) -> dict:
    """Jointly plan (and optionally execute) the DFT workload chain at
    one ``(N, P)`` point — one sweep task of kind ``"workload"``.

    Returns a plain dict (picklable across the process pool):
    ``joint_words`` / ``independent_words`` are the joint planner's
    charged totals (counted factorization + conversion words per rank)
    for the chosen assignment vs each node's standalone winner — joint
    can never exceed independent.  With ``execute=True`` the plan also
    runs through :func:`repro.api.run_workload` on a simulated machine
    with seeded operands, adding the counted ``reshuffle_words``, the
    number of ``reused`` native-copy adoptions, and a deterministic
    ``exec_checksum`` over the counted traffic and the dense factors —
    bit-identical across serial and process-pool sweeps.
    """
    import numpy as np

    from ..planner.workload import plan_workload

    request = dft_workload_request(n, p, mem_words)
    plan = plan_workload(request)
    row = {
        "n": n, "p": p,
        "joint_words": plan.chosen.total_words,
        "independent_words": plan.independent.total_words,
        "conversion_words": plan.chosen.conversion_words,
        "impls": tuple(cfg.impl for cfg in plan.chosen.configs),
    }
    if not execute:
        return row

    from ..api import run_workload
    from ..layouts import BlockCyclicLayout, ScaLAPACKDescriptor
    from ..machine import Machine, ProcessorGrid2D

    pr = int(math.isqrt(p))
    while p % pr:
        pr -= 1
    pc = p // pr
    mb = max(1, n // (2 * pr))
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=mb, nb=mb, prows=pr, pcols=pc)
    layout = BlockCyclicLayout(n, n, mb, mb, ProcessorGrid2D(pr, pc))
    rng = np.random.default_rng(seed)
    machine = Machine(p)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal((n, n)) + n * np.eye(n)
    g = rng.standard_normal((n, n))
    s = g @ g.T + n * np.eye(n)
    layout.scatter_from(machine, "A", a)
    layout.scatter_from(machine, "B", b)
    layout.scatter_from(machine, "S", s)
    result = run_workload(machine, plan,
                          {"A": desc, "B": desc, "S": desc})
    checksum = result.reshuffle_words
    for name in sorted(result.results):
        res = result.results[name]
        checksum += res.factorization_words + float(np.abs(res.lower).sum())
    row.update({
        "reshuffle_words": result.reshuffle_words,
        "reused": len(result.reused),
        "exec_checksum": checksum,
    })
    return row


@dataclasses.dataclass(frozen=True)
class TimedRun:
    """A traced run with its alpha-beta-gamma time estimate."""

    name: str
    n: int
    nranks: int
    mean_recv_words: float
    max_recv_words: float
    total_flops: float
    time_s: float
    peak_fraction: float


def estimate_time(result: FactorizationResult,
                  params: MachineParams = PIZ_DAINT_XC40) -> TimedRun:
    """Run the performance model over a result's step log."""
    model = PerfModel(params)
    local_words = result.n * result.n / result.nranks
    breakdown = model.evaluate(result.step_log, result.nranks, local_words)
    return TimedRun(
        name=result.name, n=result.n, nranks=result.nranks,
        mean_recv_words=result.mean_recv_words,
        max_recv_words=result.max_recv_words,
        total_flops=result.total_flops,
        time_s=breakdown.total_s,
        peak_fraction=breakdown.peak_fraction,
    )


def format_table(headers: list[str], rows: list[list], title: str = "",
                 floatfmt: str = "{:.4g}") -> str:
    """Plain-text table; a row must have one cell per header."""
    for i, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(f"row {i} has {len(row)} cells for {len(headers)} headers")

    def fmt(x) -> str:
        if isinstance(x, float):
            if math.isnan(x):
                return "-"
            return floatfmt.format(x)
        return str(x)

    srows = [[fmt(x) for x in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in srows)) if srows else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in srows:
        lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)))
    return "\n".join(lines)
