"""ScaLAPACK-compatible entry points (Section 8, "Data distribution").

The paper's library is "fully ScaLAPACK-compatible": users hand it a
matrix distributed per a ScaLAPACK descriptor, and the library reshuffles
it into COnfLUX's native layout with COSTA, factorizes, and reshuffles
back.  This module reproduces that contract on the simulated machine:

* :func:`pdgetrf` — LU, descriptor in/out (COnfLUX tournament pivoting
  by default, ``impl="scalapack"`` for the 2D partial-pivoting
  baseline);
* :func:`pdpotrf` — Cholesky, descriptor in/out (COnfCHOX or the 2D
  baseline);
* :func:`pdgemm` — 2.5D SUMMA matrix multiplication, descriptor in/out;
* :func:`pdgetrs` / :func:`pdpotrs` — the corresponding solves.

Each call takes a :class:`~repro.machine.comm.Machine` whose stores hold
the distributed tiles under ``(name, bi, bj)`` keys, performs the counted
COSTA redistribution into the algorithm's tile size, runs the
factorization *on the machine* through the engine's
:class:`~repro.engine.backends.DistributedBackend` — every word the
schedule moves is counted by the machine itself, not merged in from a
separate accounting run — and writes the factors back in the caller's
layout.  All three entry points share one resolution (``_resolve``:
``plan=`` / ``impl="auto"`` / explicit keywords to ``(impl, params)``)
and one execution path (``_run_pd``: pre-flight memory gate, COSTA in,
backend run, COSTA out); which schedule an ``impl`` names and how the
factors are packed come from the implementation table
(:mod:`repro.factorizations.registry`).  The reshuffle costs O(N^2/P)
per rank — asymptotically free, as the paper argues (Section 7.4).

On a machine that *enforces* a finite ``M``-words budget
(``Machine(..., enforce_memory=True)``), every entry point first
reserves, on every rank, what the call needs there beyond what the rank
holds (:func:`~repro.planner.core.call_memory`), and rejects an
infeasible ``(N, P, c)`` configuration with
:class:`~repro.machine.exceptions.MemoryBudgetExceeded` before moving a
single word.

Schedule selection has three forms, from most to least explicit:

* ``plan=`` — the caller already holds a
  :class:`~repro.planner.Plan` (e.g. from a
  :class:`~repro.planner.PlanService`) or a single
  :class:`~repro.planner.PlannedConfig`; the call runs that
  configuration without re-planning and attaches the passed object to
  ``PDResult.plan``;
* ``impl="auto"`` — sugar over ``plan=``: the request is resolved
  through the module-default :func:`~repro.planner.default_service`
  (swap it with :func:`~repro.planner.set_default_service`) — so
  repeated auto calls for the same ``(op, N, P, M)`` hit the service's
  LRU instead of re-enumerating the candidate grid;
* explicit ``impl=`` + parameters (``v``/``c`` for the 2.5D schedules,
  ``nb`` for the 2D baselines, ``s``/``c`` for the matmul); a keyword
  the chosen ``impl`` does not take is rejected, never dropped.

The parameters a call actually ran with are recorded uniformly in
``PDResult.params``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

import numpy as np

from . import obs
from .engine.backends import DistributedBackend
from .engine.schedule import Schedule
from .factorizations.common import FactorizationResult
from .factorizations.registry import OPS, build, implementation, width
from .factorizations.solve import SolveResult, cholesky_solve, lu_solve
from .layouts import BlockCyclicLayout, ScaLAPACKDescriptor, redistribute
from .layouts.block_cyclic import discard_matrix, discard_work
from .machine import Machine, ProcessorGrid2D
from .machine.stats import CommStats
from .planner import Plan, PlannedConfig, PlanRequest, planner_labels
from .planner.core import call_memory, native_layout
from .planner.service import default_service
from .planner.workload import WorkloadPlan, WorkloadRequest, config_schedule

__all__ = ["pdgetrf", "pdpotrf", "pdgemm", "pdgetrs", "pdpotrs",
           "run_workload", "PDResult", "WorkloadResult"]


@dataclasses.dataclass
class PDResult:
    """Result of a ScaLAPACK-style call.

    The factors live back in the machine's stores under ``out_name`` in
    the caller's layout; this object carries the pivots, the counted
    communication (``comm`` — the factorization traffic only;
    ``reshuffle_words`` covers the COSTA reshuffles), and dense copies
    for verification convenience.

    ``params`` records the implementation and parameters the call
    actually ran with, uniformly across entry points — e.g.
    ``{"impl": "conflux", "v": 16, "c": 2}``,
    ``{"impl": "scalapack", "nb": 32}``,
    ``{"impl": "25d", "s": 16, "c": 1}``.  ``v`` is the legacy scalar
    view of the same information: the tile size / panel width / strip
    width the schedule ran with.

    ``plan`` carries the planning evidence when there is any: the
    ranked :class:`~repro.planner.Plan` the service produced for
    ``impl="auto"``, or whatever the caller passed via ``plan=`` (a
    :class:`Plan` or a bare :class:`~repro.planner.PlannedConfig`).
    It is None only for explicitly parameterized calls.
    """

    out_name: str
    desc: ScaLAPACKDescriptor
    machine: Machine
    v: int
    comm: CommStats
    perm: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray | None
    reshuffle_words: float
    factorization_words: float
    plan: Plan | PlannedConfig | None = None
    params: dict[str, Any] = dataclasses.field(default_factory=dict)

    def gather(self) -> np.ndarray:
        """Dense packed factors from the distributed stores."""
        layout = _layout_from_desc(self.desc)
        return layout.gather_to(self.machine, self.out_name)


def _layout_from_desc(desc: ScaLAPACKDescriptor) -> BlockCyclicLayout:
    grid = ProcessorGrid2D(desc.prows, desc.pcols)
    return BlockCyclicLayout(desc.m, desc.n, desc.mb, desc.nb, grid)


def _check_memory_feasible(machine: Machine, op: str, schedule: Schedule,
                           native: BlockCyclicLayout,
                           desc: ScaLAPACKDescriptor, out_name: str,
                           fresh: int, kept: int) -> None:
    """Reject an infeasible ``(N, P, c)`` configuration up front: on a
    machine enforcing a finite ``M`` a run that cannot fit can never
    finish, so fail before any reshuffle moves a word.  Every rank
    reserves what :func:`~repro.planner.core.call_memory` says the call
    needs there beyond the words it holds; a refusal's ``key`` is
    ``(op, out_name, CallMemory)``: the phase that peaks on the refused
    rank and its held / native / required split."""
    if not machine.enforces_memory:
        return
    out = _layout_from_desc(desc)
    needs = [call_memory(schedule, native, store.words, fresh, kept,
                         store.rank, out) for store in machine.stores]
    worst = max(needs, key=lambda need: need.words)
    with obs.span("pd.gate", cat="pd-phase", op=op, out=out_name,
                  needed_words=worst.words, **worst._asdict()):
        for store, need in zip(machine.stores, needs):
            store.begin_step("<feasibility>")
            try:
                store.reserve(need.native + need.required,
                              key=(op, out_name, need))
            finally:
                store.end_step()


def _reshuffle(machine: Machine, name: str, src: BlockCyclicLayout,
               dst: BlockCyclicLayout, dst_name: str) -> float:
    """COSTA-reshuffle matrix ``name`` from layout ``src`` into ``dst``
    under ``dst_name``; returns the counted volume."""
    before = machine.stats.total_recv_words
    redistribute(machine, name, src, dst, dst_name=dst_name)
    return machine.stats.total_recv_words - before


# ----------------------------------------------------------------------
# Plan resolution (the ``plan=`` / ``impl="auto"`` front half).

#: The pd* keyword parameters' values when not passed; any other value
#: is an explicit choice — honoured by an ``impl`` that takes the
#: parameter, rejected by one that does not (so ``c`` must stay 1 on the
#: 2D route, which has no replication).
_UNSET = {"v": None, "nb": None, "s": None, "c": 1}

#: What an unset tile size / panel width means on the explicit route
#: (an unset ``s`` is the SUMMA schedule's own default).
_EXPLICIT_DEFAULTS = {"v": 16, "nb": 16}


def _resolve(machine: Machine, op: str, desc: ScaLAPACKDescriptor,
             impl: str, plan: Plan | PlannedConfig | None,
             given: dict[str, Any],
             ) -> tuple[str, dict[str, Any], Plan | PlannedConfig | None]:
    """Resolve ``plan=`` / ``impl="auto"`` / explicit keywords into
    ``(impl, params, plan)`` — the constructor parameters of the table
    row ``(op, impl)`` and the planning evidence, if any.

    ``impl="auto"`` is sugar over ``plan=``: it asks the machine's
    planning service and then takes the same path a caller-supplied
    plan would.  ``given`` holds the call's own keyword parameters: a
    plan overrides them; without one, each must belong to ``impl``.
    """
    if plan is None and impl == "auto":
        # Planned >= gated: the caller holds, in whole copies, the fullest
        # rank's words plus the output's excess over a balanced N^2/P.
        budget = machine.mem_words if machine.enforces_memory else None
        unit = float(desc.n) * desc.n / machine.nranks
        held = 0.0 if budget is None else (
            max(store.words for store in machine.stores)
            + _layout_from_desc(desc).local_words(0) - unit)
        plan = default_service().plan(PlanRequest(
            op, desc.n, machine.nranks, budget,
            api_copies=max(0, math.ceil(held / unit))))
    if plan is not None:
        config = plan.chosen if isinstance(plan, Plan) else plan
        if not isinstance(config, PlannedConfig):
            raise TypeError(f"plan= takes a Plan or PlannedConfig, got "
                            f"{type(plan).__name__}")
        impl, params = config.impl, dict(config.params)
    if impl not in planner_labels(op):
        raise ValueError(f"unknown impl {impl!r}; have "
                         f"{', '.join(planner_labels(op))}, auto")
    if plan is None:
        names = implementation(op, impl).params
        foreign = [f"{key}={value}" for key, value in given.items()
                   if key not in names and value != _UNSET[key]]
        if foreign:
            raise ValueError(
                f"impl {impl!r} takes {', '.join(k + '=' for k in names)}"
                f" and has no {', '.join(foreign)}")
        params = {key: (_EXPLICIT_DEFAULTS.get(key)
                        if given[key] is None else given[key])
                  for key in names}
    return impl, params, plan


# ----------------------------------------------------------------------
# The shared execution path.

def _run_pd(machine: Machine, op: str, impl: str, schedule: Schedule,
            native: BlockCyclicLayout, desc: ScaLAPACKDescriptor,
            inputs: list[tuple[str, ScaLAPACKDescriptor]], out_name: str,
            plan: Plan | PlannedConfig | None,
            live: dict[str, dict[BlockCyclicLayout, str]] | None = None,
            ) -> PDResult:
    """The execution path every pd* entry point shares: pre-flight
    memory gate, counted COSTA reshuffle(s) in, one
    :class:`DistributedBackend` run on the caller's machine, counted
    writeback into the caller's layout, :class:`PDResult`.

    What the call allocates it frees: the schedule's working set
    (everything under a ``work_name``) and the prepped inputs as soon
    as the backend has run — before writeback, so they never coexist
    with the written-back copies — and the native factors once the
    caller-layout output exists; a call that raises (a singular matrix,
    a budget overrun) frees the same and propagates the exception.

    ``live`` is how :func:`run_workload` amortizes reshuffles: operand
    name -> ``{native layout: store name}`` for each operand
    (``out_name`` included) that outlives this call.  Such an operand's
    native copy is adopted when its layout is there, else made and
    recorded there, and stays — the map's owner frees it.  A pd* call
    is the case of an empty map.
    """
    for _, d in inputs:
        if d.m != d.n:
            raise ValueError(f"need a square matrix, got {d.m}x{d.n}")
        if d.prows * d.pcols > machine.nranks:
            raise ValueError("descriptor grid exceeds machine size")
    live = {} if live is None else live
    tel = obs.default_telemetry()
    tel.metrics.counter(f"api.pd.{op}").inc()
    with tel.span(f"pd.{op}", cat="pd", n=schedule.n, impl=impl) as sp:
        fresh = {name: in_desc for name, in_desc in inputs
                 if native not in live.get(name, ())}
        _check_memory_feasible(machine, op, schedule, native, desc, out_name,
                               len(fresh), len(fresh.keys() & live.keys()))
        resh_in = 0.0
        natives = {name: live[name][native] for name, _ in inputs
                   if name not in fresh}
        mine: list[str] = []
        try:
            with tel.span("pd.prep", cat="pd-phase", inputs=len(inputs)):
                for name, in_desc in fresh.items():
                    kept = live.get(name)
                    if kept is None:
                        natives[name] = key = name + ":native"
                        mine.append(key)
                    else:   # one key per layout of an operand
                        natives[name] = key = f"{name}:native:{out_name}"
                        kept[native] = key
                    resh_in += _reshuffle(machine, name,
                                          _layout_from_desc(in_desc),
                                          native, key)
            in_name = tuple(natives[name] for name, _ in inputs)
            with tel.span("pd.backend", cat="pd-phase",
                          schedule=type(schedule).__name__):
                res = DistributedBackend(machine).run(
                    schedule,
                    in_name=in_name[0] if len(in_name) == 1 else in_name)
        finally:
            # The working set and the call's own prepped inputs are
            # dead once the backend has run or raised.
            discard_work(machine, *mine)
        with tel.span("pd.writeback", cat="pd-phase"):
            factors = out_name + ":native"
            try:
                native.scatter_from(machine, factors, OPS[op].packed(res))
                resh_out = _reshuffle(machine, factors, native,
                                      _layout_from_desc(desc), out_name)
            finally:
                if out_name in live:
                    live[out_name][native] = factors
                else:
                    discard_matrix(machine, factors)
        sp.set(reshuffle_words=resh_in + resh_out,
               factorization_words=res.comm.total_recv_words)
    is_lu = op == "lu"
    ran = {key: getattr(schedule, key)
           for key in implementation(op, impl).params}
    return PDResult(out_name=out_name, desc=desc, machine=machine,
                    v=width(schedule), comm=res.comm,
                    perm=res.perm if is_lu else None,
                    lower=res.lower,
                    upper=res.upper if is_lu else None,
                    reshuffle_words=resh_in + resh_out,
                    factorization_words=res.comm.total_recv_words,
                    plan=plan, params={"impl": impl, **ran})


def _pd(machine: Machine, op: str, impl: str,
        plan: Plan | PlannedConfig | None, given: dict[str, Any],
        inputs: list[tuple[str, ScaLAPACKDescriptor]],
        out_name: str) -> PDResult:
    """What every pd* entry point is: resolve, build the table row's
    schedule and its native layout, run."""
    desc = inputs[0][1]
    impl, params, plan = _resolve(machine, op, desc, impl, plan, given)
    schedule = build(op, impl, desc.n, machine.nranks, **params)
    return _run_pd(machine, op, impl, schedule, native_layout(op, schedule),
                   desc, inputs, out_name, plan)


# ----------------------------------------------------------------------
# Entry points.

def pdgetrf(machine: Machine, name: str, desc: ScaLAPACKDescriptor,
            v: int | None = None, c: int = 1, out_name: str | None = None,
            impl: str = "conflux", nb: int | None = None,
            plan: Plan | PlannedConfig | None = None) -> PDResult:
    """LU factorization of a descriptor-distributed matrix.

    The packed factors (L below the unit diagonal, U on/above — the
    LAPACK ``getrf`` convention, rows in *pivot order*) are stored back
    under ``out_name``; ``perm`` maps pivot order to original rows.
    ``impl`` selects the schedule: ``"conflux"`` (2.5D tournament
    pivoting, default; tile size ``v``, replication ``c``),
    ``"scalapack"`` (the 2D partial-pivoting baseline; panel width
    ``nb``, requires ``c == 1``; ``v`` is rejected) or ``"auto"`` (the
    machine's planning service picks implementation and parameters
    under the memory budget, overriding ``v``/``c``/``nb``) — all run
    through :class:`DistributedBackend` on the caller's machine, so the
    counted volumes are directly comparable.  ``plan=`` skips planning
    entirely and runs the given
    :class:`~repro.planner.Plan`/:class:`~repro.planner.PlannedConfig`.
    """
    return _pd(machine, "lu", impl, plan, {"v": v, "c": c, "nb": nb},
               [(name, desc)], out_name or name + ":lu")


def pdpotrf(machine: Machine, name: str, desc: ScaLAPACKDescriptor,
            v: int | None = None, c: int = 1, out_name: str | None = None,
            impl: str = "confchox", nb: int | None = None,
            plan: Plan | PlannedConfig | None = None) -> PDResult:
    """Cholesky factorization of a descriptor-distributed SPD matrix.

    ``impl``: ``"confchox"`` (2.5D, default; tile size ``v``,
    replication ``c``), ``"scalapack"`` (the 2D baseline; panel width
    ``nb``, requires ``c == 1``; ``v`` is rejected) or
    ``"auto"`` (service-selected under the machine's memory budget,
    overriding ``v``/``c``/``nb``).  ``plan=`` runs a caller-supplied
    plan without re-planning.
    """
    return _pd(machine, "cholesky", impl, plan, {"v": v, "c": c, "nb": nb},
               [(name, desc)], out_name or name + ":chol")


def pdgemm(machine: Machine, a_name: str, desc_a: ScaLAPACKDescriptor,
           b_name: str, desc_b: ScaLAPACKDescriptor,
           out_name: str | None = None, s: int | None = None,
           c: int = 1, impl: str = "25d",
           plan: Plan | PlannedConfig | None = None) -> PDResult:
    """2.5D SUMMA product ``C = A @ B`` of descriptor-distributed
    operands, routed through :class:`DistributedBackend` like the
    factorizations: COSTA-reshuffle both operands into the schedule's
    per-rank blocks (counted), run the SUMMA rounds and the layered
    reduction through Machine communication (counted by the machine),
    COSTA the product back into ``desc_a``'s layout under ``out_name``.

    The product is returned dense in ``lower`` for verification, with
    ``upper``/``perm`` unset.  ``impl``: ``"25d"`` (the caller's
    ``s``/``c``, default) or ``"auto"`` (service-selected strip width
    and replication under the machine's memory budget); ``plan=`` runs
    a caller-supplied plan without re-planning.
    """
    if desc_a.n != desc_b.n:
        raise ValueError(
            f"operand sizes differ: {desc_a.n} vs {desc_b.n}")
    return _pd(machine, "gemm", impl, plan, {"s": s, "c": c},
               [(a_name, desc_a), (b_name, desc_b)],
               out_name or a_name + ":gemm")


def _as_factorization(result: PDResult, name: str) -> FactorizationResult:
    """Rebuild the factorization view a solve needs from a PDResult.

    Carries the tile size ``v`` the factorization actually ran with
    (*not* the descriptor's blocking) and its real counted communication.
    """
    return FactorizationResult(
        name=name, n=result.desc.n, nranks=result.machine.nranks,
        mem_words=result.machine.mem_words, comm=result.comm,
        params={"v": result.v}, lower=result.lower,
        upper=result.upper, perm=result.perm)


def pdgetrs(result: PDResult, b: np.ndarray) -> SolveResult:
    """Solve ``A x = b`` from a :func:`pdgetrf` result."""
    return lu_solve(_as_factorization(result, "pdgetrf"), b)


def pdpotrs(result: PDResult, b: np.ndarray) -> SolveResult:
    """Solve ``A x = b`` from a :func:`pdpotrf` result."""
    return cholesky_solve(_as_factorization(result, "pdpotrf"), b)


# ----------------------------------------------------------------------
# Workload execution (the DAG counterpart of the pd* entry points).

@dataclasses.dataclass
class WorkloadResult:
    """Result of :func:`run_workload`.

    ``results`` maps node name to its :class:`PDResult` (terminal
    outputs stay resident in the caller's layout; intermediates the
    caller did not name in ``out_names`` are freed as the DAG retires
    them — their dense ``lower``/``upper`` copies remain on the
    PDResult).  ``reshuffle_words`` is the *counted* COSTA traffic of
    the whole run; ``conversion_words`` the planner's charged
    cross-stage conversion model for the executed assignment; and
    ``reused`` lists the ``(node, operand)`` pairs that adopted
    still-resident native tiles instead of reshuffling — the joint
    plan's amortization, realized.
    """

    plan: WorkloadPlan
    results: dict[str, PDResult]
    reshuffle_words: float
    conversion_words: float
    reused: tuple[tuple[str, str], ...]

    def gather(self, name: str) -> np.ndarray:
        """Dense packed output of node ``name`` from the stores."""
        return self.results[name].gather()


def run_workload(machine: Machine,
                 workload: WorkloadPlan | WorkloadRequest,
                 inputs: dict[str, ScaLAPACKDescriptor],
                 out_names: dict[str, str] | None = None,
                 ) -> WorkloadResult:
    """Execute a planned workload DAG on ``machine``.

    ``workload`` is a :class:`~repro.planner.workload.WorkloadPlan` or
    a bare :class:`~repro.planner.workload.WorkloadRequest`, which is
    planned through the machine's service first (inheriting the
    machine's enforced budget when it leaves ``mem_words`` unset).
    ``inputs`` maps every external operand name to the ScaLAPACK
    descriptor its tiles already follow in the stores; ``out_names``
    optionally renames node outputs (default: the node's own name) —
    naming an intermediate also keeps its caller-layout copy resident
    after the DAG retires it.

    Each node runs through the same :func:`_run_pd` path as the pd*
    entry points — gate, COSTA in, backend run, counted writeback —
    in the request's node order, with one difference: the native
    copies of an operand that outlives a node stay resident.  A node
    whose operand already has a live native copy in *exactly* its
    layout adopts it and skips the reshuffle (the joint plan's
    amortization; recorded in ``reused``); a node needing a different
    layout preps its own copy.  Copies are freed as the DAG retires
    their operand, so the peak footprint tracks the live frontier
    (:func:`~repro.planner.workload._frontier` replays it to plan).
    """
    if isinstance(workload, WorkloadRequest):
        request = workload
        if request.mem_words is None and machine.enforces_memory:
            request = dataclasses.replace(request,
                                          mem_words=machine.mem_words)
        plan = default_service().plan_workload(request)
    else:
        plan = workload
    request = plan.request
    if machine.nranks != request.p:
        raise ValueError(f"plan is for P={request.p} ranks, machine has "
                         f"{machine.nranks}")
    missing = [name for name in request.externals() if name not in inputs]
    if missing:
        raise ValueError(f"missing external operand descriptor(s): "
                         f"{', '.join(missing)}")
    out_names = dict(out_names or {})
    producers = request.producers()
    last_use = request.last_use()
    # Operand -> the store name of its caller-layout tiles.
    names = {ref: out_names.get(ref, ref) if ref in producers else ref
             for ref in last_use}

    live: dict[str, dict[BlockCyclicLayout, str]] = {}
    descs: dict[str, ScaLAPACKDescriptor] = dict(inputs)
    results: dict[str, PDResult] = {}
    reused: list[tuple[str, str]] = []
    resh_total = 0.0

    tel = obs.default_telemetry()
    reg = tel.metrics
    with tel.span("workload.run", cat="workload",
                  nodes=len(request.nodes)) as wsp:
        for idx, (node, cfg) in enumerate(zip(request.nodes,
                                              plan.chosen.configs)):
            schedule, _ = config_schedule(node.op, node.n,
                                          machine.nranks, cfg)
            native = native_layout(node.op, schedule)
            desc = descs[node.name] = descs[node.inputs[0]]
            for ref in (*node.inputs, node.name):
                if last_use[ref] > idx:
                    live.setdefault(names[ref], {})
            adopted = [ref for ref in node.inputs
                       if native in live.get(names[ref], ())]
            reused += [(node.name, ref) for ref in adopted]
            reg.counter("workload.operands_adopted").inc(len(adopted))
            reg.counter("workload.operands_reshuffled").inc(
                len(set(node.inputs) - set(adopted)))
            with tel.span("workload.node", cat="workload",
                          node=node.name, op=node.op):
                res = _run_pd(machine, node.op, cfg.impl, schedule, native,
                              desc, [(names[ref], descs[ref])
                                     for ref in node.inputs],
                              names[node.name], cfg, live)
            resh_total += res.reshuffle_words
            results[node.name] = res
            # Retire everything whose last consumer just ran.
            for ref, last in last_use.items():
                if last != idx:
                    continue
                for key in live.pop(names[ref], {}).values():
                    discard_matrix(machine, key)
                consumed = ref in producers and producers[ref] != last
                if consumed and ref not in out_names:
                    discard_matrix(machine, names[ref])
        wsp.set(adopted=len(reused), reshuffle_words=resh_total)
    return WorkloadResult(plan=plan, results=results,
                          reshuffle_words=resh_total,
                          conversion_words=plan.chosen.conversion_words,
                          reused=tuple(reused))
