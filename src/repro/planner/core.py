"""The planner: auto-tuned schedule selection under a memory budget.

For a given problem ``(N, P)`` and per-rank memory budget ``M`` (words),
the planner enumerates every feasible engine-schedule configuration —
divisor-aware ``c``/``v`` candidates for the 2.5D algorithms, panel
widths for the 2D baselines, strip widths for the 2.5D matmul — prunes
the ones whose pd* call (:func:`call_memory`) would not fit the budget,
scores the survivors with the engine's closed-form trace evaluation
and the alpha-beta-gamma :class:`~repro.machine.perf_model.PerfModel`,
and returns a :class:`Plan`: the chosen configuration plus the ranked
alternatives.

The single entry shape is :class:`PlanRequest` — ``(op, n, p, mem_words,
api_copies)`` — consumed by :func:`plan_request` (one request) and
:func:`plan_batch` (many requests in **one**
:class:`~repro.engine.accounting.TermBatch`, each distinct surviving
schedule reduced once; bit-identical to planning each request alone,
which the parity suite pins).  ``plan_lu`` / ``plan_cholesky`` /
``plan_gemm`` are thin wrappers that build the request; the
atlas/service layer (:mod:`repro.planner.atlas`,
:mod:`repro.planner.service`) keys its caches on the request.

The ranking key is the paper's primary metric — *counted* received
words per rank — and it is all the planner reduces:
:meth:`~repro.engine.accounting.TermBatch.recv_words` sums each
candidate's ``"recv"`` cost terms analytically per rank in O(P),
bitwise what a trace of the schedule counts, so the planner ranks by
what a run would count, not by a separate model.  The perf-model time
estimate (the op's flops, the ``_SEARCH`` message estimate) tie-breaks
configurations whose volumes agree (e.g. SUMMA strip widths, which
trade only message counts).  Feasibility is :func:`call_memory`, the
one statement of what a pd* call needs — :mod:`repro.api`'s gate and
the workload planner's frontier evaluate it too, so a configuration
planned under ``M`` is one the gate admits and the run fits.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, NamedTuple

from .. import obs
from ..engine.accounting import TermBatch
from ..engine.schedule import Schedule
from ..factorizations.registry import OPS, build, width
from ..layouts import BlockCyclicLayout
from ..machine.perf_model import PIZ_DAINT_XC40, MachineParams, PerfModel
from .candidates import (
    panel_candidates,
    replication_candidates,
    strip_candidates,
    tile_candidates,
)

__all__ = ["Plan", "PlannedConfig", "PlanRequest", "NoFeasiblePlanError",
           "planner_labels", "native_layout", "CallMemory", "call_memory",
           "plan_request", "plan_batch", "plan_lu", "plan_cholesky",
           "plan_gemm"]


class NoFeasiblePlanError(ValueError):
    """No schedule configuration fits the given (N, P, M); the joint
    planner adds the first ``node`` nothing fits and its ``peak_words``."""

    node: str | None = None
    peak_words: float | None = None


@dataclasses.dataclass(frozen=True)
class PlanRequest:
    """One planning question, in canonical form.

    ``op`` is the problem kind (``"lu"``, ``"cholesky"``, ``"gemm"``),
    ``n``/``p`` the problem size and rank count, ``mem_words`` the
    per-rank budget (None = unbounded; ``inf`` normalizes to None) and
    ``api_copies`` the ``N^2/P``-per-rank copies the caller holds while
    the call runs (its resident operands included).
    ``impls`` optionally restricts the candidate implementations (None
    = the op's full search space).

    Instances are hashable and canonical — two requests asking the same
    question compare (and hash) equal — which is what lets the service
    layer use them directly as LRU keys and the atlas derive
    content-addressed cache tokens from :meth:`token`.
    """

    op: str
    n: int
    p: int
    mem_words: float | None = None
    api_copies: int = 0
    impls: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "impls",
                           _canonical_impls(self.op, self.impls))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "api_copies", int(self.api_copies))
        if self.mem_words is not None:
            mem = float(self.mem_words)
            object.__setattr__(self, "mem_words",
                               None if math.isinf(mem) else mem)

    @property
    def budget(self) -> float:
        """The budget as a float (``inf`` when unbounded)."""
        return math.inf if self.mem_words is None else self.mem_words

    def token(self) -> str:
        """A stable string spelling out the whole question — the
        atlas's cache-key payload (``repr`` of the budget round-trips
        the float exactly)."""
        mem = "inf" if self.mem_words is None else repr(self.mem_words)
        impls = ("default" if self.impls is None
                 else ",".join(self.impls))
        return (f"plan|op={self.op}|n={self.n}|p={self.p}|mem={mem}"
                f"|copies={self.api_copies}|impls={impls}")


@dataclasses.dataclass(frozen=True)
class PlannedConfig:
    """One feasible configuration, scored.

    ``impl`` is the :mod:`repro.api` implementation name the config
    routes to; ``params`` are the keyword arguments that reproduce it
    (``v``/``c`` for the 2.5D schedules, ``nb`` for the 2D baselines,
    ``s``/``c`` for the matmul).  ``predicted_words`` is the *counted*
    received-words-per-rank of the candidate's closed-form trace
    evaluation, ``predicted_time_s`` the alpha-beta-gamma estimate, and
    ``required_words`` is the whole call's need (:func:`call_memory`,
    the caller's ``api_copies`` included) and ``mem_margin`` the budget
    headroom above it (``inf`` on an unbounded machine).
    """

    impl: str
    schedule: str
    params: dict[str, Any]
    predicted_words: float
    predicted_time_s: float
    required_words: float
    mem_margin: float

    def describe(self) -> str:
        pstr = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (f"{self.impl}({pstr}): {self.predicted_words:.4g} words, "
                f"{self.predicted_time_s:.3g} s")


@dataclasses.dataclass(frozen=True)
class Plan:
    """The planner's answer for one problem instance.

    ``ranked`` is every feasible configuration, best first; ``chosen``
    is the head.  The ordering is deterministic: predicted words, then
    predicted time, then a stable (impl, params) key.
    """

    problem: str
    n: int
    nranks: int
    mem_words: float
    ranked: tuple[PlannedConfig, ...]

    @property
    def chosen(self) -> PlannedConfig:
        return self.ranked[0]

    @property
    def alternatives(self) -> tuple[PlannedConfig, ...]:
        return self.ranked[1:]

    def summary(self) -> str:
        budget = ("unbounded" if math.isinf(self.mem_words)
                  else f"{self.mem_words:.4g} words")
        lines = [f"plan[{self.problem}] N={self.n} P={self.nranks} "
                 f"M={budget}: {self.chosen.describe()}"]
        for alt in self.alternatives[:3]:
            lines.append(f"  alt: {alt.describe()}")
        return "\n".join(lines)


def _rank_key(cfg: PlannedConfig) -> tuple:
    return (cfg.predicted_words, cfg.predicted_time_s, cfg.impl,
            tuple(sorted(cfg.params.items())))


def _lg(p: int) -> int:
    return math.ceil(math.log2(max(2, p)))


# ----------------------------------------------------------------------
# The search space: per planned (op, label), the parameter grid the
# planner tries and the message-count estimate of its latency term.
# The schedule each label *is* comes from the implementation table.

def _tiles_25d(n: int, p: int, budget: float):
    return ({"v": v, "c": c} for c in replication_candidates(p, n, budget)
            for v in tile_candidates(n, c))


def _panels_2d(n: int, p: int, budget: float):
    return ({"nb": nb} for nb in panel_candidates(n))


def _strips_25d(n: int, p: int, budget: float):
    # Volume is independent of the strip width ``s`` (rounds x strip is
    # fixed), so the perf-model tie-break picks the widest strip —
    # fewer rounds, fewer messages.
    return ({"s": s, "c": c}
            for c in replication_candidates(p, n, budget, copies=3)
            for s in strip_candidates(n, c))


def _msgs_25d(sched: Schedule) -> float:
    return (sched.n // sched.v) * (3 + _lg(sched.nranks))


def _msgs_lu_2d(sched: Schedule) -> float:
    return sched.n * _lg(sched.nranks) + 4 * (sched.n // sched.nb)


def _msgs_chol_2d(sched: Schedule) -> float:
    return 4 * (sched.n // sched.nb)


def _msgs_summa(sched: Schedule) -> float:
    return 2.0 * sched.rounds + sched.c


_SEARCH = {
    ("lu", "conflux"): (_tiles_25d, _msgs_25d),
    ("lu", "scalapack"): (_panels_2d, _msgs_lu_2d),
    ("cholesky", "confchox"): (_tiles_25d, _msgs_25d),
    ("cholesky", "scalapack"): (_panels_2d, _msgs_chol_2d),
    ("gemm", "25d"): (_strips_25d, _msgs_summa),
}

_PLANNED = {op: tuple(label for o, label in _SEARCH if o == op)
            for op in OPS}


def planner_labels(op: str) -> tuple[str, ...]:
    """The implementations the planner searches for ``op`` — also the
    ``impl=`` names the pd* entry points accept."""
    if op not in _PLANNED:
        raise ValueError(f"unknown op {op!r}; have "
                         f"{', '.join(sorted(_PLANNED))}")
    return _PLANNED[op]


def _canonical_impls(op: str, impls) -> tuple[str, ...] | None:
    """An ``impls=`` restriction in canonical form: validated against
    the op's planner labels, and None when it spells out the full
    search space — the same question as not restricting it at all (the
    service/atlas key on the request, so the two must compare equal)."""
    have = planner_labels(op)
    if impls is None:
        return None
    impls = tuple(impls)
    unknown = [name for name in impls if name not in have]
    if unknown:
        raise ValueError(
            f"unknown {op} implementation(s) {', '.join(map(repr, unknown))}"
            f" in impls=; the planner searches {', '.join(have)}")
    return None if impls == have else impls


# ----------------------------------------------------------------------
# The memory model of a pd* call, stated once.

def native_layout(op: str, schedule: Schedule) -> BlockCyclicLayout:
    """The native block-cyclic layout the pd* layer reshuffles into for
    ``schedule`` — the layout whose agreement across stages makes a
    conversion free: one block per rank for the SUMMA, else square
    tiles of the schedule's own width.  Raises ``ValueError`` for a
    configuration the api layer could not execute (a SUMMA grid not
    dividing ``n``)."""
    layer_grid = schedule.grid.layer_grid()
    n = schedule.n
    if op == "gemm":
        pr, pc = schedule.grid.rows, schedule.grid.cols
        if n % pr or n % pc:
            raise ValueError(
                f"distributed SUMMA needs the grid {pr}x{pc} to divide "
                f"N={n}")
        return BlockCyclicLayout(n, n, n // pr, n // pc, layer_grid)
    v = width(schedule)
    return BlockCyclicLayout(n, n, v, v, layer_grid)


class CallMemory(NamedTuple):
    """What one rank needs in the ``phase`` of a pd* call that peaks:
    ``held`` before the call + ``native``-layout copies + the phase's
    own ``required`` (``required_words()``, or the written-back output)."""

    phase: str
    held: float
    native: float
    required: float

    @property
    def words(self) -> float:
        return self.held + self.native + self.required


def call_memory(schedule: Schedule, native: BlockCyclicLayout, held: float,
                fresh: int, kept: int = 0, rank: int = 0,
                out: BlockCyclicLayout | None = None) -> CallMemory:
    """What ``rank``, holding ``held`` words, needs to run ``schedule``
    as a pd* call — the two phases of ``api._run_pd``.  *backend*: a
    ``native`` copy of each operand the call reshuffles itself
    (``fresh``; an adopted copy is in ``held``) and the schedule's
    ``required_words()``.  *writeback*: the ``kept`` of those copies a
    workload keeps, the native factors and the output in the caller's
    layout ``out`` (None: a balanced ``N^2/P``).  A native copy is on
    layer 0 only (``c N^2/P`` there); rank 0 holds the most of any."""
    copy = native.local_words(rank)
    out_words = (float(schedule.n) * schedule.n / schedule.nranks
                 if out is None else out.local_words(rank))
    backend = CallMemory("backend", held, fresh * copy,
                         schedule.required_words())
    writeback = CallMemory("writeback", held, (kept + 1) * copy, out_words)
    return writeback if writeback.words > backend.words else backend


# ----------------------------------------------------------------------
# Gate -> score -> rank.

def _gate(req: PlanRequest) -> list[tuple]:
    """Every ``(impl, schedule, params, msgs, needed, margin)`` of one
    request — the restricted (or full) label set times each label's
    parameter grid — that a pd* call could run within the budget on
    top of the caller's ``api_copies`` (cheap, before any scoring)."""
    n, p = req.n, req.p
    held = req.api_copies * float(n) * n / p
    survivors = []
    for label in req.impls or planner_labels(req.op):
        grid, msgs = _SEARCH[req.op, label]
        for params in grid(n, p, req.budget):
            try:
                sched = build(req.op, label, n, p, **params)
                native = native_layout(req.op, sched)
            except ValueError:
                continue
            needed = call_memory(sched, native, held,
                                 OPS[req.op].arity).words
            if needed <= req.budget:
                survivors.append((label, sched, params, msgs(sched),
                                  needed, req.budget - needed))
    return survivors


def _no_feasible_error(problem: str, n: int, p: int,
                       budget: float) -> NoFeasiblePlanError:
    return NoFeasiblePlanError(
        f"no feasible {problem} configuration for N={n}, P={p}, "
        f"M={budget:.4g} words — every candidate's pd* call needs more "
        f"than the budget")


def plan_batch(requests: list[PlanRequest],
               machine_params: MachineParams = PIZ_DAINT_XC40,
               strict: bool = True) -> list[Plan | None]:
    """Plan many requests at once — *the* planning pipeline.

    Every request's candidates are enumerated and memory-gated, then
    each *distinct* surviving schedule of the batch — its cost terms
    depend on neither a budget nor ``api_copies`` — has its received
    words reduced, once (:meth:`TermBatch.recv_words`).  The reduction
    is composition-independent — bit-identical to a batch of one — so
    the returned plans equal planning each request alone, in order.

    With ``strict`` (the default) an infeasible request raises
    :class:`NoFeasiblePlanError` exactly as :func:`plan_request` does;
    ``strict=False`` yields ``None`` in that request's slot instead, so
    a caller batching unrelated questions (:meth:`PlanAtlas.build
    <repro.planner.atlas.PlanAtlas.build>`) keeps the feasible answers.
    """
    tel = obs.default_telemetry()
    t0 = tel.clock()
    candidates = 0
    batch = TermBatch()
    try:
        with tel.span("plan.batch", cat="planner",
                      requests=len(requests)) as span:
            staged = []
            slots: dict[tuple, int] = {}    # distinct schedule -> batch index
            for req in requests:
                survivors = _gate(req)
                candidates += len(survivors)
                keys = [(req.op, label, req.n, req.p, *sorted(params.items()))
                        for label, _, params, *_ in survivors]
                for key, (_, sched, *_) in zip(keys, survivors):
                    if key not in slots:
                        slots[key] = batch.add(sched)
                staged.append((req, survivors, keys))
            span.set(reduced=len(batch))
            words = [float(recv.mean()) for recv in batch.recv_words()]
            model = PerfModel(machine_params)
            plans: list[Plan | None] = []
            for req, survivors, keys in staged:
                flops = OPS[req.op].flops(req.n, req.p)
                configs = [PlannedConfig(
                    impl=impl, schedule=type(sched).__name__, params=params,
                    predicted_words=words[slots[key]],
                    predicted_time_s=model.time_closed_form(
                        flops, words[slots[key]], msgs,
                        local_words=float(sched.n) * sched.n / sched.nranks),
                    required_words=needed, mem_margin=margin)
                    for key, (impl, sched, params, msgs, needed, margin)
                    in zip(keys, survivors)]
                if not configs:
                    if strict:
                        raise _no_feasible_error(req.op, req.n, req.p,
                                                 req.budget)
                    plans.append(None)
                    continue
                configs.sort(key=_rank_key)
                plans.append(Plan(problem=req.op, n=req.n, nranks=req.p,
                                  mem_words=req.budget,
                                  ranked=tuple(configs)))
            return plans
    finally:
        reg = tel.metrics
        reg.histogram("planner.plan_batch.wall_s").observe(
            tel.clock() - t0)
        reg.counter("planner.requests").inc(len(requests))
        reg.counter("planner.candidates").inc(candidates)
        reg.counter("planner.schedules_reduced").inc(len(batch))


def plan_request(request: PlanRequest,
                 machine_params: MachineParams = PIZ_DAINT_XC40) -> Plan:
    """Plan one :class:`PlanRequest` (raises
    :class:`NoFeasiblePlanError` when nothing fits)."""
    return plan_batch([request], machine_params=machine_params,
                      strict=True)[0]


# ----------------------------------------------------------------------
# The historical per-op entry points, now thin request wrappers.

def plan_lu(n: int, p: int, mem_words: float | None = None,
            machine_params: MachineParams = PIZ_DAINT_XC40,
            api_copies: int = 0,
            impls: tuple[str, ...] | None = None) -> Plan:
    """Plan an LU factorization: COnfLUX (2.5D tournament pivoting) vs
    the 2D partial-pivoting baseline, every feasible parameterization.

    ``mem_words`` is the per-rank budget (None = unbounded),
    ``api_copies`` the ``N^2/P`` copies the caller holds meanwhile;
    ``impls`` restricts the search (None = every planner label;
    ``("conflux",)`` tunes COnfLUX's ``(c, v)`` alone).
    """
    return plan_request(
        PlanRequest(op="lu", n=n, p=p, mem_words=mem_words,
                    api_copies=api_copies, impls=impls),
        machine_params=machine_params)


def plan_cholesky(n: int, p: int, mem_words: float | None = None,
                  machine_params: MachineParams = PIZ_DAINT_XC40,
                  api_copies: int = 0,
                  impls: tuple[str, ...] | None = None) -> Plan:
    """Plan a Cholesky factorization: COnfCHOX vs the 2D baseline."""
    return plan_request(
        PlanRequest(op="cholesky", n=n, p=p, mem_words=mem_words,
                    api_copies=api_copies, impls=impls),
        machine_params=machine_params)


def plan_gemm(n: int, p: int, mem_words: float | None = None,
              machine_params: MachineParams = PIZ_DAINT_XC40,
              api_copies: int = 0) -> Plan:
    """Plan a square matmul: the 2.5D SUMMA over (c, s) candidates."""
    return plan_request(
        PlanRequest(op="gemm", n=n, p=p, mem_words=mem_words,
                    api_copies=api_copies),
        machine_params=machine_params)
