"""The planner: auto-tuned schedule selection under a memory budget.

For a given problem ``(N, P)`` and per-rank memory budget ``M`` (words),
the planner enumerates every feasible engine-schedule configuration —
divisor-aware ``c``/``v`` candidates for the 2.5D algorithms, panel
widths for the 2D baselines, strip widths for the 2.5D matmul — prunes
the ones whose declared :meth:`~repro.engine.schedule.Schedule.required_words`
(plus the API's layout copies) exceed the budget, scores the survivors
with the engine's closed-form trace evaluation and the
alpha-beta-gamma :class:`~repro.machine.perf_model.PerfModel`, and
returns a :class:`Plan`: the chosen configuration plus the ranked
alternatives.

The single entry shape is :class:`PlanRequest` — ``(op, n, p,
mem_words, api_copies)`` — consumed by :func:`plan_request` (one
request) and :func:`plan_batch` (many requests, every survivor of every
request reduced in **one** :class:`~repro.engine.accounting.TermBatch`
pass; bit-identical to planning each request alone, which the parity
suite pins).  ``plan_lu`` / ``plan_cholesky`` / ``plan_gemm`` are thin
wrappers that build the request; the atlas/service layer
(:mod:`repro.planner.atlas`, :mod:`repro.planner.service`) keys its
caches on the request.

The ranking key is the paper's primary metric — *counted* received
words per rank: every candidate's schedule is evaluated through the
engine's closed-form trace evaluator
(:meth:`~repro.engine.schedule.Schedule.trace_stats` with
``steps="none"``), which sums the schedule's declarative cost terms
analytically per rank in O(P) — the same accounting the trace backend
produces, so the planner ranks by what a run would actually count, not
by a separate analytic model.  The perf-model time estimate tie-breaks
configurations whose volumes agree (e.g. SUMMA strip widths, which
trade only message counts).  Feasibility here is exactly
:mod:`repro.api`'s pre-flight gate: a configuration the planner rejects
for a budget ``M`` is one ``pdgetrf``/``pdpotrf``/``pdgemm`` would
refuse up front on a machine enforcing ``M`` (pass ``api_copies`` for
the layout copies those entry points keep alive).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

from .. import obs
from ..engine.accounting import TermBatch
from ..engine.schedule import Schedule
from ..factorizations.registry import OPS, build
from ..machine.perf_model import PIZ_DAINT_XC40, MachineParams, PerfModel
from .candidates import (
    panel_candidates,
    replication_candidates,
    strip_candidates,
    tile_candidates,
)

__all__ = ["Plan", "PlannedConfig", "PlanRequest", "NoFeasiblePlanError",
           "planner_labels",
           "plan_request", "plan_batch",
           "plan_lu", "plan_cholesky", "plan_gemm"]


class NoFeasiblePlanError(ValueError):
    """No schedule configuration fits the given (N, P, M)."""


@dataclasses.dataclass(frozen=True)
class PlanRequest:
    """One planning question, in canonical form.

    ``op`` is the problem kind (``"lu"``, ``"cholesky"``, ``"gemm"``),
    ``n``/``p`` the problem size and rank count, ``mem_words`` the
    per-rank budget (None = unbounded; ``inf`` normalizes to None) and
    ``api_copies`` the ``N^2/P``-per-rank layout copies the caller
    keeps alive (the API entry points' pre-flight gate arithmetic).
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
    ``mem_margin`` is the budget headroom left above the schedule's
    ``required_words`` plus the API's layout copies (``inf`` on an
    unbounded machine).
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


def _candidates(req: PlanRequest) -> list[tuple]:
    """Every instantiable ``(impl, schedule, params, msgs)`` of one
    request: the restricted (or full) label set times each label's
    parameter grid."""
    n, p = req.n, req.p
    cands: list[tuple] = []
    for label in req.impls or planner_labels(req.op):
        grid, msgs = _SEARCH[req.op, label]
        for params in grid(n, p, req.budget):
            try:
                sched = build(req.op, label, n, p, **params)
            except ValueError:
                continue
            cands.append((label, sched, params, msgs(sched)))
    return cands


# ----------------------------------------------------------------------
# Gate -> score -> rank.

def _gate(cands: list[tuple], budget: float,
          api_copies: int) -> list[tuple]:
    """The memory gate (cheap, runs before any scoring): keep the
    candidates whose ``required_words`` plus the API's layout copies
    fit the budget."""
    survivors = []
    for impl, sched, params, msgs in cands:
        n, p = sched.n, sched.nranks
        needed = sched.required_words() + api_copies * float(n) * n / p
        margin = budget - needed
        if margin >= 0:
            survivors.append((impl, sched, params, msgs, needed, margin))
    return survivors


def _configs_from(survivors: list[tuple], words_list: list[float],
                  flops_per_rank: float,
                  machine_params: MachineParams) -> list[PlannedConfig]:
    model = PerfModel(machine_params)
    configs = []
    for (impl, sched, params, msgs, needed, margin), words in zip(
            survivors, words_list):
        n, p = sched.n, sched.nranks
        time_s = model.time_closed_form(
            flops_per_rank, words, msgs, local_words=float(n) * n / p)
        configs.append(PlannedConfig(
            impl=impl, schedule=type(sched).__name__, params=params,
            predicted_words=words, predicted_time_s=time_s,
            required_words=needed, mem_margin=margin))
    return configs


def _no_feasible_error(problem: str, n: int, p: int,
                       budget: float) -> NoFeasiblePlanError:
    return NoFeasiblePlanError(
        f"no feasible {problem} configuration for N={n}, P={p}, "
        f"M={budget:.4g} words — every candidate's required_words "
        f"(plus API layout copies) exceeds the budget")


def plan_batch(requests: list[PlanRequest],
               machine_params: MachineParams = PIZ_DAINT_XC40,
               strict: bool = True) -> list[Plan | None]:
    """Plan many requests at once — *the* planning pipeline.

    Every request's candidates are enumerated and memory-gated, then
    **all** survivors across the whole batch reduce in a single
    :class:`TermBatch` pass.  TermBatch reduction is
    composition-independent — each candidate's stats are bit-identical
    to a batch of one — so the returned plans equal planning each
    request alone, in order.

    With ``strict`` (the default) an infeasible request raises
    :class:`NoFeasiblePlanError` exactly as :func:`plan_request` does;
    ``strict=False`` yields ``None`` in that request's slot instead, so
    a caller batching unrelated questions (the atlas builder, the
    service's ``plan_many``) keeps the feasible answers.
    """
    tel = obs.default_telemetry()
    t0 = tel.clock()
    candidates = 0
    try:
        with tel.span("plan.batch", cat="planner",
                      requests=len(requests)):
            staged = []
            batch = TermBatch()
            for req in requests:
                flops = OPS[req.op].flops(req.n, req.p)
                survivors = _gate(_candidates(req), req.budget,
                                  req.api_copies)
                candidates += len(survivors)
                for _, sched, *_ in survivors:
                    batch.add(sched)
                staged.append((req, flops, survivors))
            all_stats = batch.evaluate()
            plans: list[Plan | None] = []
            offset = 0
            for req, flops, survivors in staged:
                words_list = [st.mean_recv_words for st in
                              all_stats[offset:offset + len(survivors)]]
                offset += len(survivors)
                configs = _configs_from(survivors, words_list, flops,
                                        machine_params)
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

    ``mem_words`` is the per-rank budget (None = unbounded);
    ``api_copies`` adds the ``N^2/P``-per-rank layout copies
    :func:`repro.api.pdgetrf` keeps alive, so feasibility here equals
    its pre-flight gate.  ``impls`` restricts the search (None = every
    planner label; ``("conflux",)`` tunes COnfLUX's ``(c, v)`` alone).
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
