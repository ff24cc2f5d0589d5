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
from ..machine.perf_model import PIZ_DAINT_XC40, MachineParams, PerfModel
from .candidates import (
    panel_candidates,
    replication_candidates,
    strip_candidates,
    tile_candidates,
)

__all__ = ["Plan", "PlannedConfig", "PlanRequest", "NoFeasiblePlanError",
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
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; have "
                             f"{', '.join(sorted(_OPS))}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "api_copies", int(self.api_copies))
        if self.mem_words is not None:
            mem = float(self.mem_words)
            object.__setattr__(self, "mem_words",
                               None if math.isinf(mem) else mem)
        if self.impls is not None:
            impls = tuple(self.impls)
            # Canonical form: spelling out the op's full default search
            # space is the same question as not restricting it at all
            # (the service/atlas key on the request, so the two must
            # compare equal).
            if impls == _DEFAULT_IMPLS[self.op]:
                impls = None
            object.__setattr__(self, "impls", impls)

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
# Candidate enumeration, per op.  Each enumerator returns
# ``(flops_per_rank, [(impl, schedule, params, msgs), ...])`` for one
# request; the scoring/gating pipeline below is op-independent.

def _lu_candidates(req: PlanRequest) -> tuple[float, list[tuple]]:
    from ..factorizations import ConfluxSchedule
    from ..factorizations.baselines.scalapack_lu import ScalapackLUSchedule

    n, p, budget = req.n, req.p, req.budget
    impls = req.impls or ("conflux", "scalapack")
    flops = 2.0 * n ** 3 / (3.0 * p)
    cands: list[tuple] = []
    if "conflux" in impls:
        for c in replication_candidates(p, n, budget):
            for v in tile_candidates(n, c):
                try:
                    sched = ConfluxSchedule(n, p, v=v, c=c)
                except ValueError:
                    continue
                cands.append(("conflux", sched, {"v": v, "c": c},
                              (n // v) * (3 + _lg(p))))
    if "scalapack" in impls:
        for nb in panel_candidates(n):
            try:
                # The API's 2D route runs without MKL's panel
                # rebroadcast, so score the matching model.
                sched = ScalapackLUSchedule(n, p, nb=nb,
                                            panel_rebroadcast=False)
            except ValueError:
                continue
            cands.append(("scalapack", sched, {"nb": nb},
                          n * _lg(p) + 4 * (n // nb)))
    return flops, cands


def _cholesky_candidates(req: PlanRequest) -> tuple[float, list[tuple]]:
    from ..factorizations import ConfchoxSchedule
    from ..factorizations.baselines.scalapack_chol import (
        ScalapackCholeskySchedule,
    )

    n, p, budget = req.n, req.p, req.budget
    impls = req.impls or ("confchox", "scalapack")
    flops = n ** 3 / (3.0 * p)
    cands: list[tuple] = []
    if "confchox" in impls:
        for c in replication_candidates(p, n, budget):
            for v in tile_candidates(n, c):
                try:
                    sched = ConfchoxSchedule(n, p, v=v, c=c)
                except ValueError:
                    continue
                cands.append(("confchox", sched, {"v": v, "c": c},
                              (n // v) * (3 + _lg(p))))
    if "scalapack" in impls:
        for nb in panel_candidates(n):
            try:
                sched = ScalapackCholeskySchedule(n, p, nb=nb)
            except ValueError:
                continue
            cands.append(("scalapack", sched, {"nb": nb},
                          4 * (n // nb)))
    return flops, cands


def _gemm_candidates(req: PlanRequest) -> tuple[float, list[tuple]]:
    # Volume is independent of the strip width ``s`` (rounds x strip is
    # fixed), so the perf-model tie-break picks the widest strip —
    # fewer rounds, fewer messages.
    from ..factorizations import Matmul25DSchedule

    n, p, budget = req.n, req.p, req.budget
    flops = 2.0 * n ** 3 / p
    cands: list[tuple] = []
    for c in replication_candidates(p, n, budget, copies=3):
        for s in strip_candidates(n, c):
            try:
                sched = Matmul25DSchedule(n, p, s=s, c=c)
            except ValueError:
                continue
            cands.append(("25d", sched, {"s": s, "c": c},
                          2.0 * sched.rounds + c))
    return flops, cands


_OPS = {
    "lu": _lu_candidates,
    "cholesky": _cholesky_candidates,
    "gemm": _gemm_candidates,
}

_DEFAULT_IMPLS = {
    "lu": ("conflux", "scalapack"),
    "cholesky": ("confchox", "scalapack"),
    "gemm": ("25d",),
}


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
                flops, cands = _OPS[req.op](req)
                survivors = _gate(cands, req.budget, req.api_copies)
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
            impls: tuple[str, ...] = ("conflux", "scalapack")) -> Plan:
    """Plan an LU factorization: COnfLUX (2.5D tournament pivoting) vs
    the 2D partial-pivoting baseline, every feasible parameterization.

    ``mem_words`` is the per-rank budget (None = unbounded);
    ``api_copies`` adds the ``N^2/P``-per-rank layout copies
    :func:`repro.api.pdgetrf` keeps alive, so feasibility here equals
    its pre-flight gate.  ``impls`` restricts the search
    (``("conflux",)`` tunes COnfLUX's ``(c, v)`` alone).
    """
    return plan_request(
        PlanRequest(op="lu", n=n, p=p, mem_words=mem_words,
                    api_copies=api_copies, impls=tuple(impls)),
        machine_params=machine_params)


def plan_cholesky(n: int, p: int, mem_words: float | None = None,
                  machine_params: MachineParams = PIZ_DAINT_XC40,
                  api_copies: int = 0,
                  impls: tuple[str, ...] = ("confchox", "scalapack"),
                  ) -> Plan:
    """Plan a Cholesky factorization: COnfCHOX vs the 2D baseline."""
    return plan_request(
        PlanRequest(op="cholesky", n=n, p=p, mem_words=mem_words,
                    api_copies=api_copies, impls=tuple(impls)),
        machine_params=machine_params)


def plan_gemm(n: int, p: int, mem_words: float | None = None,
              machine_params: MachineParams = PIZ_DAINT_XC40,
              api_copies: int = 0) -> Plan:
    """Plan a square matmul: the 2.5D SUMMA over (c, s) candidates."""
    return plan_request(
        PlanRequest(op="gemm", n=n, p=p, mem_words=mem_words,
                    api_copies=api_copies),
        machine_params=machine_params)
