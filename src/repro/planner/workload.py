"""Workload-DAG planning: choose schedules for a *program*, jointly.

Real traffic against a ScaLAPACK-compatible library is pipelines —
factor-then-solve, repeated factorizations sharing an operand, mixed
GEMM+LU chains — not isolated calls.  Planned one call at a time, each
pd* entry point picks its own native layout and the pipeline pays a
COSTA reshuffle at every stage boundary even when two adjacent stages
could have agreed on a layout for free.

This module adds the workload IR and the joint planner:

* :class:`WorkloadNode` — one pd* call: ``op`` (``"lu"`` /
  ``"cholesky"`` / ``"gemm"``), problem size ``n``, and the names of
  its operands.  An operand name that matches an *earlier* node is a
  DAG edge (the node consumes that node's output); any other name is
  an external input the caller will provide.
* :class:`WorkloadRequest` — a short DAG of nodes in topological
  order plus the machine shape ``(p, mem_words)``.  Canonical and
  hashable like :class:`~repro.planner.core.PlanRequest`, with a
  :meth:`~WorkloadRequest.token` the atlas/service caches key on.
* :func:`plan_workload` — per-node candidates come from the same
  enumerator as single-call planning, in one
  :func:`~repro.planner.core.plan_batch`: equal nodes share their
  reductions, and each node's standalone ranking is bit-identical to
  :func:`~repro.planner.core.plan_request` (the parity tests pin it).
  DAG assignments — one candidate per node — are ranked, best first,
  by total counted words *including* the closed-form COSTA conversion
  words (:func:`~repro.layouts.conversion_words`) charged on every edge
  whose producer/consumer native layouts differ, with repeated layouts
  of a shared operand amortized: only the first consumer of each
  distinct layout pays.

The conversion charge is a *planning model* of the cross-stage
reshuffles: per shared operand, each distinct native layout among its
consumers is charged once (``conversion_words(anchor, layout) / p``,
per-rank, where the anchor is the producer's native layout for node
outputs and the first consumer's layout for external inputs — the
external's caller layout is unknown at planning time, so its
unavoidable first reshuffle is a constant outside the objective).
Execution (:func:`repro.api.run_workload`) realizes the amortization
by keeping native copies resident and adopting them when a later node
asks for the same layout; the model and the run agree that repeated
layouts are free and distinct layouts are not, which is what the joint
ranking needs.

A request's node order *is* the execution order: :func:`_frontier`
replays what the run keeps resident around each node, and an assignment
that overflows the budget there is no plan.
"""

from __future__ import annotations

import dataclasses
import heapq
import math

from .. import obs
from ..engine.schedule import Schedule
from ..factorizations.registry import OPS, build, width
from ..layouts import BlockCyclicLayout, conversion_words
from ..machine.perf_model import PIZ_DAINT_XC40, MachineParams
from .core import (
    NoFeasiblePlanError,
    Plan,
    PlannedConfig,
    PlanRequest,
    _canonical_impls,
    _gate,
    _rank_key,
    call_memory,
    native_layout,
    plan_batch,
)

__all__ = ["WorkloadNode", "WorkloadRequest", "WorkloadAssignment",
           "WorkloadPlan", "EdgeConversion", "plan_workload",
           "config_schedule", "native_layout"]


@dataclasses.dataclass(frozen=True)
class WorkloadNode:
    """One pd* call inside a workload DAG.

    ``inputs`` name the operands in call order; a name matching an
    earlier node in the request consumes that node's output, anything
    else is an external input.  ``impls`` optionally restricts this
    node's candidate implementations (None = the op's full search
    space, canonicalized exactly like :class:`PlanRequest.impls`).
    """

    name: str
    op: str
    n: int
    inputs: tuple[str, ...]
    impls: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload node needs a non-empty name")
        object.__setattr__(self, "impls",
                           _canonical_impls(self.op, self.impls))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        arity = OPS[self.op].arity
        if len(self.inputs) != arity:
            raise ValueError(
                f"node {self.name!r}: {self.op} takes "
                f"{arity} operand(s), got {len(self.inputs)}")


@dataclasses.dataclass(frozen=True)
class WorkloadRequest:
    """A workload-planning question, in canonical form.

    ``nodes`` is the DAG in execution order (a node may only consume
    outputs of nodes listed before it); ``p`` the rank count and
    ``mem_words`` the per-rank budget (None = unbounded, ``inf``
    normalizes to None).

    Instances are hashable and canonical, so the service LRU can key
    on them directly and the atlas can derive a content-addressed
    token from :meth:`token` — exactly the :class:`PlanRequest`
    contract.
    """

    nodes: tuple[WorkloadNode, ...]
    p: int
    mem_words: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "p", int(self.p))
        if self.mem_words is not None:
            mem = float(self.mem_words)
            object.__setattr__(self, "mem_words",
                               None if math.isinf(mem) else mem)
        if not self.nodes:
            raise ValueError("workload needs at least one node")
        seen: dict[str, WorkloadNode] = {}
        external_n: dict[str, int] = {}
        for node in self.nodes:
            if node.name in seen:
                raise ValueError(f"duplicate node name {node.name!r}")
            if node.name in external_n:
                raise ValueError(
                    f"node name {node.name!r} already used as an "
                    f"external operand by an earlier node")
            for ref in node.inputs:
                if ref == node.name:
                    raise ValueError(f"node {node.name!r} consumes itself")
                producer = seen.get(ref)
                ref_n = (producer.n if producer is not None
                         else external_n.setdefault(ref, node.n))
                if ref_n != node.n:
                    raise ValueError(
                        f"node {node.name!r} (n={node.n}) consumes "
                        f"{ref!r} of size n={ref_n}; workload chains "
                        f"are square")
            seen[node.name] = node

    @property
    def budget(self) -> float:
        """The budget as a float (``inf`` when unbounded)."""
        return math.inf if self.mem_words is None else self.mem_words

    def externals(self) -> tuple[str, ...]:
        """External operand names, in first-use order."""
        names = {node.name for node in self.nodes}
        out: dict[str, None] = {}
        for node in self.nodes:
            for ref in node.inputs:
                if ref not in names:
                    out.setdefault(ref)
        return tuple(out)

    def producers(self) -> dict[str, int]:
        """Node-output operand name -> producing node index."""
        return {node.name: idx for idx, node in enumerate(self.nodes)}

    def last_use(self) -> dict[str, int]:
        """Operand -> index of its last user (its producer, if none)."""
        nodes = list(enumerate(self.nodes))
        return {**{node.name: idx for idx, node in nodes},
                **{ref: idx for idx, node in nodes for ref in node.inputs}}

    def node_requests(self) -> list[PlanRequest]:
        """The per-node :class:`PlanRequest` list (what the joint
        planner feeds :func:`plan_batch`): node ``k`` runs while the
        caller holds every external and the ``k`` earlier outputs."""
        return [PlanRequest(
            op=node.op, n=node.n, p=self.p, mem_words=self.mem_words,
            api_copies=len(self.externals()) + idx, impls=node.impls)
            for idx, node in enumerate(self.nodes)]

    def token(self) -> str:
        """A stable string spelling out the whole DAG — the atlas's
        cache-key payload, like :meth:`PlanRequest.token`."""
        mem = "inf" if self.mem_words is None else repr(self.mem_words)
        nodes = ";".join(
            f"{node.name}={node.op}:{node.n}"
            f"<-{','.join(node.inputs)}"
            + ("" if node.impls is None else f"!{','.join(node.impls)}")
            for node in self.nodes)
        return f"workload|p={self.p}|mem={mem}|nodes={nodes}"


# ----------------------------------------------------------------------
# Config -> schedule (shared with repro.api).

def config_schedule(op: str, n: int, p: int,
                    config: PlannedConfig) -> tuple[Schedule, int]:
    """Instantiate the engine schedule a :class:`PlannedConfig` names;
    returns ``(schedule, v_run)`` where ``v_run`` is the scalar tile /
    panel / strip width the pd* layer reports."""
    sched = build(op, config.impl, n, p, **config.params)
    return sched, width(sched)


# ----------------------------------------------------------------------
# The joint plan.

@dataclasses.dataclass(frozen=True)
class EdgeConversion:
    """One charged cross-stage conversion: ``consumer`` node's operand
    ``operand`` arrives in a layout not yet resident, costing ``words``
    counted words per rank."""

    consumer: str
    operand: str
    words: float


@dataclasses.dataclass(frozen=True)
class WorkloadAssignment:
    """One candidate per node, scored jointly.

    ``node_words`` sums the per-node counted factorization words (per
    rank), ``conversion_words`` the charged cross-stage conversions
    (per rank, amortized across consumers sharing a layout),
    ``edges`` itemizes the charges, and ``node_peaks`` the planned
    per-rank peak of every node: ``max(node_peaks)`` words run it.
    """

    configs: tuple[PlannedConfig, ...]
    node_words: float
    conversion_words: float
    edges: tuple[EdgeConversion, ...]
    node_peaks: tuple[float, ...]

    @property
    def total_words(self) -> float:
        return self.node_words + self.conversion_words

    def describe(self) -> str:
        impls = ", ".join(cfg.impl for cfg in self.configs)
        return (f"[{impls}]: {self.node_words:.4g} node words + "
                f"{self.conversion_words:.4g} conversion = "
                f"{self.total_words:.4g}")


@dataclasses.dataclass(frozen=True)
class WorkloadPlan:
    """The joint planner's answer for one workload.

    ``node_plans`` holds each node's standalone :class:`Plan` (bit-
    identical to :func:`plan_request` on the node's own request —
    single-node workloads pin this), ``ranked`` the scored DAG
    assignments best first, and ``independent`` the assignment made of
    each node's standalone winner — the baseline the joint ``chosen``
    cannot exceed while that assignment fits the budget itself, since
    every standalone winner is in the joint search space.
    """

    request: WorkloadRequest
    node_plans: tuple[Plan, ...]
    ranked: tuple[WorkloadAssignment, ...]
    independent: WorkloadAssignment

    @property
    def chosen(self) -> WorkloadAssignment:
        return self.ranked[0]

    def summary(self) -> str:
        budget = ("unbounded" if math.isinf(self.request.budget)
                  else f"{self.request.budget:.4g} words")
        lines = [f"workload[{len(self.request.nodes)} nodes] "
                 f"P={self.request.p} M={budget}: "
                 f"{self.chosen.describe()}"]
        for node, cfg in zip(self.request.nodes, self.chosen.configs):
            lines.append(f"  {node.name}: {cfg.describe()}")
        for edge in self.chosen.edges:
            lines.append(f"  convert {edge.operand} -> {edge.consumer}: "
                         f"{edge.words:.4g} words")
        saved = self.independent.total_words - self.chosen.total_words
        if saved > 0:
            lines.append(f"  saves {saved:.4g} words vs independent "
                         f"per-call planning")
        return "\n".join(lines)


def _frontier(request: WorkloadRequest, combo: tuple) -> tuple[float, ...]:
    """Planned peak words per rank at every node of one assignment of
    ``(config, schedule, native layout)``: the plan-time replay of what
    :func:`repro.api.run_workload` keeps resident.  Every external and
    earlier output is held at a balanced ``N^2/P`` (the descriptors are
    unknown; an intermediate counts as named in ``out_names``, so the
    plan bounds the run either way); the native copies of an operand
    that outlives a node, from their layouts, until it retires."""
    last_use = request.last_use()
    words = {ref: float(node.n) * node.n / request.p
             for node in request.nodes for ref in (*node.inputs, node.name)}
    held = sum(words[ref] for ref in request.externals())
    live: dict[str, set[BlockCyclicLayout]] = {}
    peaks = []
    for idx, (node, (_, sched, layout)) in enumerate(zip(request.nodes,
                                                          combo)):
        for ref in (*node.inputs, node.name):
            if last_use[ref] > idx:
                live.setdefault(ref, set())
        fresh = {ref for ref in node.inputs
                 if layout not in live.get(ref, ())}
        kept = fresh & live.keys()
        natives = sum(lay.local_words(0)
                      for lays in live.values() for lay in lays)
        peaks.append(call_memory(sched, layout, held + natives,
                                 len(fresh), len(kept)).words)
        for ref in kept | ({node.name} & live.keys()):
            live[ref].add(layout)
        held += words[node.name]
        for ref in [ref for ref in live if last_use[ref] == idx]:
            del live[ref]
    return tuple(peaks)


def _score(request: WorkloadRequest, producers: dict[str, int],
           combo: tuple, conv_cache: dict) -> WorkloadAssignment:
    """Score one DAG assignment: node words plus amortized per-rank
    conversion charges (see the module docstring for the model)."""
    p = request.p
    node_words = sum(cfg.predicted_words for cfg, _, _ in combo)
    conv_total = 0.0
    edges: list[EdgeConversion] = []
    # Per operand: the anchor layout conversions are charged from, and
    # the layouts already paid for (resident at run time).
    anchors: dict[str, BlockCyclicLayout] = {}
    paid: dict[str, set] = {}
    for node, (_, _, layout) in zip(request.nodes, combo):
        for ref in node.inputs:
            if ref not in anchors:
                # First touch: a node output anchors at its producer's
                # native layout; an external anchors at this (first)
                # consumer's layout — its caller-layout reshuffle is
                # assignment-independent, hence not in the objective.
                idx = producers.get(ref)
                anchors[ref] = combo[idx][2] if idx is not None else layout
                paid[ref] = {anchors[ref]}
            if layout in paid[ref]:
                continue
            paid[ref].add(layout)
            key = (anchors[ref], layout)
            if key not in conv_cache:
                conv_cache[key] = conversion_words(anchors[ref], layout)
            words = conv_cache[key] / p
            conv_total += words
            edges.append(EdgeConversion(consumer=node.name, operand=ref,
                                        words=words))
    return WorkloadAssignment(
        configs=tuple(cfg for cfg, _, _ in combo), node_words=node_words,
        conversion_words=conv_total, edges=tuple(edges), node_peaks=())


def _assignment_key(assignment: WorkloadAssignment) -> tuple:
    return (assignment.total_words, assignment.conversion_words,
            tuple(_rank_key(cfg) for cfg in assignment.configs))


def _no_fit(request: WorkloadRequest, idx: int,
            peak: float) -> NoFeasiblePlanError:
    node = request.nodes[idx]
    holding = (*request.externals(), *(n.name for n in request.nodes[:idx]))
    err = NoFeasiblePlanError(
        f"workload node {node.name!r} ({node.op}, N={node.n}, P={request.p}) "
        f"fits under no assignment: holding {', '.join(holding)} it needs "
        f"at least {peak:.0f} words per rank, over M = {request.budget:.0f}")
    err.node, err.peak_words = node.name, peak
    return err


_MAX_SCORED = 100_000       # assignments one pass of the search scores


def _best_first(request: WorkloadRequest, lists: list[list],
                conv_cache: dict, scored: list[tuple]):
    """``(assignment, combo)`` of every assignment of one candidate per
    list (each sorted by words), in :func:`_assignment_key` order,
    scored lazily, into ``scored``.  Index tuples leave ``frontier`` in
    non-decreasing ``sum(predicted_words)`` — a lower bound on
    ``total_words``, conversions being >= 0 — each once (a successor
    raises an index at or after the last one raised); the best pair
    ``waiting`` goes out only when *strictly* below the next bound (at
    equality an unscored one could still win on conversion words)."""
    producers = request.producers()

    def entry(idx: tuple, raised: int) -> tuple:
        combo = tuple(cands[i] for cands, i in zip(lists, idx))
        return (sum(cfg.predicted_words for cfg, _, _ in combo), idx,
                raised, combo)

    frontier, waiting = [entry((0,) * len(lists), 0)], []
    stop = len(scored) + _MAX_SCORED
    while frontier and len(scored) < stop:
        _, idx, raised, combo = heapq.heappop(frontier)
        scored.append((_score(request, producers, combo, conv_cache), combo))
        heapq.heappush(waiting, (_assignment_key(scored[-1][0]), scored[-1]))
        for j in range(raised, len(lists)):
            if idx[j] + 1 < len(lists[j]):
                heapq.heappush(frontier, entry(
                    (*idx[:j], idx[j] + 1, *idx[j + 1:]), j))
        while waiting and frontier and waiting[0][0][0] < frontier[0][0]:
            yield heapq.heappop(waiting)[1]
    while waiting:
        yield heapq.heappop(waiting)[1]


def plan_workload(request: WorkloadRequest,
                  machine_params: MachineParams = PIZ_DAINT_XC40,
                  top_k: int = 6, keep: int = 8) -> WorkloadPlan:
    """Jointly plan a workload DAG.

    Per-node candidates come from one :func:`plan_batch`; each node's
    ``top_k`` best enter the joint search, which walks their product
    best first (:func:`_best_first`) and scores no more assignments than
    the best ``keep`` take to settle.  One whose ``node_peaks`` exceed
    the budget anywhere is dropped — should none be left, the search is
    repeated over each node's ``top_k`` *leanest* configurations.

    Raises :class:`NoFeasiblePlanError` with the first ``node`` no
    assignment gets past and the smallest ``peak_words`` planned for it.
    """
    for name, value in (("top_k", top_k), ("keep", keep)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    requests = request.node_requests()
    node_plans = tuple(plan_batch(requests, machine_params=machine_params,
                                  strict=False))
    for idx, plan in enumerate(node_plans):
        if plan is None:
            free = dataclasses.replace(requests[idx], mem_words=None)
            raise _no_fit(request, idx, min(
                (cand[4] for cand in _gate(free)), default=math.inf))

    conv_cache: dict = {}
    scored: list[tuple] = []        # (assignment, combo), as scored
    ranked: list[WorkloadAssignment] = []
    stuck, least = 0, math.inf      # furthest overflowing node, its peak
    product = 0
    with obs.span("plan.workload", cat="planner",
                  nodes=len(request.nodes)) as span:
        for order in (_rank_key, lambda cfg: cfg.required_words):
            # The top_k by ``order``, in rank order: fewest words first.
            cand_lists = [[(cfg, (sched := config_schedule(
                                node.op, node.n, request.p, cfg)[0]),
                            native_layout(node.op, sched))
                           for cfg in sorted(sorted(plan.ranked, key=order)
                                             [:top_k], key=_rank_key)]
                          for node, plan in zip(request.nodes, node_plans)]
            product += math.prod(len(cands) for cands in cand_lists)
            for assignment, combo in _best_first(request, cand_lists,
                                                 conv_cache, scored):
                peaks = _frontier(request, combo)
                over = next((k for k, peak in enumerate(peaks)
                             if peak > request.budget), None)
                if over is None:
                    ranked.append(dataclasses.replace(assignment,
                                                      node_peaks=peaks))
                    if len(ranked) == keep:
                        break
                elif (over, -peaks[over]) > (stuck, -least):
                    stuck, least = over, peaks[over]
            if ranked:
                break
        span.set(product=product, scored=len(scored),
                 conversions=len(conv_cache))
    obs.metrics().counter("planner.assignments_scored").inc(len(scored))
    if not ranked:
        raise _no_fit(request, stuck, least)
    winners, combo = scored[0]      # lowest bound of the first pass
    return WorkloadPlan(request, node_plans, tuple(ranked), dataclasses.replace(
        winners, node_peaks=_frontier(request, combo)))
