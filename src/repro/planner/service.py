"""The planning service: warm-cache plan lookups.

``PlanService`` is the front-end the ``millions-of-users`` story needs:
"best schedule for this problem on this machine" answered from an
in-process LRU in O(1), from a precomputed
:class:`~repro.planner.atlas.PlanAtlas` on first touch, and by live
planning only when neither holds the answer.  Resolution
order for one :class:`~repro.planner.core.PlanRequest`:

1. **LRU** — exact request key, pure dict lookup;
2. **atlas, exact** — the content-addressed entry for the request
   (bit-identical to live planning: the stored object *is* the live
   planner's output, and the fingerprinted keying means an edited code
   base reads as cold, never as stale);
3. **atlas, snapped** — the nearest dominated lattice point (same
   ``(op, n, p, api_copies, impls)``, largest lattice budget that does
   not exceed the query's), whose plan is provably feasible for the
   query though possibly conservative;
4. **live** — :func:`~repro.planner.core.plan_batch` of the one
   request; the answer is remembered in the LRU.

All resolution state (the LRU, the counters, live planning) sits behind
one ``threading.Lock``, so a service shared between threads is safe and
overlapping queries for the same request live-plan it exactly once.

``plan_workload`` serves :class:`~repro.planner.workload.WorkloadRequest`
DAGs through the same hierarchy (minus budget snapping, which has no
workload analogue): the joint :class:`WorkloadPlan` is LRU- and
atlas-cacheable exactly like a single-call :class:`Plan`.

Infeasible requests cost once: the :class:`NoFeasiblePlanError` is
cached (as an :class:`~repro.planner.atlas.Infeasible` marker) and
replayed on every repeat.

:func:`default_service` is the module-level instance
:mod:`repro.api`'s ``impl="auto"`` consults (install another with
:func:`set_default_service`) — repeated auto calls on same-shaped
machines hit the LRU instead of re-planning.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .. import obs
from ..machine.perf_model import PIZ_DAINT_XC40, MachineParams
from .atlas import Infeasible, PlanAtlas, _plan_live
from .core import NoFeasiblePlanError, Plan, PlanRequest
from .workload import WorkloadPlan, WorkloadRequest

__all__ = ["PlanService", "ServiceStats", "default_service",
           "set_default_service"]


class ServiceStats:
    """Resolution counters, by path (one increment per
    :meth:`~PlanService.plan` or :meth:`~PlanService.plan_workload`
    call).

    Since the telemetry layer landed this is a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry` — each field reads and
    writes the counter ``plan.service.{field}``, so the same numbers
    appear in the service's metrics snapshot and in every place that
    predates the registry (``service.stats.lru_hits`` still works,
    including ``+=``).  A standalone ``ServiceStats()`` creates its own
    private registry; :class:`PlanService` passes its service-level one
    so each service stays independently countable (the parity tests
    assert exact per-service values on fresh instances).
    """

    _FIELDS = ("lru_hits", "lru_misses", "atlas_hits", "atlas_snaps",
               "live_plans")
    _PREFIX = "plan.service"

    def __init__(self, registry: "obs.MetricsRegistry | None" = None,
                 **values: int) -> None:
        object.__setattr__(self, "_registry",
                           registry if registry is not None
                           else obs.MetricsRegistry())
        unknown = set(values) - set(self._FIELDS)
        if unknown:
            raise TypeError(f"unknown ServiceStats fields: {sorted(unknown)}")
        for name in self._FIELDS:
            self._counter(name).set(values.get(name, 0))

    def _counter(self, name: str):
        return self._registry.counter(f"{self._PREFIX}.{name}")

    def __getattr__(self, name: str) -> int:
        if name in type(self)._FIELDS:
            return int(self._counter(name).value)
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if name in type(self)._FIELDS:
            self._counter(name).set(value)
        else:
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ServiceStats):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)}" for f in self._FIELDS)
        return f"ServiceStats({fields})"

    def reset(self) -> None:
        """Zero every resolution counter (the registrations survive)."""
        for name in self._FIELDS:
            self._counter(name).set(0)

    @property
    def served(self) -> int:
        return self.lru_hits + self.lru_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of resolutions answered without live planning
        (0.0 when nothing has been served yet — no division)."""
        if not self.served:
            return 0.0
        return 1.0 - self.live_plans / self.served


class PlanService:
    """Read-mostly planning with warm caches.

    Parameters
    ----------
    atlas:
        Optional precomputed :class:`PlanAtlas`; None serves from the
        LRU + live planning only.
    lru_size:
        In-process LRU capacity (distinct requests).
    machine_params:
        Machine model used for live planning — pass the atlas's
        ``machine_params`` when serving from one, so fallback plans are
        scored the same way.

    Off-lattice queries snap to the nearest dominated lattice point
    (see :meth:`PlanAtlas.snap_candidates`) before planning live.
    """

    def __init__(self, atlas: PlanAtlas | None = None, lru_size: int = 1024,
                 machine_params: MachineParams = PIZ_DAINT_XC40) -> None:
        if atlas is not None and atlas.machine_params != machine_params:
            raise ValueError(
                "atlas was built for different machine_params; serve it "
                "with the parameters it was scored for")
        self.atlas = atlas
        self.lru_size = int(lru_size)
        self.machine_params = machine_params
        # Per-service registry: the resolution counters must stay
        # independently countable per instance (the global registry
        # would pool every service's numbers together).
        self.metrics = obs.MetricsRegistry()
        self.stats = ServiceStats(registry=self.metrics)
        self._lru: OrderedDict[PlanRequest | WorkloadRequest,
                               Plan | WorkloadPlan | Infeasible] = \
            OrderedDict()
        # One lock over lookup + remember + stats + live planning: the
        # OrderedDict/counters are not safe to mutate concurrently.
        # Holding it across live planning also means concurrent queries
        # for the same request plan it once — the second thread finds
        # the first's answer in the LRU.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _remember(self, request: PlanRequest,
                  value: Plan | Infeasible) -> None:
        self._lru[request] = value
        self._lru.move_to_end(request)
        while len(self._lru) > self.lru_size:
            self._lru.popitem(last=False)

    def _lookup(self, request: PlanRequest) -> Plan | Infeasible | None:
        """LRU -> atlas (exact, then snapped) -> None; counts one
        resolution attempt."""
        cached = self._lru.get(request)
        if cached is not None:
            self._lru.move_to_end(request)
            self.stats.lru_hits += 1
            return cached
        self.stats.lru_misses += 1
        if self.atlas is None:
            return None
        value = self.atlas.get(request)
        if value is not None:
            self.stats.atlas_hits += 1
            self._remember(request, value)
            return value
        if isinstance(request, PlanRequest):
            for point in self.atlas.snap_candidates(request):
                value = self.atlas.get(point)
                # An infeasible *smaller* budget proves nothing about
                # this query's larger one: keep looking, or plan live.
                if value is not None and not isinstance(value, Infeasible):
                    self.stats.atlas_snaps += 1
                    self._remember(request, value)
                    return value
        return None

    def _serve(self, request: PlanRequest | WorkloadRequest, span: str,
               **attrs) -> Plan | WorkloadPlan:
        """LRU -> atlas -> live, remembering the answer; an
        :class:`Infeasible` one raises :class:`NoFeasiblePlanError`."""
        tel = obs.default_telemetry()
        with tel.span(span, cat="planner", **attrs) as sp, self._lock:
            value = self._lookup(request)
            if value is None:
                self.stats.live_plans += 1
                sp.set(resolved="live")
                with tel.span("plan.live", cat="planner", **attrs):
                    [value] = _plan_live([request], self.machine_params)
                self._remember(request, value)
            else:
                sp.set(resolved="cached")
        if isinstance(value, Infeasible):
            raise NoFeasiblePlanError(value.message)
        return value

    def plan(self, request: PlanRequest) -> Plan:
        """The plan for one request (raises
        :class:`NoFeasiblePlanError`, cached, when nothing fits)."""
        return self._serve(request, "plan.service.plan")

    def plan_workload(self, request: WorkloadRequest) -> WorkloadPlan:
        """The joint plan for one workload DAG, through the same cache
        hierarchy as :meth:`plan` minus snapping (a workload has no
        dominated-lattice-point structure to snap along): LRU -> atlas
        exact -> live :func:`~repro.planner.workload.plan_workload`.
        Infeasible workloads are cached and replayed like infeasible
        requests.
        """
        return self._serve(request, "plan.service.workload",
                           nodes=len(request.nodes))

    # ------------------------------------------------------------------
    def cache_clear(self) -> None:
        """Drop the LRU (atlas and counters stay)."""
        with self._lock:
            self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)


# ----------------------------------------------------------------------
#: The module-default service ``repro.api``'s ``impl="auto"`` consults
#: (LRU + live planning; attach an atlas by installing your own).
_default_service: PlanService | None = None


def default_service() -> PlanService:
    """The process-wide default :class:`PlanService` (created on first
    use, LRU-only)."""
    global _default_service
    if _default_service is None:
        _default_service = PlanService()
    return _default_service


def set_default_service(service: PlanService | None) -> PlanService | None:
    """Install ``service`` as the process-wide default (e.g. one backed
    by a prebuilt atlas); returns the previous default so callers can
    restore it."""
    global _default_service
    previous, _default_service = _default_service, service
    return previous
