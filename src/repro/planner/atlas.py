"""The plan atlas: precomputed, content-addressed plans on disk.

The paper's pitch (Section 8) is a drop-in library — users call
``pdgetrf``/``pdpotrf``/``pdgemm`` and a near-communication-optimal
schedule is chosen for them.  At serving scale that choice must be a
*read-mostly lookup*, not a re-enumeration of the candidate grid: the
atlas precomputes ranked :class:`~repro.planner.core.Plan`\\ s over a
lattice of :class:`~repro.planner.core.PlanRequest` points and persists
them through :class:`~repro.runtime.cache.ResultCache`.

The cache is content-addressed by ``sha256(request token | code
fingerprint)``, so the atlas **self-invalidates**: any edit to the
``repro`` package — a new accounting term, a planner change — flips the
fingerprint and every lookup goes cold (the service then falls back to
live planning; rebuilding the atlas re-warms it).  A stale entry can
never be served, which is what makes the bit-identical contract safe:
an atlas hit *is* the live planner's output, pickled.

Besides the per-point entries the atlas keeps a **manifest** — the
lattice itself, under the same fingerprinted keying — so a query that
misses exactly can *snap* to the nearest dominated lattice point: same
``(op, n, p, api_copies, impls)``, largest lattice ``mem_words`` that
does not exceed the query budget.  A plan for a smaller budget is
provably feasible for a larger one (the budget only prunes candidates),
so snapping never serves an infeasible plan — it may serve a
conservative one, which is the documented trade against re-planning
live (see :class:`~repro.planner.service.PlanService`).

Infeasible lattice points are stored too, as :class:`Infeasible`
markers: a service hitting one re-raises
:class:`~repro.planner.core.NoFeasiblePlanError` without re-proving
infeasibility — but snapping skips them, since a small budget being
infeasible says nothing about a larger one.
"""

from __future__ import annotations

import dataclasses

from .. import obs
from ..machine.perf_model import PIZ_DAINT_XC40, MachineParams
from ..runtime.cache import ResultCache
from .core import (
    NoFeasiblePlanError,
    Plan,
    PlanRequest,
    _no_feasible_error,
    plan_batch,
)
from .workload import WorkloadPlan, WorkloadRequest, plan_workload

__all__ = ["PlanAtlas", "Infeasible", "AtlasBuildStats"]


@dataclasses.dataclass(frozen=True)
class Infeasible:
    """Cached proof that a lattice point has no feasible plan (the
    :class:`NoFeasiblePlanError` message, replayed on every hit)."""

    message: str


def _plan_live(requests: list[PlanRequest | WorkloadRequest],
               machine_params: MachineParams,
               ) -> list[Plan | WorkloadPlan | Infeasible]:
    """Live plans for ``requests``, in order: every :class:`PlanRequest`
    in **one** batched :func:`~repro.planner.core.plan_batch` pass, each
    :class:`WorkloadRequest` jointly via
    :func:`~repro.planner.workload.plan_workload`, and an
    :class:`Infeasible` marker wherever nothing fits."""
    single = [req for req in requests if isinstance(req, PlanRequest)]
    plans = iter(plan_batch(single, machine_params=machine_params,
                            strict=False))
    out: list[Plan | WorkloadPlan | Infeasible] = []
    for req in requests:
        if isinstance(req, PlanRequest):
            plan = next(plans)
            out.append(plan if plan is not None else Infeasible(str(
                _no_feasible_error(req.op, req.n, req.p, req.budget))))
            continue
        try:
            out.append(plan_workload(req, machine_params=machine_params))
        except NoFeasiblePlanError as exc:
            out.append(Infeasible(str(exc)))
    return out


@dataclasses.dataclass(frozen=True)
class AtlasBuildStats:
    """One :meth:`PlanAtlas.build` outcome.

    ``built`` counts freshly planned points, ``reused`` points already
    present under the current code fingerprint (builds are resumable,
    like sweeps), ``infeasible`` the subset of ``built`` stored as
    :class:`Infeasible` markers.
    """

    points: int
    built: int
    reused: int
    infeasible: int
    wall_s: float


class PlanAtlas:
    """Precomputed plans over a request lattice, persisted in a
    :class:`ResultCache` directory.

    Parameters
    ----------
    root:
        Atlas directory (a :class:`ResultCache` root; created on first
        write, shareable between processes — writes are atomic).
    machine_params:
        The alpha-beta-gamma machine the plans were scored for; folded
        into every cache token, so atlases for different machines can
        share a directory.
    fingerprint:
        Code-fingerprint override, as in :class:`ResultCache` (tests
        pin it to exercise stale-code behaviour).
    """

    def __init__(self, root, machine_params: MachineParams = PIZ_DAINT_XC40,
                 fingerprint: str | None = None) -> None:
        self.cache = ResultCache(root, fingerprint=fingerprint)
        self.machine_params = machine_params
        self._manifest: tuple[PlanRequest, ...] | None = None

    # ------------------------------------------------------------------
    def _token(self, request: PlanRequest | WorkloadRequest) -> str:
        return f"plan-atlas|{request.token()}|mp={self.machine_params!r}"

    def _manifest_token(self) -> str:
        return f"plan-atlas|manifest|mp={self.machine_params!r}"

    def get(self, request: PlanRequest | WorkloadRequest
            ) -> Plan | WorkloadPlan | Infeasible | None:
        """The stored plan (or :class:`Infeasible` marker) for an exact
        lattice point, or None — a miss, including the stale-code case."""
        return self.cache.get(self._token(request))

    def manifest(self) -> tuple[PlanRequest | WorkloadRequest, ...]:
        """Every lattice point built under the current fingerprint (an
        edited code base yields an empty manifest: the atlas is cold)."""
        if self._manifest is None:
            stored = self.cache.get(self._manifest_token())
            self._manifest = tuple(stored) if stored else ()
        return self._manifest

    def snap_candidates(self, request: PlanRequest) -> list[PlanRequest]:
        """Lattice points whose plan is provably feasible for
        ``request``, nearest (largest budget) first.

        A candidate must ask the same question apart from the budget —
        identical ``(op, n, p, api_copies, impls)`` — and its lattice
        ``mem_words`` must not exceed the query budget: every config in
        its plan then fits the query's memory too.  An unbounded
        lattice point can only serve an unbounded query, which is an
        exact hit, so it never appears here.
        """
        budget = request.budget
        out = [point for point in self.manifest()
               if isinstance(point, PlanRequest)
               and point != request
               and point.op == request.op
               and point.n == request.n
               and point.p == request.p
               and point.api_copies == request.api_copies
               and point.impls == request.impls
               and point.mem_words is not None
               and point.mem_words <= budget]
        out.sort(key=lambda point: -point.mem_words)
        return out

    # ------------------------------------------------------------------
    def build(self, lattice: list[PlanRequest | WorkloadRequest],
              ) -> AtlasBuildStats:
        """Precompute (or resume precomputing) every lattice point.

        The lattice may mix :class:`PlanRequest` points (planned in
        **one** batched :func:`~repro.planner.core.plan_batch` pass)
        and :class:`WorkloadRequest` points (planned jointly via
        :func:`~repro.planner.workload.plan_workload`); duplicates are
        dropped up front (order-preserving), so a lattice listing a
        point twice plans and counts it once.  Points already stored
        under the current fingerprint are reused and everything is
        written through atomically.  The manifest is merged, not
        replaced, so incremental builds extend the lattice.
        """
        tel = obs.default_telemetry()
        t0 = tel.clock()
        with tel.span("atlas.build", cat="planner",
                      lattice=len(lattice)) as sp:
            points = [req if isinstance(req, (PlanRequest, WorkloadRequest))
                      else PlanRequest(*req)
                      for req in lattice]
            points = list(dict.fromkeys(points))
            misses = [req for req in points if self.get(req) is None]
            infeasible = 0
            for req, value in zip(misses,
                                  _plan_live(misses, self.machine_params)):
                infeasible += isinstance(value, Infeasible)
                self.cache.put(self._token(req), value)
            merged = dict.fromkeys(list(self.manifest()) + points)
            self._manifest = tuple(merged)
            self.cache.put(self._manifest_token(), list(self._manifest))
            sp.set(points=len(points), built=len(misses),
                   infeasible=infeasible)
        wall_s = tel.clock() - t0
        reg = tel.metrics
        reg.gauge("atlas.build.wall_s").set(wall_s)
        reg.counter("atlas.build.points").inc(len(points))
        reg.counter("atlas.build.built").inc(len(misses))
        reg.counter("atlas.build.reused").inc(len(points) - len(misses))
        return AtlasBuildStats(points=len(points), built=len(misses),
                               reused=len(points) - len(misses),
                               infeasible=infeasible,
                               wall_s=wall_s)

