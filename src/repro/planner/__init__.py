"""Auto-tuned schedule selection (the planning side of the runtime).

:func:`plan_request` turns the paper's "for a given (N, P, M) the
near-optimal configuration can be derived" into an API: enumerate the
divisor-aware candidate grids, prune by the schedules' declared memory
requirements, score with the validated cost models and the
alpha-beta-gamma machine model, return a ranked :class:`Plan`.  Its
one argument is a :class:`PlanRequest`; :func:`plan_batch` plans many
at once.

On top of live planning sits the serving layer: :class:`PlanAtlas`
(:mod:`repro.planner.atlas`) precomputes ranked plans over a request
lattice into a content-addressed on-disk cache, and
:class:`PlanService` (:mod:`repro.planner.service`) answers requests
from an in-process LRU, the atlas, or live planning.  :mod:`repro.api`
plans ``impl="auto"`` live with :func:`plan_request`; a served plan
reaches a pd* call as ``plan=service.plan(request)``.

Whole programs plan jointly through the workload IR
(:mod:`repro.planner.workload`): a :class:`WorkloadRequest` DAG of pd*
nodes is scored by total counted words *including* the closed-form
COSTA layout-conversion cost between stages, and
:func:`plan_workload`'s :class:`WorkloadPlan` feeds
:func:`repro.api.run_workload` — both cacheable through the same
service/atlas hierarchy.
"""

from .atlas import AtlasBuildStats, Infeasible, PlanAtlas
from .candidates import (
    config_25d,
    panel_candidates,
    panel_width_2d,
    replication_candidates,
    strip_candidates,
    tile_candidates,
)
from .core import (
    NoFeasiblePlanError,
    Plan,
    PlannedConfig,
    PlanRequest,
    plan_batch,
    plan_request,
    planner_labels,
)
from .service import PlanService, ServiceStats
from .workload import (
    WorkloadAssignment,
    WorkloadNode,
    WorkloadPlan,
    WorkloadRequest,
    plan_workload,
)

__all__ = [
    "Plan", "PlannedConfig", "PlanRequest", "NoFeasiblePlanError",
    "plan_request", "plan_batch", "planner_labels",
    "WorkloadNode", "WorkloadRequest", "WorkloadAssignment",
    "WorkloadPlan", "plan_workload",
    "PlanAtlas", "AtlasBuildStats", "Infeasible",
    "PlanService", "ServiceStats",
    "config_25d", "panel_width_2d",
    "replication_candidates", "tile_candidates",
    "panel_candidates", "strip_candidates",
]
