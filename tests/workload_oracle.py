"""Test oracle for the joint workload search: the whole product, sorted.

:func:`repro.planner.workload.plan_workload` enumerates the per-node
candidate product best first and scores only as far as its answer
needs.  This is the search it replaced, kept as the reference: score
*every* assignment of ``itertools.product``, sort by the assignment
key, replay each through the frontier in that order.  Same helpers,
same two passes, no laziness — so ``ranked``, ``independent`` and the
refusal must compare ``==`` (for products under the search's cap on
assignments scored, which a reference this slow never nears).
"""

import dataclasses
import itertools
import math

import pytest

from repro.planner.core import (
    NoFeasiblePlanError,
    _gate,
    _rank_key,
    native_layout,
    plan_batch,
)
from repro.planner.workload import (
    WorkloadPlan,
    _assignment_key,
    _frontier,
    _no_fit,
    _score,
    config_schedule,
    plan_workload,
)


def brute_force_plan(request, top_k=6, keep=8):
    """``(plan, passes)``: the :class:`WorkloadPlan` of the exhaustive
    search and how many candidate orders it took (2: nothing of the
    fewest-words product fit, the leanest one did).  Raises the
    :class:`NoFeasiblePlanError` the planner owes instead."""
    requests = request.node_requests()
    node_plans = tuple(plan_batch(requests, strict=False))
    for idx, plan in enumerate(node_plans):
        if plan is None:
            free = dataclasses.replace(requests[idx], mem_words=None)
            raise _no_fit(request, idx, min(
                (cand[4] for cand in _gate(free)), default=math.inf))

    producers = request.producers()
    conv_cache = {}
    independent = None
    ranked = []
    stuck, least = 0, math.inf
    orders = (_rank_key, lambda cfg: cfg.required_words)
    for passes, order in enumerate(orders, start=1):
        cand_lists = [[(cfg, (sched := config_schedule(
                            node.op, node.n, request.p, cfg)[0]),
                        native_layout(node.op, sched))
                       for cfg in sorted(plan.ranked, key=order)[:top_k]]
                      for node, plan in zip(request.nodes, node_plans)]
        scored = [(_score(request, producers, combo, conv_cache), combo)
                  for combo in itertools.product(*cand_lists)]
        # Product order: the first assignment is every node's winner.
        independent = independent or dataclasses.replace(
            scored[0][0], node_peaks=_frontier(request, scored[0][1]))
        scored.sort(key=lambda pair: _assignment_key(pair[0]))
        for assignment, combo in scored:
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
            return WorkloadPlan(request, node_plans, tuple(ranked),
                                independent), passes
    raise _no_fit(request, stuck, least)


def assert_search_equals_product(request, top_k=6, keep=8):
    """``plan_workload`` against :func:`brute_force_plan`: the same
    ``ranked`` and ``independent``, or the same refusal (node, peak and
    message).  Returns the passes the reference took, 0 for a refusal."""
    try:
        want, passes = brute_force_plan(request, top_k, keep)
    except NoFeasiblePlanError as refusal:
        with pytest.raises(NoFeasiblePlanError) as exc_info:
            plan_workload(request, top_k=top_k, keep=keep)
        got = exc_info.value
        assert (got.node, got.peak_words, str(got)) == (
            refusal.node, refusal.peak_words, str(refusal))
        return 0
    got = plan_workload(request, top_k=top_k, keep=keep)
    assert got.ranked == want.ranked
    assert got.independent == want.independent
    return passes
