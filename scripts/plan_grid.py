#!/usr/bin/env python
"""Plan the smoke (N, P, M) grid — and optionally build it into an
atlas (``make plan`` / ``make atlas``).

A fast, human-readable view of :mod:`repro.planner` — and CI's check
that planning stays total: every feasible grid point must produce a
plan, infeasible points must be *reported* infeasible (never crash),
and each plan's predicted volume must be the minimum of its ranked
alternatives.

``--atlas DIR`` turns the run into the **atlas builder**: every grid
point's plan (and every infeasibility) is persisted into a
content-addressed :class:`~repro.planner.PlanAtlas` under ``DIR``, and
the build is verified end-to-end — a fresh
:class:`~repro.planner.PlanService` front-end must serve every lattice
point **bit-identical** to the live plan computed in the same run
(the atlas correctness contract CI gates here and in the ``perf/``
``serve_mix`` workload).
Builds are resumable: rebuilding over an existing directory reuses
every point the current code fingerprint has already planned.

``--budget-s`` is a wall-time gate: planning the whole grid (plus the
atlas build, when requested) must finish inside the budget, so a
regression that drops the batched closed-form path (e.g. per-config
O(steps x P) work sneaking back into scoring) fails the build rather
than just drifting the ledger.  The grid plans in well under a
second batched; the default CI budget leaves two orders of magnitude
headroom for runner noise.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.harness import NODE_MEM_WORDS, format_table  # noqa: E402
from repro.planner import (  # noqa: E402
    NoFeasiblePlanError,
    PlanAtlas,
    PlanRequest,
    PlanService,
    plan_request,
)

#: The smoke grid: small enough to plan in milliseconds, wide enough to
#: exercise replication choices and the memory gate (the last budget is
#: deliberately too small for its N).
GRID = [
    # (n, p, mem_words)
    (4096, 64, NODE_MEM_WORDS),
    (16384, 1024, NODE_MEM_WORDS),
    (65536, 4096, NODE_MEM_WORDS),
    (16384, 64, 16384.0 * 16384.0 / 64 / 2),   # M < N^2/P: infeasible
]

OPS = ("lu", "cholesky", "gemm")

#: api_copies for every grid/lattice point (the builder and the smoke
#: view plan the same questions, so atlas keys match).
API_COPIES = 3


def lattice() -> list[PlanRequest]:
    """The smoke grid as canonical atlas lattice points."""
    return [PlanRequest(op, n, p, mem, api_copies=API_COPIES)
            for n, p, mem in GRID for op in OPS]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget-s", type=float, default=None, metavar="S",
        help="fail if planning the whole grid (and building the atlas, "
             "with --atlas) takes longer than S seconds of wall time "
             "(Makefile pass-through: make plan PLAN_BUDGET_S=S)")
    parser.add_argument(
        "--atlas", type=pathlib.Path, default=None, metavar="DIR",
        help="build the grid into a plan atlas under DIR and verify a "
             "PlanService serves every lattice point bit-identical to "
             "live planning (Makefile: make atlas ATLAS_DIR=DIR)")
    args = parser.parse_args(argv)
    rows = []
    failures = []
    live: dict[PlanRequest, object] = {}
    t0 = time.perf_counter()
    for request in lattice():
        try:
            plan = plan_request(request)
        except NoFeasiblePlanError:
            live[request] = None
            rows.append([request.op, request.n, request.p,
                         f"{request.budget:.3g}", "infeasible",
                         "-", float("nan"), float("nan")])
            continue
        live[request] = plan
        chosen = plan.chosen
        pstr = ",".join(f"{k}={v}"
                        for k, v in sorted(chosen.params.items()))
        rows.append([request.op, request.n, request.p,
                     f"{request.budget:.3g}", chosen.impl, pstr,
                     chosen.predicted_words, chosen.predicted_time_s])
        if any(alt.predicted_words < chosen.predicted_words
               for alt in plan.alternatives):
            failures.append(
                f"{request.op} N={request.n} P={request.p}: chosen config "
                "is not volume-minimal among the ranked alternatives")

    if args.atlas is not None:
        atlas = PlanAtlas(args.atlas)
        stats = atlas.build(lattice())
        print(f"[atlas {args.atlas}: {stats.points} points, "
              f"{stats.built} built ({stats.infeasible} infeasible), "
              f"{stats.reused} reused, {stats.wall_s:.3f}s]")
        # The correctness contract: a service over the fresh atlas
        # serves every lattice point bit-identical to live planning.
        service = PlanService(atlas=atlas)
        for request, expected in live.items():
            try:
                served = service.plan(request)
            except NoFeasiblePlanError:
                served = None
            if served != expected:
                failures.append(
                    f"atlas serve mismatch at {request.token()}: served "
                    f"plan != live plan — the bit-identical contract broke")
        if service.stats.live_plans:
            failures.append(
                f"{service.stats.live_plans} lattice lookups fell back to "
                "live planning — the atlas build missed points")

    wall = time.perf_counter() - t0
    print(format_table(
        ["problem", "N", "P", "M (words)", "impl", "params",
         "pred words", "pred time s"],
        rows, title="Planner picks over the smoke (N, P, M) grid"))
    print(f"[planned {len(rows)} points in {wall:.3f}s]")
    if args.budget_s is not None and wall > args.budget_s:
        failures.append(
            f"planner grid took {wall:.2f}s, over the {args.budget_s:g}s "
            "wall-time budget — the batched closed-form scoring path "
            "regressed")
    for f in failures:
        print(f"ERROR: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
