#!/usr/bin/env python
"""Fast perf snapshot of the trace-mode sweep (``make bench-smoke``).

Runs the paper-style ``(impl, N, P)`` sweep that dominates figure
regeneration through :func:`repro.analysis.harness.sweep_traces`, times
it serially *and* through the :mod:`repro.runtime` process-pool
executor, and writes ``BENCH_engine.json`` at the repo root so
successive PRs accumulate a performance trajectory.

The ``seed`` block records the same workload measured on the pre-engine
code base (per-step Python accounting loops).  The volume ``checksum``
guards the accounting semantics: ``scripts/check_bench_regression.py``
(CI's ``bench-smoke`` job, ``make bench-check``) fails when a fresh run
drifts from the *committed* snapshot, either in checksum (the
accounting changed) or in time (>25% slower).  When an accounting
change is intentional — e.g. the broadcast-root fix that charges 2D and
SUMMA broadcasts at ``g - 1`` receivers — rerun this script and commit
the refreshed ``BENCH_engine.json`` alongside the change (see
``check_bench_regression.py --update``).

The ``parallel`` block records the pool path: its checksum must equal
the serial one bit-for-bit (deterministic task ordering).  With a
single worker there is no concurrency to measure, so ``speedup`` is
recorded only when ``workers >= 2`` — a 1-worker container reports the
pool's spawn/IPC cost as ``pool_overhead_s`` instead of a misleading
sub-1x "speedup".  On a machine with >= 4 cores the sweep is expected
to run >= 1.5x faster than serial (``--parallel N`` pins the worker
count).

The ``planner`` block times the auto-planner over a paper-scale grid
(every candidate scored in :class:`~repro.engine.accounting.TermBatch`
passes) and records the chosen-plan checksum, which
``check_bench_regression.py`` pins against the committed value exactly
as it pins the sweep checksum.

The ``atlas`` block measures the serving layer: a small plan atlas is
cold-built into a temp dir (``build_s``), then a
:class:`~repro.planner.PlanService` over it answers ~1k synthetic
queries — a mix of exact lattice hits and off-lattice budgets that
snap to a dominated lattice point (``p50_us``/``p99_us``/``hit_rate``;
no query may fall back to live planning).  A second pass over the same
queries is pure LRU (``cached_p50_us``), which must be at least
``MIN_ATLAS_SPEEDUP``x faster than live-planning one request
(``live_plan_s``) — the "planning becomes a read-mostly lookup"
contract.  Every lattice point must also serve **bit-identical** to
live planning (``served_matches_live``), which
``check_bench_regression.py`` gates.

The ``obs`` block measures the telemetry layer itself: the trace sweep
re-runs with spans enabled (``repro.obs``), and the enabled best must
cost at most 2% over the disabled best (or the absolute noise floor)
with a **bit-identical** volume checksum — the zero-overhead-when-
disabled contract, plus proof that recording spans never perturbs the
accounting.  The planner/atlas/workload blocks also read their wall
times from the telemetry metrics registry rather than keeping their
own ``perf_counter`` bookkeeping.

The ``fabric`` block exercises the multi-host work-stealing executor
(:mod:`repro.runtime.fabric`): the same sweep runs through a
:class:`DistributedSweepExecutor` with two concurrent worker processes
leasing task batches out of a shared cache directory, then *resumes* —
a second run over the same cache must serve every task from the cache
and recompute nothing.  Gated invariants: the fabric checksum equals
the serial one bit-for-bit (distributed == pool == serial) and the
resume pass recomputes zero tasks.  The block records workers, batch
and steal counts, and both walls (the first run's wall includes two
worker-process spawns — a fixed cost that amortizes over paper-scale
grids and vanishes for long-lived external workers).

The ``workload_dag`` block exercises the joint workload planner: the
DFT chain (GEMM + two Cholesky factorizations sharing an operand + LU)
is planned jointly at two paper-scale points and executed end-to-end
through :func:`repro.api.run_workload` at a small one, serially and on
the pool.  Gated invariants: the joint plan's charged words
(factorization + cross-stage conversion) never exceed independent
per-call planning, and the pool rows — including the execution
checksum over counted traffic and dense factors — equal the serial
ones bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import obs  # noqa: E402
from repro.analysis.harness import sweep_traces  # noqa: E402
from repro.runtime import (  # noqa: E402
    ProcessPoolSweepExecutor,
    default_workers,
)

#: The bench-smoke workload: three paper-scale corners of the (N, P)
#: evaluation plane, four implementations each (LU + Cholesky, 2.5D +
#: 2D baseline).
CASES = [(65536, 1024), (65536, 4096), (131072, 4096)]

#: The same workload on the seed code base (per-step accounting loops),
#: measured on the container this snapshot was introduced on.  Timing
#: only: the seed checksum predates the exact accounting fixes and is
#: kept out of the comparison (the committed snapshot's checksum is the
#: reference now).
SEED_BASELINE = {"sweep_s": 6.43}

REPS = 3

#: Minimum parallel speedup expected when enough cores are available.
MIN_PARALLEL_SPEEDUP = 1.5
MIN_CORES_FOR_SPEEDUP = 4

#: The planner-grid workload: every feasible candidate of all three
#: planners at three paper-scale points (>= 100 candidates total).
PLANNER_GRID = [(4096, 64), (16384, 1024), (65536, 4096)]
PLANNER_API_COPIES = 3

#: The atlas lattice: two (N, P) corners x three ops x two budget
#: rungs; small enough to cold-build in well under a second.
ATLAS_POINTS = [(4096, 64), (8192, 256)]
ATLAS_OPS = ("lu", "cholesky", "gemm")
ATLAS_QUERIES = 1000

#: The workload block: the DFT chain (gemm + 2x cholesky sharing an
#: operand + lu) jointly planned at two paper-scale points, plus one
#: small point executed end-to-end through run_workload.
WORKLOAD_POINTS = [(16384, 1024), (65536, 1024)]
WORKLOAD_EXEC = (64, 4)

#: Minimum cached-lookup speedup over live planning of one request.
MIN_ATLAS_SPEEDUP = 100.0

#: Telemetry overhead gate: spans enabled may cost at most 2% over
#: disabled — or this absolute floor, whichever is larger (2% of a
#: tens-of-milliseconds sweep is below timer noise; same pattern as
#: the checker's NOISE_FLOOR_S).
OBS_MAX_OVERHEAD = 1.02
OBS_NOISE_FLOOR_S = 0.05


def calibrate() -> float:
    """Machine-speed probe: a fixed NumPy workload shaped like the
    accounting hot path (broadcasted float arithmetic over
    (steps, ranks)-sized scratch).

    The regression checker divides sweep times by this, so the
    committed baseline transfers across machines (a CI runner is
    slower than a dev box in the same proportion on both numbers).
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        t = np.arange(4096, dtype=np.float64)[:, None]
        p = np.arange(512, dtype=np.float64)
        acc = np.zeros((4096, 512))
        for _ in range(8):
            acc += (t * 3.0 + 1.0) * (p % 7.0) / (t + p + 1.0)
        float(acc.sum())
        best = min(best, time.perf_counter() - t0)
    return best


def _checksum(results) -> float:
    return sum(r.mean_recv_words for r in results)


def _plan_grid() -> tuple[float, int, float]:
    """Run all three planners over ``PLANNER_GRID``; returns
    ``(wall_s, candidates, chosen_checksum)``."""
    from repro.analysis.harness import NODE_MEM_WORDS
    from repro.planner import plan_cholesky, plan_gemm, plan_lu

    # Wall time comes from the planner's own telemetry — the
    # `planner.plan_batch.wall_s` histogram (plan_batch is the single
    # pipeline), so this measures exactly the planning work.
    hist = obs.metrics().histogram("planner.plan_batch.wall_s")
    before = hist.total
    plans = []
    for n, p in PLANNER_GRID:
        for planner in (plan_lu, plan_cholesky, plan_gemm):
            plans.append(planner(n, p, NODE_MEM_WORDS,
                                 api_copies=PLANNER_API_COPIES))
    wall = hist.total - before
    cands = sum(len(plan.ranked) for plan in plans)
    checksum = sum(plan.chosen.predicted_words for plan in plans)
    return wall, cands, checksum


def _atlas_block() -> dict:
    """Cold-build a small atlas, then measure serving latency under
    synthetic query traffic (mixed exact / off-lattice-snapped)."""
    import dataclasses
    import tempfile

    import numpy as np

    from repro.analysis.harness import NODE_MEM_WORDS
    from repro.planner import PlanAtlas, PlanRequest, PlanService, \
        plan_request

    mems = [NODE_MEM_WORDS, NODE_MEM_WORDS / 4]
    lattice = [PlanRequest(op, n, p, mem, api_copies=PLANNER_API_COPIES)
               for n, p in ATLAS_POINTS for mem in mems for op in ATLAS_OPS]
    # Synthetic traffic: cycle the lattice; every fifth query asks an
    # off-lattice budget between the two rungs, which must snap to the
    # smaller rung's plan (never fall back to live planning).
    queries = []
    for i in range(ATLAS_QUERIES):
        base = lattice[i % len(lattice)]
        if i % 5 == 4:
            base = dataclasses.replace(base, mem_words=NODE_MEM_WORDS / 2)
        queries.append(base)

    with tempfile.TemporaryDirectory() as tmp:
        atlas = PlanAtlas(tmp)
        build = atlas.build(lattice)
        # The build's own telemetry gauge — set by PlanAtlas.build —
        # is the measurement of record (it equals build.wall_s).
        build_s = obs.metrics().gauge("atlas.build.wall_s").value

        # The correctness contract: every lattice point served from the
        # atlas is bit-identical to the live planner's output.
        check = PlanService(atlas=atlas)
        matches = all(check.plan(req) == plan_request(req)
                      for req in lattice)

        service = PlanService(atlas=atlas)
        lat_us = np.empty(len(queries))
        for i, req in enumerate(queries):
            t0 = time.perf_counter()
            service.plan(req)
            lat_us[i] = (time.perf_counter() - t0) * 1e6
        hit_rate = service.stats.hit_rate
        live_fallbacks = service.stats.live_plans

        # Second pass: every query repeats, so every lookup is an LRU
        # hit — the steady-state serving latency.
        cached_us = np.empty(len(queries))
        for i, req in enumerate(queries):
            t0 = time.perf_counter()
            service.plan(req)
            cached_us[i] = (time.perf_counter() - t0) * 1e6

    live_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        plan_request(lattice[0])
        live_s = min(live_s, time.perf_counter() - t0)

    cached_p50_us = float(np.percentile(cached_us, 50))
    return {
        "lattice_points": len(lattice),
        "build_s": round(build_s, 3),
        "built": build.built,
        "queries": len(queries),
        "p50_us": round(float(np.percentile(lat_us, 50)), 1),
        "p99_us": round(float(np.percentile(lat_us, 99)), 1),
        "cached_p50_us": round(cached_p50_us, 1),
        "hit_rate": round(hit_rate, 4),
        "live_fallbacks": live_fallbacks,
        "live_plan_s": round(live_s, 4),
        "speedup_vs_live": round(live_s * 1e6 / cached_p50_us, 1),
        "served_matches_live": matches,
    }


def _workload_block(workers: int) -> dict:
    """Jointly plan the DFT workload chain at paper scale and execute
    it at a small scale, serially and through the process pool; the
    pool's row set must equal the serial one bit-for-bit and the joint
    charge may never exceed independent per-call planning."""
    from repro.analysis.harness import NODE_MEM_WORDS
    from repro.runtime.executor import SerialExecutor, SweepTask

    tasks = [SweepTask("workload", "dft", n, p,
                       extra=(("mem_words", NODE_MEM_WORDS),))
             for n, p in WORKLOAD_POINTS]
    tasks.append(SweepTask("workload", "dft", *WORKLOAD_EXEC,
                           extra=(("execute", True),)))
    # Executor walls come from the runtime's own telemetry gauge,
    # which every SerialExecutor.run (pool included) sets.
    run_gauge = obs.metrics().gauge("runtime.executor.last_run_s")
    serial = SerialExecutor().run(tasks)
    serial_s = run_gauge.value
    pooled = ProcessPoolSweepExecutor(max_workers=workers).run(tasks)
    pool_s = run_gauge.value

    def _sum(rows) -> float:
        return sum(row["joint_words"] + row["independent_words"]
                   + row.get("exec_checksum", 0.0) for row in rows)

    exec_row = serial[-1]
    return {
        "points": WORKLOAD_POINTS,
        "exec_point": list(WORKLOAD_EXEC),
        "plan_s": round(serial_s, 3),
        "pool_s": round(pool_s, 3),
        "joint_words": sum(row["joint_words"] for row in serial),
        "independent_words": sum(row["independent_words"]
                                 for row in serial),
        "joint_le_independent": all(
            row["joint_words"] <= row["independent_words"]
            for row in serial),
        "exec_checksum": exec_row["exec_checksum"],
        "exec_reused": exec_row["reused"],
        "checksum": _sum(serial),
        "pool_checksum": _sum(pooled),
        "checksum_matches_pool": pooled == serial,
    }


def _fabric_block(serial_checksum: float) -> dict:
    """The work-stealing fabric over the bench matrix: two worker
    subprocesses sharing one cache directory, coordinator reconcile,
    then a resume pass that must recompute nothing."""
    import tempfile

    from repro.runtime import ResultCache
    from repro.runtime.fabric import DistributedSweepExecutor

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        ex = DistributedSweepExecutor(cache, workers=2,
                                      participate=False,
                                      batch_size=1, ttl_s=20.0,
                                      timeout_s=300.0)
        t0 = time.perf_counter()
        results = sweep_traces(CASES, executor=ex)
        wall = time.perf_counter() - t0
        checksum = _checksum(results)
        report = ex.last_report

        resume = DistributedSweepExecutor(cache, workers=0,
                                          batch_size=1, ttl_s=20.0,
                                          timeout_s=300.0)
        hits_before = cache.hits
        retried = obs.metrics().counter("fabric.tasks.retried")
        retried_before = retried.value
        t0 = time.perf_counter()
        resumed = sweep_traces(CASES, executor=resume)
        resume_wall = time.perf_counter() - t0
        resume_recomputed = retried.value - retried_before
    return {
        "workers": report.workers,
        "batches": report.batches,
        "stolen": report.stolen,
        "by_worker": report.by_worker,
        "sweep_s": round(wall, 3),
        "tasks_computed": report.tasks_computed,
        "checksum": checksum,
        "checksum_matches_serial": checksum == serial_checksum,
        "resume_s": round(resume_wall, 3),
        "resume_cache_hits": cache.hits - hits_before,
        "resume_recomputed": resume_recomputed,
        "resume_checksum_matches": _checksum(resumed) == serial_checksum,
    }


def _obs_block(disabled_s: float, checksum: float) -> dict:
    """Measure the telemetry layer's own cost: the same sweep with
    spans enabled, best-of-REPS against the disabled best.

    Gated invariants: the enabled sweep costs <= 2% over disabled (or
    the absolute noise floor — 2% of a tens-of-milliseconds sweep is
    below timer resolution) and the volume checksum is bit-identical
    (recording spans must not perturb the accounting)."""
    times = []
    enabled_checksum = 0.0
    obs.enable()
    try:
        for _ in range(REPS):
            t0 = time.perf_counter()
            results = sweep_traces(CASES)
            times.append(time.perf_counter() - t0)
            enabled_checksum = _checksum(results)
        span_cats = sorted({s.cat for s in obs.spans()})
        span_count = len(obs.spans())
    finally:
        obs.disable()
    enabled_s = min(times)
    overhead_s = enabled_s - disabled_s
    return {
        "disabled_s": round(disabled_s, 3),
        "enabled_s": round(enabled_s, 3),
        "overhead_s": round(overhead_s, 3),
        "spans": span_count,
        "span_cats": span_cats,
        "checksum": enabled_checksum,
        "checksum_matches_disabled": enabled_checksum == checksum,
        "overhead_ok": (enabled_s <= disabled_s * OBS_MAX_OVERHEAD
                        or overhead_s <= OBS_NOISE_FLOOR_S),
    }


def run(parallel: int | None = None) -> dict:
    """One full snapshot; ``parallel`` pins the pool's worker count."""
    times = []
    checksum = 0.0
    for _ in range(REPS):
        t0 = time.perf_counter()
        results = sweep_traces(CASES)
        times.append(time.perf_counter() - t0)
        checksum = _checksum(results)
    best = min(times)

    cpus = default_workers()
    workers = (parallel if parallel is not None
               else min(MIN_CORES_FOR_SPEEDUP, cpus))
    # Symmetric with the serial measurement: best of REPS pool runs, so
    # one noisy spawn cannot fail the speedup gate.  Each rep closes
    # its executor, so every cold run pays the full pool spawn.
    par_times = []
    par_checksum = 0.0
    for _ in range(REPS):
        with ProcessPoolSweepExecutor(max_workers=workers) as cold:
            t0 = time.perf_counter()
            par_results = sweep_traces(CASES, executor=cold)
            par_times.append(time.perf_counter() - t0)
            par_checksum = _checksum(par_results)
    par_s = min(par_times)

    # The persistent-pool path: one executor, its (lazily created) pool
    # reused across runs — repeated small sweeps stop paying the spawn
    # overhead after the first call.
    warm_times = []
    warm_checksum = 0.0
    with ProcessPoolSweepExecutor(max_workers=workers) as warm_ex:
        sweep_traces(CASES, executor=warm_ex)          # spawn + warm
        for _ in range(REPS):
            t0 = time.perf_counter()
            warm_results = sweep_traces(CASES, executor=warm_ex)
            warm_times.append(time.perf_counter() - t0)
            warm_checksum = _checksum(warm_results)
    warm_s = min(warm_times)

    # The planner grid (best of 2).
    plan_s, plan_cands, plan_checksum = min(
        (_plan_grid() for _ in range(2)), key=lambda r: r[0])

    return {
        "workload": {
            "cases": CASES,
            "lu_impls": ["conflux", "mkl"],
            "chol_impls": ["confchox", "mkl-chol"],
        },
        "engine": {
            "sweep_s": round(best, 3),
            "all_reps_s": [round(t, 3) for t in times],
            "calib_s": round(calibrate(), 4),
            "checksum": checksum,
        },
        "parallel": {
            "workers": workers,
            "cpus": cpus,
            "sweep_s": round(par_s, 3),
            "all_reps_s": [round(t, 3) for t in par_times],
            # With one worker the pool measures spawn/IPC cost, not
            # concurrency: report the overhead and omit the speedup.
            "speedup": (round(best / par_s, 2) if workers >= 2
                        else None),
            "pool_overhead_s": round(max(0.0, par_s - best), 3),
            # The persistent pool: the same sweep on an already-warm
            # executor, and what reuse saves vs a cold spawn per call.
            "warm_sweep_s": round(warm_s, 3),
            "pool_reuse_saving_s": round(max(0.0, par_s - warm_s), 3),
            "warm_checksum_matches_serial": warm_checksum == checksum,
            "checksum": par_checksum,
            "checksum_matches_serial": par_checksum == checksum,
        },
        "planner": {
            "grid": PLANNER_GRID,
            "api_copies": PLANNER_API_COPIES,
            "candidates": plan_cands,
            "batched_s": round(plan_s, 3),
            "chosen_checksum": plan_checksum,
        },
        "obs": _obs_block(best, checksum),
        "atlas": _atlas_block(),
        "fabric": _fabric_block(checksum),
        "workload_dag": _workload_block(workers),
        "seed": SEED_BASELINE,
        "speedup_vs_seed": round(SEED_BASELINE["sweep_s"] / best, 2),
        "python": platform.python_version(),
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"worker count must be positive, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parallel", type=_positive_int, default=None, metavar="N",
        help="worker count for the pool path (default: min(4, cores); "
             "Makefile pass-through: make bench-smoke PARALLEL=N)")
    args = parser.parse_args(argv)
    snapshot = run(parallel=args.parallel)
    out = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot, indent=2))
    print(f"[saved to {out}]")
    failures = []
    if snapshot["speedup_vs_seed"] < 1.0:
        failures.append("trace sweep slower than the seed baseline")
    par = snapshot["parallel"]
    if not par["checksum_matches_serial"]:
        failures.append(
            f"parallel checksum {par['checksum']} != serial "
            f"{snapshot['engine']['checksum']}")
    # Gate the speedup only when both the machine and the pinned pool
    # are wide enough to expect one (PARALLEL=1 on a 16-core box is a
    # request, not a regression; a 1-worker pool records no speedup at
    # all, only its overhead).
    if (par["speedup"] is not None
            and par["cpus"] >= MIN_CORES_FOR_SPEEDUP
            and par["workers"] >= MIN_CORES_FOR_SPEEDUP
            and par["speedup"] < MIN_PARALLEL_SPEEDUP):
        failures.append(
            f"parallel speedup {par['speedup']} < {MIN_PARALLEL_SPEEDUP} "
            f"with {par['workers']} workers on {par['cpus']} cores")
    atlas = snapshot["atlas"]
    if not atlas["served_matches_live"]:
        failures.append(
            "atlas-served plans differ from live planning on lattice "
            "points — the bit-identical serving contract broke")
    if atlas["live_fallbacks"]:
        failures.append(
            f"{atlas['live_fallbacks']} atlas queries fell back to live "
            "planning — lattice coverage or snapping regressed")
    if atlas["speedup_vs_live"] < MIN_ATLAS_SPEEDUP:
        failures.append(
            f"cached plan lookup only {atlas['speedup_vs_live']}x faster "
            f"than live planning (< {MIN_ATLAS_SPEEDUP:g}x) — the LRU "
            "serving path regressed")
    ob = snapshot["obs"]
    if not ob["overhead_ok"]:
        failures.append(
            f"telemetry-enabled sweep {ob['enabled_s']}s vs disabled "
            f"{ob['disabled_s']}s — overhead {ob['overhead_s']}s exceeds "
            f"both the 2% budget and the {OBS_NOISE_FLOOR_S}s noise "
            "floor")
    if not ob["checksum_matches_disabled"]:
        failures.append(
            f"telemetry-enabled checksum {ob['checksum']} != disabled "
            f"{snapshot['engine']['checksum']} — recording spans "
            "perturbed the accounting")
    fab = snapshot["fabric"]
    if not fab["checksum_matches_serial"]:
        failures.append(
            f"fabric checksum {fab['checksum']} != serial "
            f"{snapshot['engine']['checksum']} — the distributed "
            "executor changed the sweep semantics")
    if fab["resume_recomputed"]:
        failures.append(
            f"fabric resume recomputed {fab['resume_recomputed']} tasks "
            "— already-cached results were not served")
    if not fab["resume_checksum_matches"]:
        failures.append(
            "fabric resume checksum diverged from serial — resumed "
            "results differ from computed ones")
    wdag = snapshot["workload_dag"]
    if not wdag["joint_le_independent"]:
        failures.append(
            f"joint workload plan charges {wdag['joint_words']} words > "
            f"independent per-call planning {wdag['independent_words']} — "
            "the joint search lost its never-worse guarantee")
    if not wdag["checksum_matches_pool"]:
        failures.append(
            f"workload pool checksum {wdag['pool_checksum']} != serial "
            f"{wdag['checksum']} — workload execution is not "
            "deterministic across executors")
    for f in failures:
        print(f"ERROR: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
