"""The benchmark's registry: workloads, end-to-end metrics, layer metrics.

Everything that names a workload or a metric is derived from the three
tables below — the printed report, the result JSON, ``BENCHMARK.json``'s
name lists and the tables in ``perf/README.md`` (``run.py
--emit-manifest`` rewrites both files).  A metric a workload emits that
is missing here, or the reverse, is an error (:func:`check_names`).

This module imports nothing from ``repro`` so the manifest can be
rebuilt, and the names checked, without loading the program.
"""

from __future__ import annotations

import dataclasses
import importlib
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Seconds one measured run lasts (``BENCHMARK.json``'s ``run_seconds``).
RUN_SECONDS = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    module: str          # perf/<module>.py holds the implementation
    operation: str       # what one operation is
    why: str             # one line: why this workload was chosen
    stresses: str        # layers on its path / layers it bypasses
    min_ops: int         # floor on timed operations in a full-scale run


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    why: str


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    name: str
    layer: str
    unit: str
    better: str
    on: tuple[str, ...]  # workloads whose traced pass measures it
    moves: str           # end-to-end metric @ workload it should move
    why: str


EXEC = ("exec_lu25d", "exec_chol25d", "exec_bulk")
ALL = EXEC + ("plan_grid", "serve_mix", "sweep_closed", "sweep_fanout")

WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload(
        "exec_lu25d", "exec_ops",
        "api.pdgetrf(impl=conflux, v=16, c=2), n=512 on a fresh "
        "Machine(16), 4x4 descriptor grid, mb=32, seeded "
        "diagonally-dominant matrix",
        "ROADMAP's profiled point: small tiles, 901 msgs on the busiest "
        "rank, so per-tile/per-message Python overhead in conflux, "
        "machine and kernels.flops dominates",
        "api > layouts > engine.backends > machine > kernels; bypasses "
        "planner, accounting, runtime", 8),
    Workload(
        "exec_chol25d", "exec_ops",
        "api.pdpotrf(impl=confchox, v=16, c=2), same n/P, SPD input, on "
        "a memory-enforcing Machine(16, required_words()+5n^2/P)",
        "same machine/kernels/backends layers under another schedule "
        "(no tournament) with RankStore.reserve and peak tracking "
        "timed: tells conflux-only gains from shared-layer gains",
        "as exec_lu25d plus budget enforcement; bypasses planner, "
        "accounting, runtime", 8),
    Workload(
        "exec_bulk", "exec_ops",
        "n=1024, P=16, mb=64: pdpotrf(impl=scalapack, nb=64) + "
        "pdgemm(c=1) + pdgemm(s=64, c=2) on one fresh machine",
        "the same layers used the other way: <=65 msgs per rank and "
        "large tiles, so BLAS, array copies and COSTA reshuffles "
        "dominate; per-message optimisations predict no change here",
        "api > layouts (copy-bound) > engine.backends > kernels (BLAS); "
        "bypasses planner, accounting, runtime", 8),
    Workload(
        "plan_grid", "plan_ops",
        "live planner.plan_request for lu/cholesky/gemm at three "
        "paper-scale (N, P) points (156 candidates) plus two joint "
        "plan_workload DFT chains",
        "planner.candidates > TermBatch > rank plus the joint DAG "
        "search; bypasses execute and runtime entirely and guards the "
        "one-evaluator collapse",
        "planner > engine.accounting; bypasses api, machine, runtime", 8),
    Workload(
        "serve_mix", "plan_ops",
        "one PlanService.plan(request) against a 12-point atlas with "
        "lru_size=8: 90% from a hot set of 6, 10% over 12 other "
        "lattice/off-lattice (snap) requests; timed in blocks of 5000",
        "working set (18) larger than the LRU (8), so LRU hits, atlas "
        "reads and snap-to-dominated all stay in steady state; "
        "bypasses planning and accounting after set-up",
        "planner.service > planner.atlas > runtime.cache (reads); "
        "planner only in set-up", 8),
    Workload(
        "sweep_closed", "sweep_ops",
        "serial harness.sweep_traces over 25 (N, P) cases x 4 "
        "implementations = 100 closed-form trace points",
        "engine.accounting closed form through the harness; bypasses "
        "planner, execute and runtime; holds the 12-point bench_smoke "
        "subset so its checksum ties to 1423773488.0",
        "analysis.harness > engine.accounting > kernels.flops (array); "
        "bypass partner of sweep_fanout", 8),
    Workload(
        "sweep_fanout", "sweep_ops",
        "the same 100 points through a cold ProcessPoolSweepExecutor(2)"
        ", a cold 2-worker DistributedSweepExecutor on a fresh cache, "
        "then a workers=0 resume over that cache",
        "same compute as sweep_closed with runtime.executor/fabric/"
        "cache in front: spawn, lease polling and reconcile are most of "
        "the op, so runtime-layer changes show here and only here",
        "runtime.executor > runtime.fabric > runtime.cache > "
        "engine.accounting", 4),
]}

END_TO_END: dict[str, EndToEnd] = {m.name: m for m in [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "interpreter start to ready-for-first-op: imports, input "
             "generation, scatter_from, atlas build; median of fresh "
             "child interpreters, at reference speed"),
    EndToEnd("op_p50_s", "s", "lower", 0.25,
             "median wall of one operation (time to solution at the "
             "stated size), at reference speed"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "operations completed per second of timed window, at "
             "reference speed"),
    EndToEnd("comm_over_bound", "ratio", "lower", 1e-6,
             "geometric mean of counted per-rank words over the paper's "
             "I/O lower bound at the result's own M: exact, the "
             "headline quantity"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "ru_maxrss of the measuring process"),
]}


def _m(name, layer, unit, better, on, moves, why):
    on = (on,) if isinstance(on, str) else tuple(on)
    return LayerMetric(name, layer, unit, better, on, moves, why)


_SWEEPS = ("sweep_closed", "sweep_fanout")

LAYER_METRICS: dict[str, LayerMetric] = {m.name: m for m in [
    # api
    _m("api.pd_call_s", "api", "s", "lower", EXEC, "op_p50_s@exec_*",
       "wall of the op's pd* calls inside one benchmark-side span"),
    _m("api.self_s", "api", "s", "lower", EXEC, "op_p50_s@exec_* (~3%)",
       "pd call minus its replayed layouts and backend parts: gate, "
       "packing, discards"),
    # layouts
    _m("layouts.scatter_s", "layouts", "s", "lower", EXEC,
       "setup_s@exec_*", "scatter_from of the op's operands onto a "
       "fresh machine"),
    _m("layouts.redistribute_in_s", "layouts", "s", "lower", EXEC,
       "op_p50_s@exec_bulk", "costa.redistribute into the native "
       "layout, replayed on the same operands"),
    _m("layouts.redistribute_out_s", "layouts", "s", "lower", EXEC,
       "op_p50_s@exec_bulk", "native scatter of the packed factors plus "
       "costa.redistribute back, replayed"),
    _m("layouts.reshuffle_words", "layouts", "count", "lower", EXEC,
       "op_p50_s@exec_bulk", "counted COSTA words of one op (exact)"),
    # engine.backends
    _m("engine.dist_run_s", "engine.backends", "s", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d", "DistributedBackend(machine)"
       ".run on pre-reshuffled tiles"),
    _m("engine.supersteps", "engine.backends", "count", "lower", EXEC,
       "op_p50_s@exec_*", "supersteps of one op's schedules"),
    _m("engine.step_s_p50", "engine.backends", "s", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d", "median wall of one "
       "dist_step"),
    _m("engine.dense_run_s", "engine.backends", "s", "lower", EXEC,
       "op_p50_s@exec_*", "DenseBackend().run of the same schedules: "
       "the algorithm without the machine, the floor simulation "
       "overhead can reach"),
    _m("engine.sim_overhead_x", "engine.backends", "ratio", "lower", EXEC,
       "op_p50_s@exec_lu25d", "dist_run / dense_run of the op's "
       "factorization call"),
    _m("engine.scipy_ref_s", "engine.backends", "s", "lower", EXEC,
       "none (plain baseline)", "single-threaded SciPy lu_factor/"
       "cho_factor/@ on the same inputs"),
    # machine
    _m("machine.msgs_max_rank", "machine", "count", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d", "received messages on the "
       "busiest rank (exact)"),
    _m("machine.recv_words_max_rank", "machine", "count", "lower", EXEC,
       "comm_over_bound@exec_*", "received words on the busiest rank "
       "(exact)"),
    _m("machine.recv_words_total", "machine", "count", "lower", EXEC,
       "comm_over_bound@exec_*", "counted factorization words over all "
       "ranks (exact, pinned)"),
    _m("machine.flops_total", "machine", "count", "lower", EXEC,
       "op_p50_s@exec_*", "attributed flops over all ranks (exact)"),
    _m("machine.peak_words_max_rank", "machine", "count", "lower", EXEC,
       "failed@exec_chol25d", "store high-water mark of the fullest "
       "rank (exact)"),
    _m("machine.peak_over_budget", "machine", "ratio", "lower", EXEC,
       "failed@exec_chol25d", "peak / enforced budget; 0 where the "
       "machine is unbounded (all but exec_chol25d)"),
    _m("machine.us_per_msg", "machine", "us", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d", "(dist_run - dense_run) / "
       "received messages over all ranks"),
    _m("machine.send_tile_us", "machine", "us", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d not exec_bulk", "isolated "
       "Machine.send of a 16x16 tile"),
    _m("machine.bcast_tile_us", "machine", "us", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d not exec_bulk", "isolated "
       "Machine.bcast of a 16x16 tile in a 4-rank group"),
    _m("machine.reduce_tile_us", "machine", "us", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d not exec_bulk", "isolated "
       "Machine.reduce of a 16x16 tile in a 4-rank group"),
    _m("machine.store_put_get_us", "machine", "us", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d", "RankStore.put + get of a "
       "16x16 tile"),
    _m("machine.bcast_bulk_us", "machine", "us", "lower", EXEC,
       "op_p50_s@exec_bulk not exec_lu25d", "isolated Machine.bcast of "
       "a 256x256 tile: copy-bound"),
    # kernels
    _m("kernels.flops_call_us", "kernels", "us", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d", "scalar flops.gemm_flops "
       "call (the _check_nonneg hot spot)"),
    _m("kernels.gemm_tile_us", "kernels", "us", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d", "blas.gemm on 16x16 tiles"),
    _m("kernels.gemm_tile_overhead_x", "kernels", "ratio", "lower", EXEC,
       "op_p50_s@exec_lu25d,exec_chol25d", "blas.gemm / raw a@b+c at "
       "16x16"),
    _m("kernels.gemm_bulk_gflops", "kernels", "Gflop/s", "higher", EXEC,
       "op_p50_s@exec_bulk", "blas.gemm at 512x512: the BLAS roof of "
       "this box, single thread"),
    _m("kernels.flops_array_us", "kernels", "us", "lower",
       ("plan_grid", "sweep_closed"),
       "op_p50_s@sweep_closed,plan_grid", "flops.gemm_flops on "
       "4096-vectors: the accounting path's use of the same formula"),
    # engine.accounting
    _m("accounting.trace_case_s", "engine.accounting", "s", "lower",
       _SWEEPS, "op_p50_s@sweep_closed", "median harness.trace_case of "
       "one (N, P) case, four implementations batched"),
    _m("accounting.points_per_s", "engine.accounting", "1/s", "higher",
       _SWEEPS, "ops_per_s@sweep_closed", "trace points per second "
       "inside trace_case"),
    _m("accounting.columnar_case_s", "engine.accounting", "s", "lower",
       "sweep_closed", "none (same layer, per-step output)",
       "median trace_case with steps=columnar"),
    _m("accounting.checksum", "engine.accounting", "words", "lower",
       _SWEEPS, "comm_over_bound@sweep_*", "sum of mean_recv_words in "
       "canonical case order (exact, pinned)"),
    # planner
    _m("planner.plan_request_s", "planner", "s", "lower", "plan_grid",
       "op_p50_s@plan_grid", "the op's nine plan_request calls"),
    _m("planner.candidates", "planner", "count", "higher", "plan_grid",
       "op_p50_s@plan_grid", "ranked candidates over the nine plans "
       "(exact)"),
    _m("planner.us_per_candidate", "planner", "us", "lower", "plan_grid",
       "op_p50_s@plan_grid", "plan_request_s / candidates"),
    _m("planner.plan_workload_s", "planner", "s", "lower", "plan_grid",
       "op_p50_s@plan_grid", "the op's two joint plan_workload calls"),
    _m("planner.chosen_words_checksum", "planner", "words", "lower",
       "plan_grid", "comm_over_bound@plan_grid", "sum of chosen "
       "predicted_words (exact, pinned 130867515.140625)"),
    # planner.service / planner.atlas
    _m("service.lru_hit_us_p50", "planner.service", "us", "lower",
       "serve_mix", "op_p50_s@serve_mix", "pure pass of LRU hits"),
    _m("service.atlas_hit_us_p50", "planner.service", "us", "lower",
       "serve_mix", "op_p50_s@serve_mix", "cache_clear() then an exact "
       "lattice request"),
    _m("service.snap_us_p50", "planner.service", "us", "lower",
       "serve_mix", "op_p50_s@serve_mix", "cache_clear() then an "
       "off-lattice budget that snaps"),
    _m("service.p99_us", "planner.service", "us", "lower", "serve_mix",
       "none (tail, not repeatable enough to bound)", "p99 of single "
       "requests in the traced stream"),
    _m("service.p999_us", "planner.service", "us", "lower", "serve_mix",
       "none (tail)", "p99.9 of single requests"),
    _m("service.max_us", "planner.service", "us", "lower", "serve_mix",
       "none (tail)", "slowest single request"),
    _m("service.lru_hit_rate", "planner.service", "ratio", "higher",
       "serve_mix", "ops_per_s@serve_mix", "LRU hits / requests of the "
       "traced stream"),
    _m("service.atlas_hits", "planner.service", "count", "lower",
       "serve_mix", "ops_per_s@serve_mix", "exact atlas reads in the "
       "traced stream"),
    _m("service.snaps", "planner.service", "count", "lower", "serve_mix",
       "ops_per_s@serve_mix", "snapped reads in the traced stream"),
    _m("service.live_fallbacks", "planner.service", "count", "lower",
       "serve_mix", "failed@serve_mix", "live plans during the stream: "
       "wasted work, expect 0"),
    _m("service.live_plan_ms", "planner.service", "ms", "lower",
       "serve_mix", "setup_s@serve_mix", "one live plan_request: what "
       "a fallback would cost"),
    _m("atlas.build_s", "planner.atlas", "s", "lower", "serve_mix",
       "setup_s@serve_mix", "cold PlanAtlas.build of the 12-point "
       "lattice"),
    _m("atlas.get_us", "planner.atlas", "us", "lower", "serve_mix",
       "op_p50_s@serve_mix", "PlanAtlas.get of one lattice point"),
    # runtime.executor
    _m("executor.serial_s", "runtime.executor", "s", "lower", _SWEEPS,
       "op_p50_s@sweep_closed", "sweep_traces through SerialExecutor"),
    _m("executor.pool_cold_s", "runtime.executor", "s", "lower",
       "sweep_fanout", "op_p50_s@sweep_fanout", "cold 2-worker pool "
       "part of the op"),
    _m("executor.pool_warm_s", "runtime.executor", "s", "lower",
       "sweep_fanout", "none (persistent pool)", "same sweep on the "
       "already-warm pool"),
    _m("executor.pool_spawn_s", "runtime.executor", "s", "lower",
       "sweep_fanout", "op_p50_s@sweep_fanout", "cold - warm"),
    _m("executor.pool_speedup_x", "runtime.executor", "ratio", "higher",
       "sweep_fanout", "none", "serial_s / pool_warm_s on 2 cores"),
    # runtime.cache
    _m("cache.put_us", "runtime.cache", "us", "lower", "sweep_fanout",
       "op_p50_s@sweep_fanout", "ResultCache.put of one case result"),
    _m("cache.get_hit_us", "runtime.cache", "us", "lower", "sweep_fanout",
       "op_p50_s@sweep_fanout (resume)", "ResultCache.get, hit"),
    _m("cache.get_miss_us", "runtime.cache", "us", "lower", "sweep_fanout",
       "op_p50_s@sweep_fanout", "ResultCache.get, cold miss"),
    _m("cache.hits", "runtime.cache", "count", "higher", "sweep_fanout",
       "failed@sweep_fanout", "coordinator cache hits of one op "
       "(exact)"),
    _m("cache.misses", "runtime.cache", "count", "lower", "sweep_fanout",
       "failed@sweep_fanout", "coordinator cache misses of one op"),
    _m("cache.corrupt", "runtime.cache", "count", "lower", "sweep_fanout",
       "failed@sweep_fanout", "corrupt reads, expect 0"),
    # runtime.fabric
    _m("fabric.cold_s", "runtime.fabric", "s", "lower", "sweep_fanout",
       "op_p50_s@sweep_fanout", "cold 2-worker fabric part of the op"),
    _m("fabric.publish_s", "runtime.fabric", "s", "lower", "sweep_fanout",
       "op_p50_s@sweep_fanout", "publish_run alone"),
    _m("fabric.inproc_s", "runtime.fabric", "s", "lower", "sweep_fanout",
       "op_p50_s@sweep_fanout", "workers=0, participate=True on an "
       "empty cache: lease + compute + reconcile, no spawn"),
    _m("fabric.spawn_wait_s", "runtime.fabric", "s", "lower",
       "sweep_fanout", "op_p50_s@sweep_fanout", "cold - inproc: worker "
       "spawn, import and lease polling"),
    _m("fabric.resume_s", "runtime.fabric", "s", "lower", "sweep_fanout",
       "op_p50_s@sweep_fanout", "workers=0 pass over the filled cache"),
    _m("fabric.overhead_x", "runtime.fabric", "ratio", "lower",
       "sweep_fanout", "op_p50_s@sweep_fanout", "cold_s / "
       "executor.serial_s"),
    _m("fabric.batches", "runtime.fabric", "count", "lower",
       "sweep_fanout", "none", "leased batches of one run (exact)"),
    _m("fabric.stolen", "runtime.fabric", "count", "lower", "sweep_fanout",
       "none", "batches finished off a stolen lease, expect 0"),
    _m("fabric.tasks_computed", "runtime.fabric", "count", "lower",
       "sweep_fanout", "failed@sweep_fanout", "tasks the cold run "
       "computed (exact: every task once)"),
    _m("fabric.recomputed", "runtime.fabric", "count", "lower",
       "sweep_fanout", "failed@sweep_fanout", "tasks recomputed on "
       "resume or reconcile: wasted work, expect 0"),
    _m("fabric.worker_imbalance", "runtime.fabric", "ratio", "lower",
       "sweep_fanout", "op_p50_s@sweep_fanout", "busiest worker's busy "
       "time / mean: the slower worker sets the op time"),
    # obs (the benchmark's own tracing)
    _m("obs.trace_overhead_frac", "obs", "ratio", "lower", ALL,
       "none (cost of tracing)", "traced op_p50_s / untraced - 1, same "
       "process"),
    _m("obs.machine_slowdown_x", "obs", "ratio", "lower", ALL,
       "none (host noise)", "median speed-probe slowdown against the "
       "reference during the traced run; layer times are raw walls"),
    _m("obs.layer_sum_frac", "obs", "ratio", "higher", ALL,
       "none (trace completeness)", "summed per-layer self times / "
       "traced op_p50_s"),
]}


def load(name: str):
    """The class implementing workload ``name`` (imports the program)."""
    module = importlib.import_module(f"{__package__}.{WORKLOADS[name].module}")
    return module.IMPLEMENTATIONS[name]


def check_names(emitted: dict, registry: dict, what: str) -> None:
    """Emitted metric names must equal the registry's, exactly."""
    missing = sorted(set(registry) - set(emitted))
    extra = sorted(set(emitted) - set(registry))
    if missing or extra:
        raise KeyError(f"{what}: registry and emitted metrics differ — "
                       f"missing {missing}, unregistered {extra}")


def benchmark_manifest() -> dict:
    """``BENCHMARK.json``, derived from the tables above."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END.values()],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in LAYER_METRICS.values()],
    }


def readme_tables() -> str:
    """The generated block of ``perf/README.md``."""
    lines = ["### Workloads", "",
             "| name | one operation | why chosen | layers |",
             "|---|---|---|---|"]
    for w in WORKLOADS.values():
        lines.append(f"| `{w.name}` | {w.operation} | {w.why} | "
                     f"{w.stresses} |")
    lines += ["", "### End-to-end metrics", "",
              "| name | unit | better | bound | what |",
              "|---|---|---|---|---|"]
    for m in END_TO_END.values():
        lines.append(f"| `{m.name}` | {m.unit} | {m.better} | "
                     f"{m.bound:g} | {m.why} |")
    lines += ["", "### Layer metrics and the end-to-end metric each "
              "should move", "",
              "| name | layer | unit | better | measured on | should "
              "move | what |", "|---|---|---|---|---|---|---|"]
    for m in LAYER_METRICS.values():
        on = "all" if m.on == ALL else ("exec_*" if m.on == EXEC
                                        else ", ".join(m.on))
        lines.append(f"| `{m.name}` | {m.layer} | {m.unit} | {m.better} "
                     f"| {on} | {m.moves} | {m.why} |")
    return "\n".join(lines) + "\n"
