#!/usr/bin/env python
"""Drive every instrumented layer and export the telemetry
(``make trace``).

Enables :mod:`repro.obs`, runs one representative slice of each layer —
live + atlas-served planning, cached sweep execution (serial and
process-pool, so worker spans ship home and re-parent), ScaLAPACK-style
``pdgetrf`` and ``pdpotrf`` calls (gate / prep / backend / writeback
phases over real superstep execution), and the DFT workload chain —
then writes:

* ``trace.json`` — Chrome trace-event JSON of the whole span tree plus
  the engine run's per-rank superstep comm counters and memory report
  on a synthetic superstep timeline.  Load it in ``chrome://tracing``
  or https://ui.perfetto.dev.
* ``metrics.json`` — the flat metrics snapshot (global registry plus
  the default plan service's resolution counters).

Exits non-zero if the trace comes out empty, any expected span layer
(planner / cache / executor / fabric / pd phases / engine / workload) is
missing, or either executed factorization (``pd.lu``, ``pd.cholesky``)
left no span — CI runs this and archives ``trace.json`` as a workflow
artifact, so every main build leaves an inspectable timeline behind.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.obs.export import metrics_json, write_chrome_trace  # noqa: E402

#: Span categories the trace must cover — one per instrumented layer.
REQUIRED_CATS = {"planner", "cache", "executor", "pd", "pd-phase",
                 "engine", "workload", "fabric"}

#: Spans the trace must hold by name: both executed factorizations.
REQUIRED_SPANS = {"pd.lu", "pd.cholesky"}

#: Sweep slice: two paper-plane points, 2.5D LU + Cholesky.
SWEEP_POINTS = [(4096, 64), (8192, 256)]

#: Engine slice: one distributed COnfLUX run small enough to execute
#: densely while still producing a multi-superstep step log.
ENGINE_N, ENGINE_P = 32, 4


def _sweep_tasks():
    from repro.runtime.executor import SweepTask

    tasks = [SweepTask(kind, impl, n, p)
             for n, p in SWEEP_POINTS
             for kind, impl in (("lu", "conflux"), ("cholesky", "confchox"))]
    tasks.append(SweepTask("workload", "dft", 64, 4,
                           extra=(("execute", True),)))
    return tasks


def _drive_planner() -> None:
    """Live planning, a cold atlas build, and atlas-served queries —
    the planner + cache span sources."""
    from repro.analysis.harness import NODE_MEM_WORDS
    from repro.planner import PlanAtlas, PlanRequest, PlanService

    lattice = [PlanRequest(op, n, p, NODE_MEM_WORDS, api_copies=3)
               for n, p in SWEEP_POINTS for op in ("lu", "cholesky", "gemm")]
    with tempfile.TemporaryDirectory() as tmp:
        atlas = PlanAtlas(tmp)
        atlas.build(lattice)
        service = PlanService(atlas=atlas)
        for req in lattice:
            service.plan(req)          # atlas hits
        for req in lattice:
            service.plan(req)          # LRU hits


def _drive_executors(workers: int) -> None:
    """A cached sweep, twice serially (miss then hit) and once on the
    pool — executor + cache spans, including shipped worker spans."""
    from repro.runtime import ProcessPoolSweepExecutor, ResultCache
    from repro.runtime.executor import SerialExecutor

    tasks = _sweep_tasks()
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        SerialExecutor(cache=cache).run(tasks)     # all misses
        SerialExecutor(cache=cache).run(tasks)     # all hits
    with ProcessPoolSweepExecutor(max_workers=workers) as pool:
        pool.run(tasks[:4])


def _drive_fabric() -> None:
    """A small work-stealing fabric run (coordinator participating
    in-process, so its run/worker/batch/reconcile spans land in this
    telemetry) over a shared cache directory."""
    from repro.runtime import ResultCache
    from repro.runtime.fabric import DistributedSweepExecutor

    tasks = _sweep_tasks()[:2]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        DistributedSweepExecutor(cache, workers=0).run(tasks)
        cache.gc()


def _drive_engine():
    """Real distributed runs through the pd entry points (COnfLUX and
    COnfCHOX, on a machine enforcing a loose budget so the gate runs
    too) plus one explicit backend run; returns (step_log,
    memory_report)."""
    from repro.api import pdgetrf, pdpotrf
    from repro.engine.backends import DistributedBackend
    from repro.factorizations import ConfluxSchedule
    from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
    from repro.machine import Machine, ProcessorGrid2D

    rng = np.random.default_rng(0)
    n, p = ENGINE_N, ENGINE_P
    machine = Machine(p, mem_words=4 * n * n, enforce_memory=True)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16, prows=2, pcols=2)
    layout = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
    a = rng.standard_normal((n, n))
    layout.scatter_from(machine, "A", a + n * np.eye(n))
    pdgetrf(machine, "A", desc, v=8)
    layout.scatter_from(machine, "S", a @ a.T + n * np.eye(n))
    pdpotrf(machine, "S", desc, impl="confchox", v=8)

    backend = DistributedBackend(Machine(p))
    backend.run(ConfluxSchedule(n, p, v=8, c=1),
                a=rng.standard_normal((n, n)) + n * np.eye(n))
    return machine.stats.steps, backend.memory_report()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".trace-smoke", metavar="DIR",
                        help="output directory (default: .trace-smoke)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="pool width for the traced executor slice")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)

    obs.enable()
    _drive_planner()
    _drive_executors(args.workers)
    _drive_fabric()
    step_log, memory_report = _drive_engine()
    obs.disable()

    trace_path = write_chrome_trace(
        out / "trace.json", obs.default_telemetry(),
        step_log=step_log, memory_report=memory_report)
    from repro.planner.service import default_service
    snapshot = metrics_json(obs.metrics(), default_service().metrics,
                            prefix=("", "default_service"))
    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(snapshot, indent=1) + "\n")

    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    cats = {e["cat"] for e in events}
    by_cat = {c: sum(1 for e in events if e["cat"] == c)
              for c in sorted(cats)}
    print(f"trace:   {trace_path}  ({len(events)} events)")
    print(f"metrics: {metrics_path}  ({len(snapshot)} series)")
    for cat, count in by_cat.items():
        print(f"  {cat:12s} {count}")

    failures = []
    if not events:
        failures.append("trace is empty — telemetry recorded nothing")
    missing = REQUIRED_CATS - cats
    if missing:
        failures.append(
            f"span layers missing from the trace: {sorted(missing)}")
    absent = REQUIRED_SPANS - {e["name"] for e in events}
    if absent:
        failures.append(f"spans missing from the trace: {sorted(absent)}")
    for f in failures:
        print(f"ERROR: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
