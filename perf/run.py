#!/usr/bin/env python3
"""The layered performance ledger's driver.

One measured run (what ``BENCHMARK.json``'s command is given)::

    python3 perf/run.py --workload exec_lu25d --seed 1 --seconds 10 --trace 0

prints every metric of that workload by name with its unit and, as the
last line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (which also writes
``perf/out/trace-<workload>.json``, a Chrome trace of the
benchmark-side spans).

Without ``--workload`` it runs the whole ledger: every workload in its
own fresh child interpreter, untraced, then a second, traced pass; the
report goes to stdout, ``perf/out/ledger.json`` and
``perf/out/trace.json``.  ``--check-repeat`` runs two untraced sets on
the same code and fails unless they agree within the registered
bounds.  ``--emit-manifest`` rewrites ``BENCHMARK.json`` and the
generated tables of ``perf/README.md`` from the registry.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()       # set-up is timed from interpreter start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

PERF = pathlib.Path(__file__).resolve().parent
ROOT = PERF.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perf import workloads  # noqa: E402
from perf.base import OUT_DIR  # noqa: E402
from perf.workloads import END_TO_END, LAYER_METRICS, WORKLOADS  # noqa: E402

#: Fresh child interpreters whose set-up is timed besides this one's.
SETUP_CHILDREN = 2
#: Share of ``--seconds`` a traced run spends on operations (a plain and
#: a traced one in turn); the rest is left to the isolated probes.
TRACED_SHARE = 0.7
CHILD_TIMEOUT_S = 170
README_BEGIN = "<!-- registry:begin (perf/run.py --emit-manifest) -->\n"
README_END = "<!-- registry:end -->\n"


def pin_blas_threads() -> None:
    """One BLAS thread, set before NumPy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"


# ----------------------------------------------------------------------
# One workload, in this process.

class OpLoop:
    """Closed loop, one client: runs operations of one workload, checks
    each, and never lets a failing operation abort the run.

    ``probe`` returns the machine's current slowdown against the
    reference (:func:`perf.speed.slowdown`); it runs next to every
    operation, and the operation's wall is divided by the mean of the
    probes on either side of it.
    """

    def __init__(self, workload, probe) -> None:
        self.w = workload
        self.probe = probe
        self.last_probe: float | None = None
        self.slowdowns: list[float] = []
        self.raw_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.index = 0

    def one(self, runner, count: bool = True):
        """Prepare, run (timed), check, clean up.  Returns the wall of
        the timed call at reference speed, or None when the operation
        failed."""
        w, i = self.w, self.index
        self.index += 1
        wall = None
        ctx = None
        try:
            ctx = w.prepare(i)
            before = (self.last_probe if self.last_probe is not None
                      else self.probe())
            t0 = time.perf_counter()
            result = runner(ctx)
            raw = time.perf_counter() - t0
            self.last_probe = self.probe()
            errs = w.check(ctx, result)
            if not errs:
                slow = (before + self.last_probe) / 2.0
                wall = raw / slow
                if count:
                    self.slowdowns.append(slow)
                    self.raw_walls.append(raw)
        except Exception:   # an op must not abort the run: count it
            errs = [traceback.format_exc(limit=4).strip()]
        finally:
            if ctx is not None:
                w.cleanup(ctx)
        if count:
            self.attempted += w.batch
            self.failed += min(len(errs), w.batch)
        for err in errs[:3]:
            self.failures.append(f"{w.name} op {i}: {err}")
        return wall

    def until(self, runner, seconds: float, min_ops: int) -> list[float]:
        """Operations until their raw walls add up to ``seconds`` (and
        at least ``min_ops`` were tried); returns the walls at reference
        speed."""
        walls: list[float] = []
        raw_before = sum(self.raw_walls)
        tried = 0
        while sum(self.raw_walls) - raw_before < seconds or tried < min_ops:
            wall = self.one(runner)
            tried += 1
            if wall is not None:
                walls.append(wall)
            elif tried >= max(min_ops, 3) and not walls:
                break                   # nothing works: stop, report
        return walls


def setup_in_children(name: str, seed: int, quick: bool,
                      count: int) -> list[float]:
    """``setup_s`` of fresh child interpreters doing only the set-up."""
    cmd = [sys.executable, str(PERF / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"] + ["--quick"] * quick
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False, setup_only: bool = False,
            t_start: float | None = None, setup_children: int = 0) -> dict:
    """Run one workload here; returns the result object (plus the
    failure messages under ``failures``).  Set-up is timed from
    ``t_start`` (the interpreter's start when run as a script) and, for
    the median, in ``setup_children`` more fresh interpreters."""
    from perf import speed

    if t_start is None:
        t_start = time.perf_counter()
    workload = workloads.load(name)(name, seed, "quick" if quick else "full")
    workload.setup()
    setup_s = time.perf_counter() - t_start
    setup_s /= statistics.median(speed.slowdown() for _ in range(3))
    loop = OpLoop(workload, speed.slowdown)
    try:
        if setup_only:
            return {"setup_s": setup_s}
        if not quick:
            loop.one(workload.run, count=False)             # warm-up
        if trace:
            registry = LAYER_METRICS
            metrics = traced_pass(loop, seconds, quick)
        else:
            registry = END_TO_END
            setups = [setup_s] + setup_in_children(name, seed, quick,
                                                   setup_children)
            walls = loop.until(workload.run, seconds,
                               2 if quick else WORKLOADS[name].min_ops)
            metrics = end_to_end(workload, statistics.median(setups), walls)
            workloads.check_names(metrics, END_TO_END, name)
    finally:
        workload.close()
    return {
        "correct": loop.attempted > 0 and not loop.failures,
        "attempted": max(loop.attempted, 1),
        "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": registry[key].unit}
                    for key, value in metrics.items()},
        "failures": loop.failures,
        "raw": {"op_p50_s": (statistics.median(loop.raw_walls)
                             / workload.batch if loop.raw_walls else 0.0),
                "slowdown_x": (statistics.median(loop.slowdowns)
                               if loop.slowdowns else 0.0)},
    }


def end_to_end(workload, setup_s: float, walls: list[float]) -> dict:
    import resource

    from perf.base import geomean

    ops = len(walls) * workload.batch
    return {
        "setup_s": setup_s,
        "op_p50_s": (statistics.median(walls) / workload.batch
                     if walls else 0.0),
        "ops_per_s": ops / sum(walls) if walls else 0.0,
        "comm_over_bound": (geomean(workload.ratios)
                            if workload.ratios else 0.0),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(loop: OpLoop, seconds: float, quick: bool) -> dict:
    """Every registered layer metric — measured where the workload is
    on the layer's path, 0 elsewhere — and the Chrome trace on disk."""
    from perf.spans import Tracer, write_chrome_trace

    workload, tracer = loop.w, Tracer()
    # A plain and a traced operation in turn, so that a drift over the
    # run does not read as tracing overhead.
    plain: list[float] = []
    pairs = 0
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds * TRACED_SHARE
           or pairs < (1 if quick else 2)):
        if loop.one(workload.run) is not None:
            plain.append(loop.raw_walls[-1])    # spans are raw walls too
        tracer.op = pairs
        loop.one(lambda ctx: workload.run_traced(ctx, tracer))
        pairs += 1
    tracer.op = None
    measured = workload.layer_metrics(tracer)
    traced_op = tracer.median(workload.op_span)
    measured["obs.trace_overhead_frac"] = (
        traced_op / statistics.median(plain) - 1.0 if plain else 0.0)
    measured["obs.layer_sum_frac"] = (
        tracer.layer_sum_median(workload.root_span) / traced_op
        if traced_op else 0.0)
    measured["obs.machine_slowdown_x"] = (
        statistics.median(loop.slowdowns) if loop.slowdowns else 0.0)
    name = workload.name
    workloads.check_names(
        measured, {k: m for k, m in LAYER_METRICS.items() if name in m.on},
        name)
    OUT_DIR.mkdir(exist_ok=True)
    write_chrome_trace(
        OUT_DIR / f"trace-{name}.json",
        tracer.chrome_events(list(WORKLOADS).index(name), name))
    return {key: float(measured.get(key, 0.0)) for key in LAYER_METRICS}


def print_result(name: str, result: dict, trace: bool) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {name}: {kind}, {result['attempted']} operations attempted, "
          f"{result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    for key, entry in result["metrics"].items():
        if trace and name not in LAYER_METRICS[key].on:
            continue                    # layer not on this workload's path
        print(f"  {key:32s} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        raw = result["raw"]
        print(f"  [machine took {raw['slowdown_x']:.3f}x the reference's "
              f"time per unit of work; raw op_p50 {raw['op_p50_s']:.6g} s]")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def run_single(args) -> int:
    pin_blas_threads()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     quick=args.quick, setup_only=args.setup_only,
                     t_start=_T0,
                     setup_children=0 if args.quick else SETUP_CHILDREN)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    print_result(args.workload, result, bool(args.trace))
    del result["failures"], result["raw"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# The whole ledger: one fresh child interpreter per workload and pass.

def run_child(name: str, seed: int, seconds: float, trace: int,
              quick: bool) -> dict:
    cmd = [sys.executable, str(PERF / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + ["--quick"] * quick
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{name} (trace {trace}) printed no result; "
                           f"stderr:\n{proc.stderr[-2000:]}") from None
    result["exit"] = proc.returncode
    return result


def run_ledger(args) -> int:
    ledger: dict = {"seed": args.seed, "seconds": args.seconds,
                    "end_to_end": {}, "per_layer": {}}
    bad = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name in WORKLOADS:
            result = run_child(name, args.seed, args.seconds, trace,
                               args.quick)
            bad += result["exit"] != 0
            ledger[key][name] = result
    for name in WORKLOADS:              # tracing overhead, across passes
        plain = ledger["end_to_end"][name]["metrics"]["op_p50_s"]["value"]
        frac = ledger["per_layer"][name]["metrics"][
            "obs.trace_overhead_frac"]["value"]
        print(f"{name}: untraced op_p50_s {plain:.6g} s, traced pass "
              f"overhead {frac:+.2%}")
    events = []
    for name in WORKLOADS:
        path = OUT_DIR / f"trace-{name}.json"
        events += json.loads(path.read_text())["traceEvents"]
    (OUT_DIR / "trace.json").write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}))
    (OUT_DIR / "ledger.json").write_text(json.dumps(ledger, indent=1))
    print(f"[ledger: {OUT_DIR / 'ledger.json'}; trace: "
          f"{OUT_DIR / 'trace.json'} — open in ui.perfetto.dev or "
          "chrome://tracing]")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Repeatability: two sets on the same code, judged as the driver does.

def worse_by(metric, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (<= 0: not)."""
    delta = second - first if metric.better == "lower" else first - second
    return delta / abs(first)


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def check_repeat(args) -> int:
    names = list(WORKLOADS)
    sets = []
    for order in (names, names[::-1]):
        values: dict = {name: {m: [] for m in END_TO_END} for name in names}
        for name in order:
            for k in range(args.runs):
                result = run_child(name, args.seed + k, args.seconds, 0,
                                   args.quick)
                if result["exit"]:
                    print(f"FAIL {name}: run exited {result['exit']}")
                    return 1
                for m in END_TO_END:
                    values[name][m].append(result["metrics"][m]["value"])
        sets.append(values)
    bad = 0
    print("| workload | metric | set 1 median | set 2 median | worse by | "
          "spread 1 | spread 2 | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name in names:
        for m, metric in END_TO_END.items():
            a, b = sets[0][name][m], sets[1][name][m]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = worse_by(metric, med_a, med_b)
            spreads = (spread(a), spread(b))
            ok = worse <= metric.bound
            if m != "setup_s":
                ok = ok and max(spreads) <= metric.bound
            if m == "comm_over_bound":          # exact: bit-equal
                ok = ok and set(a) == set(b) and len(set(a)) == 1
            bad += not ok
            print(f"| {name} | {m} | {med_a:.6g} | {med_b:.6g} | "
                  f"{worse:+.2%} | {spreads[0]:.2%} | {spreads[1]:.2%} | "
                  f"{metric.bound:g} | {'yes' if ok else 'NO'} |")
    print(f"check-repeat: {bad} metric(s) outside their bound")
    return 1 if bad else 0


# ----------------------------------------------------------------------

def emit_manifest() -> int:
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(workloads.benchmark_manifest(), indent=2) + "\n")
    readme = PERF / "README.md"
    text = readme.read_text()
    head, _, rest = text.partition(README_BEGIN)
    _, _, tail = rest.partition(README_END)
    readme.write_text(head + README_BEGIN + workloads.readme_tables()
                      + README_END + tail)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(workloads.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scale (small inputs, two ops)")
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: time the set-up and exit")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload and set for --check-repeat "
                             "(seeds seed..seed+runs-1; 10 is what the PR "
                             "driver does)")
    parser.add_argument("--emit-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.emit_manifest:
        return emit_manifest()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.check_repeat:
        return check_repeat(args)
    if args.workload:
        return run_single(args)
    return run_ledger(args)


if __name__ == "__main__":
    raise SystemExit(main())
