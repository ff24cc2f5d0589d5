#!/usr/bin/env python
"""Gate the trace-sweep performance against the committed baseline.

Runs the ``bench_smoke`` workload fresh and compares it against the
committed ``BENCH_engine.json``:

* **checksum** — the sweep's total mean-received-words must equal the
  committed value exactly (relative 1e-9): a drift means the accounting
  *semantics* changed, which must never happen silently;
* **time** — the fresh best-of-``REPS`` sweep must not be more than
  ``MAX_SLOWDOWN`` (25%) slower than the committed ``sweep_s``, after
  normalizing both by the machine-speed calibration probe
  (``bench_smoke.calibrate``) recorded alongside each snapshot — so the
  committed baseline transfers between the dev container and the CI
  runner: a uniformly slower machine slows sweep and probe in the same
  proportion, while a code regression slows only the sweep.  A relative
  slowdown within ``NOISE_FLOOR_S`` absolute seconds is ignored — the
  closed-form sweep is sub-second, so ratio noise alone must not fail
  the gate;
* **pool parity** — the process-pool sweep must reproduce the serial
  checksum exactly;
* **planner checksum** — the planner grid's chosen-plan checksum must
  equal the committed value, gated like the sweep checksum (plan
  selection must never change silently);
* **atlas serving parity** — every plan the atlas/service layer serves
  for a lattice point must be bit-identical to the live planner's
  output for the same request (``served_matches_live``);
* **telemetry cost** — re-running the sweep with ``repro.obs`` spans
  enabled may cost at most 2% over the disabled run (or an absolute
  noise floor) and must produce a bit-identical volume checksum
  (``overhead_ok`` / ``checksum_matches_disabled``);
* **fabric parity** — the work-stealing distributed executor
  (``repro.runtime.fabric``, >= 2 worker processes leasing batches out
  of a shared cache directory) must reproduce the serial checksum
  bit-for-bit (``checksum_matches_serial``) and a resumed run over the
  same cache must recompute nothing (``resume_recomputed == 0``) while
  still matching the checksum — distributed == pool == serial, the
  PR-4 contract extended across hosts;
* **workload-DAG invariants** — the joint workload plan may never
  charge more counted words than independent per-call planning
  (``joint_le_independent``), the serial and process-pool workload
  sweeps — including the small-scale ``run_workload`` execution
  checksum — must agree bit-for-bit, and the execution checksum must
  equal the committed one (workload execution semantics changed).

Used by CI's ``bench-smoke`` job and ``make bench-check``.

Updating the baseline intentionally
-----------------------------------
When an accounting change is deliberate (it alters trace volumes) or a
perf trade-off is accepted, refresh the snapshot and commit it together
with the code change::

    python scripts/check_bench_regression.py --update
    git add BENCH_engine.json

(equivalently ``make bench-smoke``).  The commit message should say why
the checksum or timing moved.  Note the committed ``sweep_s`` is
machine-relative: refresh it too if the CI runner class changes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_smoke import _positive_int, run  # noqa: E402

BASELINE = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: Maximum tolerated slowdown of the fresh sweep vs the committed one.
MAX_SLOWDOWN = 1.25

#: Absolute wall-clock slack (seconds) under which a relative slowdown
#: is indistinguishable from timer/scheduler noise.  The closed-form
#: sweep runs in well under a second, the same magnitude as the
#: calibration probe itself, so the relative gate alone would flake; a
#: real regression on that path (e.g. reintroducing (steps x P) work)
#: costs whole seconds and still trips the gate.
NOISE_FLOOR_S = 0.25

#: Relative tolerance for checksum equality (pure float-summation
#: noise; any semantic change moves the checksum far more).
CHECKSUM_RTOL = 1e-9


def _drifted(fresh: float, base: float) -> bool:
    return abs(fresh - base) > CHECKSUM_RTOL * abs(base)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite BENCH_engine.json from a fresh run "
                             "instead of gating against it")
    parser.add_argument("--parallel", type=_positive_int, default=None,
                        metavar="N",
                        help="worker count for the pool path (Makefile "
                             "pass-through: make bench-check PARALLEL=N)")
    args = parser.parse_args(argv)

    fresh = run(parallel=args.parallel)
    if args.update:
        BASELINE.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"[baseline updated: {BASELINE}]")
        return 0

    baseline = json.loads(BASELINE.read_text())
    base_engine = baseline["engine"]
    fresh_engine = fresh["engine"]
    # Normalize by the machine-speed probe when both snapshots carry
    # one (older baselines fall back to raw wall clock).
    base_calib = base_engine.get("calib_s")
    fresh_calib = fresh_engine.get("calib_s")
    normalize = base_calib and fresh_calib
    base_t = base_engine["sweep_s"] / (base_calib if normalize else 1.0)
    fresh_t = fresh_engine["sweep_s"] / (fresh_calib if normalize else 1.0)
    unit = "sweep/calib" if normalize else "s"
    print(f"baseline: sweep_s={base_engine['sweep_s']} "
          f"calib_s={base_calib} checksum={base_engine['checksum']}")
    print(f"fresh:    sweep_s={fresh_engine['sweep_s']} "
          f"calib_s={fresh_calib} checksum={fresh_engine['checksum']}")

    failures = []
    base_sum, fresh_sum = base_engine["checksum"], fresh_engine["checksum"]
    if _drifted(fresh_sum, base_sum):
        failures.append(
            f"checksum drifted: {fresh_sum} vs committed {base_sum} — the "
            "accounting semantics changed; if intentional, rerun with "
            "--update and commit BENCH_engine.json")
    raw_excess = fresh_engine["sweep_s"] - base_engine["sweep_s"]
    if fresh_t > MAX_SLOWDOWN * base_t and raw_excess > NOISE_FLOOR_S:
        failures.append(
            f"sweep slowed: {fresh_t:.2f} vs committed {base_t:.2f} "
            f"{unit} (> {MAX_SLOWDOWN:.0%}, "
            f"+{raw_excess:.2f}s absolute)")
    # The pool path must reproduce the serial accounting exactly
    # (deterministic task ordering makes the checksum bit-identical).
    par = fresh.get("parallel")
    if par and not par.get("checksum_matches_serial", True):
        failures.append(
            f"process-pool checksum {par['checksum']} != serial "
            f"{fresh_sum} — the parallel executor changed the sweep "
            "semantics")
    # The planner must keep choosing the committed plans.
    planner, base_planner = fresh.get("planner"), baseline.get("planner")
    if planner and base_planner:
        base_plan = base_planner["chosen_checksum"]
        if _drifted(planner["chosen_checksum"], base_plan):
            failures.append(
                f"planner checksum drifted: {planner['chosen_checksum']} "
                f"vs committed {base_plan} — plan selection changed; if "
                "intentional, rerun with --update and commit "
                "BENCH_engine.json")
    # Plans served from the atlas (and through the service's caches)
    # must be bit-identical to live planning of the same request.
    atlas = fresh.get("atlas")
    if atlas and not atlas["served_matches_live"]:
        failures.append(
            "atlas-served plans differ from live planning on lattice "
            "points — the bit-identical serving contract broke")
    # Telemetry must be free when disabled and inert when enabled:
    # <= 2% sweep overhead (or the noise floor) and a bit-identical
    # volume checksum with spans on.
    ob = fresh.get("obs")
    if ob:
        if not ob["overhead_ok"]:
            failures.append(
                f"telemetry-enabled sweep {ob['enabled_s']}s vs disabled "
                f"{ob['disabled_s']}s — span overhead "
                f"{ob['overhead_s']}s exceeds the 2% budget and the "
                "noise floor")
        if not ob["checksum_matches_disabled"]:
            failures.append(
                f"telemetry-enabled checksum {ob['checksum']} != "
                f"disabled {fresh_sum} — recording spans perturbed the "
                "accounting")
    # The work-stealing fabric must reproduce the serial checksum
    # bit-for-bit and resume from the shared cache without recomputing.
    fab = fresh.get("fabric")
    if fab:
        if not fab["checksum_matches_serial"]:
            failures.append(
                f"fabric checksum {fab['checksum']} != serial "
                f"{fresh_sum} — the distributed executor changed the "
                "sweep semantics")
        if fab.get("resume_recomputed"):
            failures.append(
                f"fabric resume recomputed {fab['resume_recomputed']} "
                "tasks — already-cached results were not served")
        if not fab.get("resume_checksum_matches", True):
            failures.append(
                "fabric resume checksum diverged from serial — resumed "
                "results differ from computed ones")
    # The joint workload planner must never charge more than
    # independent per-call planning, the pool must reproduce the
    # serial workload sweep (plans *and* execution checksum) exactly,
    # and the execution checksum must match the committed snapshot.
    wdag = fresh.get("workload_dag")
    if wdag:
        if not wdag["joint_le_independent"]:
            failures.append(
                f"joint workload plan charges {wdag['joint_words']} "
                f"words > independent {wdag['independent_words']} — the "
                "joint search lost its never-worse guarantee")
        if not wdag["checksum_matches_pool"]:
            failures.append(
                f"workload pool checksum {wdag['pool_checksum']} != "
                f"serial {wdag['checksum']} — workload execution is not "
                "deterministic across executors")
        base_wdag = baseline.get("workload_dag")
        if base_wdag:
            base_exec = base_wdag["exec_checksum"]
            if _drifted(wdag["exec_checksum"], base_exec):
                failures.append(
                    f"workload execution checksum drifted: "
                    f"{wdag['exec_checksum']} vs committed {base_exec} — "
                    "run_workload semantics changed; if intentional, "
                    "rerun with --update and commit BENCH_engine.json")
    for f in failures:
        print(f"ERROR: {f}", file=sys.stderr)
    if not failures:
        print("bench regression check OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
