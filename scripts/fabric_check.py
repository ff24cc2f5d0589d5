#!/usr/bin/env python
"""CI's two-worker fabric gate (``make fabric-check``).

Shards the bench sweep matrix across ``--workers`` concurrent worker
*processes* sharing one cache directory — the coordinator only
publishes and reconciles, it computes nothing — then gates:

* every batch completed exactly once (done-marker ledger: task counts
  sum to the published total);
* both workers actually participated (with >= 2 batches each would be
  scheduler luck; the gate only requires the ledger's worker set is
  non-trivial when there are enough batches to share);
* the reconciled, order-preserving result list produces the sweep
  checksum **bit-identical** to the committed ``BENCH_engine.json``
  engine checksum — distributed == pool == serial, the PR-4 contract
  extended across processes;
* a second reconcile pass recomputes nothing (resume-from-cache).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import obs  # noqa: E402
from repro.analysis.harness import sweep_tasks  # noqa: E402
from repro.runtime import ResultCache  # noqa: E402
from repro.runtime.fabric import (  # noqa: E402
    DistributedSweepExecutor,
    publish_run,
)

REPO = pathlib.Path(__file__).resolve().parents[1]

#: Same matrix as scripts/bench_smoke.py CASES.
CASES = [(65536, 1024), (65536, 4096), (131072, 4096)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="concurrent worker processes (default 2)")
    parser.add_argument("--ttl", type=float, default=20.0, metavar="S")
    parser.add_argument("--timeout-s", type=float, default=300.0,
                        metavar="S")
    args = parser.parse_args(argv)

    baseline = json.loads((REPO / "BENCH_engine.json").read_text())
    expected = baseline["engine"]["checksum"]

    tasks = sweep_tasks(CASES)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        # Publish first, so the workers find the manifest immediately:
        # one batch per task — with 2 workers and 3 batches, sharing is
        # guaranteed when both get scheduled.
        run = publish_run(tmp, tasks, batch_size=1)
        print(f"published run {run.run_id}: {len(tasks)} tasks, "
              f"{len(run.batches)} batches")

        t0 = time.time()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.fabric",
                 "--cache", tmp, "--run", run.run_id,
                 "--ttl", str(args.ttl),
                 "--worker-id", f"ci-worker-{i}"], env=env)
            for i in range(args.workers)
        ]
        for proc in procs:
            proc.wait(timeout=args.timeout_s)
            if proc.returncode != 0:
                failures.append(
                    f"worker exited with {proc.returncode}")
        wall = time.time() - t0
        print(f"{args.workers} workers finished in {wall:.1f}s")

        if not run.complete():
            failures.append(
                f"run incomplete: {len(run.done_batches())}/"
                f"{len(run.batches)} batches done")
        else:
            # The done-marker ledger: every task exactly once.
            markers = [json.loads(run.done_path(b).read_text())
                       for b in range(len(run.batches))]
            ledger_tasks = sum(m["tasks"] for m in markers)
            by_worker = {}
            for m in markers:
                by_worker[m["worker"]] = by_worker.get(m["worker"], 0) + 1
            print(f"ledger: {ledger_tasks} tasks by {by_worker}, "
                  f"stolen={sum(m['stolen_from'] is not None for m in markers)}")
            if ledger_tasks != len(tasks):
                failures.append(
                    f"ledger accounts {ledger_tasks} tasks, published "
                    f"{len(tasks)} — not exactly-once")
            if len(run.batches) >= args.workers * 2 \
                    and len(by_worker) < 2:
                failures.append(
                    f"only {len(by_worker)} worker(s) completed batches "
                    "— the matrix did not shard")

        # Coordinator reconcile: everything must come from the cache.
        cache = ResultCache(tmp)
        coordinator = DistributedSweepExecutor(
            cache, workers=0, ttl_s=args.ttl, timeout_s=args.timeout_s,
            batch_size=1)
        results = coordinator.run(tasks)
        report = coordinator.last_report
        checksum = sum(r.mean_recv_words for case in results
                       for r in case)
        retried = obs.metrics().counter("fabric.tasks.retried").value
        print(f"reconciled: checksum={checksum}, committed={expected}, "
              f"reconcile cache hits={cache.hits}, retried={retried}")
        print(f"report: {report}")
        if checksum != expected:
            failures.append(
                f"fabric checksum {checksum} != committed engine "
                f"checksum {expected} — the distributed path changed "
                "the sweep semantics")
        if cache.hits < len(tasks):
            failures.append(
                f"reconcile served only {cache.hits}/{len(tasks)} tasks "
                "from the cache — the resume contract broke")
        if retried:
            failures.append(
                f"{retried} tasks recomputed during reconcile — results "
                "were missing despite done markers")

    for f in failures:
        print(f"ERROR: {f}", file=sys.stderr)
    if not failures:
        print("fabric check OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
