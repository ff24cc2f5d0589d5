#!/usr/bin/env python
"""Interleaved A/B timing of one ``perf/`` workload on two checkouts.

Sizes a performance change before ``perf/run.py`` does: on a small or
shared host the wall of an operation drifts by more than a few percent
between two ``perf/run.py`` runs, but two operations run back to back
see the same host speed.  So this script starts one persistent worker
process per checkout (``A`` = before, ``B`` = after), each building the
workload from its own ``src/`` and ``perf/`` at full scale and seed 1,
as ``BENCHMARK.json`` runs it, then runs single operations alternately:
pair ``k`` times one ``A`` and one ``B`` operation, ``A`` first on even
``k`` and ``B`` first on odd ``k``.  Each operation goes through the
checkout's own ``perf/run.py`` loop (``OpLoop.one``: prepare, timed
run, speed probe, the workload's check — residuals, pinned words,
memory budget — and clean-up); the walls compared are raw, since both
sides of a pair see the same host speed.  A failed check stops the run
with exit status 1.  It prints the median of the per-pair ratios
``B / A``, their quartiles and how many pairs ``B`` won (ratio below 1)::

    python scripts/ab_pairs.py /path/to/before /path/to/after \\
        --workload exec_lu25d --pairs 100

Passing the same checkout twice is the A/A control: its median ratio
should be near 1 and its win count near half the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys


def serve(checkout: str, workload: str) -> None:
    """Worker: build ``workload`` (full scale, seed 1) from ``checkout``
    and run one warm-up operation, then one operation per input line
    through ``perf/run.py``'s own loop (prepare, timed run, speed probe,
    check, clean-up), answering each with a JSON line ``{"wall",
    "errors"}`` (the raw wall)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = pathlib.Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perf import run, speed, workloads

    w = workloads.load(workload)(workload, 1, "full")
    w.setup()
    loop = run.OpLoop(w, speed.slowdown)
    try:
        loop.one(w.run, count=False)
        print(json.dumps({"wall": None, "errors": loop.failures}), flush=True)
        for _ in sys.stdin:
            seen = len(loop.failures)
            loop.one(w.run)
            errors = loop.failures[seen:]
            print(json.dumps({"wall": None if errors else loop.raw_walls[-1],
                              "errors": errors}), flush=True)
    finally:
        w.close()


class Worker:
    """One persistent worker process on one checkout."""

    def __init__(self, checkout: str, args: argparse.Namespace) -> None:
        self.checkout = checkout
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", checkout,
             "--workload", args.workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reply()

    def _reply(self) -> float | None:
        """The wall of the operation just run; exits if it failed."""
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker on {self.checkout} exited "
                             f"(status {self.proc.wait()})")
        reply = json.loads(line)
        if reply["errors"]:
            raise SystemExit(f"{self.checkout}: operation failed its check: "
                             f"{reply['errors']}")
        return reply["wall"]

    def op(self) -> float:
        self.proc.stdin.write("op\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", nargs="?", help="checkout A (before)")
    ap.add_argument("b", nargs="?", help="checkout B (after)")
    ap.add_argument("--workload", default="exec_lu25d")
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--serve", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        serve(args.serve, args.workload)
        return 0
    if not (args.a and args.b) or args.pairs < 1:
        ap.error("need checkouts A and B and --pairs >= 1")
    workers = [Worker(args.a, args), Worker(args.b, args)]
    walls = []
    try:
        for k in range(args.pairs):
            order = workers if k % 2 == 0 else workers[::-1]
            wall = {id(w): w.op() for w in order}
            walls.append([wall[id(w)] for w in workers])
    finally:
        for w in workers:
            w.close()
    ratios = [b / a for a, b in walls]
    median = statistics.median(ratios)
    q1, _, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                 else ratios * 3)
    wins = sum(r < 1.0 for r in ratios)
    a, b = (statistics.median(side) for side in zip(*walls))
    print(f"{args.workload}: median op A {a * 1e3:.2f} ms, B {b * 1e3:.2f} ms; "
          f"median B/A {median:.3f} (quartiles {q1:.3f} .. {q3:.3f}), "
          f"B won {wins}/{len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
