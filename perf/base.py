"""What every workload implements, and the small helpers they share."""

from __future__ import annotations

import math
import pathlib
import shutil
import statistics
import tempfile
import time

from .spans import Tracer

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


class Workload:
    """One benchmark workload.

    ``setup`` builds everything the first operation needs (its wall is
    part of ``setup_s``).  Each operation is ``prepare`` (untimed: fresh
    machine, fresh temp dir), ``run`` (timed), ``check`` (untimed,
    returns the failures of this operation and leaves its
    words-over-bound ratios in ``self.ratios``) and ``cleanup``.
    ``run_traced`` is ``run`` under benchmark-side spans, followed by
    replays of the parts the call is made of; ``layer_metrics`` turns
    the recorded spans, the counts of the last checked operation and
    the isolated probes into this workload's per-layer numbers.

    ``batch`` is the number of operations one timed ``run`` performs.
    ``op_span`` names the span around the traced operation and
    ``root_span`` the span whose subtree's per-layer self times should
    add up to it.
    """

    name: str
    batch = 1
    op_span = "op"
    root_span = "op"

    def __init__(self, name: str, seed: int, scale: str) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.ratios: list[float] = []
        #: Seconds each isolated probe may take.
        self.probe_s = 0.1 if scale == "full" else 0.01

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        return None

    def run(self, ctx):
        raise NotImplementedError

    def check(self, ctx, result) -> list[str]:
        raise NotImplementedError

    def cleanup(self, ctx) -> None:
        pass

    def close(self) -> None:
        """Remove what ``setup`` left on disk."""

    def run_traced(self, ctx, tracer: Tracer):
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        raise NotImplementedError


def scratch_dir(prefix: str) -> str:
    """A fresh temp dir under ``perf/out`` (inside the checkout)."""
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=OUT_DIR)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def per_call_us(fn, budget_s: float, inner: int = 200) -> float:
    """Median microseconds per ``fn()`` call: batches of ``inner`` calls
    until ``budget_s`` has passed (at least five batches)."""
    batches = []
    deadline = time.perf_counter() + budget_s
    while len(batches) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        batches.append((time.perf_counter() - t0) / inner)
    return statistics.median(batches) * 1e6
