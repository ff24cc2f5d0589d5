"""The planning workloads: live planning (``plan_grid``) and serving
from a prebuilt atlas (``serve_mix``)."""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from repro.analysis.harness import NODE_MEM_WORDS, dft_workload_request
from repro.planner import (
    PlanAtlas,
    PlanRequest,
    PlanService,
    plan_request,
    plan_workload,
)
from repro.planner.workload import config_schedule

from . import inputs
from .base import Workload, per_call_us, remove_dir, scratch_dir
from .exec_ops import IO_BOUNDS, flops_array_us

OPS = ("lu", "cholesky", "gemm")
API_COPIES = 3


def words_over_bound(op: str, n: int, p: int, config) -> float:
    """A planned config's predicted per-rank words over the I/O lower
    bound at the model memory of the schedule it names."""
    sched, _ = config_schedule(op, n, p, config)
    return config.predicted_words / IO_BOUNDS[op](n, p, sched.mem_words)


# ----------------------------------------------------------------------

GRID_SCALES = {
    "full": dict(grid=[(4096, 64), (16384, 1024), (65536, 4096)],
                 dags=[(16384, 1024), (65536, 1024)],
                 candidates=156, checksum=130867515.140625),
    "quick": dict(grid=[(4096, 64)], dags=[(4096, 64)],
                  candidates=None, checksum=None),
}


class PlanGrid(Workload):
    def setup(self) -> None:
        spec = self.spec = GRID_SCALES[self.scale]
        singles = [PlanRequest(op, n, p, NODE_MEM_WORDS,
                               api_copies=API_COPIES)
                   for n, p in spec["grid"] for op in OPS]
        dags = [dft_workload_request(n, p, NODE_MEM_WORDS)
                for n, p in spec["dags"]]
        # (canonical position, request): the seed orders the calls, the
        # pinned checksum is summed in canonical order.
        self.requests = inputs.shuffled(
            self.seed, list(enumerate(singles + dags)))
        self.candidates = 0
        self.checksum = 0.0

    def _call(self, request):
        if isinstance(request, PlanRequest):
            return plan_request(request)
        return plan_workload(request)

    def run(self, ctx):
        return [self._call(request) for _, request in self.requests]

    def check(self, ctx, plans) -> list[str]:
        errs = []
        ratios = []
        self.candidates = 0
        self.checksum = 0.0
        for (_, request), plan in sorted(zip(self.requests, plans),
                                         key=lambda item: item[0][0]):
            if isinstance(request, PlanRequest):
                self.candidates += len(plan.ranked)
                self.checksum += plan.chosen.predicted_words
                ratios.append(words_over_bound(
                    request.op, request.n, request.p, plan.chosen))
                continue
            joint = plan.chosen.total_words
            if joint > plan.independent.total_words:
                errs.append(f"joint plan {joint} words > independent "
                            f"{plan.independent.total_words}")
            ratios += [words_over_bound(node.op, node.n, request.p, config)
                       for node, config in zip(request.nodes,
                                               plan.chosen.configs)]
        self.ratios = ratios
        for what, got in (("candidates", self.candidates),
                          ("checksum", self.checksum)):
            want = self.spec[what]
            if want is not None and got != want:
                errs.append(f"planner {what} {got!r} != pinned {want!r}")
        return errs

    def run_traced(self, ctx, tr):
        plans = []
        with tr.span("op", "perf"):
            for _, request in self.requests:
                name = ("planner.plan_request"
                        if isinstance(request, PlanRequest)
                        else "planner.plan_workload")
                with tr.span(name, "planner"):
                    plans.append(self._call(request))
        return plans

    def layer_metrics(self, tr) -> dict[str, float]:
        single_s = tr.median("planner.plan_request")
        return {
            "planner.plan_request_s": single_s,
            "planner.candidates": float(self.candidates),
            "planner.us_per_candidate": single_s / self.candidates * 1e6,
            "planner.plan_workload_s": tr.median("planner.plan_workload"),
            "planner.chosen_words_checksum": self.checksum,
            "kernels.flops_array_us": flops_array_us(self.probe_s),
        }


# ----------------------------------------------------------------------

SERVE_SCALES = {
    "full": dict(stream=200_000, block=5000),
    "quick": dict(stream=2000, block=200),
}
ATLAS_POINTS = [(4096, 64), (8192, 256)]
LRU_SIZE = 8
HOT_LATTICE, HOT_OFF = 4, 2


class ServeMix(Workload):
    def setup(self) -> None:
        spec = SERVE_SCALES[self.scale]
        self.batch = spec["block"]
        rungs = [NODE_MEM_WORDS, NODE_MEM_WORDS / 4]
        self.lattice = [PlanRequest(op, n, p, mem, api_copies=API_COPIES)
                        for n, p in ATLAS_POINTS for mem in rungs
                        for op in OPS]
        # Off-lattice budgets between the rungs: each snaps to the lower
        # rung's plan of the same (op, n, p).
        low = [r for r in self.lattice if r.mem_words == rungs[1]]
        self.snaps_to = {
            dataclasses.replace(r, mem_words=NODE_MEM_WORDS / 2): r
            for r in low}
        self.universe = self.lattice + list(self.snaps_to)
        self.hot, index = inputs.serve_stream(
            self.seed, len(self.lattice), len(self.snaps_to),
            HOT_LATTICE, HOT_OFF, spec["stream"])
        self.index = index.tolist()
        self.stream = [self.universe[i] for i in self.index]
        self.atlas_dir = scratch_dir("atlas")
        self.atlas = PlanAtlas(self.atlas_dir)
        self.atlas.build(self.lattice)
        self.service = PlanService(self.atlas, lru_size=LRU_SIZE)
        self.expected: list | None = None
        self.verified: set[int] = set()
        self.latencies: list[float] = []
        self.traced = dict.fromkeys(
            ("lru_hits", "lru_misses", "atlas_hits", "atlas_snaps",
             "live_plans"), 0)

    def close(self) -> None:
        remove_dir(self.atlas_dir)

    def prepare(self, i: int):
        return (i * self.batch) % len(self.stream)

    def run(self, start):
        plan = self.service.plan
        return [plan(request)
                for request in self.stream[start:start + self.batch]]

    def _oracle(self) -> None:
        """Live plans for the whole universe (a snapping request is
        owed the plan of the lattice point that dominates it)."""
        live = {r: plan_request(r) for r in self.lattice}
        self.expected = [live[self.snaps_to.get(r, r)]
                         for r in self.universe]
        self.ratios = [words_over_bound(r.op, r.n, r.p, plan.chosen)
                       for r, plan in zip(self.universe, self.expected)]

    def check(self, start, plans) -> list[str]:
        if self.expected is None:
            self._oracle()
        errs = []
        for idx, plan in zip(self.index[start:start + self.batch], plans):
            want = self.expected[idx]
            if idx not in self.verified:
                ok = plan == want
                self.verified.add(idx)
            else:
                ok = plan.chosen == want.chosen
            if not ok:
                errs.append(f"request {self.universe[idx].token()} served "
                            f"{plan.chosen.describe()}, live plan is "
                            f"{want.chosen.describe()}")
        if self.service.stats.live_plans:
            errs.append(f"{self.service.stats.live_plans} live fallbacks")
        return errs

    def run_traced(self, start, tr):
        plan, clock = self.service.plan, time.perf_counter
        stats = self.service.stats
        before = {k: getattr(stats, k) for k in self.traced}
        plans = []
        lat = self.latencies
        with tr.span("op", "planner.service"):
            for request in self.stream[start:start + self.batch]:
                t0 = clock()
                plans.append(plan(request))
                lat.append(clock() - t0)
        for k in self.traced:
            self.traced[k] += getattr(stats, k) - before[k]
        return plans

    # ------------------------------------------------------------------
    def _pure_pass_us(self, requests: list, clear: bool) -> float:
        """p50 of one resolution path: every request LRU-warm, or every
        request after a ``cache_clear()``."""
        service = PlanService(self.atlas, lru_size=LRU_SIZE)
        for request in requests:
            service.plan(request)
        lat = []
        for k in range(400):
            request = requests[k % len(requests)]
            if clear:
                service.cache_clear()
            t0 = time.perf_counter()
            service.plan(request)
            lat.append(time.perf_counter() - t0)
        return statistics.median(lat) * 1e6

    def layer_metrics(self, tr) -> dict[str, float]:
        lat_us = np.asarray(self.latencies) * 1e6
        served = self.traced["lru_hits"] + self.traced["lru_misses"]
        builds = []
        for _ in range(3):
            tmp = scratch_dir("atlas-probe")
            try:
                t0 = time.perf_counter()
                PlanAtlas(tmp).build(self.lattice)
                builds.append(time.perf_counter() - t0)
            finally:
                remove_dir(tmp)
        live = []
        for request in self.lattice[:3]:
            t0 = time.perf_counter()
            plan_request(request)
            live.append(time.perf_counter() - t0)
        hot = [self.universe[i] for i in self.hot]
        return {
            "service.lru_hit_us_p50": self._pure_pass_us(hot, clear=False),
            "service.atlas_hit_us_p50": self._pure_pass_us(
                self.lattice, clear=True),
            "service.snap_us_p50": self._pure_pass_us(
                list(self.snaps_to), clear=True),
            "service.p99_us": float(np.percentile(lat_us, 99)),
            "service.p999_us": float(np.percentile(lat_us, 99.9)),
            "service.max_us": float(lat_us.max()),
            "service.lru_hit_rate": self.traced["lru_hits"] / served,
            "service.atlas_hits": float(self.traced["atlas_hits"]),
            "service.snaps": float(self.traced["atlas_snaps"]),
            "service.live_fallbacks": float(self.traced["live_plans"]),
            "service.live_plan_ms": statistics.median(live) * 1e3,
            "atlas.build_s": statistics.median(builds),
            "atlas.get_us": per_call_us(
                lambda: self.atlas.get(self.lattice[0]), self.probe_s,
                inner=20),
        }


IMPLEMENTATIONS = {"plan_grid": PlanGrid, "serve_mix": ServeMix}
