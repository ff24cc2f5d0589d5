"""The sweep workloads: the closed-form trace sweep run serially
(``sweep_closed``) and fanned out over the pool and the fabric
(``sweep_fanout``) — the same compute with and without the runtime in
front."""

from __future__ import annotations

import contextlib
import statistics
import time

from repro import obs
from repro.analysis import harness
from repro.runtime import (
    DistributedSweepExecutor,
    ProcessPoolSweepExecutor,
    ResultCache,
    publish_run,
)

from . import inputs
from .base import Workload, per_call_us, remove_dir, scratch_dir
from .exec_ops import IO_BOUNDS, flops_array_us

SCALES = {
    "full": dict(ns=[16384, 32768, 65536, 131072, 262144],
                 ps=[64, 256, 1024, 4096, 16384],
                 checksum=78781741034.0,
                 # scripts/bench_smoke.py's CASES and its checksum.
                 subset=[(65536, 1024), (65536, 4096), (131072, 4096)],
                 subset_checksum=1423773488.0),
    "quick": dict(ns=[16384, 32768], ps=[64, 256], checksum=None,
                  subset=[], subset_checksum=None),
}
IMPLS_PER_CASE = 4      # conflux, mkl (LU); confchox, mkl-chol (Cholesky)
WORKERS = 2
FABRIC = dict(batch_size=1, ttl_s=20.0, timeout_s=120.0)


class SweepBase(Workload):
    def setup(self) -> None:
        spec = self.spec = SCALES[self.scale]
        self.canonical = [(n, p) for n in spec["ns"] for p in spec["ps"]]
        self.cases = inputs.shuffled(self.seed, self.canonical)
        self.checksum = 0.0

    def _verify(self, results, what: str) -> list[str]:
        """Checksums of one flattened result list, in canonical case
        order, against the pinned constants; records the ratios."""
        if len(results) != IMPLS_PER_CASE * len(self.cases):
            return [f"{what}: {len(results)} results for "
                    f"{len(self.cases)} cases"]
        by_case = {case: results[IMPLS_PER_CASE * i:IMPLS_PER_CASE * (i + 1)]
                   for i, case in enumerate(self.cases)}
        errs = []
        self.checksum = sum(r.mean_recv_words for case in self.canonical
                            for r in by_case[case])
        want = self.spec["checksum"]
        if want is not None and self.checksum != want:
            errs.append(f"{what}: checksum {self.checksum!r} != pinned "
                        f"{want!r}")
        subset = sum(r.mean_recv_words for case in self.spec["subset"]
                     for r in by_case[case])
        if self.spec["subset"] and subset != self.spec["subset_checksum"]:
            errs.append(f"{what}: bench_smoke subset checksum {subset!r} "
                        f"!= {self.spec['subset_checksum']!r}")
        # Each case's results are two LU then two Cholesky flavours.
        self.ratios = [
            r.mean_recv_words / IO_BOUNDS["lu" if k < 2 else "cholesky"](
                r.n, r.nranks, r.mem_words)
            for case in self.canonical
            for k, r in enumerate(by_case[case])]
        return errs

    def _trace_cases(self, tr, name: str, **kw) -> None:
        for n, p in self.cases:
            with tr.span(name, "engine.accounting"):
                harness.trace_case(n, p, **kw)

    def _accounting_metrics(self, tr) -> dict[str, float]:
        case_s = tr.median("accounting.trace_case", per_op=False)
        return {"accounting.trace_case_s": case_s,
                "accounting.points_per_s": IMPLS_PER_CASE / case_s,
                "accounting.checksum": self.checksum}


class SweepClosed(SweepBase):
    op_span = "executor.serial"
    root_span = "replay"

    def run(self, ctx):
        return harness.sweep_traces(self.cases)

    def check(self, ctx, results) -> list[str]:
        return self._verify(results, "serial")

    def run_traced(self, ctx, tr):
        with tr.span("executor.serial", "runtime.executor"):
            results = self.run(ctx)
        # The sweep again, one harness.trace_case per case: what the
        # serial executor adds on top is the difference.
        with tr.span("replay", "perf"):
            self._trace_cases(tr, "accounting.trace_case")
        self._trace_cases(tr, "accounting.columnar_case", steps="columnar")
        return results

    def layer_metrics(self, tr) -> dict[str, float]:
        out = self._accounting_metrics(tr)
        out.update({
            "accounting.columnar_case_s": tr.median(
                "accounting.columnar_case", per_op=False),
            "executor.serial_s": tr.median("executor.serial"),
            "kernels.flops_array_us": flops_array_us(self.probe_s),
        })
        return out


def _no_span(name, layer):
    return contextlib.nullcontext()


class SweepFanout(SweepBase):
    def setup(self) -> None:
        super().setup()
        self.retried = obs.metrics().counter("fabric.tasks.retried")
        self.last: dict = {}

    def prepare(self, i: int):
        return scratch_dir("fanout")

    def cleanup(self, tmp) -> None:
        remove_dir(tmp)

    def run(self, tmp, span=_no_span):
        with span("executor.pool_cold", "runtime.executor"):
            with ProcessPoolSweepExecutor(WORKERS) as pool:
                pooled = harness.sweep_traces(self.cases, executor=pool)
        cache = ResultCache(tmp)
        retried = self.retried.value
        with span("fabric.cold", "runtime.fabric"):
            cold = DistributedSweepExecutor(cache, workers=WORKERS,
                                            participate=False, **FABRIC)
            fabric = harness.sweep_traces(self.cases, executor=cold)
        hits = cache.hits
        with span("fabric.resume", "runtime.fabric"):
            warm = DistributedSweepExecutor(cache, workers=0, **FABRIC)
            resumed = harness.sweep_traces(self.cases, executor=warm)
        return dict(pool=pooled, fabric=fabric, resume=resumed, cache=cache,
                    report=cold.last_report, resume_hits=cache.hits - hits,
                    recomputed=self.retried.value - retried)

    def check(self, tmp, out) -> list[str]:
        errs = []
        for what in ("pool", "fabric", "resume"):
            errs += self._verify(out[what], what)
        report, ncases = out["report"], len(self.cases)
        ledger = (report.tasks, report.tasks_computed, report.batches,
                  sum(report.by_worker.values()))
        if ledger != (ncases,) * 4:
            errs.append(f"fabric ledger (tasks, computed, batches, done) "
                        f"{ledger} != {ncases} each: not exactly once")
        if out["resume_hits"] != ncases or out["recomputed"]:
            errs.append(f"resume served {out['resume_hits']}/{ncases} from "
                        f"the cache and recomputed {out['recomputed']}")
        self.last = out
        return errs

    def run_traced(self, tmp, tr):
        with tr.span("op", "perf"):
            return self.run(tmp, span=tr.span)

    # ------------------------------------------------------------------
    def layer_metrics(self, tr) -> dict[str, float]:
        cases = self.cases
        t0 = time.perf_counter()
        serial = harness.sweep_traces(cases)
        serial_s = time.perf_counter() - t0
        self._trace_cases(tr, "accounting.trace_case")
        with ProcessPoolSweepExecutor(WORKERS) as pool:
            harness.sweep_traces(cases, executor=pool)      # spawn + warm
            t0 = time.perf_counter()
            harness.sweep_traces(cases, executor=pool)
            warm_s = time.perf_counter() - t0
        tmp = scratch_dir("fanout-probe")
        try:
            t0 = time.perf_counter()
            publish_run(ResultCache(tmp + "/publish"),
                        harness.sweep_tasks(cases),
                        batch_size=FABRIC["batch_size"])
            publish_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            harness.sweep_traces(cases, executor=DistributedSweepExecutor(
                ResultCache(tmp + "/inproc"), workers=0, participate=True,
                **FABRIC))
            inproc_s = time.perf_counter() - t0
            probe = ResultCache(tmp + "/cache")
            value = serial[:IMPLS_PER_CASE]
            put_us = per_call_us(lambda: probe.put("perf-probe", value),
                                 self.probe_s, inner=20)
            hit_us = per_call_us(lambda: probe.get("perf-probe"),
                                 self.probe_s, inner=20)
            miss_us = per_call_us(lambda: probe.get("perf-absent"),
                                  self.probe_s, inner=20)
        finally:
            remove_dir(tmp)
        pool_cold = tr.median("executor.pool_cold")
        cold = tr.median("fabric.cold")
        report, cache = self.last["report"], self.last["cache"]
        busy = list(report.busy_s.values())
        out = self._accounting_metrics(tr)
        out.update({
            "executor.serial_s": serial_s,
            "executor.pool_cold_s": pool_cold,
            "executor.pool_warm_s": warm_s,
            "executor.pool_spawn_s": pool_cold - warm_s,
            "executor.pool_speedup_x": serial_s / warm_s,
            "cache.put_us": put_us,
            "cache.get_hit_us": hit_us,
            "cache.get_miss_us": miss_us,
            "cache.hits": float(cache.hits),
            "cache.misses": float(cache.misses),
            "cache.corrupt": float(cache.corrupt),
            "fabric.cold_s": cold,
            "fabric.publish_s": publish_s,
            "fabric.inproc_s": inproc_s,
            "fabric.spawn_wait_s": cold - inproc_s,
            "fabric.resume_s": tr.median("fabric.resume"),
            "fabric.overhead_x": cold / serial_s,
            "fabric.batches": float(report.batches),
            "fabric.stolen": float(report.stolen),
            "fabric.tasks_computed": float(report.tasks_computed),
            "fabric.recomputed": float(self.last["recomputed"]),
            "fabric.worker_imbalance": max(busy) / statistics.fmean(busy),
        })
        return out


IMPLEMENTATIONS = {"sweep_closed": SweepClosed, "sweep_fanout": SweepFanout}
