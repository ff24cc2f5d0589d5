"""The executed workloads: pd* calls on the simulated machine.

``exec_lu25d`` and ``exec_chol25d`` are message-bound (small tiles,
hundreds of messages per rank); ``exec_bulk`` drives the same layers
with few large tiles.  Operands are named ``X``/``Y`` on purpose: the
2D baselines and the matmul keep their working tiles under the store
keys ``A``/``B``/``C`` and silently overwrite a caller's matrix of the
same name (finding (d) in perf/README.md).
"""

from __future__ import annotations

import statistics
from typing import Any, NamedTuple

import numpy as np
import scipy.linalg

from repro import api
from repro.engine.backends import DenseBackend, DistributedBackend
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    Matmul25DSchedule,
)
from repro.factorizations.baselines.scalapack_chol import (
    ScalapackCholeskySchedule,
)
from repro.kernels import blas, flops
from repro.layouts import (
    BlockCyclicLayout,
    ScaLAPACKDescriptor,
    block_key,
    redistribute,
)
from repro.lowerbounds import (
    cholesky_io_lower_bound,
    lu_io_lower_bound,
    matmul_io_lower_bound,
)
from repro.machine import Machine, ProcessorGrid2D
from repro.planner.workload import native_layout

from . import inputs
from .base import Workload, per_call_us

RESIDUAL_TOL = 1e-10

#: ``calls`` is the op's pd* sequence ``(kind, kwargs)``; ``words`` the
#: counted factorization words of one op, pinned at the parent commit;
#: ``copies`` the n^2/P layout copies added to ``required_words()`` for
#: the enforced budget (None = unbounded machine).
SPECS = {
    "exec_lu25d": {
        "full": dict(n=512, mb=32, matrix="dd", copies=None, pool=3,
                     calls=[("lu", dict(impl="conflux", v=16, c=2))],
                     words=1356704.0),
        "quick": dict(n=128, mb=8, matrix="dd", copies=None, pool=2,
                      calls=[("lu", dict(impl="conflux", v=8, c=2))],
                      words=None),
    },
    "exec_chol25d": {
        "full": dict(n=512, mb=32, matrix="spd", copies=5, pool=3,
                     calls=[("cholesky", dict(impl="confchox", v=16, c=2))],
                     words=1087904.0),
        "quick": dict(n=128, mb=8, matrix="spd", copies=5, pool=2,
                      calls=[("cholesky", dict(impl="confchox", v=8, c=2))],
                      words=None),
    },
    "exec_bulk": {
        "full": dict(n=1024, mb=64, matrix="spd", copies=None, pool=2,
                     calls=[("cholesky", dict(impl="scalapack", nb=64)),
                            ("gemm", dict(c=1)),
                            ("gemm", dict(s=64, c=2))],
                     words=15060992.0),
        "quick": dict(n=128, mb=16, matrix="spd", copies=None, pool=2,
                      calls=[("cholesky", dict(impl="scalapack", nb=16)),
                             ("gemm", dict(c=1)),
                             ("gemm", dict(s=16, c=2))],
                      words=None),
    },
}

NRANKS = 16
GRID = (4, 4)

#: The paper's per-rank I/O lower bound of each problem kind, as
#: ``bound(n, p, mem_words)``.
IO_BOUNDS = {"lu": lu_io_lower_bound, "cholesky": cholesky_io_lower_bound,
             "gemm": matmul_io_lower_bound}


class Call(NamedTuple):
    """One pd* call of an operation."""

    kind: str               # lu | cholesky | gemm
    kwargs: dict
    schedule: Any           # the schedule the call builds, for M and replay
    native: BlockCyclicLayout
    out_name: str


def _schedule(kind: str, n: int, kw: dict):
    if kind == "lu":
        return ConfluxSchedule(n, NRANKS, v=kw["v"], c=kw["c"])
    if kind == "gemm":
        return Matmul25DSchedule(n, NRANKS, s=kw.get("s"), c=kw["c"])
    if kw["impl"] == "confchox":
        return ConfchoxSchedule(n, NRANKS, v=kw["v"], c=kw["c"])
    return ScalapackCholeskySchedule(n, NRANKS, nb=kw["nb"])


def _packed(kind: str, res) -> np.ndarray:
    if kind == "lu":
        return np.tril(res.lower, -1) + res.upper
    return res.lower


def _rel_err(ref: np.ndarray, got: np.ndarray) -> float:
    return float(np.abs(ref - got).max() / np.abs(ref).max())


class ExecWorkload(Workload):
    op_span = "api.pd_call"
    root_span = "replay"

    def setup(self) -> None:
        spec = SPECS[self.name][self.scale]
        self.spec = spec
        n = self.n = spec["n"]
        self.desc = ScaLAPACKDescriptor(m=n, n=n, mb=spec["mb"],
                                        nb=spec["mb"], prows=GRID[0],
                                        pcols=GRID[1])
        self.layout = BlockCyclicLayout(n, n, spec["mb"], spec["mb"],
                                        ProcessorGrid2D(*GRID))
        self.xs = inputs.matrices(self.seed, n, spec["matrix"], spec["pool"])
        self.has_gemm = any(kind == "gemm" for kind, _ in spec["calls"])
        self.ys = (inputs.matrices(self.seed + 1, n, "gen", spec["pool"])
                   if self.has_gemm else [None] * spec["pool"])
        self.calls = []
        for k, (kind, kw) in enumerate(spec["calls"]):
            sched = _schedule(kind, n, kw)
            self.calls.append(Call(kind, kw, sched,
                                   native_layout(kind, sched), f"R{k}"))
        self.budget = None
        if spec["copies"] is not None:
            self.budget = (max(c.schedule.required_words()
                               for c in self.calls)
                           + spec["copies"] * n * n / NRANKS)
        self._products: dict[int, np.ndarray] = {}
        self.counts: dict[str, float] = {}
        self.fact: list[tuple[float, float]] = []
        self.first = self._fresh(0)     # its scatter is part of set-up

    # ------------------------------------------------------------------
    def _machine(self) -> Machine:
        if self.budget is None:
            return Machine(NRANKS)
        return Machine(NRANKS, mem_words=self.budget, enforce_memory=True)

    def _scatter(self, machine: Machine, slot: int) -> None:
        self.layout.scatter_from(machine, "X", self.xs[slot])
        if self.has_gemm:
            self.layout.scatter_from(machine, "Y", self.ys[slot])

    def _fresh(self, slot: int) -> dict:
        machine = self._machine()
        self._scatter(machine, slot)
        return {"machine": machine, "slot": slot}

    def prepare(self, i: int):
        if self.first is not None:
            ctx, self.first = self.first, None
            return ctx
        return self._fresh(i % len(self.xs))

    def run(self, ctx):
        machine, desc = ctx["machine"], self.desc
        out = []
        for call in self.calls:
            if call.kind == "gemm":
                out.append(api.pdgemm(machine, "X", desc, "Y", desc,
                                      out_name=call.out_name, **call.kwargs))
            else:
                pd = api.pdgetrf if call.kind == "lu" else api.pdpotrf
                out.append(pd(machine, "X", desc, out_name=call.out_name,
                              **call.kwargs))
        return out

    # ------------------------------------------------------------------
    def check(self, ctx, results) -> list[str]:
        x, y = self.xs[ctx["slot"]], self.ys[ctx["slot"]]
        machine, n = ctx["machine"], self.n
        errs = []
        ratios = []
        msgs = np.zeros(NRANKS)
        recv = np.zeros(NRANKS)
        words = total_flops = reshuffle = 0.0
        for call, res in zip(self.calls, results):
            kind = call.kind
            if kind == "lu":
                err = _rel_err(x[res.perm], res.lower @ res.upper)
            elif kind == "cholesky":
                err = _rel_err(x, res.lower @ res.lower.T)
            else:
                if ctx["slot"] not in self._products:
                    self._products[ctx["slot"]] = x @ y
                err = _rel_err(self._products[ctx["slot"]], res.lower)
            if not err <= RESIDUAL_TOL:
                errs.append(f"{kind} residual {err:.3e} > {RESIDUAL_TOL}")
            bound = IO_BOUNDS[kind](n, NRANKS, call.schedule.mem_words)
            ratios.append(res.comm.max_recv_words / bound)
            msgs += res.comm.recv_msgs
            recv += res.comm.recv_words
            words += res.factorization_words
            total_flops += res.comm.total_flops
            reshuffle += res.reshuffle_words
        self.ratios = ratios
        pinned = self.spec["words"]
        if pinned is not None and words != pinned:
            errs.append(f"counted words {words!r} != pinned {pinned!r}")
        peak = float(machine.peak_words_per_rank().max())
        if self.budget is not None and peak > self.budget:
            errs.append(f"peak {peak} words > budget {self.budget}")
        self.counts = {
            "layouts.reshuffle_words": reshuffle,
            "machine.msgs_max_rank": float(msgs.max()),
            "machine.msgs_total": float(msgs.sum()),
            "machine.recv_words_max_rank": float(recv.max()),
            "machine.recv_words_total": words,
            "machine.flops_total": total_flops,
            "machine.peak_words_max_rank": peak,
            "machine.peak_over_budget": (peak / self.budget
                                         if self.budget is not None else 0.0),
        }
        return errs

    # ------------------------------------------------------------------
    def run_traced(self, ctx, tr):
        with tr.span("api.pd_call", "api"):
            results = self.run(ctx)
        # Drop the call's tiles (peaks and results stay): the replay
        # should allocate from the heap state the call found, not pay
        # first-touch page faults for a second resident machine.
        for store in ctx["machine"].stores:
            store.clear()
        slot = ctx["slot"]
        machine = self._machine()
        with tr.span("layouts.scatter", "layouts"):
            self._scatter(machine, slot)
        with tr.span("replay", "api"):
            dist_s = self._replay(machine, tr)
        dense_s = self._references(self.xs[slot], self.ys[slot], tr)
        self.fact.append((dist_s, dense_s))
        return results

    def _replay(self, machine: Machine, tr) -> float:
        """The op's pd* calls again, made from here out of their layers'
        public functions in ``api._run_pd``'s order; what this leaves
        out (gate, PDResult) is ``api.self_s``.  Returns the backend
        wall of the first (factorization) call."""
        src = self.layout
        first_s = 0.0
        for k, (kind, _, sched, native, out_name) in enumerate(self.calls):
            natives = [nm + ":native"
                       for nm in (("X", "Y") if kind == "gemm" else ("X",))]
            with tr.span("layouts.redistribute_in", "layouts"):
                for name in natives:
                    redistribute(machine, name.split(":")[0], src, native,
                                 dst_name=name)

            def timed_step(mach, state, t, _step=sched.dist_step):
                with tr.span("engine.step", "engine.backends"):
                    _step(mach, state, t)

            sched.dist_step = timed_step    # instance attribute, outside
            try:
                with tr.span("engine.dist_run", "engine.backends") as sp:
                    res = DistributedBackend(machine).run(
                        sched, in_name=(tuple(natives) if kind == "gemm"
                                        else natives[0]))
            finally:
                del sched.dist_step
            if k == 0:
                first_s = sp.dur
            with tr.span("layouts.redistribute_out", "layouts"):
                native.scatter_from(machine, out_name + ":native",
                                    _packed(kind, res))
                redistribute(machine, out_name + ":native", native, src,
                             dst_name=out_name)
            for name in natives + [out_name + ":native"]:
                for bi in range(native.mblocks):
                    for bj in range(native.nblocks):
                        machine.store(native.owner_rank(bi, bj)).discard(
                            block_key(name, bi, bj))
        return first_s

    def _references(self, x, y, tr) -> float:
        """The same schedules without the machine (DenseBackend) and the
        plain single-threaded SciPy baseline.  Returns the dense wall
        of the first (factorization) call."""
        first_s = 0.0
        for k, call in enumerate(self.calls):
            with tr.span("engine.dense_run", "engine.backends") as sp:
                DenseBackend().run(
                    call.schedule, a=(x, y) if call.kind == "gemm" else x)
            if k == 0:
                first_s = sp.dur
        with tr.span("engine.scipy_ref", "reference"):
            for call in self.calls:
                if call.kind == "lu":
                    scipy.linalg.lu_factor(x)
                elif call.kind == "cholesky":
                    scipy.linalg.cho_factor(x, lower=True)
                else:
                    x @ y
        return first_s

    def layer_metrics(self, tr) -> dict[str, float]:
        pd = tr.median("api.pd_call")
        rin = tr.median("layouts.redistribute_in")
        rout = tr.median("layouts.redistribute_out")
        dist = tr.median("engine.dist_run")
        dense = tr.median("engine.dense_run")
        counts = dict(self.counts)
        msgs_total = counts.pop("machine.msgs_total")
        out = {
            "api.pd_call_s": pd,
            "api.self_s": pd - (rin + dist + rout),
            "layouts.scatter_s": tr.median("layouts.scatter"),
            "layouts.redistribute_in_s": rin,
            "layouts.redistribute_out_s": rout,
            "engine.dist_run_s": dist,
            "engine.supersteps": float(sum(c.schedule.steps()
                                           for c in self.calls)),
            "engine.step_s_p50": tr.median("engine.step", per_op=False),
            "engine.dense_run_s": dense,
            "engine.sim_overhead_x": statistics.median(
                d / e for d, e in self.fact),
            "engine.scipy_ref_s": tr.median("engine.scipy_ref"),
            "machine.us_per_msg": (dist - dense) / msgs_total * 1e6,
        }
        out.update(counts)
        out.update(machine_probes(self.probe_s))
        out.update(kernel_probes(self.probe_s))
        return out


# ----------------------------------------------------------------------
# Isolated probes of the layers under the backend.

def machine_probes(budget_s: float) -> dict[str, float]:
    group = [0, 1, 2, 3]
    tile = np.ones((16, 16))
    small = Machine(4)
    for r in group:
        small.store(r).put("t", tile.copy())
    store = small.store(0)

    def put_get():
        store.put("p", tile)
        store.get("p")

    bulk = Machine(4)
    bulk.store(0).put("t", np.ones((256, 256)))
    return {
        "machine.send_tile_us": per_call_us(
            lambda: small.send(0, 1, "t"), budget_s),
        "machine.bcast_tile_us": per_call_us(
            lambda: small.bcast(0, group, "t"), budget_s),
        # max, not sum: repeated in place, a sum would overflow.
        "machine.reduce_tile_us": per_call_us(
            lambda: small.reduce(0, group, "t", op="max"), budget_s),
        "machine.store_put_get_us": per_call_us(put_get, budget_s),
        "machine.bcast_bulk_us": per_call_us(
            lambda: bulk.bcast(0, group, "t"), budget_s, inner=20),
    }


def kernel_probes(budget_s: float) -> dict[str, float]:
    rng = np.random.default_rng(0)
    a, b, c = (rng.standard_normal((16, 16)) for _ in range(3))
    big_a, big_b = (rng.standard_normal((512, 512)) for _ in range(2))
    tile_us = per_call_us(lambda: blas.gemm(a, b, c), budget_s)
    raw_us = per_call_us(lambda: c + a @ b, budget_s)
    bulk_us = per_call_us(lambda: blas.gemm(big_a, big_b), budget_s, inner=2)
    return {
        "kernels.flops_call_us": per_call_us(
            lambda: flops.gemm_flops(16, 16, 16), budget_s),
        "kernels.gemm_tile_us": tile_us,
        "kernels.gemm_tile_overhead_x": tile_us / raw_us,
        "kernels.gemm_bulk_gflops": 2.0 * 512 ** 3 / (bulk_us * 1e3),
    }


def flops_array_us(budget_s: float) -> float:
    vec = np.arange(1.0, 4097.0)
    return per_call_us(lambda: flops.gemm_flops(vec, vec, vec), budget_s,
                       inner=50)


IMPLEMENTATIONS = {name: ExecWorkload for name in SPECS}
