"""Generators for every figure and table of the paper's evaluation.

Each function returns plain data structures (lists/dicts) holding the
rows/series the paper plots; nothing here depends on plotting libraries.
:data:`repro.analysis.reporting.FIGURES` registers each generator with
its sweep, its table layout and the paper's claim about it.
"""

from __future__ import annotations

import dataclasses
import math

from ..factorizations import build, default_block_size
from ..lowerbounds import derive_cholesky_bound, derive_lu_bound
from ..models import costmodels as cm
from ..planner.candidates import panel_width_2d
from .harness import (
    CHOLESKY_IMPLEMENTATIONS,
    LU_IMPLEMENTATIONS,
    estimate_time,
    feasible,
    max_replication,
    trace,
    trace_cholesky,
    trace_lu,
)

__all__ = [
    "VolumePoint", "fig8a_comm_volume", "fig8b_weak_scaling",
    "fig8c_comm_reduction", "fig9_lu_scaling", "fig10_cholesky_scaling",
    "fig1_lu_heatmap", "fig11_cholesky_heatmap",
    "table1_routine_costs", "table2_model_validation",
    "lower_bound_ratios", "weak_scaling_n", "DEFAULT_P_SWEEP",
]

#: Rank counts of the paper's sweeps: 2 nodes (4 ranks) .. 512 nodes.
DEFAULT_P_SWEEP = (4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclasses.dataclass(frozen=True)
class VolumePoint:
    """One point of a communication-volume series."""

    name: str
    n: int
    nranks: int
    measured_words: float
    model_words: float


def _paper_model(name: str, n: int, p: int, mem_words: float) -> float:
    lu = cm.lu_models(n, p, mem_words)
    chol = cm.cholesky_models(n, p, mem_words)
    return {**lu, **chol}[name]


def _mem_for(n: int, p: int) -> float:
    return max_replication(p, n) * float(n) * n / p


# ---------------------------------------------------------------------------
# Figure 8
# ---------------------------------------------------------------------------

def _volume_series(points) -> dict[str, list[VolumePoint]]:
    """Trace every LU implementation at every ``(N, P)`` point and pair
    each measured volume with its leading-order model."""
    return {name: [VolumePoint(
        name=name, n=n, nranks=p,
        measured_words=trace_lu(name, n, p).mean_recv_words,
        model_words=_paper_model(name, n, p, _mem_for(n, p)))
        for n, p in points] for name in LU_IMPLEMENTATIONS}


def fig8a_comm_volume(
        n: int = 16384, p_sweep=DEFAULT_P_SWEEP) -> dict[str, list[VolumePoint]]:
    """Figure 8a: LU communication volume per node vs P at fixed N —
    measured (traced) and leading-order-model volumes for every
    implementation."""
    return _volume_series([(n, p) for p in p_sweep if feasible(n, p)])


def weak_scaling_n(p: int, base: int = 3200, granule: int = 512) -> int:
    """The paper's weak-scaling size ``N = 3200 * P^(1/3)`` (constant work
    per node), snapped to a multiple of ``granule`` so every block size
    divides it."""
    raw = base * p ** (1.0 / 3.0)
    return max(granule, int(round(raw / granule)) * granule)


def fig8b_weak_scaling(p_sweep=DEFAULT_P_SWEEP) -> dict[str, list[VolumePoint]]:
    """Figure 8b: weak scaling (N = 3200 * cbrt(P)) — 2.5D codes keep the
    per-node volume constant, 2D codes grow."""
    return _volume_series([(weak_scaling_n(p), p) for p in p_sweep])


def fig8c_comm_reduction(
        p_sweep=DEFAULT_P_SWEEP,
        n_sweep=(4096, 16384, 65536),
        predicted_cells=((16384, 4096), (32768, 32768), (131072, 262144)),
) -> list[dict]:
    """Figure 8c: COnfLUX's communication reduction vs the second-best
    implementation — measured (traced) for the machine-scale sweep plus
    model-predicted exascale cells where N grows with P (the paper's
    full-Summit point is P = 262,144).

    Predictions use the *full* validated models for COnfLUX and the 2D
    codes (so COnfLUX's own O(M) and O(N v) terms are not wished away)
    with (c, v) tuned by :func:`repro.planner.plan_request`; CANDMC keeps its
    author model, as in the paper.
    """
    rows: list[dict] = []
    for n in n_sweep:
        for p in p_sweep:
            if not feasible(n, p):
                continue
            others = {name: trace_lu(name, n, p).mean_recv_words
                      for name in LU_IMPLEMENTATIONS if name != "conflux"}
            ours = trace_lu("conflux", n, p).mean_recv_words
            best_name = min(others, key=others.get)
            rows.append({
                "n": n, "nranks": p, "kind": "measured",
                "second_best": best_name,
                "reduction": others[best_name] / ours,
            })
    from ..planner import PlanRequest, plan_request
    from .harness import NODE_MEM_WORDS

    for n, p in predicted_cells:
        if not feasible(n, p):
            continue
        mem = _mem_for(n, p)
        ours = plan_request(PlanRequest(
            "lu", n, p, NODE_MEM_WORDS,
            impls=("conflux",))).chosen.predicted_words
        models = {
            "mkl": cm.mkl_lu_full_model(n, p, panel_width_2d(n)),
            "slate": cm.slate_lu_full_model(n, p, panel_width_2d(n)),
            "candmc": cm.candmc_paper_model(n, p, mem),
        }
        best_name = min(models, key=models.get)
        rows.append({
            "n": n, "nranks": p, "kind": "predicted",
            "second_best": best_name,
            "reduction": models[best_name] / ours,
        })
    return rows


# ---------------------------------------------------------------------------
# Figures 9 and 10 (achieved % of peak)
# ---------------------------------------------------------------------------

def _scaling_series(impls: tuple, tracer, workloads: list[tuple[str, int, int]],
                    ) -> list[dict]:
    rows = []
    for label, n, p in workloads:
        if not feasible(n, p):
            continue
        for name in impls:
            timed = estimate_time(tracer(name, n, p))
            rows.append({
                "workload": label, "name": name, "n": n, "nranks": p,
                "time_s": timed.time_s,
                "peak_pct": 100.0 * timed.peak_fraction,
            })
    return rows


def _scaling_workloads(p_sweep) -> list[tuple[str, int, int]]:
    """The three scalings of Figures 9/10 per rank count: strong at
    N = 2^17 and N = 2^14, weak at N = 8192 * sqrt(P/4) (snapped to a
    multiple of 2048)."""
    return [workload for p in p_sweep for workload in (
        ("strong-131072", 131072, p), ("strong-16384", 16384, p),
        ("weak", max(2048, int(8192 * math.sqrt(p / 4)) // 2048 * 2048), p))]


def fig9_lu_scaling(p_sweep=DEFAULT_P_SWEEP) -> list[dict]:
    """Figure 9: LU %-of-peak for (a) strong N=2^17, (b) strong N=2^14,
    (c) weak N = 8192 * sqrt(P/4)."""
    return _scaling_series(LU_IMPLEMENTATIONS, trace_lu,
                           _scaling_workloads(p_sweep))


def fig10_cholesky_scaling(p_sweep=DEFAULT_P_SWEEP) -> list[dict]:
    """Figure 10: Cholesky %-of-peak, same three scalings."""
    return _scaling_series(CHOLESKY_IMPLEMENTATIONS, trace_cholesky,
                           _scaling_workloads(p_sweep))


# ---------------------------------------------------------------------------
# Figures 1 and 11 (heatmaps)
# ---------------------------------------------------------------------------

def _heatmap(impls: tuple, tracer, ours: str, n_sweep, p_sweep,
             min_peak: float = 0.03) -> list[dict]:
    cells = []
    for n in n_sweep:
        for p in p_sweep:
            if not feasible(n, p):
                cells.append({"n": n, "nranks": p, "status": "no-memory"})
                continue
            timings = {}
            peaks = {}
            for name in impls:
                timed = estimate_time(tracer(name, n, p))
                timings[name] = timed.time_s
                peaks[name] = timed.peak_fraction
            if max(peaks.values()) < min_peak:
                cells.append({"n": n, "nranks": p, "status": "below-3pct"})
                continue
            t_ours = timings.pop(ours)
            best = min(timings, key=timings.get)
            cells.append({
                "n": n, "nranks": p, "status": "ok",
                "speedup": timings[best] / t_ours,
                "second_best": best,
                "our_peak_pct": 100.0 * peaks[ours],
            })
    return cells


def fig1_lu_heatmap(
        n_sweep=(2048, 4096, 8192, 16384, 32768, 65536, 131072),
        p_sweep=DEFAULT_P_SWEEP) -> list[dict]:
    """Figure 1: COnfLUX speedup over the best competing library and
    achieved %-of-peak over the (nodes x matrix size) grid."""
    return _heatmap(LU_IMPLEMENTATIONS, trace_lu, "conflux", n_sweep, p_sweep)


def fig11_cholesky_heatmap(
        n_sweep=(2048, 4096, 8192, 16384, 32768, 65536, 131072),
        p_sweep=DEFAULT_P_SWEEP) -> list[dict]:
    """Figure 11: the same heatmaps for COnfCHOX."""
    return _heatmap(CHOLESKY_IMPLEMENTATIONS, trace_cholesky, "confchox",
                    n_sweep, p_sweep)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_routine_costs(n: int = 16384, p: int = 1024, t: int = 0,
                         v: int | None = None,
                         c: int | None = None) -> list[dict]:
    """Table 1: per-routine communication and computation costs of
    COnfLUX vs COnfCHOX at step ``t``, evaluated numerically."""
    if c is None:
        c = max_replication(p, n)
    if v is None:
        v = default_block_size(n, p, c)
    p1 = p // c
    nrem = n - t * v
    mem = c * float(n) * n / p
    sqrt_p1 = math.sqrt(p1)
    lg = math.ceil(math.log2(max(2, sqrt_p1)))
    rows = [
        {"routine": "pivoting", "lu_comm": v * v * lg,
         "lu_comp": v ** 3 / 3 * lg, "chol_comm": 0.0, "chol_comp": 0.0},
        {"routine": "A00", "lu_comm": 0.0, "lu_comp": 0.0,
         "chol_comm": float(v * v), "chol_comp": v ** 3 / 6},
        {"routine": "A10/A01",
         "lu_comm": 2 * nrem * v * mem / (n * n),
         "lu_comp": 2 * nrem * v * v / (2 * p),
         "chol_comm": 2 * nrem * v * mem / (n * n),
         "chol_comp": 2 * nrem * v * v / (2 * p)},
        {"routine": "A11",
         "lu_comm": 2 * nrem * v / p, "lu_comp": nrem * nrem * v / p,
         "chol_comm": 2 * nrem * v / p,
         "chol_comp": nrem * nrem * v / (2 * p)},
    ]
    return rows


def table2_cost_models(n: int = 16384, p: int = 1024) -> list[dict]:
    """Table 2 itself: each compared library's decomposition and
    leading-order cost, evaluated at the sweep's replication depth."""
    return [{"library": library, "decomposition": decomposition,
             "leading_cost": formula, "n": n, "nranks": p,
             "words": _paper_model(label, n, p, _mem_for(n, p))}
            for library, decomposition, formula, label in (
                ("MKL", "2D, panel", "N^2/sqrt(P)", "mkl"),
                ("SLATE", "2D, block", "N^2/sqrt(P)", "slate"),
                ("CANDMC", "nested 2.5D", "5N^3/(P sqrt(M))", "candmc"),
                ("CAPITAL", "2.5D", "45N^3/(8P sqrt(M))", "capital"),
                ("COnfLUX/CHOX", "1D/2.5D", "N^3/(P sqrt(M))", "conflux"))]


def table2_model_validation(
        cases=((8192, 256), (16384, 1024), (32768, 4096)),
) -> list[dict]:
    """Table 2's validation: measured (traced) volume vs the full cost
    models; the paper reports +/-3% for MKL, SLATE and COnfLUX/CHOX, and
    30-40% overapproximation for the CANDMC/CAPITAL author models."""
    rows = []
    for n, p in cases:
        c = max_replication(p, n)
        v = default_block_size(n, p, c)
        mem = c * float(n) * n / p
        checks = [
            ("lu", "conflux", {"v": v, "c": c},
             cm.conflux_full_model(n, p, c, v)),
            ("cholesky", "confchox", {"v": v, "c": c},
             cm.confchox_full_model(n, p, c, v)),
            ("lu", "mkl", {"nb": 128}, cm.mkl_lu_full_model(n, p, 128)),
            ("lu", "slate", {"nb": 128}, cm.slate_lu_full_model(n, p, 128)),
            ("cholesky", "mkl-chol", {"nb": 128},
             cm.mkl_cholesky_full_model(n, p, 128)),
            ("lu", "candmc", {"c": c}, cm.candmc_paper_model(n, p, mem)),
            ("cholesky", "capital", {"c": c},
             cm.capital_paper_model(n, p, mem)),
        ]
        traced = trace(*(build(op, name, n, p, **params)
                         for op, name, params, _ in checks))
        for (_, name, _, model), res in zip(checks, traced):
            measured = res.mean_recv_words
            rows.append({
                "name": name, "n": n, "nranks": p,
                "measured": measured, "model": model,
                "error_pct": 100.0 * (model - measured) / measured,
            })
    return rows


def lower_bound_ratios(cases=((8192, 256), (16384, 1024)),
                       ) -> list[dict]:
    """Section 6/7 headline: COnfLUX's volume vs the derived LU lower
    bound (factor ~1.5 plus lower-order terms) and COnfCHOX vs the
    derived Cholesky bound (factor ~3)."""
    rows = []
    for n, p in cases:
        c = max_replication(p, n)
        v = default_block_size(n, p, c)
        mem = c * float(n) * n / p
        traced = trace(build("lu", "conflux", n, p, v=v, c=c),
                       build("cholesky", "confchox", n, p, v=v, c=c))
        for kernel, derive, res in zip(("lu", "cholesky"), (
                derive_lu_bound, derive_cholesky_bound), traced):
            bound = derive(n, mem, p).parallel_bound
            rows.append({"kernel": kernel, "n": n, "nranks": p,
                         "measured_max": res.max_recv_words,
                         "lower_bound": bound,
                         "ratio": res.max_recv_words / bound})
    return rows
