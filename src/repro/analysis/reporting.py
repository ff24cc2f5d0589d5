"""The paper's outputs, each described once: :data:`FIGURES` maps every
artefact of the evaluation (Figures 1 and 8-11, Tables 1-2, the
Section-6 bounds and ratios, the pebblings of Sections 3-6 and 12, the
Section-7 ablations) to its generator, its sweep, its printed tables
and the paper's claim about it as code.  ``python -m repro figures``
and ``tests/test_paper_artefacts.py`` (claims, and every cell against
``tests/paper_tables_pinned.json``) are loops over it.

This module is the only importer of :mod:`repro.pebbles`;
``repro.analysis`` does not import it, so neither the harness nor a
sweep worker loads the pebble games.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable

import numpy as np

from .. import lowerbounds as lb
from .. import pebbles
from ..factorizations import build, conflux_lu, default_block_size, run_impl
from . import ablations, figures
from .harness import RANKS_PER_NODE, max_replication, trace

__all__ = ["Artefact", "FIGURES"]

#: Pin tolerances: traces and closed forms are exact; ``PerfModel`` sums
#: floats in step order, and ``derive_*`` sums certified solves.
EXACT, PERF_MODEL = 0.0, 1e-12
#: Residuals of rounding size follow the BLAS kernels' summation order,
#: which differs between CPUs and thread counts.  Perturbing
#: ``pivoting_stability``'s inputs by one rounding (1e-16 relative, 20
#: draws) moved its ill-scaled residual ratio from 1.30 to as far as
#: 1.65; its growth factors did not move in 8 digits.
ROUNDING = 0.3


@dataclasses.dataclass(frozen=True)
class Artefact:
    """One output of the paper: ``generator(**kwargs)`` is its sweep;
    ``tables(result)``, the only flattener, gives ``(title, headers,
    rows, floatfmt)`` per printed table; ``clauses(result)`` is the
    paper's statement about it as ``(clause, holds)`` pairs; pinned
    numeric cells hold to ``rtol``; ``prints`` names the public
    generators a registry-level ``generator`` wraps."""

    group: str
    generator: Callable[..., Any]
    kwargs: dict[str, Any]
    tables: Callable[[Any], list[tuple[str, list[str], list[list], str]]]
    clauses: Callable[[Any], list[tuple[str, bool]]]
    rtol: float = EXACT
    prints: tuple[Callable[..., Any], ...] = ()


def _columns(title: str, headers: list[str], keys: str,
             floatfmt: str = "{:.4g}", part=lambda result: result):
    """Flattener for dict rows (``part(result)``): one table, the cell
    under ``headers[i]`` being ``row[keys.split()[i]]`` (``-`` for
    ``None``); title and headers format from the first row."""
    columns = keys.split()

    def tables(result):
        rows = part(result)
        return [(title.format(**rows[0]), [h.format(**rows[0]) for h in headers],
                 [["-" if r[key] is None else r[key] for key in columns]
                  for r in rows], floatfmt)]
    return tables


def _metrics(title: str, labels: list[str], keys: str):
    """Flattener for one dict: a ``label, out[key]`` row per metric."""
    return lambda out: [(title.format(**out), ["metric", "value"], [
        [label, out[key]] for label, key in zip(labels, keys.split())], "{:.4g}")]


def _points(series) -> list[dict]:
    """A ``{name: [VolumePoint]}`` series as dict rows, in GB per node."""
    return [{"name": name, "n": pt.n, "nranks": pt.nranks,
             "measured_gb": pt.measured_words * 8 * RANKS_PER_NODE / 1e9,
             "model_gb": pt.model_words * 8 * RANKS_PER_NODE / 1e9}
            for name, pts in series.items() for pt in pts]


def _heatmap(figure: str, ours: str, substantial: bool):
    """Flattener and claim of a speedup heatmap (Figures 1 and 11)."""
    def tables(cells):
        return [(f"{figure}: {ours} speedup vs fastest state-of-the-art",
                 ["N", "ranks", "speedup", "second-best", f"{ours} % peak"],
                 [[c["n"], c["nranks"], f"{c['speedup']:.2f}x",
                   c["second_best"], f"{c['our_peak_pct']:.1f}%"]
                  if c["status"] == "ok"
                  else [c["n"], c["nranks"], c["status"], "-", "-"]
                  for c in cells], "{:.4g}")]

    def clauses(cells):
        ok = [c["speedup"] for c in cells if c["status"] == "ok"]
        found = [(f"{ours} matches or beats the fastest library (ties within "
                  "1%) in >= 85% of the feasible cells",
                  sum(s >= 0.99 for s in ok) >= 0.85 * len(ok))]
        if substantial:
            found.append(("somewhere by > 1.3x (paper: up to 3x)",
                          max(ok) > 1.3))
        return found
    return tables, clauses


def _fig8a_clauses(series):
    words = {name: [pt.measured_words for pt in pts]
             for name, pts in series.items()}
    ranks = [pt.nranks for pt in series["conflux"]]
    behind = [ours / min(w[i] for name, w in words.items() if name != "conflux")
              for i, ours in enumerate(words["conflux"])]
    gaps = [mkl / ours for p, mkl, ours in
            zip(ranks, words["mkl"], words["conflux"]) if p >= 64]
    return [
        ("COnfLUX is strictly lowest from P = 64",
         all(x < 1.0 for p, x in zip(ranks, behind) if p >= 64)),
        ("its reduction over MKL widens with P",
         gaps[-1] > 0.99 * gaps[0]),
        ("below P = 64 it trails the 2D codes (its panels travel twice; at "
         "c <= 2 those O(N^2/P) terms lead) by <= 1.8x under P = 16, "
         "<= 1.15x from there",
         all(1.0 < x < (1.8 if p < 16 else 1.15)
             for p, x in zip(ranks, behind) if p < 64)),
        ("SLATE never exceeds MKL",
         all(s <= m for s, m in zip(words["slate"], words["mkl"])))]


def _fig8b_clauses(series):
    words = {name: [pt.measured_words for pt in series[name]]
             for name in ("conflux", "candmc", "mkl")}
    return [
        ("under constant work per node the 2.5D codes (COnfLUX, CANDMC) "
         "keep their per-node volume within a 1.7x band",
         all(max(words[name]) < 1.7 * min(words[name])
             for name in ("conflux", "candmc"))),
        ("MKL's grows by > 1.5x over the sweep (~P^(1/6))",
         words["mkl"][-1] > 1.5 * words["mkl"][0])]


def _fig8c_clauses(rows):
    at_1024 = [r["reduction"] for r in rows
               if r["kind"] == "measured" and r["nranks"] == 1024]
    summit, = [r["reduction"] for r in rows if r["nranks"] == _SUMMIT[1]]
    return [
        ("the reduction over the second-best code is above 1 from P = 64 "
         "(near-ties, > 0.9, below)",
         all(r["reduction"] > (1.0 if r["nranks"] >= 64 else 0.9)
             for r in rows)),
        ("it exceeds 1.3x measured at P = 1024 (paper: up to 1.42x)",
         max(at_1024) > 1.3),
        ("it is predicted in (1.5, 2.5) for a full-Summit run, "
         "P = 262,144 (paper: ~2.1x)",
         1.5 < summit < 2.5)]


def _scaling_clauses(rows):
    ours = rows[0]["name"]      # the paper's algorithm is listed first
    peak = {(r["workload"], r["name"], r["nranks"]): r["peak_pct"]
            for r in rows}
    return [
        (f"{ours} leads every baseline on the N = 2^17 strong-scaling runs "
         "from P = 64",
         all(peak[workload, ours, p] >= pct
             for (workload, _, p), pct in peak.items()
             if workload == "strong-131072" and p >= 64)),
        ("large local domains reach > 25% of peak (N = 2^17, P = 64; paper: "
         "~40%)", peak["strong-131072", ours, 64] > 25),
        ("the latency-bound corner collapses (N = 2^14: P = 1024 below "
         "P = 16)", peak["strong-16384", ours, 1024]
         < peak["strong-16384", ours, 16])]


def table1_with_traces(n: int, p: int, t: int) -> dict[str, list[dict]]:
    """Table 1's closed forms next to whole-run traces of both
    algorithms at the same ``(c, v)``."""
    c = max_replication(p, n)
    v = default_block_size(n, p, c)
    lu, ch = trace(build("lu", "conflux", n, p, v=v, c=c),
                   build("cholesky", "confchox", n, p, v=v, c=c))
    return {"costs": [{"n": n, "nranks": p, "t": t, **row} for row in
                      figures.table1_routine_costs(n, p, t, v, c)],
            "traced": [{"metric": metric, "lu": a, "chol": b, "ratio": a / b}
                       for metric, a, b in (
                ("mean recv words", lu.mean_recv_words, ch.mean_recv_words),
                ("total flops", lu.total_flops, ch.total_flops))]}


def _table1_clauses(res):
    by = {r["routine"]: r for r in res["costs"]}
    words, flops = (r["ratio"] for r in res["traced"])
    return [
        ("COnfLUX and COnfCHOX communicate the same for the panels",
         by["A10/A01"]["lu_comm"] == by["A10/A01"]["chol_comm"]),
        ("Cholesky computes half as much in A11 (gemmt vs gemm)",
         math.isclose(by["A11"]["chol_comp"], by["A11"]["lu_comp"] / 2,
                      rel_tol=1e-6)),
        ("and skips the pivoting", by["pivoting"]["chol_comm"] == 0.0),
        ("the whole traced run has ~2x the flops (5%)",
         math.isclose(flops, 2.0, rel_tol=0.05)),
        ("at about equal volume (30%)", math.isclose(words, 1.0, rel_tol=0.3))]


def table2_with_models(cases) -> dict[str, list[dict]]:
    return {"models": figures.table2_cost_models(),
            "validation": figures.table2_model_validation(cases)}


def _table2_clauses(res):
    errors = {True: [], False: []}
    for r in res["validation"]:
        errors[r["name"] in ("candmc", "capital")].append(abs(r["error_pct"]))
    return [("the full models match the traced volumes within 3% for MKL, "
             "SLATE, COnfLUX and COnfCHOX", max(errors[False]) <= 3.0),
            ("the CANDMC/CAPITAL author models within 40% (paper: 30-40% "
             "overapproximation)", max(errors[True]) <= 40.0)]


#: kernel -> (pipeline entry point, the closed form Section 6 prints, as
#: printed): a reference column, backed where it is <= the derivation.
_DERIVE = {
    "LU": (lb.derive_lu_bound, lb.lu_io_lower_bound,
           "2N^3/(3P sqrt(M)) + N^2/(2P)"),
    "Cholesky": (lb.derive_cholesky_bound, lb.cholesky_io_lower_bound,
                 "N^3/(3P sqrt(M)) + N^2/(2P) + N/P"),
    "Matmul": (lb.derive_matmul_bound, lb.matmul_io_lower_bound,
               "2N^3/(P sqrt(M))"),
    "TRSM": (lb.derive_trsm_bound, None, "-"),
    "SYRK": (lb.derive_syrk_bound, None, "-"),
    "LDL^T": (lb.derive_ldlt_bound, None, "-"),
    "GEMV": (lb.derive_gemv_bound, None, "-"),
}


def derived_bounds(kernels, n: int, mem_words: float, p: int = 1) -> list[dict]:
    """The Section 3-5 pipeline per kernel: its bound per rank, its
    largest statement intensity and where that is attained, next to
    the paper's closed form where it states one and whether the
    derivation backs it."""
    rows = []
    for kernel in kernels:
        derive, closed, formula = _DERIVE[kernel]
        bound = derive(n, mem_words, p)
        top = max((a.intensity for a in bound.per_statement.values()),
                  key=lambda intensity: intensity.rho)
        printed = closed(n, p, mem_words) if closed else math.nan
        rows.append({
            "kernel": kernel, "n": n, "nranks": p, "mem_words": mem_words,
            "log2_mem": math.log2(mem_words), "formula": formula,
            "bound": bound.parallel_bound,
            "bound_per_n2": bound.parallel_bound / (n * n),
            "closed_form": printed,
            "backed": "-" if closed is None else "yes"
            if printed <= bound.parallel_bound * (1 + 1e-12) else "no",
            "rho": top.rho, "x0": top.x0})
    return rows


def _pipeline_clauses(rows):
    by = {r["kernel"]: r for r in rows}
    lu, ch, m = by["LU"], by["Cholesky"], by["LU"]["mem_words"]
    n, p, sm = ch["n"], ch["nranks"], math.sqrt(m)
    return [
        ("over the exact vertex counts of the loop nests the derived LU bound "
         "exceeds the closed form by N(N-1)/(P sqrt(M)), and the Cholesky "
         "closed form exceeds the derived bound by N/(3P sqrt(M)) + N/(2P), "
         "to 1e-12",
         math.isclose(lu["bound"] - lu["closed_form"], n * (n - 1) / (p * sm),
                      abs_tol=1e-12 * lu["bound"])
         and math.isclose(ch["closed_form"] - ch["bound"],
                          n / (3 * p * sm) + n / (2 * p),
                          abs_tol=1e-12 * ch["bound"])),
        ("so the printed LU and matmul formulas are backed by the derivation "
         "and the printed Cholesky one is not",
         [by[k]["backed"] for k in ("LU", "Matmul", "Cholesky")]
         == ["yes", "yes", "no"]),
        ("LU's dominant statement S2 has intensity rho = sqrt(M)/2 (1e-9)",
         math.isclose(lu["rho"], math.sqrt(m) / 2, rel_tol=1e-9)),
        ("attained at X0 = 3M (1e-12)",
         math.isclose(lu["x0"], 3 * m, rel_tol=1e-12))]


def _catalog_clauses(rows):
    by = {r["kernel"]: r for r in rows}
    q = [by[k]["bound"] for k in ("Matmul", "TRSM", "LU", "Cholesky")]
    return [
        ("the method carries over: every matrix-matrix kernel (LU, Cholesky, "
         "Matmul, TRSM, SYRK, LDL^T) has maximal intensity sqrt(M)/2 (1e-9)",
         all(math.isclose(r["rho"], math.sqrt(r["mem_words"]) / 2, rel_tol=1e-9)
             for r in rows if r["kernel"] != "GEMV")),
        ("the bounds order as their constants: Matmul 2 > TRSM 1 > LU 2/3 > "
         "Cholesky 1/3", all(a > b for a, b in zip(q, q[1:]))),
        ("GEMV is memory-insensitive at ~N^2 (10%)",
         math.isclose(by["GEMV"]["bound_per_n2"], 1.0, rel_tol=0.1))]


def _ratio_clauses(rows):
    ratios = {kernel: [r["ratio"] for r in rows if r["kernel"] == kernel]
              for kernel in ("lu", "cholesky")}
    return [
        ("leading term N^3/(P sqrt(M)) against the bound 2N^3/(3P sqrt(M)): "
         "1.5x for LU, in (1.4, 3.2) with Lemma 10's +O(M) layered "
         "reductions at maximal replication",
         all(1.4 < x < 3.2 for x in ratios["lu"])),
        ("against N^3/(3P sqrt(M)): 3x for Cholesky, measured in (2.5, 4.5)",
         all(2.5 < x < 4.5 for x in ratios["cholesky"]))]


#: kernel -> its DAAP program, pebbled as the cDAG its ``_DERIVE`` bound
#: is derived from.
_PROGRAMS = {"LU": lb.lu_program, "Cholesky": lb.cholesky_program,
             "Matmul": lb.matmul_program, "TRSM": lb.trsm_program,
             "SYRK": lb.syrk_program, "LDL^T": lb.ldlt_program}


def pebbling_vs_bounds(cells) -> list[dict]:
    """Sections 3-6 on toy sizes: per ``(kernel, n, M)`` cell, the I/O of
    a Belady-greedy red-blue pebbling of the kernel's cDAG (an upper
    bound on the optimal pebbling) against the sequential bound derived
    from the same program."""
    rows = []
    for kernel, n, m in cells:
        cdag = pebbles.program_cdag(_PROGRAMS[kernel](), n)
        greedy = pebbles.run_greedy(cdag, m).io_cost
        bound = _DERIVE[kernel][0](n, m).sequential_bound
        rows.append({"kernel": kernel, "n": n, "mem_words": m,
                     "greedy": greedy, "bound": bound, "ratio": greedy / bound})
    return rows


def _pebbling_clauses(rows):
    matmul, = [r for r in rows if (r["kernel"], r["n"], r["mem_words"])
               == ("Matmul", 8, 27)]
    return [
        ("no greedy pebbling of the six kernels' cDAGs beats the sequential "
         "bound derived from the same program",
         all(r["greedy"] >= r["bound"] for r in rows)),
        ("and the bound is not vacuous: greedy matmul stays within 20x of it "
         "at n = 8, M = 27", matmul["greedy"] <= 20 * matmul["bound"])]


def xpartition_schedule_quality(compared, blocked_only) -> list[dict]:
    """Section 12's "powerful hints for obtaining schedules": the
    X-partition-guided blocked matmul pebbling against the derived bound
    at every ``(n, M)``, and against a Belady-greedy pebbling at the
    ``compared`` ones."""
    rows = []
    for n, m in (*compared, *blocked_only):
        bound = lb.derive_matmul_bound(n, m).sequential_bound
        blocked = pebbles.run_blocked_matmul(n, m).io_cost
        greedy = pebbles.run_greedy(pebbles.program_cdag(
            lb.matmul_program(), n), m).io_cost if (n, m) in compared else None
        rows.append({"n": n, "mem_words": m, "bound": bound,
                     "blocked": blocked, "greedy": greedy,
                     "blocked_ratio": blocked / bound,
                     "greedy_ratio": None if greedy is None else greedy / bound})
    return rows


def _schedule_clauses(rows):
    both = [r for r in rows if r["greedy"] is not None]
    at_121 = [r["blocked_ratio"] for r in rows if r["mem_words"] == 121]
    return [
        ("the X-partition-guided blocked matmul never beats the derived "
         "bound",
         all(r["blocked"] >= r["bound"] for r in rows)),
        ("it beats Belady greedy wherever both run",
         all(r["blocked"] < r["greedy"] for r in both)),
        ("it stays within 2.5x of the bound",
         all(r["blocked_ratio"] < 2.5 for r in rows)),
        ("greedy's gap to the bound widens with n",
         both[-1]["greedy_ratio"] > both[0]["greedy_ratio"]),
        ("at M = 121 blocking approaches the bound's constant: blocked/bound "
         "falls from n = 20 to n = 40, to < 1.45 (limit sqrt(M)/b = 1.1)",
         at_121[1] < at_121[0] and at_121[1] < 1.45)]


def _matrix_families(n: int, rng: np.random.Generator):
    yield "gaussian", rng.standard_normal((n, n))
    yield "uniform", rng.uniform(-1, 1, (n, n))
    yield "ill-scaled", (rng.standard_normal((n, n))
                         * np.logspace(-8, 8, n)[None, :])
    # Wilkinson's growth matrix: partial pivoting's worst case, 2^(n-1).
    w = np.tril(-np.ones((n, n)), -1) + np.eye(n)
    w[:, -1] = 1.0
    yield "wilkinson", w
    yield "orthogonal", np.linalg.qr(rng.standard_normal((n, n)))[0]


def _residual(a: np.ndarray, res) -> float:
    return float(np.linalg.norm(a[res.perm] - res.lower @ res.upper)
                 / np.linalg.norm(a))


def _growth(a: np.ndarray, res) -> float:
    return float(np.abs(res.upper).max() / np.abs(a).max())


def pivoting_stability(n: int, p: int, v: int, c: int, seed: int) -> list[dict]:
    """Section 7.3: COnfLUX's tournament pivoting against ScaLAPACK's
    partial pivoting (panel width ``v``) on five matrix families, by
    backward error ``||A[perm] - LU|| / ||A||`` and growth
    ``max|U| / max|A|``."""
    rows = []
    for family, a in _matrix_families(n, np.random.default_rng(seed)):
        tp = conflux_lu(n, p, v=v, c=c, a=a)
        pp = run_impl("lu", "mkl", n, p, nb=v, a=a)
        rows.append({"family": family, "n": n, "nranks": p, "v": v,
                     "ratio": _residual(a, tp) / _residual(a, pp),
                     "tournament_growth": _growth(a, tp),
                     "partial_growth": _growth(a, pp)})
    return rows


def row_masking_with_latency(n: int, p: int) -> dict:
    """Section 7.3's two halves at the same defaulted ``(c, v)``."""
    swap = ablations.row_swap_ablation(n, p)
    return {**swap, **ablations.pivoting_latency_ablation(n, p, swap["v"])}


def _block_size_clauses(rows):
    msgs = [r["max_msgs"] for r in rows]
    return [("growing the tile size v trades latency for volume: the message "
             "count falls strictly with v",
             all(b < a for a, b in zip(msgs, msgs[1:]))),
            ("the O(N v) A00 broadcasts make the largest v communicate more "
             "than the smallest",
             rows[-1]["mean_recv_words"] > rows[0]["mean_recv_words"])]


_P5 = (4, 16, 64, 256, 1024)
_N3 = (4096, 16384, 65536)
_CASES = ((8192, 256), (16384, 1024), (32768, 4096))
_SUMMIT = (131072, 262144)
_SCALING = (["workload", "implementation", "N", "ranks", "% of peak"],
            "workload name n nranks peak_pct", "{:.1f}")
_PEBBLED = (*((kernel, n, m) for kernel in _PROGRAMS
              for n, m in ((4, 8), (6, 12), (8, 16))),
            ("Matmul", 6, 10), ("Matmul", 8, 27))
_LATENCY = (["partial-pivoting sync rounds", "tournament sync rounds",
             "latency reduction factor"],
            "partial_rounds tournament_rounds round_reduction")

FIGURES: dict[str, Artefact] = {
    "fig1_lu_heatmap": Artefact(
        "fig1-11", figures.fig1_lu_heatmap, dict(n_sweep=_N3, p_sweep=_P5),
        *_heatmap("Figure 1", "COnfLUX", substantial=True)),
    "fig8a_comm_volume": Artefact(
        "fig8", figures.fig8a_comm_volume, dict(n=16384, p_sweep=_P5),
        _columns("Figure 8a: LU communication volume per node, N={n}",
                 ["implementation", "ranks", "measured GB/node",
                  "model GB/node"], "name nranks measured_gb model_gb",
                 part=_points), _fig8a_clauses),
    "fig8b_weak_scaling": Artefact(
        "fig8", figures.fig8b_weak_scaling,
        dict(p_sweep=(8, 27, 64, 216, 512)),
        _columns("Figure 8b: weak scaling (N = 3200 * cbrt(P))",
                 ["implementation", "ranks", "N", "measured GB/node"],
                 "name nranks n measured_gb", part=_points),
        _fig8b_clauses),
    "fig8c_comm_reduction": Artefact(
        "fig8", figures.fig8c_comm_reduction,
        dict(p_sweep=_P5[1:], n_sweep=_N3[:2], predicted_cells=(
            (16384, 4096), (32768, 32768), _SUMMIT)),
        _columns("Figure 8c: COnfLUX communication reduction vs second-best",
                 ["N", "ranks", "kind", "second-best", "reduction"],
                 "n nranks kind second_best reduction", "{:.2f}"),
        _fig8c_clauses),
    "fig9_lu_scaling": Artefact(
        "fig9-10", figures.fig9_lu_scaling, dict(p_sweep=_P5),
        _columns("Figure 9: LU achieved % of peak", *_SCALING),
        _scaling_clauses, PERF_MODEL),
    "fig10_cholesky_scaling": Artefact(
        "fig9-10", figures.fig10_cholesky_scaling, dict(p_sweep=_P5),
        _columns("Figure 10: Cholesky achieved % of peak", *_SCALING),
        _scaling_clauses, PERF_MODEL),
    "fig11_cholesky_heatmap": Artefact(
        "fig1-11", figures.fig11_cholesky_heatmap,
        dict(n_sweep=_N3, p_sweep=_P5),
        *_heatmap("Figure 11", "COnfCHOX", substantial=False)),
    "table1_routine_costs": Artefact(
        "tables", table1_with_traces, dict(n=16384, p=1024, t=0),
        lambda res: _columns(
            "Table 1: per-routine costs at step t={t}, N={n}, P={nranks}",
            ["routine", "LU comm", "LU comp", "Chol comm", "Chol comp"],
            "routine lu_comm lu_comp chol_comm chol_comp")(res["costs"])
        + _columns("Whole-run trace cross-check",
                   ["metric", "COnfLUX", "COnfCHOX", "ratio"],
                   "metric lu chol ratio")(res["traced"]),
        _table1_clauses, prints=(figures.table1_routine_costs,)),
    "table2_model_validation": Artefact(
        "tables", table2_with_models, dict(cases=_CASES),
        lambda res: _columns(
            "Table 2: I/O cost models",
            ["library", "decomposition", "leading cost",
             "words @ N={n}, P={nranks}"],
            "library decomposition leading_cost words")(res["models"])
        + _columns("Table 2 validation: measured (traced) vs model volumes",
                   ["implementation", "N", "ranks", "measured", "model",
                    "error %"], "name n nranks measured model error_pct",
                   )(res["validation"]),
        _table2_clauses, prints=(figures.table2_model_validation,)),
    "lower_bounds_pipeline": Artefact(
        "bounds", derived_bounds, dict(kernels=("LU", "Cholesky", "Matmul"),
                                       n=16384, p=1024, mem_words=2.0 ** 21),
        _columns("Section 6 bounds at N={n}, P={nranks}, M=2^{log2_mem:g}",
                 ["kernel", "pipeline", "closed form", "paper formula",
                  "backed"], "kernel bound closed_form formula backed"),
        _pipeline_clauses, PERF_MODEL),
    "lower_bound_ratios": Artefact(
        "bounds", figures.lower_bound_ratios,
        dict(cases=(*_CASES[:2], (65536, 1024))),
        _columns("Near-optimality: schedule volume vs lower bound",
                 ["kernel", "N", "ranks", "measured max", "lower bound",
                  "ratio"], "kernel n nranks measured_max lower_bound ratio"),
        _ratio_clauses),
    "catalog_bounds": Artefact(
        "bounds", derived_bounds,
        dict(kernels=tuple(_DERIVE), n=8192, mem_words=2.0 ** 16),
        _columns("Section-3 pipeline over the kernel catalog "
                 "(N={n}, M=2^{log2_mem:g})",
                 ["kernel", "max rho", "Q bound", "Q / N^2"],
                 "kernel rho bound bound_per_n2"), _catalog_clauses, PERF_MODEL),
    "pebbling_vs_bounds": Artefact(
        "pebbles", pebbling_vs_bounds, dict(cells=_PEBBLED),
        _columns("Red-blue pebbling: Belady greedy vs the derived "
                 "sequential bound",
                 ["kernel", "n", "M", "greedy Q", "lower bound",
                  "greedy/bound"], "kernel n mem_words greedy bound ratio"),
        _pebbling_clauses, PERF_MODEL),
    "xpartition_schedule_quality": Artefact(
        "pebbles", xpartition_schedule_quality,
        dict(compared=((8, 27), (12, 48), (16, 80)),
             blocked_only=((20, 121), (40, 121))),
        _columns("Sequential matmul pebbling: X-partition-guided blocking "
                 "vs Belady greedy",
                 ["n", "M", "lower bound", "blocked Q", "greedy Q",
                  "blocked/bound", "greedy/bound"],
                 "n mem_words bound blocked greedy blocked_ratio "
                 "greedy_ratio"), _schedule_clauses, PERF_MODEL),
    "ablation_block_size": Artefact(
        "ablations", ablations.block_size_ablation,
        dict(n=16384, p=1024, c=8, v_sweep=(8, 16, 32, 64, 128)),
        _columns("Ablation: tile size v (N={n}, P={nranks}, c={c})",
                 ["v", "mean recv words", "max msgs", "est. time s", "% peak"],
                 "v mean_recv_words max_msgs time_s peak_pct"),
        _block_size_clauses, PERF_MODEL),
    "ablation_replication": Artefact(
        "ablations", ablations.replication_ablation,
        dict(n=16384, p=1024, c_sweep=(1, 2, 4, 8)),
        _columns("Ablation: replication depth c (N={n}, P={nranks})",
                 ["c", "M (words)", "leading model", "measured",
                  "O(M) overhead"], "c mem_words leading_model "
                 "mean_recv_words reduction_overhead"),
        lambda rows: [(
            "the leading term falls as 1/sqrt(c), the O(M) layered reductions "
            "grow with c: the volume-minimal depth is interior to the sweep",
            0 < min(range(len(rows)), key=lambda i: rows[i]["mean_recv_words"])
            < len(rows) - 1)]),
    "ablation_row_masking": Artefact(
        "ablations", row_masking_with_latency, dict(n=16384, p=1024),
        _metrics("Ablation: row masking + tournament pivoting (Section 7.3)",
                 ["masking words/rank (pivot indices)",
                  "hypothetical swapping words/rank",
                  "swap overhead vs COnfLUX total", *_LATENCY[0]],
                 "masking_words swapping_words swap_overhead_fraction "
                 + _LATENCY[1]),
        lambda out: [(
            "swapping pivot rows through a replicated layout would move > 50x "
            "the words of masking's O(N) pivot-index broadcast (Section 7.3)",
            out["swapping_words"] > 50 * out["masking_words"])],
        prints=(ablations.row_swap_ablation,)),
    "pivoting_latency": Artefact(
        "ablations", ablations.pivoting_latency_ablation,
        dict(n=16384, p=1024, v=32),
        _metrics("Ablation: tournament vs partial pivoting latency "
                 "(N={n}, P={nranks}, v={v})",
                 [*_LATENCY[0], "partial-pivoting latency s",
                  "tournament latency s"],
                 _LATENCY[1] + " partial_latency_s tournament_latency_s"),
        lambda lat: [(
            "tournament pivoting synchronises once per tile, not once per "
            "column: exactly v times fewer rounds (O(N) -> O(N/v))",
            lat["round_reduction"] == lat["v"])]),
    "pivoting_stability": Artefact(
        "ablations", pivoting_stability,
        dict(n=128, p=8, v=16, c=2, seed=11),
        _columns("Tournament vs partial pivoting: backward error and growth "
                 "(N={n}, P={nranks}, v={v})",
                 ["family", "tournament/partial residual",
                  "tournament growth", "partial growth"],
                 "family ratio tournament_growth partial_growth", "{:.3g}"),
        lambda rows: [(
            "tournament pivoting is as stable as partial pivoting (Section "
            "7.3): its residual is within 2x of partial pivoting's on every "
            "family, Wilkinson's growth matrix included",
            all(r["ratio"] <= 2.0 for r in rows))], ROUNDING),
}
