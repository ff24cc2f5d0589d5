"""One-shot reproduction report.

:func:`full_report` runs a compact version of every experiment in the
paper's evaluation — the bounds, the model validation, the volume
sweeps, the scaling studies, and the ablations — and renders one plain-
text report.  ``examples/full_reproduction_report.py`` is its CLI; the
integration tests assert its claims hold.
"""

from __future__ import annotations

import io
import math

from ..lowerbounds import (
    cholesky_io_lower_bound,
    derive_cholesky_bound,
    derive_lu_bound,
    lu_io_lower_bound,
)
from .ablations import (
    pivoting_latency_ablation,
    replication_ablation,
    row_swap_ablation,
)
from .figures import (
    fig8a_comm_volume,
    fig8c_comm_reduction,
    lower_bound_ratios,
    table2_model_validation,
)
from .harness import (
    CHOLESKY_IMPLEMENTATIONS,
    LU_IMPLEMENTATIONS,
    estimate_time,
    format_table,
    trace_cholesky,
    trace_lu,
)

__all__ = ["full_report"]


def _section(out: io.StringIO, title: str) -> None:
    out.write("\n" + "=" * 72 + "\n")
    out.write(title + "\n")
    out.write("=" * 72 + "\n")


def full_report(n_ref: int = 16384, p_ref: int = 1024,
                quick: bool = True) -> str:
    """Render the full reproduction report as one string.

    ``quick=True`` keeps every sweep small enough for interactive use
    (about half a minute); ``quick=False`` widens the sweeps to the
    benchmark sizes.
    """
    out = io.StringIO()
    out.write("Reproduction report — 'On the Parallel I/O Optimality of "
              "Linear Algebra Kernels'\n")

    # ------------------------------------------------------------------
    _section(out, "1. Lower bounds (Section 6)")
    m_ref = 2.0 ** 21
    lu = derive_lu_bound(n_ref, m_ref, p_ref)
    ch = derive_cholesky_bound(n_ref, m_ref, p_ref)
    rows = [
        ["LU", lu.parallel_bound, lu_io_lower_bound(n_ref, p_ref, m_ref),
         lu.intensity("S2").rho, math.sqrt(m_ref) / 2],
        ["Cholesky", ch.parallel_bound,
         cholesky_io_lower_bound(n_ref, p_ref, m_ref),
         ch.intensity("S3").rho, math.sqrt(m_ref) / 2],
    ]
    out.write(format_table(
        ["kernel", "pipeline bound", "closed form", "rho (derived)",
         "sqrt(M)/2"], rows))
    out.write("\n")

    # ------------------------------------------------------------------
    _section(out, "2. Communication volumes (Figure 8a)")
    p_sweep = (64, 256, 1024) if quick else (4, 16, 64, 256, 1024)
    series = fig8a_comm_volume(n=n_ref, p_sweep=p_sweep)
    rows = []
    for name, pts in series.items():
        for pt in pts:
            rows.append([name, pt.nranks,
                         pt.measured_bytes_per_node / 1e9,
                         pt.model_bytes_per_node / 1e9])
    out.write(format_table(
        ["implementation", "ranks", "measured GB/node", "model GB/node"],
        rows))
    out.write("\n")

    # ------------------------------------------------------------------
    _section(out, "3. Model validation (Table 2)")
    cases = ((n_ref, p_ref),) if quick else (
        (8192, 256), (16384, 1024), (32768, 4096))
    rows = [[r["name"], r["n"], r["nranks"], r["measured"], r["model"],
             r["error_pct"]] for r in table2_model_validation(cases)]
    out.write(format_table(
        ["implementation", "N", "P", "measured", "model", "error %"],
        rows))
    out.write("\n")

    # ------------------------------------------------------------------
    _section(out, "4. Communication reduction (Figure 8c)")
    red = fig8c_comm_reduction(
        p_sweep=(256, 1024) if quick else (16, 64, 256, 1024),
        n_sweep=(n_ref,),
        predicted_cells=((131072, 262144),))
    rows = [[r["n"], r["nranks"], r["kind"], r["second_best"],
             r["reduction"]] for r in red]
    out.write(format_table(
        ["N", "ranks", "kind", "second-best", "reduction"], rows,
        floatfmt="{:.2f}"))
    out.write("\n")

    # ------------------------------------------------------------------
    _section(out, "5. Time-to-solution ranking (Figures 1/9)")
    rows = []
    for name in LU_IMPLEMENTATIONS:
        t = estimate_time(trace_lu(name, n_ref, p_ref))
        rows.append([name, t.time_s, 100 * t.peak_fraction])
    for name in CHOLESKY_IMPLEMENTATIONS:
        t = estimate_time(trace_cholesky(name, n_ref, p_ref))
        rows.append([name, t.time_s, 100 * t.peak_fraction])
    out.write(format_table(
        ["implementation", "est. time (s)", "% of peak"], rows,
        floatfmt="{:.3g}"))
    out.write("\n")

    # ------------------------------------------------------------------
    _section(out, "6. Near-optimality (Lemma 10)")
    rows = [[r["kernel"], r["n"], r["nranks"], r["measured_max"],
             r["lower_bound"], r["ratio"]]
            for r in lower_bound_ratios(cases=((n_ref, p_ref),))]
    out.write(format_table(
        ["kernel", "N", "P", "measured max/rank", "bound", "ratio"], rows))
    out.write("\n")

    # ------------------------------------------------------------------
    _section(out, "7. Ablations (Section 7 design choices)")
    swap = row_swap_ablation(n_ref, p_ref)
    lat = pivoting_latency_ablation(n=n_ref, p=p_ref, v=32)
    repl = replication_ablation(n=n_ref, p=p_ref, c_sweep=(1, 2, 4, 8))
    best_c = min(repl, key=lambda r: r["mean_recv_words"])["c"]
    rows = [
        ["row masking words/rank", swap["masking_words"]],
        ["hypothetical row-swap words/rank", swap["swapping_words"]],
        ["tournament latency reduction", lat["round_reduction"]],
        ["tuned replication depth c*", best_c],
    ]
    out.write(format_table(["metric", "value"], rows))
    out.write("\n")
    return out.getvalue()
