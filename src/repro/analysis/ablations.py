"""Ablation studies for the design choices of Section 7.

The paper motivates several choices qualitatively; these ablations
quantify each on the counting substrate:

* :func:`block_size_ablation` — the tunable ``v`` (Section 7.2): small
  ``v`` shrinks the O(N v) A00 broadcasts but raises the latency term,
  large ``v`` inflates broadcasts; there is a flat optimum.
* :func:`replication_ablation` — the 2.5D depth ``c``: leading term
  falls as 1/sqrt(c), the O(M) layered reductions grow linearly —
  the crossover explains why the tuned ``c`` sits below P^(1/3) when P
  approaches N (Section 8's "depth ... kept as a tunable parameter").
* :func:`row_swap_ablation` — Section 7.3's row-masking argument: full
  row swapping in a replicated layout would add ~N^3/(P sqrt(M)),
  doubling the leading term (we compute the hypothetical swap volume
  and compare).
* :func:`pivoting_latency_ablation` — tournament vs partial pivoting:
  the O(N) synchronization count of column-by-column pivoting vs the
  O(N/v) rounds of the tournament.
"""

from __future__ import annotations

import math

from ..factorizations import build, default_block_size
from ..machine.perf_model import PIZ_DAINT_XC40, PerfModel
from ..models import costmodels as cm
from .harness import max_replication, trace

__all__ = [
    "block_size_ablation",
    "replication_ablation",
    "row_swap_ablation",
    "pivoting_latency_ablation",
]


def block_size_ablation(n: int = 16384, p: int = 1024, c: int = 8,
                        v_sweep=(8, 16, 32, 64, 128, 256)) -> list[dict]:
    """Sweep the tile size ``v``: traced volume, message count, and the
    alpha-beta-gamma time estimate."""
    model = PerfModel(PIZ_DAINT_XC40)
    rows = []
    for v in v_sweep:
        if v % c or n % v:
            continue
        [res] = trace(build("lu", "conflux", n, p, v=v, c=c))
        t = model.evaluate(res.step_log, p, n * n / p)
        rows.append({
            "n": n, "nranks": p, "c": c, "v": v,
            "mean_recv_words": res.mean_recv_words,
            "max_msgs": float(res.comm.recv_msgs.max()),
            "time_s": t.total_s,
            "peak_pct": 100 * t.peak_fraction,
        })
    if not rows:
        raise ValueError("no valid v in the sweep")
    return rows


def replication_ablation(n: int = 32768, p: int = 4096,
                         c_sweep=(1, 2, 4, 8, 16)) -> list[dict]:
    """Sweep the replication depth ``c``: leading term vs O(M) overhead.

    Each ``c`` runs at the smallest tile ``v >= max(4c, 16)`` that is a
    multiple of ``c`` and divides ``n``; a ``c`` with no such ``v`` (or
    not dividing ``p``) is skipped."""
    rows = []
    for c in c_sweep:
        if p % c:
            continue
        v = next((v for v in range(c, n + 1, c)
                  if v >= max(4 * c, 16) and n % v == 0), None)
        if v is None:
            continue
        [res] = trace(build("lu", "conflux", n, p, v=v, c=c))
        m = c * float(n) * n / p
        rows.append({
            "n": n, "nranks": p, "c": c,
            "mem_words": m,
            "leading_model": cm.conflux_paper_model(n, p, m),
            "mean_recv_words": res.mean_recv_words,
            "reduction_overhead": res.mean_recv_words
            - cm.conflux_paper_model(n, p, m),
        })
    return rows


def row_swap_ablation(n: int = 16384, p: int = 1024,
                      c: int | None = None) -> dict:
    """Quantify Section 7.3: masking vs swapping pivot rows.

    With replication depth ``c``, physically swapping each step's ``v``
    pivot rows into place would move ``2 * (N - tv) * v`` words per step
    *per replica layer share*, i.e. ``~N^2 * c / P = M`` extra per rank
    over the run for the out-and-back exchange across the whole trailing
    extent — asymptotically ``N^3/(P sqrt(M))``, doubling the leading
    term.  Masking replaces all of it with an O(N) pivot-index
    broadcast.
    """
    if c is None:
        c = max_replication(p, n)
    v = default_block_size(n, p, c)
    [res] = trace(build("lu", "conflux", n, p, v=v, c=c))
    steps = n // v
    # Hypothetical swap volume: both rows of each swapped pair move
    # across the full remaining width, replicated on every layer; spread
    # over the P ranks.
    swap_words = sum(2.0 * (n - t * v) * v * c / p for t in range(steps))
    mask_words = sum(float(v) for _ in range(steps))  # pivot indices
    m = c * float(n) * n / p
    return {
        "n": n, "nranks": p, "c": c, "v": v,
        "masking_words": mask_words,
        "swapping_words": swap_words,
        "conflux_total": res.mean_recv_words,
        "swap_overhead_fraction": swap_words / res.mean_recv_words,
        "leading_term": cm.conflux_paper_model(n, p, m),
    }


def pivoting_latency_ablation(n: int = 16384, p: int = 1024,
                              v: int = 32) -> dict:
    """Latency (synchronization round) counts: partial pivoting's O(N)
    column allreduces vs tournament pivoting's O(N/v * log(sqrt(P1)))
    rounds (Section 7.3)."""
    if n % v:
        raise ValueError("v must divide n")
    c = max_replication(p, n)
    p1 = p // c
    sqrt_p1 = math.isqrt(p1)
    rounds_partial = n * math.ceil(math.log2(max(2, sqrt_p1)))
    rounds_tournament = (n // v) * math.ceil(math.log2(max(2, sqrt_p1)))
    alpha = PIZ_DAINT_XC40.latency_s
    return {
        "n": n, "nranks": p, "v": v,
        "partial_rounds": rounds_partial,
        "tournament_rounds": rounds_tournament,
        "round_reduction": rounds_partial / rounds_tournament,
        "partial_latency_s": rounds_partial * alpha,
        "tournament_latency_s": rounds_tournament * alpha,
    }
