"""CANDMC-style 2.5D LU (Solomonik & Demmel, Euro-Par 2011).

CANDMC's 2.5D LU is *asymptotically* communication-optimal but its
constant is high: the authors' own cost model — which the paper uses for
its comparisons (Table 2) — is

    Q_CANDMC = 5 N^3 / (P sqrt(M)) + O(N^2 / (P sqrt(M))),

five times COnfLUX's leading term.  The factor 5 decomposes into the
schedule's five panel-sized movements per step, each costing
``~(N - t b) b / sqrt(c P)`` per rank:

1. broadcast of the factored L panel across its replication group,
2. broadcast of the U row panel,
3. + 4. full pivot-row swapping across the replicated layout (two row
   panels move: out-going and in-coming — this is exactly the cost the
   row-masking of COnfLUX avoids, Section 7.3),
5. reduction of the replicated Schur-update contributions at panel
   granularity (CANDMC reduces eagerly per panel rather than deferring
   to pivot time).

This implementation is a *model-faithful schedule trace*: it walks the
block schedule performing exact per-step, per-rank accounting of those
five movements (plus tournament pivoting and flops), which sums to the
published model.  Numeric execution is intentionally not provided — the
paper, too, compares against CANDMC's published cost model rather than
instrumenting its internals (DESIGN.md, Substitutions).
"""

from __future__ import annotations

import math

from ...kernels import flops
from ...machine.grid import (
    choose_grid_25d,
    replication_factor,
    sorted_divisors,
)
from ...machine.stats import CommStats
from ..common import FactorizationResult, RankAccountant, validate_problem
from .. import pivoting

__all__ = ["CandmcLU", "candmc_lu"]


class CandmcLU:
    """Nested 2.5D LU with full row swapping (trace mode only)."""

    name = "candmc"

    def __init__(self, n: int, nranks: int, b: int | None = None,
                 c: int | None = None,
                 mem_words: float | None = None) -> None:
        if mem_words is None and c is None:
            c = max(1, int(round(nranks ** (1.0 / 3.0))))
            while nranks % c != 0:
                c -= 1
        if c is None:
            c = replication_factor(nranks, n, mem_words)
        grid = choose_grid_25d(nranks, n, mem_words or c * n * n / nranks, c=c)
        if mem_words is None:
            mem_words = c * float(n) * n / nranks
        if b is None:
            # CANDMC's provided default: panel width ~ N / sqrt(P/c)
            # (N^2/(P sqrt(M)) in the authors' notation), snapped to a
            # divisor of N.
            target = max(1, int(n / math.sqrt(nranks / c)))
            b = min(sorted_divisors(n), key=lambda d: abs(d - target))
        validate_problem(n, b, nranks)
        self.n = n
        self.nranks = nranks
        self.b = b
        self.c = c
        self.grid = grid
        self.mem_words = float(mem_words)
        self.stats = CommStats(nranks)
        self.acct = RankAccountant(grid, self.stats)

    def run(self) -> FactorizationResult:
        n, b, c = self.n, self.b, self.c
        steps = n // b
        p = self.nranks
        scp = math.sqrt(c * p)
        for t in range(steps):
            nrem = n - t * b
            n11 = nrem - b
            self.stats.begin_step(f"t={t}")
            acct = self.acct
            # Five panel-sized movements, each 2*(nrem * b)/sqrt(cP) per
            # rank (every movement spans both the column- and row-panel
            # extents of the step under the nested replication): L bcast,
            # U bcast, swap out, swap in, eager Schur reduction.  Summed
            # over steps: 5 * N^2/sqrt(cP) = 5 N^3/(P sqrt(M)).
            per_panel = 2.0 * nrem * b / scp
            acct.add_recv(per_panel, msgs=1.0)                 # L panel
            acct.add_recv(per_panel * (n11 > 0), msgs=1.0)     # U panel
            acct.add_recv(per_panel * (n11 > 0), msgs=1.0)     # swap out
            acct.add_recv(per_panel * (n11 > 0), msgs=1.0)     # swap in
            acct.add_recv(per_panel * (n11 > 0) * (c - 1.0) / max(c, 1),
                          msgs=1.0)                            # reduction
            acct.add_sent(per_panel * (4.0 + (c - 1.0) / max(c, 1)),
                          msgs=5.0)
            # Tournament pivoting across the panel's processor column.
            rounds = pivoting.tournament_rounds(self.grid.rows)
            on_piv = (self.acct.pj == t % self.grid.cols).astype(float) * \
                (self.acct.pk == t % c)
            acct.add_recv(on_piv * b * b * rounds, msgs=rounds)
            # Flops: panel LU + trsm shares + trailing update share.
            acct.add_flops(on_piv * flops.getrf_flops(nrem / self.grid.rows, b))
            acct.add_flops(2.0 * nrem * n11 * b / p + 2.0 * flops.trsm_flops(
                b, n11 / p))
            self.stats.end_step()
        params = {"b": b, "c": c,
                  "grid": (self.grid.rows, self.grid.cols, c),
                  "mem_words": self.mem_words}
        return FactorizationResult(self.name, n, p, self.mem_words,
                                   self.stats, params)


def candmc_lu(n: int, nranks: int, b: int | None = None, c: int | None = None,
              mem_words: float | None = None,
              execute: bool = False) -> FactorizationResult:
    """One-call CANDMC 2.5D LU trace.  ``execute=True`` is rejected —
    CANDMC is reproduced at the cost-model level (see module docstring)."""
    if execute:
        raise NotImplementedError(
            "CANDMC is reproduced as a model-faithful trace; the paper "
            "compares against its published cost model (Table 2)")
    return CandmcLU(n, nranks, b=b, c=c, mem_words=mem_words).run()
