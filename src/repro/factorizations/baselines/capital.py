"""CAPITAL-style 2.5D Cholesky (Hutter & Solomonik, IPDPS 2019).

CAPITAL's communication-avoiding Cholesky(-QR2) uses the asymptotically
optimal 2.5D decomposition with a recursive schedule whose published
bandwidth model — used by the paper for its comparisons (Table 2) — is

    Q_CAPITAL = 45 N^3 / (8 P sqrt(M)) + O(N^2 / (P sqrt(M))),

i.e. 5.625x COnfCHOX's leading term (the paper quotes "up to 16x the
lower bound" for this family of schedules; 45/8 over N^3/(3 P sqrt(M))
is 16.9).  The recursion moves nine panel-scale operands per level —
three recursive triangle solves and six rectangular multiplies — each
costing ``~(5/8) (N - t b) b / sqrt(c P)`` per rank when flattened to the
iterative panel schedule traced here.

As with CANDMC, this is a model-faithful schedule trace (no numeric
execution): the paper itself evaluates CAPITAL through the authors'
model.
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

__all__ = ["CapitalCholesky", "capital_cholesky"]


class CapitalCholesky:
    """2.5D recursive Cholesky, flattened trace (model-faithful)."""

    name = "capital"

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
        # Leading coefficient 45/8 spread over the panel schedule: the
        # per-step movement is (45/8) * 2 * (nrem * b)/sqrt(cP) so the sum
        # over steps reproduces 45 N^3 / (8 P sqrt(M)).
        coeff = 45.0 / 8.0
        for t in range(steps):
            nrem = n - t * b
            n11 = nrem - b
            self.stats.begin_step(f"t={t}")
            per_step = coeff * 2.0 * nrem * b / scp
            self.acct.add_recv(per_step, msgs=9.0)
            self.acct.add_sent(per_step, msgs=9.0)
            diag_owner = ((self.acct.pi == t % self.grid.rows)
                          & (self.acct.pj == t % self.grid.cols)
                          & (self.acct.pk == 0)).astype(float)
            self.acct.add_flops(diag_owner * flops.potrf_flops(b))
            self.acct.add_flops(nrem * n11 * b / p
                                + flops.trsm_flops(b, n11 / p))
            self.stats.end_step()
        params = {"b": b, "c": c,
                  "grid": (self.grid.rows, self.grid.cols, c),
                  "mem_words": self.mem_words}
        return FactorizationResult(self.name, n, p, self.mem_words,
                                   self.stats, params)


def capital_cholesky(n: int, nranks: int, b: int | None = None,
                     c: int | None = None, mem_words: float | None = None,
                     execute: bool = False) -> FactorizationResult:
    """One-call CAPITAL 2.5D Cholesky trace (model-faithful; no numeric
    execution, matching the paper's model-based comparison)."""
    if execute:
        raise NotImplementedError(
            "CAPITAL is reproduced as a model-faithful trace; the paper "
            "compares against its published cost model (Table 2)")
    return CapitalCholesky(n, nranks, b=b, c=c, mem_words=mem_words).run()
