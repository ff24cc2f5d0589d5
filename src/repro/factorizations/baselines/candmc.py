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

This implementation is a *model-faithful schedule trace*: a
:class:`~repro.engine.schedule.Schedule` with a trace view only, whose
cost terms charge those five movements (plus tournament pivoting and
flops) per step and per rank, which sums to the published model.
Numeric execution is intentionally not provided — the paper, too,
compares against CANDMC's published cost model rather than
instrumenting its internals (ARCHITECTURE.md, "Substitutions").
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ...engine.accounting import StepAccounting
from ...engine.schedule import Schedule
from ...kernels import flops
from ...machine.grid import sorted_divisors
from ..common import resolve_25d, validate_problem
from .. import pivoting

__all__ = ["CandmcSchedule", "PanelModelSchedule"]


class PanelModelSchedule(Schedule):
    """A published 2.5D cost model flattened to an iterative ``b``-wide
    panel schedule: the parameters and step structure CANDMC and
    CAPITAL share.  Cost-model level only — there is no dense or
    distributed view."""

    def __init__(self, n: int, nranks: int, b: int | None = None,
                 c: int | None = None,
                 mem_words: float | None = None) -> None:
        c, mem_words, grid = resolve_25d(n, nranks, c, mem_words)
        if b is None:
            # The authors' provided default: panel width ~ N / sqrt(P/c)
            # (N^2/(P sqrt(M)) in their notation), snapped to a divisor
            # of N.
            target = max(1, int(n / math.sqrt(nranks / c)))
            b = min(sorted_divisors(n), key=lambda d: abs(d - target))
        validate_problem(n, b, nranks)
        self.n = n
        self.nranks = nranks
        self.b = b
        self.c = c
        self.grid = grid
        self.mem_words = mem_words

    def steps(self) -> int:
        return self.n // self.b

    def params(self) -> dict[str, Any]:
        return {"b": self.b, "c": self.c,
                "grid": (self.grid.rows, self.grid.cols, self.c),
                "mem_words": self.mem_words}

    def _extents(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step ``(nrem, n11)``: rows left including the panel, and
        the trailing extent — the quadratic flop profiles' inputs."""
        nrem = self.n - self.b * np.arange(self.steps(), dtype=np.float64)
        return nrem, nrem - self.b


class CandmcSchedule(PanelModelSchedule):
    """Nested 2.5D LU with full row swapping (trace view only)."""

    name = "candmc"

    def accounting(self, acct: StepAccounting) -> None:
        n, b, c, p = self.n, self.b, self.c, self.nranks
        rows = self.grid.rows
        nrem = acct.affine(n, -b)
        trailing = acct.affine(n, -b, hi=self.steps() - 1)  # while n11 > 0
        # Five panel-sized movements, each 2*(nrem * b)/sqrt(cP) per
        # rank (every movement spans both the column- and row-panel
        # extents of the step under the nested replication).  Summed
        # over steps: 5 * N^2/sqrt(cP) = 5 N^3/(P sqrt(M)).
        panel = 2.0 * b / math.sqrt(c * p)
        acct.add_recv(panel, step=nrem)                       # L panel
        acct.add_recv(panel, step=trailing)                   # U panel
        acct.add_recv(panel, step=trailing)                   # swap out
        acct.add_recv(panel, step=trailing)                   # swap in
        acct.add_recv(panel * (c - 1.0) / c, step=trailing)   # reduction
        # Tournament pivoting across the panel's processor column.
        on_piv = ("j", "k")
        rounds = pivoting.tournament_rounds(rows)
        acct.add_recv(float(b * b * rounds), gate=on_piv, msgs=rounds)
        # Flops: panel LU + trsm shares + trailing update share.
        nrem_t, n11_t = self._extents()
        acct.add_flops(1.0, gate=on_piv, step=acct.column(
            flops.getrf_flops(nrem_t / rows, b)))
        acct.add_flops(1.0, step=acct.column(
            2.0 * nrem_t * n11_t * b / p
            + 2.0 * flops.trsm_flops(b, n11_t / p)))

