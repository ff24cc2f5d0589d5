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

As with CANDMC, this is a model-faithful schedule trace (cost terms
only, no numeric execution): the paper itself evaluates CAPITAL through
the authors' model.
"""

from __future__ import annotations

import math

from ...engine.accounting import StepAccounting
from ...kernels import flops
from .candmc import PanelModelSchedule

__all__ = ["CapitalSchedule"]


class CapitalSchedule(PanelModelSchedule):
    """2.5D recursive Cholesky, flattened trace (model-faithful)."""

    name = "capital"

    def accounting(self, acct: StepAccounting) -> None:
        n, b, c, p = self.n, self.b, self.c, self.nranks
        # Leading coefficient 45/8 spread over the panel schedule: the
        # per-step movement is (45/8) * 2 * (nrem * b)/sqrt(cP) so the sum
        # over steps reproduces 45 N^3 / (8 P sqrt(M)).
        per_step = 45.0 / 8.0 * 2.0 * b / math.sqrt(c * p)
        nrem = acct.affine(n, -b)
        acct.add_recv(per_step, step=nrem, msgs=9.0)
        # potrf on the diagonal block's layer-0 owner; trsm and trailing
        # update shares everywhere.
        acct.add_flops(flops.potrf_flops(b), gate=("i", "j"),
                       rank_const=acct.pk == 0)
        nrem_t, n11_t = self._extents()
        acct.add_flops(1.0, step=acct.column(
            nrem_t * n11_t * b / p + flops.trsm_flops(b, n11_t / p)))

