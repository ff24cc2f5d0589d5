"""COnfCHOX: near-communication-optimal parallel Cholesky (Section 7.5).

From the data-flow perspective Cholesky is LU without pivoting on an SPD
matrix, and COnfCHOX reuses COnfLUX's machinery: it is the second
setting of the Algorithm 1 schedule of :mod:`repro.factorizations.conflux`
(2.5D grid, block-cyclic layout, layered reduction of the panel, A10
scatter and solve, deferred per-layer updates).  Its hooks (Table 1):

* pivot policy — none: A00 is factored by a local ``potrf`` (``v^3/6``)
  and broadcast (``v^2``); only the block column is reduced and
  solved, ``A10^T`` plays the role of A01;
* update shape — the lower triangle: only the tiles ``bi >= bj`` are
  resident, and the trailing ``gemmt`` halves the computation — but
  distributing A10 along both grid dimensions communicates as much as
  LU's two panels (Table 1).

Total I/O per rank: ``N^3/(P sqrt(M)) + O(M)`` against the lower bound
``N^3/(3 P sqrt(M))``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..engine.accounting import StepAccounting
from ..kernels import blas, flops
from ..machine.comm import Machine
from .common import FactorizationResult, default_input, run_impl
from .conflux import _Algorithm1, _DistState

__all__ = ["ConfchoxSchedule", "confchox_cholesky"]


class _DenseState:
    __slots__ = ("partials", "lower")

    def __init__(self, a: np.ndarray, n: int, c: int) -> None:
        self.partials = np.zeros((c, n, n))
        self.partials[0] = a
        self.lower = np.zeros((n, n))


class ConfchoxSchedule(_Algorithm1):
    """COnfCHOX's step sequence (COnfLUX minus pivoting, a lower
    update) for the engine."""

    name = "confchox"
    pivoting = False
    lower = True

    def _pivot_terms(self, acct: StepAccounting, recv) -> None:
        """No pivoting: a local potrf of A00 on its owner (v^3/6 flops;
        its broadcast is the skeleton's step 3)."""
        acct.add_flops(flops.potrf_flops(self.v), gate=("i", "j", "k"))

    def _panel_terms(self, acct: StepAccounting, recv, nrem, n11) -> None:
        """The A10 trsm, its fan-out to both sides and the ``gemmt``; no
        masking, so rows are counted exactly by ownership too."""
        v = self.v
        planes = v // self.c
        acct.add_flops(v * v / self.nranks, step=n11)
        # A10 for the symmetric update: the rows of a rank's trailing row
        # tiles and of its column tiles, its layer's v/c planes of each.
        recv(float(v * planes), own=("i",))
        recv(float(v * planes), own=("j",))
        # Trailing gemmt: each rank's lower-triangular share, half the
        # gemm flops.
        acct.add_flops(float(v * v * planes), own=("i", "j"))

    # ------------------------------------------------------------------
    # Dense view
    # ------------------------------------------------------------------
    def dense_init(self, a: np.ndarray | None,
                   rng: np.random.Generator | None) -> _DenseState:
        return _DenseState(default_input(self.n, a, rng, spd=True),
                           self.n, self.c)

    def dense_step(self, state: _DenseState, t: int) -> None:
        n, v, c = self.n, self.v, self.c
        nrem = n - t * v
        n11 = nrem - v
        partials = state.partials
        col0, col1 = t * v, (t + 1) * v
        # Reduce the block column (diagonal block + below) over the c
        # layers.
        colpanel = partials[:, col0:, col0:col1].sum(axis=0)
        # Local potrf of the diagonal block.
        l00, _ = blas.potrf(colpanel[:v])
        state.lower[col0:col1, col0:col1] = l00
        if n11 > 0:
            # A10 <- A10 * L00^{-T} (trsm with the transposed
            # Cholesky factor on the right).
            a10, _ = blas.trsm(l00.T, colpanel[v:], side="right",
                               lower=False)
            state.lower[col1:, col0:col1] = a10
            # Deferred symmetric update: each layer applies its
            # v/c planes of -A10 A10^T to its accumulator.
            planes = v // c
            for k in range(c):
                sl = slice(k * planes, (k + 1) * planes)
                partials[k][col1:, col1:] -= a10[:, sl] @ a10[:, sl].T

    def dense_finalize(self, state: _DenseState) -> dict[str, Any]:
        return {"lower": state.lower}

    def _factor_a00(self, machine: Machine, st: _DistState, column: list,
                    t: int) -> tuple[int, np.ndarray, np.ndarray]:
        """No pivoting: a local potrf of the diagonal block at its owner
        (the piece that starts at the panel's first row), whose rows
        are the step's pivots."""
        v = self.v
        root, diag = next((root, block[:v]) for root, rsel, _, block in column
                          if rsel[0] == 0)
        l00, fl = blas.potrf(diag)
        machine.compute(root, fl)
        st.lower[t * v:(t + 1) * v, t * v:(t + 1) * v] = l00
        return root, l00, np.arange(t * v, (t + 1) * v)


def confchox_cholesky(n: int, nranks: int, v: int | None = None,
                      c: int | None = None, mem_words: float | None = None,
                      a: np.ndarray | None = None,
                      rng: np.random.Generator | None = None,
                      ) -> FactorizationResult:
    """One-call COnfCHOX: factor an SPD matrix (a random well-conditioned
    one by default) on a fresh, unbounded machine, with counted words."""
    return run_impl("cholesky", "confchox", n, nranks, a=a, rng=rng,
                    v=v, c=c, mem_words=mem_words)
