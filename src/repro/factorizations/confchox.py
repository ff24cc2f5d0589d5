"""COnfCHOX: near-communication-optimal parallel Cholesky (Section 7.5).

From the data-flow perspective Cholesky is LU without pivoting on an SPD
matrix, and COnfCHOX reuses COnfLUX's machinery: the same 2.5D
``[Pr, Pc, c]`` decomposition, block-cyclic layout, layered reduction of
the current panel, and deferred (per-layer) trailing updates.  Key
differences (Table 1):

* no pivoting: A00 is factored by a local ``potrf`` (cost ``v^3/6``) and
  broadcast (``v^2``);
* one panel per step: by symmetry only the block column is reduced and
  triangular-solved; the "A01" role is played by ``A10^T``;
* the trailing update is ``gemmt`` (triangular output), halving the
  computation — but the *communication* of distributing A10 along both
  grid dimensions is the same as LU's two panels, which is why Cholesky
  communicates as much as LU per Table 1.

Total I/O per rank: ``N^3/(P sqrt(M)) + O(M)`` against the lower bound
``N^3/(3 P sqrt(M))``.

Like COnfLUX, the algorithm is a :class:`~repro.engine.schedule.Schedule`
with trace, dense, and distributed views; the distributed view keeps
only the lower tiles (``bi >= bj``) resident — the schedule never reads
the strictly-upper half.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..engine.accounting import StepAccounting
from ..engine.distops import (
    distribute_rows_1d,
    layered_reduce,
    local_panels,
    panel_fan_out_update,
    solve_1d,
)
from ..engine.schedule import Schedule
from ..kernels import blas, flops
from ..layouts.block_cyclic import work_name
from ..machine.comm import Machine
from ..machine.grid import ProcessorGrid3D
from .common import (
    FactorizationResult,
    default_input,
    resolve_25d,
    run_impl,
)
from .conflux import A10, CR, FAN, PARTIAL, resolve_tile

__all__ = ["ConfchoxSchedule", "confchox_cholesky"]

#: Store name of a step's broadcast Cholesky factor (the other
#: transients share COnfLUX's names).
L00 = work_name("l00")


class _DenseState:
    __slots__ = ("partials", "lower")

    def __init__(self, a: np.ndarray, n: int, c: int) -> None:
        self.partials = np.zeros((c, n, n))
        self.partials[0] = a
        self.lower = np.zeros((n, n))


class ConfchoxSchedule(Schedule):
    """COnfCHOX's step sequence (COnfLUX minus pivoting) for the engine."""

    name = "confchox"
    supports_distributed = True

    def __init__(self, n: int, nranks: int, v: int | None = None,
                 c: int | None = None, mem_words: float | None = None,
                 grid: ProcessorGrid3D | None = None) -> None:
        c, mem_words, grid = resolve_25d(n, nranks, c, mem_words, grid)
        self.n = n
        self.nranks = nranks
        self.v = resolve_tile(n, nranks, v, c)
        self.c = c
        self.mem_words = mem_words
        self.grid = grid

    def steps(self) -> int:
        return self.n // self.v

    def params(self) -> dict[str, Any]:
        return {"v": self.v, "c": self.c,
                "grid": (self.grid.rows, self.grid.cols, self.c),
                "mem_words": self.mem_words}

    def required_words(self) -> float:
        """Per-rank capacity sufficient for the distributed view.

        Same shape as COnfLUX's bound (the replication footprint
        ``c N^2 / P`` plus one step's transients) minus the pivoting
        terms; the distributed view stores only lower tiles, so the
        resident term is bounded by the full tile count but realized at
        roughly half of it.
        """
        n, v = self.n, self.v
        pr, pc = self.grid.rows, self.grid.cols
        nb = n // v
        resident = math.ceil(nb / pr) * math.ceil(nb / pc) * v * v
        panel = math.ceil(nb / pr) * v * v        # reduced column blocks
        chunk = (math.ceil(n / self.nranks) + v) * v   # A10 1D chunk + ship
        small = 3 * v * v                         # broadcast L00 + transients
        return float(resident + panel + 4 * chunk + small)

    # ------------------------------------------------------------------
    # Trace view
    # ------------------------------------------------------------------
    def accounting(self, acct: StepAccounting) -> None:
        """Cost terms mirroring COnfLUX minus pivoting.

        Cholesky has no masking, so trailing *rows* are tile-aligned too
        and counted exactly via the cyclic-ownership factors on both
        grid axes.
        """
        n, v, c = self.n, self.v, self.c
        planes = v // c
        nrem = acct.affine(n, -v)
        n11 = acct.affine(n - v, -v)
        diag_owner = ("i", "j", "k")          # A00's owner at step t

        # Reduce the block column (nrem x v) over layers (machine-wide
        # reduce-scatter, as in COnfLUX step 1).
        acct.add_recv(v * (c - 1.0) / self.nranks, step=nrem)

        # Local potrf of A00 on its owner; broadcast of the factor
        # (v^2 per rank, Table 1) and potrf flops v^3/6 at the owner.
        acct.add_flops(flops.potrf_flops(v), gate=diag_owner)
        acct.add_recv(float(v * v))

        # Scatter A10 (n11 x v) 1D over all ranks + local trsm.
        acct.add_recv(v / self.nranks, step=n11)
        acct.add_flops(v * v / self.nranks, step=n11)

        # Distribute A10 for the symmetric update: each rank needs the
        # row-part matching its trailing row tiles and the column-part
        # matching its trailing column tiles, restricted to its layer's
        # v/c planes — same volume as COnfLUX's two panels.
        acct.add_recv(float(v * planes), own=("i",))
        acct.add_recv(float(v * planes), own=("j",))

        # Trailing gemmt: triangular output, half the gemm flops; each
        # rank updates only its lower-triangular share, so roughly half
        # its tile products contribute.
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

    # ------------------------------------------------------------------
    # Distributed view
    # ------------------------------------------------------------------
    def dist_init(self, machine: Machine, a: np.ndarray | None,
                  rng: np.random.Generator | None,
                  in_name: str | None = None) -> "_DistState":
        """Lay out the lower tiles (``bi >= bj``) of the per-layer
        partials in the rank stores; the strictly-upper half is never
        read by the schedule (symmetry), so it is not stored."""
        n, v = self.n, self.v
        if in_name is None:
            a = default_input(n, a, rng, spd=True)
        return _DistState(n, local_panels(machine, self.grid, n // v, v,
                                          PARTIAL, a, in_name, lower=True))

    def dist_step(self, machine: Machine, st: "_DistState", t: int) -> None:
        n, v, c = self.n, self.v, self.c
        grid = self.grid
        P = self.nranks
        col0, col1 = t * v, (t + 1) * v
        n11 = n - col1
        all_ranks = list(range(P))

        # Reduce the block column (tiles bi >= t of column t) over the
        # layers onto layer t%c — Algorithm 1 step 1 sans masking.
        below = np.arange(col0, n)
        column = layered_reduce(machine, grid, st.panels, v, below,
                                t, t + 1, t % c, (CR, t))

        # Local potrf of the diagonal block at its owner (the piece
        # that starts at the panel's first row), then broadcast of the
        # factor to every rank (Table 1: v^2 words).
        diag_root, diag_block = next(
            (root, block[:v]) for root, rsel, _, block in column
            if rsel[0] == 0)
        l00, fl = blas.potrf(diag_block)
        machine.compute(diag_root, fl)
        machine.store(diag_root).put((L00, t), l00)
        machine.bcast(diag_root, all_ranks, (L00, t))
        st.lower[col0:col1, col0:col1] = l00

        if n11 > 0:
            # Scatter A10 1D over all ranks + local trsm against each
            # rank's broadcast L00 copy.
            a10 = distribute_rows_1d(
                machine, [(root, below[rsel][keep], block[keep])
                          for root, rsel, _, block in column
                          if (keep := below[rsel] >= col1).any()],
                P, (A10, t))
            solve_1d(machine, a10, (L00, t), transpose=True)
            st.lower[a10.ids, col0:col1] = a10.rows

            # Distribute the A10 pieces each rank's trailing tiles need
            # (row tiles for the left factor, column tiles for the
            # transposed right factor, its layer's v/c planes) and apply
            # the deferred symmetric update to the lower tiles.
            panel_fan_out_update(machine, grid, st.panels, v, a10, a10,
                                 (FAN, t), lower=True)

        for root, _, _, _ in column:
            machine.store(root).discard((CR, t))
        for store in machine.stores:
            store.discard((L00, t), (A10, t))

    def dist_finalize(self, machine: Machine,
                      st: "_DistState") -> dict[str, Any]:
        return {"lower": st.lower}


class _DistState:
    __slots__ = ("panels", "lower")

    def __init__(self, n: int, panels: list[np.ndarray]) -> None:
        self.panels = panels
        self.lower = np.zeros((n, n))


def confchox_cholesky(n: int, nranks: int, v: int | None = None,
                      c: int | None = None, mem_words: float | None = None,
                      a: np.ndarray | None = None,
                      rng: np.random.Generator | None = None,
                      ) -> FactorizationResult:
    """One-call COnfCHOX: factor an SPD matrix (a random well-conditioned
    one by default) on the dense backend."""
    return run_impl("cholesky", "confchox", n, nranks, a=a, rng=rng,
                    v=v, c=c, mem_words=mem_words)
