"""2D block-cyclic right-looking Cholesky (ScaLAPACK ``pdpotrf`` / MKL).

Per step ``k`` on a ``Pr x Pc`` grid with panel width ``nb``:

* ``potrf`` of the diagonal block on its owner, broadcast down the grid
  column;
* ``trsm`` of the subdiagonal panel on the owning grid column;
* broadcast of the L panel along grid rows (for the ``syrk`` left factor)
  and along grid columns (transposed right factor);
* local symmetric rank-``nb`` trailing update.

Volume per rank sums to ``~N^2/2 * (1/Pr + 1/Pc) ~ N^2/sqrt(P)``: the 2D
model of Table 2, which weak-scales sub-optimally exactly like 2D LU.

Implemented as an engine :class:`~repro.engine.schedule.Schedule` with
trace, dense *and* distributed views; the distributed view keeps only
the lower tiles (``bi >= bj``) resident — the schedule never reads the
strictly-upper half — and fans each factored panel tile out along both
its grid row (left ``syrk`` factor) and its grid column (transposed
right factor) through counted broadcasts.  SLATE's tile Cholesky has
the same volume structure and differs only in its label (a row of
:mod:`repro.factorizations.registry`).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ...engine.accounting import StepAccounting
from ...engine.distops import bcast_copy
from ...engine.schedule import Schedule
from ...kernels import blas, flops
from ...layouts.block_cyclic import (
    BlockCyclicLayout,
    block_key,
    work_name,
)
from ...machine.comm import Machine
from ...machine.grid import ProcessorGrid3D, choose_grid_2d
from ..common import (
    FactorizationResult,
    default_input,
    run_impl,
    validate_problem,
)

__all__ = ["ScalapackCholeskySchedule", "scalapack_cholesky",
           "slate_cholesky"]

#: Store name of the in-place working matrix (not the caller's operand).
WORK = work_name("A")

#: Store names of a step's transients: the diagonal factor's copy and
#: the panel tiles fanned out down their grid columns.
DIAG, COL = work_name("d"), work_name("ct")


class ScalapackCholeskySchedule(Schedule):
    """The right-looking 2D Cholesky loop for the engine."""

    supports_distributed = True

    def __init__(self, n: int, nranks: int, nb: int = 128,
                 mem_words: float | None = None,
                 name: str = "mkl-chol") -> None:
        validate_problem(n, nb, nranks)
        grid2d = choose_grid_2d(nranks)
        self.name = name
        self.n = n
        self.nranks = nranks
        self.nb = nb
        self.grid = ProcessorGrid3D(grid2d.rows, grid2d.cols, 1)
        self.mem_words = float(mem_words if mem_words is not None
                               else n * n / nranks)

    def steps(self) -> int:
        return self.n // self.nb

    def step_label(self, t: int) -> str:
        return f"k={t}"

    def params(self) -> dict[str, Any]:
        return {"nb": self.nb, "grid": (self.grid.rows, self.grid.cols, 1),
                "c": 1, "mem_words": self.mem_words}

    def required_words(self) -> float:
        """Per-rank capacity sufficient for the distributed view.

        Leading term: the block-cyclic matrix copy ``N^2 / P``
        (``mem_words``) — only lower tiles are resident, so the full
        tile-count bound is realized at roughly half.  Transients: one
        step's L panel fanned out along both the grid row (left syrk
        factor) and the grid column (transposed right factor), plus the
        broadcast diagonal tile.
        """
        n, nb = self.n, self.nb
        pr, pc = self.grid.rows, self.grid.cols
        nbk = n // nb
        col_tiles = math.ceil(nbk / pr)
        row_tiles = math.ceil(nbk / pc)
        resident = col_tiles * row_tiles * nb * nb
        panels = (col_tiles + row_tiles) * nb * nb
        small = 2 * nb * nb                       # diagonal tile + transients
        return float(resident + panels + small)

    # ------------------------------------------------------------------
    def accounting(self, acct: StepAccounting) -> None:
        n, nb = self.n, self.nb
        pr = self.grid.rows
        steps = self.steps()
        trailing = acct.affine(n, -nb, hi=steps - 1)   # while n11 > 0
        has_trail = acct.const(hi=steps - 1)

        # Diagonal potrf + broadcast down the panel's grid column (the
        # diagonal owner is the root and receives nothing).
        acct.add_flops(flops.potrf_flops(nb), gate=("i", "j"))
        acct.add_recv(float(nb * nb), step=has_trail, gate=("!i", "j"),
                      msgs=1.0)

        # Panel trsm on the owning grid column (nb x nrem/Pr share).
        acct.add_flops(nb * nb / pr, step=trailing, gate=("j",))

        # L panel broadcast along grid rows (left syrk factor): the
        # panel-owning grid column roots every broadcast and already
        # holds its tiles (g - 1 receivers, as the machine counts).
        acct.add_recv(float(nb * nb), step=has_trail, gate=("!j",),
                      own=("i",), msgs=1.0)
        # Transposed right factor along grid columns: a tile's owner
        # sits inside its own fan-out group exactly when the tile's
        # block row lands on the panel's grid column — those owners
        # (spread over the column's Pr ranks) receive nothing.  Off the
        # panel column a rank receives all its trailing column tiles;
        # on it, the fan-out tiles equal its own tiles, leaving a
        # (Pr-1)/Pr share.
        acct.add_recv(float(nb * nb), step=has_trail, gate=("!j",),
                      own=("j",), msgs=1.0)
        acct.add_recv(nb * nb * (pr - 1.0) / pr, step=has_trail,
                      gate=("j",), own=("j",), msgs=1.0)

        # Local triangular trailing update (gemmt-like: half the tiles).
        acct.add_flops(float(nb ** 3), own=("i", "j"))

    # ------------------------------------------------------------------
    def dense_init(self, a: np.ndarray | None,
                   rng: np.random.Generator | None) -> np.ndarray:
        return default_input(self.n, a, rng, spd=True).copy()

    def dense_step(self, work: np.ndarray, k: int) -> None:
        n, nb = self.n, self.nb
        n11 = n - (k + 1) * nb
        c0, c1 = k * nb, (k + 1) * nb
        l00, _ = blas.potrf(work[c0:c1, c0:c1])
        work[c0:c1, c0:c1] = l00
        if n11 > 0:
            panel, _ = blas.trsm(l00.T, work[c1:, c0:c1],
                                 side="right", lower=False)
            work[c1:, c0:c1] = panel
            work[c1:, c1:] -= panel @ panel.T

    def dense_finalize(self, work: np.ndarray) -> dict[str, Any]:
        return {"lower": np.tril(work)}

    # ------------------------------------------------------------------
    # Distributed view
    # ------------------------------------------------------------------
    def dist_init(self, machine: Machine, a: np.ndarray | None,
                  rng: np.random.Generator | None,
                  in_name: str | None = None) -> BlockCyclicLayout:
        """Scatter the lower tiles (``bi >= bj``) to their block-cyclic
        owners; the strictly-upper half is never stored (symmetry)."""
        n, nb = self.n, self.nb
        lay = BlockCyclicLayout(n, n, nb, nb, self.grid.layer_grid())
        if in_name is None:
            a = default_input(n, a, rng, spd=True)
        for bi in range(lay.mblocks):
            for bj in range(bi + 1):
                r = lay.owner_rank(bi, bj)
                if in_name is not None:
                    tile = np.array(machine.store(r).get((in_name, bi, bj)),
                                    dtype=np.float64)
                else:
                    tile = a[bi * nb:(bi + 1) * nb,
                             bj * nb:(bj + 1) * nb].copy()
                machine.store(r).put(block_key(WORK, bi, bj), tile)
        return lay

    def dist_step(self, machine: Machine, lay: BlockCyclicLayout,
                  k: int) -> None:
        n, nb = self.n, self.nb
        grid2d = lay.grid
        nblocks = n // nb
        qc = k % grid2d.cols
        diag_owner = lay.owner_rank(k, k)
        col_ranks = grid2d.col_ranks(qc)

        # Diagonal potrf at its owner, broadcast down the grid column
        # for the panel trsm.
        tile = machine.store(diag_owner).get(block_key(WORK, k, k))
        l00, fl = blas.potrf(tile)
        machine.compute(diag_owner, fl)
        machine.store(diag_owner).put(block_key(WORK, k, k), l00)
        if k + 1 >= nblocks:
            return
        bcast_copy(machine, diag_owner, block_key(WORK, k, k),
                   col_ranks, (DIAG, k))

        # Panel trsm on the owning grid column.
        for bi, r in lay.col_owners(k, first=k + 1):
            l00_local = machine.store(r).get((DIAG, k))
            t = machine.store(r).get(block_key(WORK, bi, k))
            sol, fl = blas.trsm(l00_local.T, t, side="right", lower=False)
            machine.compute(r, fl)
            machine.store(r).put(block_key(WORK, bi, k), sol)

        # Fan each panel tile out along its grid row (left syrk factor)
        # and its grid column (transposed right factor).
        for bi, src in lay.col_owners(k, first=k + 1):
            machine.bcast(src, lay.grid_row_ranks(bi), block_key(WORK, bi, k))
            bcast_copy(machine, src, block_key(WORK, bi, k),
                       sorted(set(lay.grid_col_ranks(bi)) | {src}),
                       (COL, k, bi))

        # Trailing update of the lower tiles: gemmt-like, the diagonal
        # tiles cost half a gemm.
        for bi in range(k + 1, nblocks):
            for bj in range(k + 1, bi + 1):
                owner = lay.owner_rank(bi, bj)
                l_bi = machine.store(owner).get(block_key(WORK, bi, k))
                l_bj = machine.store(owner).get((COL, k, bj))
                c_t = machine.store(owner).get(block_key(WORK, bi, bj))
                upd, fl = blas.gemm(l_bi, l_bj.T, c_t, alpha=-1.0)
                machine.compute(owner, fl if bi != bj else fl / 2.0)
                machine.store(owner).put(block_key(WORK, bi, bj), upd)

        # Drop the transient copies.
        for bi, src in lay.col_owners(k, first=k + 1):
            for r in lay.grid_row_ranks(bi):
                if r != src:
                    machine.store(r).discard(block_key(WORK, bi, k))
            for r in sorted(set(lay.grid_col_ranks(bi)) | {src}):
                machine.store(r).discard((COL, k, bi))
        for r in col_ranks:
            machine.store(r).discard((DIAG, k))

    def dist_finalize(self, machine: Machine,
                      lay: BlockCyclicLayout) -> dict[str, Any]:
        n, nb = self.n, self.nb
        out = np.zeros((n, n))
        for bi in range(lay.mblocks):
            for bj in range(bi + 1):
                r = lay.owner_rank(bi, bj)
                out[bi * nb:(bi + 1) * nb, bj * nb:(bj + 1) * nb] = \
                    machine.store(r).get(block_key(WORK, bi, bj))
        return {"lower": np.tril(out)}


def scalapack_cholesky(n: int, nranks: int, nb: int = 128,
                       execute: bool = True, a: np.ndarray | None = None,
                       rng: np.random.Generator | None = None,
                       mem_words: float | None = None) -> FactorizationResult:
    """One-call 2D ScaLAPACK/MKL-style Cholesky."""
    return run_impl("cholesky", "mkl-chol", n, nranks, execute, a=a,
                    rng=rng, nb=nb, mem_words=mem_words)


def slate_cholesky(n: int, nranks: int, nb: int = 128, execute: bool = True,
                   a: np.ndarray | None = None,
                   rng: np.random.Generator | None = None,
                   mem_words: float | None = None) -> FactorizationResult:
    """One-call SLATE-style 2D Cholesky."""
    return run_impl("cholesky", "slate-chol", n, nranks, execute, a=a,
                    rng=rng, nb=nb, mem_words=mem_words)
