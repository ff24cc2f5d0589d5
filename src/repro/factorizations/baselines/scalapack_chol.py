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
strictly-upper half — as views of each rank's local panel
(:func:`~repro.engine.distops.local_panels`), and fans each panel tile
out along both its grid row (left ``syrk`` factor) and its grid column
(transposed right factor) through counted broadcasts.
SLATE's tile Cholesky has the same volume structure and differs only in
its label (a row of :mod:`repro.factorizations.registry`).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ...engine.accounting import StepAccounting
from ...engine.distops import (
    fan_out_panel,
    gather_panels,
    local_panels,
    local_start,
)
from ...engine.schedule import Schedule
from ...kernels import blas, flops
from ...layouts.block_cyclic import work_name
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
#: the panel tiles a rank received along its grid row and down its
#: grid column.
DIAG, ROW, COL = map(work_name, ("d", "rt", "ct"))


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
                  in_name: str | None = None) -> list[np.ndarray]:
        """Lay the lower tiles (``bi >= bj``) out in their owners' stores
        (views of :func:`~repro.engine.distops.local_panels`); the
        strictly-upper half is never stored (symmetry)."""
        n, nb = self.n, self.nb
        if in_name is None:
            a = default_input(n, a, rng, spd=True)
        return local_panels(machine, self.grid, n // nb, nb, WORK, a,
                            in_name, lower=True)

    def dist_step(self, machine: Machine, panels: list[np.ndarray],
                  k: int) -> None:
        n, nb = self.n, self.nb
        grid = self.grid
        pr, pc = grid.rows, grid.cols
        nblocks = n // nb
        col_ranks = [grid.rank(pi, k % pc, 0) for pi in range(pr)]
        diag_owner = col_ranks[k % pr]
        r0, c0 = k // pr * nb, k // pc * nb     # tile (k, k), locally

        # Diagonal potrf at its owner, broadcast down the grid column
        # for the panel trsm.
        diag = panels[diag_owner][r0:r0 + nb, c0:c0 + nb]
        l00, fl = blas.potrf(diag)
        machine.compute(diag_owner, fl)
        diag[...] = l00
        if k + 1 >= nblocks:
            return
        machine.store(diag_owner).put((DIAG, k), diag)
        machine.bcast(diag_owner, col_ranks, (DIAG, k))

        # Panel trsm on the owning grid column, one per rank.
        below = local_start(k + 1, pr, nb).tolist()
        for pi, r in enumerate(col_ranks):
            tiles = panels[r][below[pi]:, c0:c0 + nb]
            if tiles.size:
                sol, fl = blas.trsm(machine.store(r).get((DIAG, k)).T, tiles,
                                    side="right", lower=False)
                machine.compute(r, fl)
                tiles[...] = sol

        # Fan each panel tile out along its grid row (left syrk factor)
        # and its grid column (transposed right factor): to its block
        # row's grid column plus its owner, one group per residue class
        # (bi % Pr, bi % Pc), charged with the class's tile count.  A
        # grid column's ranks hold its tiles, ascending, under one key.
        left = fan_out_panel(machine, grid, panels, nb, k, (ROW, k), along_rows=True)
        trailing = np.arange(k + 1, nblocks)
        for code, count in zip(*np.unique(trailing % pr * pc + trailing % pc,
                                          return_counts=True)):
            pi, pj = divmod(int(code), pc)
            group = {grid.rank(i, pj, 0) for i in range(pr)} | {col_ranks[pi]}
            machine.charge_bcast(col_ranks[pi], sorted(group), nb * nb,
                                 int(count))
        panel = np.empty((trailing.size, nb, nb))
        for pi, slab in enumerate(left):
            panel[(pi - k - 1) % pr::pr] = slab.reshape(-1, nb, nb)
        for r in range(grid.size):
            received = panel[(r % pc - k - 1) % pc::pc]
            if received.size:
                machine.store(r).put((COL, k), received)

        # Trailing update of the lower tiles: gemmt-like, per tile
        # column one product from its diagonal tile down on each rank
        # of its grid column; the diagonal tiles cost half a gemm.
        for bj in trailing.tolist():
            c1 = bj // pc * nb
            for pi, top in enumerate(local_start(bj, pr, nb).tolist()):
                r = grid.rank(pi, bj % pc, 0)
                tiles = panels[r][top:, c1:c1 + nb]
                if tiles.size:
                    tiles -= left[pi][top - below[pi]:] @ panel[bj - k - 1].T
                    machine.compute(r, flops.gemm_flops(tiles.shape[0], nb, nb)
                                    - (nb ** 3 if bj % pr == pi else 0))

        # Drop the transient copies.
        for store in machine.stores:
            for name in (DIAG, ROW, COL):
                store.discard((name, k))

    def dist_finalize(self, machine: Machine,
                      panels: list[np.ndarray]) -> dict[str, Any]:
        packed = gather_panels(self.grid, panels, self.n, self.nb)
        return {"lower": np.tril(packed)}


def scalapack_cholesky(n: int, nranks: int, nb: int = 128,
                       a: np.ndarray | None = None,
                       rng: np.random.Generator | None = None,
                       mem_words: float | None = None) -> FactorizationResult:
    """One-call 2D ScaLAPACK/MKL-style Cholesky."""
    return run_impl("cholesky", "mkl-chol", n, nranks, a=a, rng=rng,
                    nb=nb, mem_words=mem_words)


def slate_cholesky(n: int, nranks: int, nb: int = 128,
                   a: np.ndarray | None = None,
                   rng: np.random.Generator | None = None,
                   mem_words: float | None = None) -> FactorizationResult:
    """One-call SLATE-style 2D Cholesky."""
    return run_impl("cholesky", "slate-chol", n, nranks, a=a, rng=rng,
                    nb=nb, mem_words=mem_words)
