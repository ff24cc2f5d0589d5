"""2D block-cyclic right-looking LU with partial pivoting.

This is the classic ScaLAPACK ``pdgetrf`` schedule, which the paper's
measurements show is also what Intel MKL executes ("the implementation
uses the suboptimal 2D processor decomposition").  Communication per step
``k`` on a ``Pr x Pc`` grid with panel width ``nb``:

* panel factorization — ``nb`` pivot-search allreduces over the grid
  column plus in-panel pivot-row exchanges;
* pivot row swaps across the trailing matrix (``laswp``);
* broadcast of the factored L panel along grid rows;
* triangular solve and broadcast of the U row panel along grid columns;
* local rank-``nb`` trailing update.

Summed over steps the received volume per rank is
``N^2/2 * (1/Pr + 1/Pc) + swaps ~ N^2/sqrt(P)`` — the paper's Table 2
model for MKL/SLATE, asymptotically worse than 2.5D in ``P``.

MKL's implementation rebroadcasts the current panel during its column-
by-column factorization (the behaviour the paper's measurements pick up
as a slight disadvantage against SLATE); the ``panel_rebroadcast`` knob
models it and is on for the MKL flavour, off for SLATE's tile-centric
task formulation (Gates et al., SC19), which broadcasts panels once as
tiles — the paper observes SLATE's volume is "mostly equal [to MKL's],
with a slight advantage for SLATE", which is exactly what dropping the
rebroadcast produces.  The flavours are rows of the implementation
table (:mod:`repro.factorizations.registry`).

Implemented as an engine :class:`~repro.engine.schedule.Schedule` with
trace, dense *and* distributed views — the distributed view runs the
same right-looking loop with every tile resident only in its
block-cyclic owner's store, a view of that rank's local panel
(:func:`~repro.engine.distops.local_panels`): the panel is factored
column by column with counted MAXLOC pivot-search allreduces, pivot
rows are exchanged across the whole matrix (``laswp``), and the L/U
panels broadcast along grid rows/columns before one update per rank.
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
    maxloc_allreduce,
    swap_rows,
)
from ...engine.schedule import Schedule
from ...kernels import blas, flops
from ...layouts import local_to_global, work_name
from ...machine.comm import Machine
from ...machine.grid import ProcessorGrid3D, choose_grid_2d
from ..common import (
    FactorizationResult,
    default_input,
    run_impl,
    validate_problem,
)

__all__ = ["ScalapackLUSchedule", "scalapack_lu", "slate_lu"]

#: Store name of the in-place working matrix (not the caller's operand).
WORK = work_name("A")

#: Store names of a step's transients: MAXLOC pairs, the eliminating
#: row, a swap's row segments, the re-broadcast panel tiles, the
#: diagonal tile's copy and the L and U panels a rank received.
PIV, ELIM, SWAP, PRB, DIAG, LPAN, UPAN = map(
    work_name, ("piv", "elim", "swap", "prb", "d", "l", "u"))


class ScalapackLUSchedule(Schedule):
    """The right-looking 2D partial-pivoting LU loop for the engine."""

    supports_distributed = True

    def __init__(self, n: int, nranks: int, nb: int = 128,
                 panel_rebroadcast: bool = True,
                 mem_words: float | None = None,
                 name: str = "mkl") -> None:
        validate_problem(n, nb, nranks)
        grid2d = choose_grid_2d(nranks)
        self.name = name
        self.n = n
        self.nranks = nranks
        self.nb = nb
        self.grid = ProcessorGrid3D(grid2d.rows, grid2d.cols, 1)
        self.panel_rebroadcast = panel_rebroadcast
        # 2D algorithms need only one matrix copy: M = N^2/P unless told
        # otherwise (the value is reported, not enforced).
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

        Leading term: the single block-cyclic matrix copy ``N^2 / P``
        (``mem_words``), tile-granular.  Transients: one step's L panel
        copies broadcast along the rank's grid row, U panel copies
        along its grid column, the diagonal tile, the MKL-style panel
        rebroadcast (when enabled), and the per-column pivot-search /
        row-swap buffers.
        """
        n, nb = self.n, self.nb
        pr, pc = self.grid.rows, self.grid.cols
        nbk = n // nb
        col_tiles = math.ceil(nbk / pr)           # tiles per grid row slot
        row_tiles = math.ceil(nbk / pc)           # tiles per grid col slot
        resident = col_tiles * row_tiles * nb * nb
        panels = (col_tiles + row_tiles) * nb * nb
        rebroadcast = col_tiles * nb * nb if self.panel_rebroadcast else 0
        small = 2 * nb * nb + 6 * nb              # diag tile, elim/swap/maxloc
        return float(resident + panels + rebroadcast + small)

    # ------------------------------------------------------------------
    def accounting(self, acct: StepAccounting) -> None:
        n, nb = self.n, self.nb
        pr, pc = self.grid.rows, self.grid.cols
        steps = self.steps()
        nrem = acct.affine(n, -nb)            # trailing rows incl. panel
        trailing = acct.affine(n, -nb, hi=steps - 1)   # while n11 > 0
        has_trail = acct.const(hi=steps - 1)

        # Panel factorization (grid column q_col): nb pivot-search
        # allreduces (2 words each: value + index) over Pr ranks, plus
        # the per-column broadcast of the eliminating row (nb - j
        # trailing entries from the diagonal owner to the g - 1 column
        # ranks still holding rows below it).
        lg_pr = math.ceil(math.log2(max(2, pr)))
        acct.add_recv(2.0 * nb * lg_pr, gate=("j",), msgs=nb * lg_pr)
        acct.add_recv(nb * (nb + 1) / 2.0 * (pr - 1) / pr, gate=("j",),
                      msgs=nb)
        # dgetrf of the (nrem/Pr x nb) local panel share; the branchy
        # LAPACK count is not affine in nrem, so it rides as an explicit
        # flop column (the one non-integer profile in the engine).
        k_idx = np.arange(steps, dtype=np.float64)
        acct.add_flops(1.0, step=acct.column(
            flops.getrf_flops((n - k_idx * nb) / pr, nb)), gate=("j",))
        if self.panel_rebroadcast:
            # MKL-style column-by-column panel broadcast: the panel column
            # ranks see the multipliers twice overall.  Each tile's owner
            # is the broadcast root and receives nothing, so the column
            # ranks carry a (Pr-1)/Pr share.
            acct.add_recv(nb * (pr - 1.0) / pr / pr, step=nrem,
                          gate=("j",), msgs=nb)

        # Pivot row swaps across the whole matrix (``laswp`` touches the
        # factored columns too): nb row pairs exchanged between grid
        # rows.  A rank holds the swapped rows' intersection with its
        # column tiles (all block columns); each swap is remote with
        # probability (Pr-1)/Pr, both rows move, and a given rank's grid
        # row is one of the two involved with probability 2/Pr — one
        # received row-width each time.
        acct.add_recv(2.0 * nb * nb * (pr - 1.0) / pr / pr,
                      rank_const=acct.tiles_owned_static("j"), msgs=nb)

        # L panel broadcast along grid rows: a rank receives the rows of
        # the panel matching its trailing row ownership — except the
        # panel-owning grid column, which is each broadcast's root and
        # already holds its tiles (g - 1 receivers, as the machine
        # counts).
        acct.add_recv(nb / pr, step=trailing, gate=("!j",), msgs=1.0)

        # Diagonal tile shipped along the owner grid row for the U trsm
        # (the diagonal owner is the root and receives nothing).
        acct.add_recv(float(nb * nb), step=has_trail, gate=("i", "!j"),
                      msgs=1.0)

        # U row panel: trsm on the owner grid row, broadcast along grid
        # columns to the ranks matching its trailing column ownership;
        # the owning grid row is every broadcast's root and receives
        # nothing.
        acct.add_flops(float(nb ** 3), step=has_trail, gate=("i",),
                       own=("j",))
        acct.add_recv(float(nb * nb), step=has_trail, gate=("!i",),
                      own=("j",), msgs=1.0)

        # Trailing update (local gemm).
        acct.add_flops(2.0 * nb * nb / pr, step=nrem, own=("j",))

    # ------------------------------------------------------------------
    def dense_init(self, a: np.ndarray | None,
                   rng: np.random.Generator | None) -> tuple:
        # State of both executed views: (matrix, global pivot vector).
        return (default_input(self.n, a, rng).copy(),
                np.zeros(self.n, dtype=int))

    def dense_step(self, state: tuple, k: int) -> None:
        n, nb = self.n, self.nb
        work, piv_all = state
        n11 = n - (k + 1) * nb
        c0, c1 = k * nb, (k + 1) * nb
        # Panel factorization with partial pivoting.
        lu_panel, piv, _ = blas.getrf(work[c0:, c0:c1])
        # Apply the swaps across the whole trailing matrix.
        for i, p in enumerate(piv):
            p = int(p)
            if p != i:
                work[[c0 + i, c0 + p], :] = work[[c0 + p, c0 + i], :]
            piv_all[c0 + i] = c0 + p
        work[c0:, c0:c1] = lu_panel
        if n11 > 0:
            l00 = np.tril(lu_panel[:nb], -1) + np.eye(nb)
            # U row panel via trsm, then the trailing update.
            u01, _ = blas.trsm(l00, work[c0:c1, c1:], side="left",
                               lower=True, unit_diagonal=True)
            work[c0:c1, c1:] = u01
            work[c1:, c1:] -= work[c1:, c0:c1] @ u01

    def dense_finalize(self, state: tuple) -> dict[str, Any]:
        n = self.n
        work, piv_all = state
        perm = blas.pivots_to_permutation(piv_all, n)
        return {"lower": np.tril(work, -1) + np.eye(n),
                "upper": np.triu(work), "perm": perm}

    # ------------------------------------------------------------------
    # Distributed view: the same loop through Machine communication
    # ------------------------------------------------------------------
    def dist_init(self, machine: Machine, a: np.ndarray | None,
                  rng: np.random.Generator | None,
                  in_name: str | None = None) -> tuple:
        """Lay the ``nb x nb`` block-cyclic tiles out in their owners'
        stores (views of :func:`~repro.engine.distops.local_panels`).

        Initial placement is free (the input is assumed resident in the
        algorithm's layout, as for the 2.5D schedules); with ``in_name``
        existing ``(in_name, bi, bj)`` tiles are adopted, e.g. after a
        COSTA reshuffle.
        """
        n, nb = self.n, self.nb
        if in_name is None:
            a = default_input(n, a, rng)
        return (local_panels(machine, self.grid, n // nb, nb, WORK, a,
                             in_name), np.zeros(n, dtype=int))

    def dist_step(self, machine: Machine, state: tuple, k: int) -> None:
        n, nb = self.n, self.nb
        grid, (panels, piv_all) = self.grid, state
        pr, pc = grid.rows, grid.cols
        qr, qc = k % pr, k % pc
        col_ranks = [grid.rank(pi, qc, 0) for pi in range(pr)]
        diag_owner = col_ranks[qr]
        c0 = k // pc * nb                   # block column k, locally
        # Where each grid row's tiles bi >= k and bi > k begin.
        top = local_start(k, pr, nb).tolist()
        below = local_start(k + 1, pr, nb).tolist()
        diag = panels[diag_owner][top[qr]:below[qr], c0:c0 + nb]
        # The column ranks still holding rows below the diagonal tile.
        holders = sorted({diag_owner, *(
            r for r, start in zip(col_ranks, below)
            if start < panels[r].shape[0])})

        # --- Panel factorization: column-by-column partial pivoting
        # over rows c0..n-1 of block column k (the arithmetic of the
        # unblocked getrf the dense view runs on the same panel), each
        # column rank on its whole local slab.  Local rows ascend in
        # global row id: argmax is getrf's smallest-index tie-break. ---
        for j in range(nb):
            g = k * nb + j
            # Local pivot candidates per owning rank, then a counted
            # MAXLOC allreduce over the panel's grid column.
            entries: dict[int, tuple[float, int]] = {}
            for pi, r in enumerate(col_ranks):
                r0 = top[pi] + (j if pi == qr else 0)
                col = np.abs(panels[r][r0:, c0 + j])
                if col.size:
                    i = r0 + int(np.argmax(col))
                    entries[r] = (float(col[i - r0]),
                                  local_to_global(i, nb, pi, 0, pr))
            _, p_global = maxloc_allreduce(machine, (PIV, k, j), entries)
            piv_all[g] = p_global
            if p_global != g:
                swap_rows(machine, grid, panels, nb, g, p_global,
                          (SWAP, k, j))
            # Broadcast the eliminating row (pivot value + trailing
            # panel columns) from the diagonal tile's owner to the
            # grid-column ranks still holding rows below it.
            machine.store(diag_owner).put((ELIM, k, j), diag[j, j:].copy())
            machine.bcast(diag_owner, holders, (ELIM, k, j))
            for pi, r in enumerate(col_ranks):
                rows = panels[r][top[pi] + (j + 1 if pi == qr else 0):,
                                 c0:c0 + nb]
                if rows.shape[0] == 0:
                    continue
                e = machine.store(r).get((ELIM, k, j))
                mult = rows[:, j] / e[0]
                rows[:, j] = mult
                rows[:, j + 1:] -= np.outer(mult, e[1:])
                machine.compute(r, 2.0 * mult.size * (nb - j))
            for r in holders:
                machine.store(r).discard((ELIM, k, j))

        if self.panel_rebroadcast:
            # MKL-style column-by-column panel broadcast: the grid
            # column sees the finished multipliers a second time.
            for pi, r in enumerate(col_ranks):
                machine.charge_bcast(r, col_ranks, nb * nb,
                                     (panels[r].shape[0] - top[pi]) // nb)
                machine.store(r).stage(nb * nb, (PRB, k))

        if (k + 1) * nb >= n:
            return

        # --- U row panel: ship the factored diagonal tile along grid
        # row q_row, one trsm per rank holding U tiles. ---
        row_ranks = [grid.rank(qr, pj, 0) for pj in range(pc)]
        machine.store(diag_owner).put((DIAG, k), diag)
        machine.bcast(diag_owner, row_ranks, (DIAG, k))
        right = local_start(k + 1, pc, nb).tolist()
        for pj, r in enumerate(row_ranks):
            u = panels[r][top[qr]:below[qr], right[pj]:]
            if u.size:
                sol, fl = blas.trsm(machine.store(r).get((DIAG, k)), u,
                                    side="left", lower=True,
                                    unit_diagonal=True)
                machine.compute(r, fl)
                u[...] = sol

        # --- Broadcast panels: L tiles along their grid rows, U tiles
        # along their grid columns. ---
        lower = fan_out_panel(machine, grid, panels, nb, k, (LPAN, k), along_rows=True)
        upper = fan_out_panel(machine, grid, panels, nb, k, (UPAN, k), along_rows=False)

        # --- Trailing update: one gemm per rank on its trailing
        # block, from the panel slabs it holds. ---
        for pi, l_slab in enumerate(lower):
            for pj, u_slab in enumerate(upper):
                if l_slab.size and u_slab.size:
                    r = grid.rank(pi, pj, 0)
                    panels[r][below[pi]:, right[pj]:] -= l_slab @ u_slab
                    machine.compute(r, flops.gemm_flops(
                        l_slab.shape[0], u_slab.shape[1], nb))

        # Drop the transient panel copies.
        for store in machine.stores:
            for name in (DIAG, LPAN, UPAN):
                store.discard((name, k))

    def dist_finalize(self, machine: Machine, state: tuple) -> dict[str, Any]:
        n = self.n
        packed = gather_panels(self.grid, state[0], n, self.nb)
        perm = blas.pivots_to_permutation(state[1], n)
        return {"lower": np.tril(packed, -1) + np.eye(n),
                "upper": np.triu(packed), "perm": perm}


def scalapack_lu(n: int, nranks: int, nb: int = 128,
                 a: np.ndarray | None = None,
                 rng: np.random.Generator | None = None,
                 mem_words: float | None = None) -> FactorizationResult:
    """One-call 2D ScaLAPACK/MKL-style LU."""
    return run_impl("lu", "mkl", n, nranks, a=a, rng=rng, nb=nb,
                    mem_words=mem_words)


def slate_lu(n: int, nranks: int, nb: int = 128,
             a: np.ndarray | None = None,
             rng: np.random.Generator | None = None,
             mem_words: float | None = None) -> FactorizationResult:
    """One-call SLATE-style 2D LU."""
    return run_impl("lu", "slate", n, nranks, a=a, rng=rng,
                    nb=nb, mem_words=mem_words)
