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
block-cyclic owner's store: the panel is factored column by column with
counted MAXLOC pivot-search allreduces, pivot rows are exchanged across
the whole matrix (``laswp``), and the L/U panels broadcast along grid
rows/columns before the local trailing update.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ...engine.accounting import StepAccounting
from ...engine.distops import bcast_copy, maxloc_allreduce, swap_rows_2d
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

__all__ = ["ScalapackLUSchedule", "scalapack_lu", "slate_lu"]

#: Store name of the in-place working matrix (not the caller's operand).
WORK = work_name("A")

#: Store names of a step's transients: MAXLOC pairs, the eliminating
#: row, the re-broadcast panel tiles and the diagonal tile's copy.
PIV, ELIM, PRB, DIAG = map(work_name, ("piv", "elim", "prb", "d"))


class _DenseState:
    __slots__ = ("work", "piv_all")

    def __init__(self, work: np.ndarray, n: int) -> None:
        self.work = work
        self.piv_all = np.zeros(n, dtype=int)


class _DistState:
    """Distributed bookkeeping: tiles live in the rank stores."""

    __slots__ = ("layout", "piv_all")

    def __init__(self, layout: BlockCyclicLayout, n: int) -> None:
        self.layout = layout
        self.piv_all = np.zeros(n, dtype=int)


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
                   rng: np.random.Generator | None) -> _DenseState:
        return _DenseState(default_input(self.n, a, rng).copy(), self.n)

    def dense_step(self, state: _DenseState, k: int) -> None:
        n, nb = self.n, self.nb
        work, piv_all = state.work, state.piv_all
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

    def dense_finalize(self, state: _DenseState) -> dict[str, Any]:
        n = self.n
        work = state.work
        perm = blas.pivots_to_permutation(state.piv_all, n)
        return {"lower": np.tril(work, -1) + np.eye(n),
                "upper": np.triu(work), "perm": perm}

    # ------------------------------------------------------------------
    # Distributed view: the same loop through Machine collectives
    # ------------------------------------------------------------------
    def dist_init(self, machine: Machine, a: np.ndarray | None,
                  rng: np.random.Generator | None,
                  in_name: str | None = None) -> _DistState:
        """Scatter the ``nb x nb`` block-cyclic tiles to their owners.

        Initial placement is free (the input is assumed resident in the
        algorithm's layout, as for the 2.5D schedules); with ``in_name``
        existing ``(in_name, bi, bj)`` tiles are adopted in place, e.g.
        after a COSTA reshuffle.
        """
        n, nb = self.n, self.nb
        lay = BlockCyclicLayout(n, n, nb, nb, self.grid.layer_grid())
        if in_name is not None:
            for bi in range(lay.mblocks):
                for bj in range(lay.nblocks):
                    r = lay.owner_rank(bi, bj)
                    tile = machine.store(r).get((in_name, bi, bj))
                    machine.store(r).put(block_key(WORK, bi, bj),
                                         np.array(tile, dtype=np.float64))
        else:
            lay.scatter_from(machine, WORK, default_input(n, a, rng))
        return _DistState(lay, n)

    def dist_step(self, machine: Machine, st: _DistState, k: int) -> None:
        n, nb = self.n, self.nb
        lay = st.layout
        grid2d = lay.grid
        pr, pc = grid2d.rows, grid2d.cols
        nblocks = n // nb
        qc, qr = k % pc, k % pr
        c0 = k * nb
        diag_owner = lay.owner_rank(k, k)
        col_ranks = grid2d.col_ranks(qc)

        # --- Panel factorization: column-by-column partial pivoting
        # over rows c0..n-1 of block column k (the arithmetic of the
        # unblocked getrf the dense view runs on the same panel). ---
        for j in range(nb):
            g = c0 + j
            # Local pivot candidates per owning rank, then a counted
            # MAXLOC allreduce over the panel's grid column.
            entries: dict[int, tuple[float, int]] = {}
            for bi, r in lay.col_owners(k, first=k):
                tile = machine.store(r).get(block_key(WORK, bi, k))
                r0 = j if bi == k else 0
                col = np.abs(tile[r0:, j])
                if col.size == 0:
                    continue
                i_loc = int(np.argmax(col))
                cand = (float(col[i_loc]), bi * nb + r0 + i_loc)
                if r not in entries or (cand[0], -cand[1]) > (
                        entries[r][0], -entries[r][1]):
                    entries[r] = cand
            _, p_global = maxloc_allreduce(machine, (PIV, k, j), entries)
            st.piv_all[g] = p_global
            if p_global != g:
                swap_rows_2d(machine, lay, WORK, g, p_global)
            # Broadcast the eliminating row (pivot value + trailing
            # panel columns) from the diagonal tile's owner to the
            # grid-column ranks still holding rows below it.
            diag_tile = machine.store(diag_owner).get(block_key(WORK, k, k))
            elim = diag_tile[j, j:].copy()
            below = sorted({r for bi, r in lay.col_owners(k, first=k)
                            if bi * nb + nb - 1 > g} | {diag_owner})
            machine.store(diag_owner).put((ELIM, k, j), elim)
            machine.bcast(diag_owner, below, (ELIM, k, j))
            for bi, r in lay.col_owners(k, first=k):
                r0 = j + 1 if bi == k else 0
                if r0 >= nb:
                    continue
                e = machine.store(r).get((ELIM, k, j))
                tile = machine.store(r).get(block_key(WORK, bi, k))
                mult = tile[r0:, j] / e[0]
                tile[r0:, j] = mult
                if j + 1 < nb:
                    tile[r0:, j + 1:] -= np.outer(mult, e[1:])
                machine.compute(r, 2.0 * mult.size * (nb - j))
            for r in below:
                machine.store(r).discard((ELIM, k, j))

        if self.panel_rebroadcast:
            # MKL-style column-by-column panel broadcast: the grid
            # column sees the finished multipliers a second time.
            for bi, src in lay.col_owners(k, first=k):
                bcast_copy(machine, src, block_key(WORK, bi, k),
                           col_ranks, (PRB, k, bi))
                for r in col_ranks:
                    machine.store(r).discard((PRB, k, bi))

        if k + 1 >= nblocks:
            return

        # --- U row panel: ship the factored diagonal tile along grid
        # row q_row, trsm each U tile at its owner. ---
        row_ranks = grid2d.row_ranks(qr)
        bcast_copy(machine, diag_owner, block_key(WORK, k, k),
                   row_ranks, (DIAG, k))
        for bj, r in lay.row_owners(k, first=k + 1):
            lu_kk = machine.store(r).get((DIAG, k))
            l_kk = np.tril(lu_kk, -1) + np.eye(nb)
            tile = machine.store(r).get(block_key(WORK, k, bj))
            sol, fl = blas.trsm(l_kk, tile, side="left", lower=True,
                                unit_diagonal=True)
            machine.compute(r, fl)
            machine.store(r).put(block_key(WORK, k, bj), sol)

        # --- Broadcast panels: L tiles along their grid rows, U tiles
        # along their grid columns. ---
        for bi, src in lay.col_owners(k, first=k + 1):
            machine.bcast(src, lay.grid_row_ranks(bi), block_key(WORK, bi, k))
        for bj, src in lay.row_owners(k, first=k + 1):
            machine.bcast(src, lay.grid_col_ranks(bj), block_key(WORK, k, bj))

        # --- Trailing update: each owner updates its tiles from the
        # received panel copies. ---
        for bi in range(k + 1, nblocks):
            for bj in range(k + 1, nblocks):
                owner = lay.owner_rank(bi, bj)
                l_t = machine.store(owner).get(block_key(WORK, bi, k))
                u_t = machine.store(owner).get(block_key(WORK, k, bj))
                c_t = machine.store(owner).get(block_key(WORK, bi, bj))
                upd, fl = blas.gemm(l_t, u_t, c_t, alpha=-1.0)
                machine.compute(owner, fl)
                machine.store(owner).put(block_key(WORK, bi, bj), upd)

        # Drop the transient panel copies on non-owners.
        for bi, src in lay.col_owners(k, first=k + 1):
            for r in lay.grid_row_ranks(bi):
                if r != src:
                    machine.store(r).discard(block_key(WORK, bi, k))
        for bj, src in lay.row_owners(k, first=k + 1):
            for r in lay.grid_col_ranks(bj):
                if r != src:
                    machine.store(r).discard(block_key(WORK, k, bj))
        for r in row_ranks:
            machine.store(r).discard((DIAG, k))

    def dist_finalize(self, machine: Machine,
                      st: _DistState) -> dict[str, Any]:
        n = self.n
        packed = st.layout.gather_to(machine, WORK)
        perm = blas.pivots_to_permutation(st.piv_all, n)
        return {"lower": np.tril(packed, -1) + np.eye(n),
                "upper": np.triu(packed), "perm": perm}


def scalapack_lu(n: int, nranks: int, nb: int = 128, execute: bool = True,
                 a: np.ndarray | None = None,
                 rng: np.random.Generator | None = None,
                 panel_rebroadcast: bool = True,
                 mem_words: float | None = None) -> FactorizationResult:
    """One-call 2D ScaLAPACK/MKL-style LU."""
    return run_impl("lu", "mkl", n, nranks, execute, a=a, rng=rng, nb=nb,
                    panel_rebroadcast=panel_rebroadcast,
                    mem_words=mem_words)


def slate_lu(n: int, nranks: int, nb: int = 128, execute: bool = True,
             a: np.ndarray | None = None,
             rng: np.random.Generator | None = None,
             mem_words: float | None = None) -> FactorizationResult:
    """One-call SLATE-style 2D LU."""
    return run_impl("lu", "slate", n, nranks, execute, a=a, rng=rng,
                    nb=nb, mem_words=mem_words)
