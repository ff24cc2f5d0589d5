"""COnfLUX: near-communication-optimal parallel LU (Section 7, Algorithm 1).

The matrix is processed in ``N/v`` steps over a ``[Pr, Pc, c]`` 2.5D grid
(``P1 = Pr*Pc`` ranks per layer, replication depth ``c = P*M/N^2``).  Each
step handles one ``v``-wide panel:

 1. reduce the next block column over the ``c`` layers,
 2. tournament-pivot to select the next ``v`` pivot rows (and factor A00),
 3. scatter the factored A00 and the pivot row indices,
 4. scatter A10 (1D decomposition over all ranks),
 5. reduce the ``v`` pivot rows over the layers,
 6. scatter A01,
 7. factorize A10 (local trsm, no communication),
 8. distribute A10 pieces for the 2.5D Schur update,
 9. factorize A01 (local trsm),
10. distribute A01 pieces,
11. update A11 (each layer applies its ``v/c`` reduction planes locally).

Pivot rows are *masked*, never swapped (Section 7.3): swapping in a
replicated layout would double the leading-order communication.

Per-processor I/O cost (Lemma 10): ``N^3/(P sqrt(M)) + O(M)`` — a factor
1.5 over the lower bound ``2N^3/(3 P sqrt(M))``.

:class:`ConfluxSchedule` expresses the step sequence for the execution
engine (:mod:`repro.engine`): the *trace* view is the exact per-rank
accounting above, vectorized over all steps at once; the *dense* view
executes the factorization on global NumPy arrays; the *distributed*
view runs the same eleven sub-steps through counted
:class:`~repro.machine.comm.Machine` communication on per-rank tile
stores, so received words come from actual data movement.
:func:`conflux_lu` is the one-call entry point on top of the dense
backend.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..engine.accounting import StepAccounting, butterfly_pair_exchanges
from ..engine.distops import (
    assemble_cols_1d,
    distribute_rows_1d,
    layered_reduce,
    local_panels,
    panel_fan_out_update,
    ship,
    solve_1d,
)
from ..engine.schedule import Schedule
from ..kernels import blas, flops
from ..layouts.block_cyclic import work_name
from ..machine.comm import Machine
from ..machine.grid import ProcessorGrid3D, sorted_divisors
from .common import (
    FactorizationResult,
    default_input,
    resolve_25d,
    run_impl,
    validate_problem,
)
from .pivoting import _candidate_rows

__all__ = ["ConfluxSchedule", "conflux_lu", "default_block_size"]

#: Store name of the per-layer partial-sum tiles (shared with COnfCHOX).
PARTIAL = work_name("P")

#: Store names of one step's transients — work names like the tiles', so
#: no caller operand can sit under their keys: the reduced block column
#: and pivot rows at their roots, the broadcast A00 and pivot ids, the
#: 1D A10/A01 chunks, tournament blocks in flight, and the fan-out.
CR, RR, A00, PIV, A10, A01, TP, FAN = map(
    work_name, ("cr", "rr", "a00", "piv", "a10", "a01", "tp", "fan"))


def default_block_size(n: int, nranks: int, c: int, a: int = 4,
                       max_steps: int = 4096) -> int:
    """The paper's tuned tile size ``v = a * P*M/N^2 = a * c`` for a small
    constant ``a`` (Section 7.2, "Block size v").

    ``v`` must be a multiple of the replication depth ``c`` (one reduction
    plane per layer at minimum) and divide ``N``.  We pick the smallest
    divisor of ``N`` that is a multiple of ``c`` and at least ``a * c``,
    growing it if needed so the step count ``N/v`` stays below
    ``max_steps`` (keeps trace-mode sweeps fast; communication totals are
    insensitive to ``v`` in that range because the ``O(N v)`` broadcast
    term stays lower-order).
    """
    if n <= 0 or nranks <= 0 or c <= 0:
        raise ValueError("n, nranks, c must be positive")
    want = max(a * c, c, (n + max_steps - 1) // max_steps)
    candidates = [d for d in sorted_divisors(n) if d % c == 0]
    if not candidates:
        raise ValueError(f"no tile size divides N={n} and replication c={c}")
    for d in candidates:
        if d >= want:
            return d
    return candidates[-1]


def resolve_tile(n: int, nranks: int, v: int | None, c: int) -> int:
    """COnfLUX/COnfCHOX's tile size: the tuned
    :func:`default_block_size` unless given, validated to divide ``N``
    and to hold whole reduction planes (``c | v``)."""
    if v is None:
        v = default_block_size(n, nranks, c)
    validate_problem(n, v, nranks)
    if v % c != 0:
        raise ValueError(f"v={v} must be a multiple of c={c}")
    return v


class _DenseState:
    """Global-view execution state (one replicated partial per layer)."""

    __slots__ = ("partials", "rows_left", "lower", "upper", "perm")

    def __init__(self, a: np.ndarray, n: int, c: int) -> None:
        self.partials = np.zeros((c, n, n))
        self.partials[0] = a
        self.rows_left = np.arange(n)
        self.lower = np.zeros((n, n))
        self.upper = np.zeros((n, n))
        self.perm: list[int] = []


class _DistState:
    """Distributed execution bookkeeping (data lives in rank stores;
    ``panels`` are the per-rank arrays the stored tiles are views of)."""

    __slots__ = ("panels", "rows_left", "lower", "upper", "perm")

    def __init__(self, n: int, panels: list[np.ndarray]) -> None:
        self.panels = panels
        self.rows_left = np.arange(n)
        self.lower = np.zeros((n, n))
        self.upper = np.zeros((n, n))
        self.perm: list[int] = []


class ConfluxSchedule(Schedule):
    """The eleven sub-steps of Algorithm 1 as an engine schedule."""

    name = "conflux"
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

        Leading term: one partial-sum replica of the matrix per layer —
        the paper's replication footprint ``c N^2 / P`` (``mem_words``),
        tile-granular.  On top of it, the transient working set of one
        step of Algorithm 1: the reduced block-column tiles a fiber
        root accumulates (step 1), the 1D A10/A01 chunks with their
        in-flight shipped pieces (steps 4/6/8/10), and the broadcast
        A00/pivot/tournament blocks (steps 2/3).
        """
        n, v, c = self.n, self.v, self.c
        pr, pc = self.grid.rows, self.grid.cols
        nb = n // v
        resident = math.ceil(nb / pr) * math.ceil(nb / pc) * v * v
        panel = math.ceil(nb / pr) * v * v        # step-1 "cr" blocks at a root
        chunk = (math.ceil(n / self.nranks) + v) * v   # 1D chunk + ship buffer
        small = 6 * v * v + 4 * v                 # A00, pivots, tournament
        return float(resident + panel + 4 * chunk + small)

    # ------------------------------------------------------------------
    # Trace view: exact per-rank accounting as declarative cost terms
    # ------------------------------------------------------------------
    def accounting(self, acct: StepAccounting) -> None:
        """Emit the cost terms of the 11 sub-steps.

        Masked (not yet pivoted) rows are spread uniformly over the grid
        rows — the paper's "with high probability, pivots are evenly
        distributed" assumption — so panel shares appear as affine
        ``nrem = N - t v`` profiles with ``1/Pr`` folded into the
        coefficient; columns are tile-aligned and counted exactly via
        the cyclic-ownership factor ``own=("j",)``.
        """
        n, v, c = self.n, self.v, self.c
        pr = self.grid.rows
        steps = self.steps()
        planes = v // c                       # reduction planes per layer
        nrem = acct.affine(n, -v)             # unfactored rows (and cols)
        n11 = acct.affine(n - v, -v)          # trailing extent per step
        # getrf of the (max(nrem/Pr, v) x v) local candidate panel is
        # linear in the row count m: v^2 m + K_getrf.
        k_getrf = -v ** 3 / 3.0 - v * v / 2.0 + 5.0 * v / 6.0
        # max(N - t v, v Pr): affine while N - t v >= v Pr, a tail of at
        # most Pr steps after.
        t_rows = np.arange(min(steps, max(0, (n - v * pr) // v + 1)), steps)
        m_rows = acct.tail(n, -v, np.maximum(n - v * t_rows, v * pr))

        if self.nranks == 1:
            # A single rank communicates nothing; only the compute
            # terms apply (pr = pc = 1: every tile is local).
            acct.add_flops(float(v * v), step=m_rows)
            acct.add_flops(k_getrf)
            acct.add_flops(2.0 * v * v, step=n11)
            acct.add_flops(2.0 * v * planes, step=nrem, own=("j",))
            return

        piv_layer = ("j", "k")   # panel column of step t, pivot layer

        # Step 1: reduce the block column (nrem x v) over layers.  The
        # fine-grained block-cyclic layout spreads the panel over the
        # whole machine, so the reduction is a machine-wide
        # reduce-scatter: (c-1) of the c partial copies move, evenly over
        # all P ranks (the paper's (N-tv)*v*M/N^2 per-processor cost).
        acct.add_recv(v * (c - 1.0) / self.nranks, step=nrem)

        # Step 2: tournament pivoting on [*, q_col, k_piv]: candidate
        # blocks (v rows plus their global row ids, hence width v + 1)
        # exchanged over an XOR butterfly.  Only ranks still holding
        # active panel rows participate — min(Pr, N/v tiles, remaining
        # rows) with high probability — and ragged participant counts
        # drop pairings, so the exact per-step exchange total of
        # :func:`~repro.engine.accounting.butterfly_pair_exchanges`
        # replaces a rounds-at-every-rank idealization, spread uniformly
        # over the panel column's pivot-layer ranks.  The participant
        # count is min(Pr, N/v) until fewer rows remain, so every
        # per-step count is a constant head plus a tail of at most Pr/v
        # steps; entry 0 below is the head's.
        m_all = min(pr, n // v)
        t_part = np.arange(min(steps, (n - m_all) // v + 1), steps)
        m_t = np.concatenate(([m_all], np.minimum(m_all, n - v * t_part)))
        exch_t = butterfly_pair_exchanges(m_t)
        exch = acct.tail(exch_t[0], 0, exch_t[1:])
        acct.add_recv(v * (v + 1.0) / pr, step=exch, gate=piv_layer,
                      msgs=1.0 / pr, msgs_step=exch)
        acct.add_flops(v * v / pr, step=m_rows, gate=piv_layer)
        acct.add_flops(k_getrf, gate=piv_layer)
        rounds_m = np.ceil(np.log2(np.maximum(m_t, 1))) * m_t
        acct.add_flops(flops.getrf_flops(2 * v, v) / pr,
                       step=acct.tail(rounds_m[0], 0, rounds_m[1:]),
                       gate=piv_layer)

        # Step 3: broadcast factored A00 (v^2) + v pivot indices to all.
        acct.add_recv(float(v * v + v))

        # Step 4: scatter A10 ((nrem - v) x v) 1D over all P ranks.
        acct.add_recv(v / self.nranks, step=n11)

        # Step 5: reduce the v pivot rows (v x n11) over layers — same
        # machine-wide reduce-scatter convention as step 1 (pivot rows
        # are spread evenly over the ranks with high probability).
        acct.add_recv(v * (c - 1.0) / self.nranks, step=n11)

        # Step 6: scatter A01 (v x n11) 1D over all P ranks.
        acct.add_recv(v / self.nranks, step=n11)

        # Steps 7 and 9: local trsm on the 1D-decomposed panels.
        acct.add_flops(2.0 * v * v / self.nranks, step=n11)

        # Step 8: distribute A10 — each rank needs the rows matching its
        # local trailing tiles restricted to its layer's v/c planes.
        acct.add_recv(planes / pr, step=acct.affine(n, -v, hi=steps - 1))

        # Step 10: distribute A01 — the columns matching local tiles.
        acct.add_recv(float(v * planes), own=("j",))

        # Step 11: local Schur update (gemm, 2mnk flops), no
        # communication.
        acct.add_flops(2.0 * v * planes / pr, step=nrem, own=("j",))

    # ------------------------------------------------------------------
    # Dense view: global-view numerics
    # ------------------------------------------------------------------
    def dense_init(self, a: np.ndarray | None,
                   rng: np.random.Generator | None) -> _DenseState:
        # partials[k] = layer k's accumulated contribution; the current
        # Schur complement of any untouched entry is sum over layers.
        return _DenseState(default_input(self.n, a, rng), self.n, self.c)

    def dense_step(self, state: _DenseState, t: int) -> None:
        from .pivoting import tournament_pivot

        n, v, c = self.n, self.v, self.c
        pr = self.grid.rows
        nrem = n - t * v
        n11 = nrem - v
        partials, rows_left = state.partials, state.rows_left
        col0, col1 = t * v, (t + 1) * v
        # Step 1: reduce the block column over layers.
        colpanel = partials[:, rows_left, col0:col1].sum(axis=0)
        # Step 2: tournament pivoting + A00 factorization.
        tres = tournament_pivot(colpanel, v, parts=pr)
        piv_local = tres.winners
        piv_global = rows_left[piv_local]
        l00 = np.tril(tres.lu00, -1) + np.eye(v)
        u00 = np.triu(tres.lu00)
        mask = np.ones(rows_left.size, dtype=bool)
        mask[piv_local] = False
        nonpiv_global = rows_left[mask]
        # Step 5: reduce the pivot rows' trailing part over layers.
        rowpanel = partials[:, piv_global, col1:].sum(axis=0)
        # Step 7: A10 <- A10 * U00^{-1} (the L entries).
        if nonpiv_global.size:
            a10, _ = blas.trsm(u00, colpanel[mask], side="right",
                               lower=False)
        else:
            a10 = np.zeros((0, v))
        # Step 9: A01 <- L00^{-1} * A01 (the U entries).
        if n11 > 0:
            a01, _ = blas.trsm(l00, rowpanel, side="left", lower=True,
                               unit_diagonal=True)
        else:
            a01 = np.zeros((v, 0))
        # Step 11: layered Schur update — each layer applies its
        # v/c reduction planes to its private accumulator.
        if n11 > 0 and nonpiv_global.size:
            planes = v // c
            cols = np.arange(col1, n)
            for k in range(c):
                sl = slice(k * planes, (k + 1) * planes)
                partials[k][np.ix_(nonpiv_global, cols)] -= (
                    a10[:, sl] @ a01[sl, :])
        # Assemble factors (pivot rows keep their global ids;
        # the permutation orders them at the end — row masking).
        state.lower[piv_global, col0:col1] = l00
        if nonpiv_global.size:
            state.lower[nonpiv_global, col0:col1] = a10
        state.upper[col0:col1, col0:col1] = u00
        state.upper[col0:col1, col1:] = a01
        state.perm.extend(int(r) for r in piv_global)
        state.rows_left = nonpiv_global

    def dense_finalize(self, state: _DenseState) -> dict[str, Any]:
        perm = np.asarray(state.perm)
        return {"lower": state.lower[perm], "upper": state.upper,
                "perm": perm}

    # ------------------------------------------------------------------
    # Distributed view: the same sub-steps through Machine communication
    # ------------------------------------------------------------------
    def dist_init(self, machine: Machine, a: np.ndarray | None,
                  rng: np.random.Generator | None,
                  in_name: str | None = None) -> _DistState:
        """Lay out the per-layer partials as v x v tiles in rank stores
        (views of :func:`~repro.engine.distops.local_panels`).

        Layer 0 holds the input (either scattered from a dense ``a`` or
        adopted from existing ``(in_name, bi, bj)`` tiles, e.g. after a
        COSTA reshuffle); layers 1..c-1 start from zero partials.
        Initial placement is free — the paper assumes the input already
        resides in the algorithm's layout (Section 7.4).
        """
        n, v = self.n, self.v
        if in_name is None:
            a = default_input(n, a, rng)
        return _DistState(n, local_panels(machine, self.grid, n // v, v,
                                          PARTIAL, a, in_name))

    def dist_step(self, machine: Machine, st: _DistState, t: int) -> None:
        n, v, c = self.n, self.v, self.c
        grid = self.grid
        P = self.nranks
        nb = n // v
        k_piv = t % c
        col0, col1 = t * v, (t + 1) * v
        n11 = n - col1
        active = st.rows_left
        all_ranks = list(range(P))

        # Step 1: reduce the block column's active rows over the layers
        # onto the pivot layer's panel-column ranks.
        column = layered_reduce(machine, grid, st.panels, v, active,
                                t, t + 1, k_piv, (CR, t))

        # Step 2: tournament pivoting among the panel-column ranks.
        winners, lu00, tour_root = self._dist_tournament(
            machine, [(root, active[rsel], block)
                      for root, rsel, _, block in column], t)

        # Step 3: broadcast the factored A00 and the pivot ids to all.
        machine.store(tour_root).put((A00, t), lu00)
        machine.bcast(tour_root, all_ranks, (A00, t))
        machine.store(tour_root).put((PIV, t), winners.astype(np.float64))
        machine.bcast(tour_root, all_ranks, (PIV, t))

        masked = np.ones(active.size, dtype=bool)
        masked[np.searchsorted(active, winners)] = False
        nonpiv = active[masked]
        st.lower[winners, col0:col1] = np.tril(lu00, -1) + np.eye(v)
        st.upper[col0:col1, col0:col1] = np.triu(lu00)
        st.perm.extend(winners.tolist())

        # Steps 4 + 7: scatter A10 1D over all ranks, then local trsm
        # against the U00 triangle of each rank's broadcast A00 copy.
        if nonpiv.size:
            a10 = distribute_rows_1d(
                machine, [(root, active[rsel][keep], block[keep])
                          for root, rsel, _, block in column
                          if (keep := masked[rsel]).any()], P, (A10, t))
            solve_1d(machine, a10, (A00, t))
            st.lower[a10.ids, col0:col1] = a10.rows
        for root, _, _, _ in column:
            machine.store(root).discard((CR, t))

        # Steps 5 + 6 + 9: reduce the pivot rows over layers, scatter
        # the A01 panel 1D by columns (one row per column: A01
        # transposed), local trsm against the unit L00 triangle.
        if n11 > 0:
            pivot_rows = layered_reduce(machine, grid, st.panels, v, winners,
                                        t + 1, nb, k_piv, (RR, t))
            a01t = assemble_cols_1d(machine, pivot_rows, winners,
                                    np.arange(col1, n), P, v, (A01, t))
            for root, _, _, _ in pivot_rows:
                machine.store(root).discard((RR, t))
            solve_1d(machine, a01t, (A00, t), unit_diagonal=True,
                     transpose=True)
            st.upper[col0:col1, col1:] = a01t.rows.T

        # Steps 8 + 10 + 11: distribute the panel pieces each rank's
        # trailing tiles need (its grid row's A10 rows, its grid
        # column's A01 columns, its layer's v/c planes) and apply the
        # local Schur update.
        if n11 > 0 and nonpiv.size:
            panel_fan_out_update(machine, grid, st.panels, v, a10, a01t,
                                 (FAN, t))

        for store in machine.stores:
            store.discard((A00, t), (PIV, t), (A10, t), (A01, t))
        st.rows_left = nonpiv

    def _dist_tournament(self, machine: Machine,
                         parts: list[tuple[int, np.ndarray, np.ndarray]],
                         t: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Butterfly tournament over the panel-column ranks.

        Each participant selects ``v`` local candidate rows, then
        exchanges candidate blocks (rows + their global ids) with its
        XOR partner for ``ceil(log2(parts))`` rounds; participant 0's
        accumulated set is complete, so it plays the final LU and
        becomes the broadcast root of step 3.
        """
        v = self.v
        sets: list[tuple[int, np.ndarray, np.ndarray]] = []
        for rank, ids, block in parts:
            cand = _candidate_rows(block, v)
            machine.compute(rank, flops.getrf_flops(block.shape[0], v))
            sets.append((rank, ids[cand], block[cand]))
        length = len(sets)
        r = 0
        while (1 << r) < length:
            nxt = list(sets)
            for i in range(length):
                j = i ^ (1 << r)
                if j >= length or j < i:
                    continue
                ri, ids_i, blk_i = sets[i]
                rj, ids_j, blk_j = sets[j]
                ship(machine, ri, rj, (TP, t, r, i),
                     np.hstack([blk_i, ids_i[:, None].astype(np.float64)]))
                ship(machine, rj, ri, (TP, t, r, j),
                     np.hstack([blk_j, ids_j[:, None].astype(np.float64)]))
                machine.store(ri).discard((TP, t, r, j))
                machine.store(rj).discard((TP, t, r, i))
                ids = np.concatenate([ids_i, ids_j])
                blk = np.vstack([blk_i, blk_j])
                cand = _candidate_rows(blk, v)
                fl = flops.getrf_flops(blk.shape[0], v)
                machine.compute(ri, fl)
                machine.compute(rj, fl)
                nxt[i] = (ri, ids[cand], blk[cand])
                nxt[j] = (rj, ids[cand], blk[cand])
            sets = nxt
            r += 1
        root, ids, blk = sets[0]
        if ids.size < v:
            raise ValueError(
                f"tournament selected {ids.size} rows < v={v} "
                "(rank-deficient panel)")
        lu, piv, fl = blas.getrf(blk[:, :v], tolerant=True)
        perm = blas.pivots_to_permutation(piv, ids.size)
        winners = ids[perm[:v]]
        lu00, _, fl2 = blas.getrf(blk[perm[:v], :v], pivot=False)
        machine.compute(root, fl + fl2)
        return winners, lu00, root

    def dist_finalize(self, machine: Machine,
                      st: _DistState) -> dict[str, Any]:
        perm = np.asarray(st.perm)
        return {"lower": st.lower[perm], "upper": st.upper, "perm": perm}


def conflux_lu(n: int, nranks: int, v: int | None = None,
               c: int | None = None, mem_words: float | None = None,
               a: np.ndarray | None = None,
               rng: np.random.Generator | None = None) -> FactorizationResult:
    """One-call COnfLUX: factorize an ``n x n`` system on ``nranks``
    simulated processors on the dense backend (real factors, analytic
    counters).  For message-passing execution hand a
    :class:`ConfluxSchedule` to
    :class:`~repro.engine.backends.DistributedBackend`; for counters
    alone at paper scale, to :func:`repro.analysis.harness.trace`."""
    return run_impl("lu", "conflux", n, nranks, a=a, rng=rng,
                    v=v, c=c, mem_words=mem_words)
