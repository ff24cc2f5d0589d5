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

Algorithm 1 is written once, as the engine schedule
:class:`_Algorithm1`; two hooks make it COnfLUX or COnfCHOX
(:mod:`repro.factorizations.confchox`): the *pivot policy* (COnfLUX's
tournament, row masking, pivot ids and A01 panel) and the *update
shape* (full, or the lower triangle).  Its *trace* view is the exact
per-rank accounting, vectorized over all steps at once; its
*distributed* view runs the sub-steps through counted
:class:`~repro.machine.comm.Machine` communication on per-rank tile
stores.  :func:`conflux_lu` is the one-call entry point (a global-view
*dense* view remains as the benchmark's machine-free reference).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..engine.accounting import StepAccounting, butterfly_pair_exchanges
from ..engine.distops import (
    Panel1D,
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

#: Store name of the per-layer partial-sum tiles.
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
    constant ``a`` (Section 7.2, "Block size v"): the smallest divisor
    of ``N`` that is a multiple of ``c`` (one reduction plane per layer)
    and at least ``a * c``, grown if needed so that ``N/v`` stays below
    ``max_steps`` (fast traces; totals are insensitive to ``v`` there,
    the ``O(N v)`` broadcast term being lower-order)."""
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


class _Algorithm1(Schedule):
    """Algorithm 1 on the 2.5D grid.  A subclass sets the hooks: the
    pivot policy (:attr:`pivoting`, :meth:`_factor_a00`, the terms of
    :meth:`_pivot_terms` and :meth:`_panel_terms`) and the update shape
    (:attr:`lower`: keep and update only the tiles ``bi >= bj``)."""

    supports_distributed = True
    pivoting: bool
    lower: bool

    def __init__(self, n: int, nranks: int, v: int | None = None,
                 c: int | None = None, mem_words: float | None = None,
                 grid: ProcessorGrid3D | None = None) -> None:
        c, mem_words, grid = resolve_25d(n, nranks, c, mem_words, grid)
        self.n = n
        self.nranks = nranks
        if v is None:
            v = default_block_size(n, nranks, c)
        validate_problem(n, v, nranks)
        if v % c != 0:
            raise ValueError(f"v={v} must be a multiple of c={c}")
        self.v = v
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
        """Per-rank capacity sufficient for the distributed view: a
        tile-granular partial-sum replica per layer, ``c N^2 / P``, plus
        one step's transients (reduced block column, 1D chunks in flight,
        A00, with pivoting the ids and the tournament)."""
        n, v = self.n, self.v
        pr, pc = self.grid.rows, self.grid.cols
        nb = n // v
        resident = math.ceil(nb / pr) * math.ceil(nb / pc) * v * v
        panel = math.ceil(nb / pr) * v * v        # step-1 "cr" blocks at a root
        chunk = (math.ceil(n / self.nranks) + v) * v   # 1D chunk + ship buffer
        small = 6 * v * v + 4 * v if self.pivoting else 3 * v * v
        return float(resident + panel + 4 * chunk + small)

    # ------------------------------------------------------------------
    # Trace view: exact per-rank accounting as declarative cost terms
    # ------------------------------------------------------------------
    def accounting(self, acct: StepAccounting) -> None:
        """Emit the cost terms of Algorithm 1 in step order, the policy's
        among them.  A lone rank receives nothing: only flops apply."""
        n, v, c, P = self.n, self.v, self.c, self.nranks
        nrem = acct.affine(n, -v)             # unfactored rows (and cols)
        n11 = acct.affine(n - v, -v)          # trailing extent per step
        recv = acct.add_recv if P > 1 else lambda *_, **__: None

        # Step 1: reduce the block column (nrem x v) over layers, a
        # machine-wide reduce-scatter: (c-1) of the c partial copies move,
        # evenly over all P ranks (the paper's (N-tv)*v*M/N^2 per rank).
        recv(v * (c - 1.0) / P, step=nrem)
        self._pivot_terms(acct, recv)
        # Step 3: broadcast the factored A00 (v^2, Table 1) to all, with
        # pivoting also the v pivot indices.
        recv(float(v * v + v * self.pivoting))
        # Step 4: scatter A10 ((nrem - v) x v) 1D over all P ranks.
        recv(v / P, step=n11)
        self._panel_terms(acct, recv, nrem, n11)

    # ------------------------------------------------------------------
    # Distributed view: the same sub-steps through Machine communication
    # ------------------------------------------------------------------
    def dist_init(self, machine: Machine, a: np.ndarray | None,
                  rng: np.random.Generator | None,
                  in_name: str | None = None) -> _DistState:
        """Lay out the per-layer partials as v x v tiles (views of
        :func:`~repro.engine.distops.local_panels`; with :attr:`lower`
        only ``bi >= bj``).  Layer 0 holds the input, scattered from
        ``a`` or adopted from ``(in_name, bi, bj)`` tiles; the others
        start from zeros.  Initial placement is free (Section 7.4)."""
        n, v = self.n, self.v
        if in_name is None:
            a = default_input(n, a, rng, spd=self.lower)
        return _DistState(n, local_panels(machine, self.grid, n // v, v,
                                          PARTIAL, a, in_name,
                                          lower=self.lower))

    def dist_step(self, machine: Machine, st: _DistState, t: int) -> None:
        n, v = self.n, self.v
        P = self.nranks
        k_piv = t % self.c                    # the pivot layer
        col0, col1 = t * v, (t + 1) * v
        active = st.rows_left

        # Step 1: reduce the block column's active rows over the layers
        # onto the pivot layer's panel-column ranks.
        column = layered_reduce(machine, self.grid, st.panels, v, active,
                                t, t + 1, k_piv, (CR, t))

        # Steps 2 + 3: factor A00 at a root, broadcast it (and the ids).
        root, a00, pivots = self._factor_a00(machine, st, column, t)
        all_ranks = list(range(P))
        machine.store(root).put((A00, t), a00)
        machine.bcast(root, all_ranks, (A00, t))
        if self.pivoting:
            machine.store(root).put((PIV, t), pivots.astype(np.float64))
            machine.bcast(root, all_ranks, (PIV, t))
        masked = np.ones(active.size, dtype=bool)
        masked[np.searchsorted(active, pivots)] = False

        if col1 < n:
            # Steps 4 + 7: scatter A10 1D over all ranks, local trsm
            # against the broadcast U00 (or the Cholesky factor's L00^T).
            a10 = distribute_rows_1d(
                machine, [(root, active[rsel][keep], block[keep])
                          for root, rsel, _, block in column
                          if (keep := masked[rsel]).any()], P, (A10, t))
            solve_1d(machine, a10, (A00, t), transpose=not self.pivoting)
            st.lower[a10.ids, col0:col1] = a10.rows
            # Steps 5 + 6 + 9; without pivoting A01 = A10^T.
            a01t = (self._a01_panel(machine, st, column, pivots, k_piv, t)
                    if self.pivoting else a10)
            # Steps 8 + 10 + 11: fan out the pieces each rank's trailing
            # tiles need (its layer's v/c planes), local Schur update.
            panel_fan_out_update(machine, self.grid, st.panels, v, a10,
                                 a01t, (FAN, t), lower=self.lower)

        # The step's transients (with pivoting, the column went at step 5).
        for store in machine.stores:
            store.discard((CR, t), (A00, t), (PIV, t), (A10, t), (A01, t))
        st.rows_left = active[masked]

    def dist_finalize(self, machine: Machine,
                      st: _DistState) -> dict[str, Any]:
        if not self.pivoting:
            return {"lower": st.lower}
        perm = np.asarray(st.perm)
        return {"lower": st.lower[perm], "upper": st.upper, "perm": perm}


class ConfluxSchedule(_Algorithm1):
    """The eleven sub-steps of Algorithm 1 as an engine schedule:
    tournament pivoting with row masking, a full trailing update."""

    name = "conflux"
    pivoting = True
    lower = False

    def _pivot_terms(self, acct: StepAccounting, recv) -> None:
        """Step 2: tournament pivoting on [*, q_col, k_piv].  Masked rows
        are spread uniformly over the grid rows (whp), so panel shares
        are ``nrem = N - t v`` profiles with ``1/Pr`` in the coefficient.
        Candidate blocks (v rows plus ids, width v + 1) cross an XOR
        butterfly of min(Pr, N/v, rows left) participants: the exact
        :func:`~repro.engine.accounting.butterfly_pair_exchanges`, a
        constant head plus a tail of at most Pr/v steps."""
        n, v = self.n, self.v
        pr = self.grid.rows
        steps = self.steps()
        piv_layer = ("j", "k")   # panel column of step t, pivot layer
        # getrf of the max(nrem/Pr, v) x v candidate panel: v^2 m + K.
        k_getrf = -v ** 3 / 3.0 - v * v / 2.0 + 5.0 * v / 6.0
        # max(N - t v, v Pr): affine, then a tail of at most Pr steps.
        t_rows = np.arange(min(steps, max(0, (n - v * pr) // v + 1)), steps)
        m_rows = acct.tail(n, -v, np.maximum(n - v * t_rows, v * pr))
        m_all = min(pr, n // v)
        t_part = np.arange(min(steps, (n - m_all) // v + 1), steps)
        m_t = np.concatenate(([m_all], np.minimum(m_all, n - v * t_part)))
        exch_t = butterfly_pair_exchanges(m_t)
        exch = acct.tail(exch_t[0], 0, exch_t[1:])
        recv(v * (v + 1.0) / pr, step=exch, gate=piv_layer,
             msgs=1.0 / pr, msgs_step=exch)
        acct.add_flops(v * v / pr, step=m_rows, gate=piv_layer)
        acct.add_flops(k_getrf, gate=piv_layer)
        rounds_m = np.ceil(np.log2(np.maximum(m_t, 1))) * m_t
        acct.add_flops(flops.getrf_flops(2 * v, v) / pr,
                       step=acct.tail(rounds_m[0], 0, rounds_m[1:]),
                       gate=piv_layer)

    def _panel_terms(self, acct: StepAccounting, recv, nrem, n11) -> None:
        """Steps 5 to 11: the pivot rows' reduce and A01 scatter, the
        two local trsms, both panels' fan-out and the Schur update."""
        n, v, c, P = self.n, self.v, self.c, self.nranks
        pr = self.grid.rows
        planes = v // c                       # reduction planes per layer
        # Step 5: reduce the v pivot rows (v x n11) over layers, as step
        # 1 (pivot rows are spread evenly over the ranks whp).
        recv(v * (c - 1.0) / P, step=n11)
        # Step 6: scatter A01 (v x n11) 1D over all P ranks.
        recv(v / P, step=n11)
        # Steps 7 and 9: local trsm on the 1D-decomposed panels.
        acct.add_flops(2.0 * v * v / P, step=n11)
        # Step 8: distribute A10 — each rank needs the rows matching its
        # local trailing tiles restricted to its layer's v/c planes.
        recv(planes / pr, step=acct.affine(n, -v, hi=self.steps() - 1))
        # Step 10: distribute A01 — the columns matching local tiles.
        recv(float(v * planes), own=("j",))
        # Step 11: local Schur update (gemm, 2mnk flops).
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

    def _factor_a00(self, machine: Machine, st: _DistState, column: list,
                    t: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Step 2: butterfly tournament over the panel-column ranks.

        Each participant selects ``v`` local candidate rows, then
        exchanges candidate blocks (rows + their global ids) with its
        XOR partner for ``ceil(log2(parts))`` rounds; participant 0's
        set is complete, so it plays the final LU and is the root of
        step 3.  Returns the root, A00's ``getrf`` and the winners.
        """
        v = self.v
        sets: list[tuple[int, np.ndarray, np.ndarray]] = []
        for rank, rsel, _, block in column:
            cand = _candidate_rows(block, v)
            machine.compute(rank, flops.getrf_flops(block.shape[0], v))
            sets.append((rank, st.rows_left[rsel][cand], block[cand]))
        length = len(sets)
        for r in range((length - 1).bit_length()):
            for i in range(length):
                j = i ^ (1 << r)
                if not i < j < length:
                    continue            # pairs are disjoint: update in place
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
                sets[i] = (ri, ids[cand], blk[cand])
                sets[j] = (rj, ids[cand], blk[cand])
        root, ids, blk = sets[0]
        if ids.size < v:
            raise ValueError(
                f"tournament selected {ids.size} rows < v={v} "
                "(rank-deficient panel)")
        lu, piv, fl = blas.getrf(blk[:, :v])
        perm = blas.pivots_to_permutation(piv, ids.size)
        machine.compute(root, fl)
        winners, lu00 = ids[perm[:v]], lu[:v]
        st.lower[winners, t * v:(t + 1) * v] = np.tril(lu00, -1) + np.eye(v)
        st.upper[t * v:(t + 1) * v, t * v:(t + 1) * v] = np.triu(lu00)
        st.perm.extend(winners.tolist())
        return root, lu00, winners

    def _a01_panel(self, machine: Machine, st: _DistState, column: list,
                   winners: np.ndarray, k_piv: int, t: int) -> Panel1D:
        """Steps 5 + 6 + 9: free the reduced block column, reduce the
        pivot rows over the layers onto the pivot layer, scatter the
        A01 panel 1D by columns (one row per column: A01 transposed)
        and solve it locally against the unit L00 triangle."""
        n, v = self.n, self.v
        col1 = (t + 1) * v
        for root, _, _, _ in column:
            machine.store(root).discard((CR, t))
        pivot_rows = layered_reduce(machine, self.grid, st.panels, v,
                                    winners, t + 1, n // v, k_piv, (RR, t))
        a01t = assemble_cols_1d(machine, pivot_rows, winners,
                                np.arange(col1, n), self.nranks, v, (A01, t))
        for root, _, _, _ in pivot_rows:
            machine.store(root).discard((RR, t))
        solve_1d(machine, a01t, (A00, t), unit_diagonal=True, transpose=True)
        st.upper[t * v:col1, col1:] = a01t.rows.T
        return a01t


def conflux_lu(n: int, nranks: int, v: int | None = None,
               c: int | None = None, mem_words: float | None = None,
               a: np.ndarray | None = None,
               rng: np.random.Generator | None = None) -> FactorizationResult:
    """One-call COnfLUX: factorize an ``n x n`` system on ``nranks``
    simulated processors of a fresh, unbounded machine (real factors,
    counted words — the run ``pdgetrf(..., impl="conflux")`` makes).
    To run on a machine of your own hand a :class:`ConfluxSchedule` to
    :class:`~repro.engine.backends.DistributedBackend`; for counters
    alone at paper scale, to :func:`repro.analysis.harness.trace`."""
    return run_impl("lu", "conflux", n, nranks, a=a, rng=rng,
                    v=v, c=c, mem_words=mem_words)
