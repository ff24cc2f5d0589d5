"""2.5D matrix multiplication (the SC19 near-optimal MMM substrate).

The paper's framework and the COnfLUX/COnfCHOX schedules build directly
on the authors' earlier SC19 result (Kwasniewski et al., "Red-Blue
Pebbling Revisited") whose parallel bound ``2N^3/(P sqrt(M))`` this repo
uses as the matmul cross-check.  This module implements the matching
algorithm — a 2.5D SUMMA: ``C = A @ B`` on a ``[Pr, Pc, c]`` grid where
each layer computes a disjoint ``1/c`` slice of the reduction dimension
and the slices are combined by one machine-wide reduce-scatter.

Per-rank communication: each of the ``K/(s c)`` SUMMA rounds broadcasts
an A panel (``rows_local x s``) along grid rows and a B panel along grid
columns, and the final reduction moves ``(c-1)/c`` of each rank's C
share once:

    Q = N^2/(Pr c) * K/(...)  ~  2 N^3 / (P sqrt(M)) + O(N^2/P)

— matching the SC19 bound's leading constant, which the tests check.

The algorithm is an engine :class:`~repro.engine.schedule.Schedule`
whose step sequence is the SUMMA rounds plus one final reduction step.
Besides the trace view it has a distributed view (and the dense
reference the benchmark times): the distributed view holds each
layer's ``A``/``B`` copy as one contiguous block per rank — rows
(columns) cut into ``Pr`` (``Pc``) blocks at ``i N // Pr``, so any grid
runs — as read-only views of one array, charges the round's strips as
broadcasts along grid rows/columns and accumulates in place, and
combines the per-layer ``C`` partials with a fiber reduce-scatter of
exactly the trace's ``(c-1) N^2`` words in all (``(c-1) N^2 / P`` per
rank when the grid divides ``N``).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..engine.accounting import StepAccounting
from ..engine.schedule import Schedule
from ..kernels import blas
from ..layouts.block_cyclic import work_name
from ..machine.comm import Machine
from .common import (
    resolve_25d,
    validate_problem,
)

__all__ = ["Matmul25DSchedule"]

#: Store names of the per-layer operand copies and the partial product
#: (not the caller's operands).
WORK_A, WORK_B, WORK_C = (work_name(x) for x in "ABC")

#: Store names a round's strips are staged under and the reduced
#: product is stored under.
STRIPS, REDUCED = work_name("strips"), work_name("Cr")


class _DenseState:
    __slots__ = ("a", "b", "partials")

    def __init__(self, a: np.ndarray, b: np.ndarray, n: int, c: int) -> None:
        self.a = a
        self.b = b
        self.partials = np.zeros((c, n, n))


class Matmul25DSchedule(Schedule):
    """Square 2.5D SUMMA as an engine schedule."""

    name = "matmul25d"
    supports_distributed = True

    def __init__(self, n: int, nranks: int, s: int | None = None,
                 c: int | None = None,
                 mem_words: float | None = None) -> None:
        # Three operands, one layer copy each.
        c, mem_words, grid = resolve_25d(n, nranks, c, mem_words, copies=3)
        if s is None:
            s = max(c, 32)
            while n % s != 0 and s > c:
                s //= 2
            if n % s != 0:
                s = c
        validate_problem(n, s, nranks)
        if n % (s * c) != 0:
            raise ValueError(f"s*c = {s * c} must divide N={n} so layers "
                             "get whole reduction slices")
        self.n = n
        self.nranks = nranks
        self.s = s
        self.c = c
        self.grid = grid
        self.mem_words = mem_words
        self.rounds = (n // c) // s          # SUMMA rounds per layer

    def steps(self) -> int:
        return self.rounds + 1               # + the final layered reduce

    def step_label(self, t: int) -> str:
        return f"summa-{t}" if t < self.rounds else "reduce"

    def params(self) -> dict[str, Any]:
        return {"s": self.s, "c": self.c,
                "grid": (self.grid.rows, self.grid.cols, self.c),
                "mem_words": self.mem_words}

    def required_words(self) -> float:
        """Per-rank capacity sufficient for the distributed view.

        Leading term: the 2.5D operand footprint ``3 c N^2 / P`` (one
        A/B/C block per rank per layer — ``mem_words``).  Transients:
        one round's A and B panels (``s`` columns/rows each, possibly
        straddling a block boundary) and the final reduction's chunk
        split, which briefly duplicates the local C block.
        """
        n, s = self.n, self.s
        pr, pc = self.grid.rows, self.grid.cols
        rl = math.ceil(n / pr)
        cl = math.ceil(n / pc)
        resident = 3 * rl * cl                    # A, B, C blocks
        panels = rl * s + s * cl                  # one SUMMA round in flight
        reduce_dup = rl * cl                      # C + its split chunks
        return float(resident + max(panels, reduce_dup))

    # ------------------------------------------------------------------
    def accounting(self, acct: StepAccounting) -> None:
        n, s, c = self.n, self.s, self.c
        grid = self.grid
        pr, pc = grid.rows, grid.cols
        rows_local = n / pr
        cols_local = n / pc
        # Steps [0, rounds) are SUMMA rounds with identical cost; the
        # last step is the machine-wide reduce-scatter of the C slices
        # ((c-1) of the c copies move once, spread over all ranks).
        # Panel rings charge g - 1 receivers — a rank never receives
        # the strip pieces it owns, so each ring is a (Pc-1)/Pc resp.
        # (Pr-1)/Pr share, exactly as the machine counts.
        in_round = acct.const(hi=self.rounds)
        acct.add_recv(rows_local * s * (pc - 1.0) / pc, step=in_round)
        acct.add_recv(cols_local * s * (pr - 1.0) / pr, step=in_round)
        acct.add_flops(2.0 * rows_local * cols_local * s, step=in_round)
        in_reduce = acct.const(lo=self.rounds)
        acct.add_recv(n * n * (c - 1.0) / self.nranks, step=in_reduce)

    # ------------------------------------------------------------------
    def _operands(self, a: np.ndarray | tuple | None,
                  rng: np.random.Generator | None) -> list[np.ndarray]:
        """The dense ``[A, B]``: ``a`` may be None (random operands), a
        single array (random right operand), or an ``(a, b)`` pair."""
        n = self.n
        rng = rng or np.random.default_rng(0)
        a, b = a if isinstance(a, tuple) else (a, None)
        pair = [np.asarray(x if x is not None else rng.standard_normal((n, n)),
                           dtype=np.float64) for x in (a, b)]
        if any(x.shape != (n, n) for x in pair):
            raise ValueError("operands must be N x N")
        return pair

    def dense_init(self, a: np.ndarray | tuple | None,
                   rng: np.random.Generator | None) -> _DenseState:
        return _DenseState(*self._operands(a, rng), self.n, self.c)

    def dense_step(self, state: _DenseState, t: int) -> None:
        if t >= self.rounds:
            return                          # the reduce moves data only
        n, s, c = self.n, self.s, self.c
        slice_len = n // c
        for k in range(c):
            lo = k * slice_len + t * s
            state.partials[k] += state.a[:, lo:lo + s] @ state.b[lo:lo + s, :]

    def dense_finalize(self, state: _DenseState) -> dict[str, Any]:
        return {"lower": state.partials.sum(axis=0)}

    # ------------------------------------------------------------------
    # Distributed view: shared operand blocks, charged broadcasts
    # ------------------------------------------------------------------
    def _cuts(self, parts: int) -> list[int]:
        """Where the ``parts`` contiguous blocks of ``N`` start (block
        ``i`` at ``i N // parts``), closed by ``N``."""
        return [i * self.n // parts for i in range(parts + 1)]

    def dist_init(self, machine: Machine, a: np.ndarray | tuple | None,
                  rng: np.random.Generator | None,
                  in_name: str | tuple[str, str] | None = None) -> None:
        """Place each rank's ``A``/``B`` block and zero ``C`` partial.

        Every layer holds a full operand copy (the 2.5D memory budget
        ``3 c N^2 / P``); initial placement — including the layer
        replicas — is free, the convention shared with the 2.5D
        factorizations.  ``in_name`` may name existing layer-0 blocks
        ``(name_a, pi, pj)`` / ``(name_b, pi, pj)`` to adopt, e.g.
        after a COSTA reshuffle.  Operand blocks are only read: layer 0
        holds the adopted arrays themselves, the replicas are read-only
        views of them, and every rank is charged its block's words.
        """
        c, grid = self.c, self.grid
        rows, cols = self._cuts(grid.rows), self._cuts(grid.cols)
        if in_name is None:
            dense = self._operands(a, rng)
        elif not isinstance(in_name, tuple):
            in_name = (in_name + ":A", in_name + ":B")
        for pi in range(grid.rows):
            for pj in range(grid.cols):
                if in_name is None:
                    blocks = [x[rows[pi]:rows[pi + 1],
                                cols[pj]:cols[pj + 1]].copy() for x in dense]
                else:
                    home = machine.store(grid.rank(pi, pj, 0))
                    blocks = [np.asarray(home.get((name, pi, pj)),
                                         dtype=np.float64) for name in in_name]
                for kk in range(c):
                    store = machine.store(grid.rank(pi, pj, kk))
                    for name, block in zip((WORK_A, WORK_B), blocks):
                        if kk:
                            block = block.view()
                            block.flags.writeable = False
                        store.put((name, pi, pj), block)
                    store.put((WORK_C, pi, pj), np.zeros(blocks[0].shape))

    def _strip_pieces(self, lo: int,
                      cuts: list[int]) -> list[tuple[int, int, int]]:
        """Split the ``s``-wide strip at ``lo`` into per-block pieces
        ``(block, local_start, local_stop)`` of the blocks ``cuts``
        bound."""
        hi = lo + self.s
        return [(b, max(lo - b0, 0), min(hi, b1) - b0)
                for b, (b0, b1) in enumerate(zip(cuts, cuts[1:]))
                if b0 < hi and lo < b1]

    def _reduce_chunks(self, rl: int) -> list[slice]:
        """The ``c`` contiguous row ranges a block's ``rl`` rows are
        reduce-scattered in (the first ``rl % c`` one row longer)."""
        cuts = [i * (rl // self.c) + min(i, rl % self.c)
                for i in range(self.c + 1)]
        return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    @staticmethod
    def _panel(machine: Machine, group: list[int], stack,
               pieces: list[tuple[int, tuple, tuple]]) -> np.ndarray:
        """One round's strip as all of ``group`` reads it: each piece
        ``(owner, block key, window)`` charged as a broadcast from its
        owner, the panel a view of the owner's block — stacked only
        when the strip straddles blocks, copied for no receiver."""
        parts = []
        for src, key, window in pieces:
            part = machine.store(src).get(key)[window]
            machine.charge_bcast(src, group, part.size)
            parts.append(part)
        return parts[0] if len(parts) == 1 else stack(parts)

    def dist_step(self, machine: Machine, state: None, t: int) -> None:
        n, s, c = self.n, self.s, self.c
        grid = self.grid
        pr, pc = grid.rows, grid.cols
        rows, cols = self._cuts(pr), self._cuts(pc)

        if t >= self.rounds:
            # Final layered reduction: one reduce-scatter per fiber of
            # row-slice views of C, leaving combined chunk i on layer i.
            for pi in range(pr):
                chunks = self._reduce_chunks(rows[pi + 1] - rows[pi])
                for pj in range(pc):
                    fiber = [grid.rank(pi, pj, kk) for kk in range(c)]
                    keys = [(REDUCED, pi, pj, i) for i in range(c)]
                    for r in fiber:
                        store = machine.store(r)
                        part = store.get((WORK_C, pi, pj))
                        for key, chunk in zip(keys, chunks):
                            store.put(key, part[chunk])
                    machine.reduce_scatter(fiber, keys)
                    for r in fiber:
                        machine.store(r).discard((WORK_C, pi, pj))
            return

        for kk in range(c):
            lo = kk * (n // c) + t * s
            # The round's A column strip goes along grid rows, its B
            # row strip along grid columns, piecewise when the strip
            # straddles a block boundary.
            a_pieces = self._strip_pieces(lo, cols)
            b_pieces = self._strip_pieces(lo, rows)
            a_panels, b_panels = [], []
            for pi in range(pr):
                group = [grid.rank(pi, j, kk) for j in range(pc)]
                a_panels.append(self._panel(machine, group, np.hstack, [
                    (group[jb], (WORK_A, pi, jb), np.s_[:, c0:c1])
                    for jb, c0, c1 in a_pieces]))
            for pj in range(pc):
                group = [grid.rank(i, pj, kk) for i in range(pr)]
                b_panels.append(self._panel(machine, group, np.vstack, [
                    (group[ib], (WORK_B, ib, pj), np.s_[r0:r1, :])
                    for ib, r0, r1 in b_pieces]))
            # Local rank-s update on every rank of the layer: the two
            # strips pass through its memory, the product lands in C.
            for pi in range(pr):
                for pj in range(pc):
                    r = grid.rank(pi, pj, kk)
                    store = machine.store(r)
                    store.stage(a_panels[pi].size + b_panels[pj].size,
                                (STRIPS, t))
                    machine.compute(r, blas.gemm_acc(
                        store.get((WORK_C, pi, pj)), a_panels[pi],
                        b_panels[pj]))

    def dist_finalize(self, machine: Machine,
                      state: None) -> dict[str, Any]:
        n = self.n
        grid = self.grid
        rows, cols = self._cuts(grid.rows), self._cuts(grid.cols)
        out = np.empty((n, n))
        for pi in range(grid.rows):
            chunks = self._reduce_chunks(rows[pi + 1] - rows[pi])
            for pj in range(grid.cols):
                block = out[rows[pi]:rows[pi + 1], cols[pj]:cols[pj + 1]]
                for i, chunk in enumerate(chunks):
                    block[chunk] = machine.store(
                        grid.rank(pi, pj, i)).get((REDUCED, pi, pj, i))
        return {"lower": out}
