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
All three views are implemented: the distributed view holds each
layer's ``A``/``B`` copy as one local block per rank, broadcasts the
round's panels along grid rows/columns, and combines the per-layer
``C`` partials with one fiber reduce-scatter whose counted volume is
exactly the trace's ``(c-1) N^2 / P`` per rank.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..engine.accounting import StepAccounting
from ..engine.schedule import Schedule
from ..layouts.block_cyclic import work_name
from ..machine.comm import Machine
from .common import (
    FactorizationResult,
    resolve_25d,
    run_impl,
    validate_problem,
)

__all__ = ["Matmul25DSchedule", "matmul_25d"]

#: Store names of the per-layer operand copies and the partial product
#: (not the caller's operands).
WORK_A, WORK_B, WORK_C = (work_name(x) for x in "ABC")

#: Store names of a round's broadcast strips and of the reduced product.
STRIP_A, STRIP_B, REDUCED = map(work_name, ("Ap", "Bp", "Cr"))


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
        acct.add_sent(n * n * (c - 1.0) / self.nranks, step=in_reduce)

    # ------------------------------------------------------------------
    def dense_init(self, a: np.ndarray | tuple | None,
                   rng: np.random.Generator | None) -> _DenseState:
        """``a`` may be None (random operands), a single array (random
        right operand), or an ``(a, b)`` pair."""
        n = self.n
        rng = rng or np.random.default_rng(0)
        a, b = a if isinstance(a, tuple) else (a, None)
        a = np.asarray(a if a is not None
                       else rng.standard_normal((n, n)), dtype=float)
        b = np.asarray(b if b is not None
                       else rng.standard_normal((n, n)), dtype=float)
        if a.shape != (n, n) or b.shape != (n, n):
            raise ValueError("operands must be N x N")
        return _DenseState(a, b, n, self.c)

    def dense_step(self, state: _DenseState, t: int) -> None:
        if t >= self.rounds:
            return                          # the reduce moves data only
        n, s, c = self.n, self.s, self.c
        slice_len = n // c
        for k in range(c):
            lo = k * slice_len + t * s
            state.partials[k] += state.a[:, lo:lo + s] @ state.b[lo:lo + s, :]

    def dense_finalize(self, state: _DenseState) -> dict[str, Any]:
        return {"lower": state.partials.sum(axis=0),
                "upper": np.eye(self.n)}

    # ------------------------------------------------------------------
    # Distributed view: per-layer operand copies, counted broadcasts
    # ------------------------------------------------------------------
    def _check_divisible(self) -> tuple[int, int]:
        pr, pc = self.grid.rows, self.grid.cols
        if self.n % pr or self.n % pc:
            raise ValueError(
                f"distributed 2.5D SUMMA needs the grid {pr}x{pc} to "
                f"divide N={self.n}")
        return self.n // pr, self.n // pc

    def dist_init(self, machine: Machine, a: np.ndarray | tuple | None,
                  rng: np.random.Generator | None,
                  in_name: str | tuple[str, str] | None = None) -> None:
        """Place each rank's ``A``/``B`` block and zero ``C`` partial.

        Every layer holds a full operand copy (the 2.5D memory budget
        ``3 c N^2 / P``); initial placement — including the layer
        replicas — is free, the convention shared with the 2.5D
        factorizations.  ``in_name`` may name existing layer-0 blocks
        ``(name_a, pi, pj)`` / ``(name_b, pi, pj)`` to adopt, e.g.
        after a COSTA reshuffle.
        """
        n, c = self.n, self.c
        rl, cl = self._check_divisible()
        grid = self.grid
        if in_name is not None:
            name_a, name_b = (in_name if isinstance(in_name, tuple)
                              else (in_name + ":A", in_name + ":B"))
            blocks = {}
            for pi in range(grid.rows):
                for pj in range(grid.cols):
                    r0 = grid.rank(pi, pj, 0)
                    blocks[pi, pj] = (
                        np.array(machine.store(r0).get((name_a, pi, pj)),
                                 dtype=np.float64),
                        np.array(machine.store(r0).get((name_b, pi, pj)),
                                 dtype=np.float64))
        else:
            rng = rng or np.random.default_rng(0)
            a, b = a if isinstance(a, tuple) else (a, None)
            a = np.asarray(a if a is not None
                           else rng.standard_normal((n, n)), dtype=np.float64)
            b = np.asarray(b if b is not None
                           else rng.standard_normal((n, n)), dtype=np.float64)
            if a.shape != (n, n) or b.shape != (n, n):
                raise ValueError("operands must be N x N")
            blocks = {(pi, pj): (a[pi * rl:(pi + 1) * rl,
                                   pj * cl:(pj + 1) * cl].copy(),
                                 b[pi * rl:(pi + 1) * rl,
                                   pj * cl:(pj + 1) * cl].copy())
                      for pi in range(grid.rows) for pj in range(grid.cols)}
        for (pi, pj), (ab, bb) in blocks.items():
            for kk in range(c):
                store = machine.store(grid.rank(pi, pj, kk))
                store.put((WORK_A, pi, pj), ab if kk == 0 else ab.copy())
                store.put((WORK_B, pi, pj), bb if kk == 0 else bb.copy())
                store.put((WORK_C, pi, pj), np.zeros((rl, cl)))
        return None

    def _strip_pieces(self, lo: int, extent: int) -> list[tuple[int, int, int]]:
        """Split the ``s``-wide strip at ``lo`` into per-block pieces
        ``(block, local_start, local_stop)`` of blocks of ``extent``."""
        pieces = []
        hi = lo + self.s
        b = lo // extent
        while b * extent < hi:
            pieces.append((b, max(lo, b * extent) - b * extent,
                           min(hi, (b + 1) * extent) - b * extent))
            b += 1
        return pieces

    def dist_step(self, machine: Machine, state: None, t: int) -> None:
        n, s, c = self.n, self.s, self.c
        rl, cl = self._check_divisible()
        grid = self.grid
        pr, pc = grid.rows, grid.cols

        if t >= self.rounds:
            # Final layered reduction: one reduce-scatter per fiber,
            # leaving row-chunk i of the combined C on layer i.
            for pi in range(pr):
                for pj in range(pc):
                    fiber = [grid.rank(pi, pj, kk) for kk in range(c)]
                    chunks = np.array_split(np.arange(rl), c)
                    keys = [(REDUCED, pi, pj, i) for i in range(c)]
                    for r in fiber:
                        part = machine.store(r).get((WORK_C, pi, pj))
                        for key, idx in zip(keys, chunks):
                            machine.store(r).put(key, part[idx, :])
                    machine.reduce_scatter(fiber, keys)
                    for r in fiber:
                        machine.store(r).discard((WORK_C, pi, pj))
            return

        slice_len = n // c
        for kk in range(c):
            lo = kk * slice_len + t * s
            # Broadcast the round's A column strip along grid rows and
            # B row strip along grid columns (piecewise when the strip
            # straddles a block boundary).
            a_pieces = self._strip_pieces(lo, cl)
            b_pieces = self._strip_pieces(lo, rl)
            for pi in range(pr):
                row_group = [grid.rank(pi, j, kk) for j in range(pc)]
                for jb, c0, c1 in a_pieces:
                    src = grid.rank(pi, jb, kk)
                    block = machine.store(src).get((WORK_A, pi, jb))
                    machine.store(src).put((STRIP_A, t, jb),
                                           block[:, c0:c1].copy())
                    machine.bcast(src, row_group, (STRIP_A, t, jb))
            for pj in range(pc):
                col_group = [grid.rank(i, pj, kk) for i in range(pr)]
                for ib, r0, r1 in b_pieces:
                    src = grid.rank(ib, pj, kk)
                    block = machine.store(src).get((WORK_B, ib, pj))
                    machine.store(src).put((STRIP_B, t, ib),
                                           block[r0:r1, :].copy())
                    machine.bcast(src, col_group, (STRIP_B, t, ib))
            # Local rank-s update on every rank of the layer.
            for pi in range(pr):
                for pj in range(pc):
                    r = grid.rank(pi, pj, kk)
                    store = machine.store(r)
                    a_panel = np.hstack([store.get((STRIP_A, t, jb))
                                         for jb, _, _ in a_pieces])
                    b_panel = np.vstack([store.get((STRIP_B, t, ib))
                                         for ib, _, _ in b_pieces])
                    store.get((WORK_C, pi, pj))[...] += a_panel @ b_panel
                    machine.compute(r, 2.0 * rl * cl * s)
                    for jb, _, _ in a_pieces:
                        store.discard((STRIP_A, t, jb))
                    for ib, _, _ in b_pieces:
                        store.discard((STRIP_B, t, ib))

    def dist_finalize(self, machine: Machine,
                      state: None) -> dict[str, Any]:
        n, c = self.n, self.c
        rl, cl = self._check_divisible()
        grid = self.grid
        out = np.zeros((n, n))
        for pi in range(grid.rows):
            for pj in range(grid.cols):
                chunks = np.array_split(np.arange(rl), c)
                for i, idx in enumerate(chunks):
                    r = grid.rank(pi, pj, i)
                    out[pi * rl + idx[:, None], pj * cl + np.arange(cl)] = \
                        machine.store(r).get((REDUCED, pi, pj, i))
        return {"lower": out, "upper": np.eye(n)}


def matmul_25d(n: int, nranks: int, s: int | None = None,
               c: int | None = None, mem_words: float | None = None,
               execute: bool = True, a: np.ndarray | None = None,
               b: np.ndarray | None = None,
               rng: np.random.Generator | None = None) -> FactorizationResult:
    """One-call 2.5D matmul; the product is in ``result.lower``."""
    if not execute and (a is not None or b is not None):
        raise ValueError("trace mode takes no operands")
    return run_impl("gemm", "25d", n, nranks, execute,
                    a=(a, b) if b is not None else a, rng=rng,
                    s=s, c=c, mem_words=mem_words)
