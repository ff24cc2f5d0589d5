"""X-partition-guided sequential schedules (the "constructive" claim).

Section 12 argues the pebbling approach is *constructive*: the X-partition
structure "provides powerful hints for obtaining parallel schedules".
This module demonstrates it for the sequential machine.  The intensity
optimization (Section 6.1) says the optimal subcomputation keeps a
``sqrt(M) x sqrt(M)`` result block resident while streaming the reduction
dimension through it: per k-plane, ``2b`` operand words advance ``b^2``
accumulation chains — intensity ``b/2 ~ sqrt(M)/2``, hence total I/O
``2n^3/sqrt(M) + O(n^2)``, asymptotically matching the lower bound
``2n^3/sqrt(M)`` *including the constant*.

:func:`blocked_matmul_schedule` emits that schedule as validated pebble
moves; the tests and the schedule-quality benchmark compare its measured
I/O against both the lower bound and the greedy (Belady) baseline, which
lacks the blocking insight.
"""

from __future__ import annotations

import math

from ..lowerbounds.daap import matmul_program
from .builders import program_cdag
from .game import Move, PebbleGame

__all__ = ["blocked_matmul_schedule", "optimal_block_side",
           "run_blocked_matmul"]


def optimal_block_side(mem_pebbles: int) -> int:
    """The X-partition hint: the largest result-block side ``b`` whose
    working set — ``b^2`` resident chains, one ``b``-column of A, one
    ``b``-row of B, and the transient new version — fits in ``M``:
    ``b^2 + 2b + 1 <= M``, i.e. ``b = floor(sqrt(M)) - 1`` up to rounding.
    """
    if mem_pebbles < 4:
        raise ValueError("need at least 4 pebbles")
    b = int(math.isqrt(mem_pebbles))
    while b > 1 and b * b + 2 * b + 1 > mem_pebbles:
        b -= 1
    return max(1, b)


def blocked_matmul_schedule(n: int, mem_pebbles: int,
                            block: int | None = None) -> list[Move]:
    """Schedule for ``program_cdag(matmul_program(), n)``.

    For each ``b x b`` result block, the C chains stay resident while the
    ``n`` k-planes stream through memory one at a time (a ``b``-column of
    A and a ``b``-row of B each).  I/O per block: ``b^2`` loads +
    ``2 n b`` panel loads + ``b^2`` stores; total
    ``2 n^3 / b + 2 n^2 ~ 2 n^3 / sqrt(M)``.
    """
    b = block or optimal_block_side(mem_pebbles)
    if b < 1 or b > n:
        raise ValueError(f"invalid block side {b}")
    moves: list[Move] = []

    def blocks(total: int) -> list[range]:
        return [range(lo, min(lo + b, total)) for lo in range(0, total, b)]

    for ib in blocks(n):
        for jb in blocks(n):
            # Open the C block: load version-0 inputs.
            for i in ib:
                for j in jb:
                    moves.append(Move("load", ("C", i, j, 0)))
            for k in range(n):
                # Stream one k-plane: a column of A, a row of B.
                for i in ib:
                    moves.append(Move("load", ("A", i, k, 0)))
                for j in jb:
                    moves.append(Move("load", ("B", k, j, 0)))
                # Advance every chain by one step; each compute replaces
                # the previous version so the C footprint stays b^2 (+1
                # transient).
                for i in ib:
                    for j in jb:
                        moves.append(Move("compute", ("C", i, j, k + 1)))
                        moves.append(Move("evict", ("C", i, j, k)))
                for i in ib:
                    moves.append(Move("evict", ("A", i, k, 0)))
                for j in jb:
                    moves.append(Move("evict", ("B", k, j, 0)))
            # Close the C block: store the finished outputs.
            for i in ib:
                for j in jb:
                    moves.append(Move("store", ("C", i, j, n)))
                    moves.append(Move("evict", ("C", i, j, n)))
    return moves


def run_blocked_matmul(n: int, mem_pebbles: int,
                       block: int | None = None) -> PebbleGame:
    """Build the matmul cDAG, run the blocked schedule validated, and
    return the finished game."""
    cdag = program_cdag(matmul_program(), n)
    game = PebbleGame(cdag, mem_pebbles)
    game.run(blocked_matmul_schedule(n, mem_pebbles, block))
    if not game.finished():
        raise RuntimeError("blocked schedule left outputs unstored")
    return game
