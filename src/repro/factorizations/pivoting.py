"""Tournament pivoting with row masking (Section 7.3).

COnfLUX departs from block/tile/recursive pivoting in two ways:

* **Tournament pivoting** (Grigori, Demmel, Xiang — CALU): to choose the
  ``v`` pivot rows of a panel, each of the participating processors picks
  ``v`` local candidates by partial-pivoting LU of its row block; winners
  then meet in ``ceil(log2(parts))`` playoff rounds, each an LU of the
  ``2v x v`` stack of two candidate sets.  This replaces the O(N) latency
  of column-by-column partial pivoting with O(N / v).

* **Row masking**: chosen pivot rows are never swapped into place (a 2.5D
  swap would cost O(N^3 / (P sqrt(M))), doubling the leading term);
  instead pivot *indices* are broadcast and remaining rows are filtered by
  mask at every step.

:func:`tournament_pivot` implements the numeric tournament on a panel
given as a dense array of the currently unmasked rows; the communication
of the butterfly exchange is accounted by the caller (COnfLUX step 2).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..kernels import blas

__all__ = ["TournamentResult", "tournament_pivot", "tournament_rounds"]


@dataclasses.dataclass(frozen=True)
class TournamentResult:
    """Outcome of one tournament on a panel of ``r`` rows and ``v`` cols.

    Attributes
    ----------
    winners:
        Indices (into the panel's row numbering) of the ``v`` chosen pivot
        rows, ordered so that LU of ``panel[winners]`` needs no further
        row exchanges.
    lu00:
        The ``v x v`` packed LU factor of the winning block
        (``L00`` unit-lower below the diagonal, ``U00`` on/above).
    rounds:
        Number of playoff rounds played (``ceil(log2(parts))``).
    """

    winners: np.ndarray
    lu00: np.ndarray
    rounds: int


def tournament_rounds(parts: int) -> int:
    """Playoff rounds for ``parts`` participants."""
    if parts < 1:
        raise ValueError("need at least one participant")
    return max(0, math.ceil(math.log2(parts)))


def _candidate_rows(block: np.ndarray, v: int) -> np.ndarray:
    """Positions of the best ``v`` rows of ``block`` by partial-pivoting
    LU row choice, in pivot order.  Blocks with at most ``v`` rows keep
    all of them, in place."""
    if block.shape[0] <= v:
        return np.arange(block.shape[0])
    _, piv, _ = blas.getrf(block[:, :v], tolerant=True)
    return blas.pivots_to_permutation(piv, block.shape[0])[:v]


def _select_candidates(block: np.ndarray, rows: np.ndarray,
                       v: int) -> np.ndarray:
    """The subset of ``rows`` (row ids of ``block``) that
    :func:`_candidate_rows` picks, in pivot order."""
    return rows[_candidate_rows(block, v)]


def tournament_pivot(panel: np.ndarray, v: int,
                     parts: int) -> TournamentResult:
    """Choose ``v`` pivot rows of ``panel`` by a binary tournament.

    Parameters
    ----------
    panel:
        Dense ``r x v`` array of the currently unmasked rows (``r >= v``).
    v:
        Pivot block size.
    parts:
        Number of participating processors; the panel is split into
        ``parts`` contiguous row blocks (each processor's local rows).

    The returned winner indices refer to ``panel``'s row numbering; the
    caller maps them back to global row ids.
    """
    panel = np.asarray(panel, dtype=np.float64)
    if panel.ndim != 2 or panel.shape[1] < v:
        raise ValueError(f"panel must have at least v={v} columns")
    r = panel.shape[0]
    if r < v:
        raise ValueError(f"panel has {r} rows < v={v}")
    if parts < 1:
        raise ValueError("need at least one participant")
    parts = min(parts, max(1, r // v))

    # Round 0: local candidate selection.
    bounds = np.linspace(0, r, parts + 1).astype(int)
    contenders: list[np.ndarray] = []
    for p in range(parts):
        rows = np.arange(bounds[p], bounds[p + 1])
        if rows.size == 0:
            continue
        contenders.append(_select_candidates(panel[rows], rows, v))

    # Playoff rounds: pairwise merges until one candidate set remains.
    rounds = 0
    while len(contenders) > 1:
        nxt: list[np.ndarray] = []
        for i in range(0, len(contenders), 2):
            if i + 1 == len(contenders):
                nxt.append(contenders[i])
                continue
            rows = np.concatenate([contenders[i], contenders[i + 1]])
            nxt.append(_select_candidates(panel[rows], rows, v))
        contenders = nxt
        rounds += 1

    winners = contenders[0]
    if winners.size < v:
        raise ValueError(
            f"tournament selected {winners.size} rows < v={v} "
            "(rank-deficient panel)")
    # Final LU of the winning block, its row order folded into the winners:
    # the leading v x v factor is A00, and nothing downstream pivots again.
    lu, piv, _ = blas.getrf(panel[winners][:, :v])
    perm = blas.pivots_to_permutation(piv, winners.size)
    return TournamentResult(winners=winners[perm], lu00=lu[:v], rounds=rounds)
