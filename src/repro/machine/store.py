"""Rank-private block stores.

In the parallel machine model of the paper (Section 2.1 / Section 5) every
processor owns a private fast memory of ``M`` words; there is no shared or
global memory, and data moves only through explicit communication.  A
:class:`RankStore` is one such private memory: a dictionary from block keys
to ``numpy`` arrays, with live word counting and an optional hard capacity
that raises :class:`~repro.machine.exceptions.MemoryBudgetExceeded` on
overflow, mirroring the "at most M red pebbles" rule.

Peak tracking is two-level: ``peak_words`` is the run-wide high-water
mark, while ``step_peak_words`` is the high-water mark since the last
:meth:`begin_step` — the *transient* peak inside one superstep, which is
what the engine's memory report compares against the budget (a schedule
may be within budget at rest but overflow mid-step through panel
copies).
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Iterator, Sequence

import numpy as np

from .exceptions import CommunicationError, MemoryBudgetExceeded

__all__ = ["RankStore"]


class RankStore:
    """Private memory of one simulated rank.

    Parameters
    ----------
    rank:
        Owning rank id (for error messages).
    capacity_words:
        Fast-memory size ``M`` in words.  ``math.inf`` disables the check
        (useful for baselines whose working set intentionally exceeds the
        2.5D replication budget).
    """

    def __init__(self, rank: int, capacity_words: float = math.inf) -> None:
        if capacity_words <= 0:
            raise ValueError("capacity must be positive")
        self.rank = rank
        self.capacity_words = capacity_words
        self._blocks: dict[Hashable, np.ndarray] = {}
        self._words = 0
        self.peak_words = 0
        self.step_peak_words = 0
        #: Label of the superstep in flight (set by the machine/backend);
        #: attached to budget violations for context.
        self.step: str | None = None

    # ------------------------------------------------------------------
    @property
    def words(self) -> int:
        """Words currently resident."""
        return self._words

    def __contains__(self, key: Hashable) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._blocks.keys())

    # ------------------------------------------------------------------
    def begin_step(self, label: str | None) -> None:
        """Open a superstep: tag violations with ``label`` and restart
        the transient peak from the current at-rest residency."""
        self.step = label
        self.step_peak_words = self._words

    def end_step(self) -> int:
        """Close the superstep; returns its transient peak."""
        peak = self.step_peak_words
        self.step = None
        return peak

    def _note_peak(self, words: float) -> None:
        if words > self.peak_words:
            self.peak_words = words
        if words > self.step_peak_words:
            self.step_peak_words = words

    # ------------------------------------------------------------------
    def reserve(self, words: float, key: Hashable = "<reserve>") -> None:
        """Check that ``words`` additional words would fit.

        Raises :class:`MemoryBudgetExceeded` (with rank/step/key
        context) if not; stores nothing either way.  The api layer's
        feasibility gate reserves what a pd* call needs on every rank
        before any word moves, so already-resident caller data counts
        against the budget on the rank holding it.  A negative or
        non-finite ``words`` (a nan would pass the comparison with the
        budget) raises :class:`ValueError`.
        """
        if not 0 <= words < math.inf:
            raise ValueError(f"cannot reserve {words} words: need a finite, "
                             f"non-negative count")
        if self._words + words > self.capacity_words:
            raise MemoryBudgetExceeded(
                self.rank, self.step, key, self._words + words,
                self.capacity_words)

    def stage(self, words: int, key: Hashable) -> None:
        """Account ``words`` this rank holds only in passing — a
        message packed here on its way out — exactly as a ``put`` under
        ``key`` followed by its ``discard`` would: the capacity check
        and both high-water marks see them, nothing is stored."""
        self.reserve(words, key)
        self._note_peak(self._words + words)

    def _admit(self, words: float, key: Hashable, arr: np.ndarray) -> float:
        """Store ``arr`` under ``key`` on top of ``words`` resident and
        return the new total; refuses (storing nothing) past capacity.
        The caller records the total and its peak."""
        old = self._blocks.get(key)
        total = words + arr.size - (0 if old is None else old.size)
        if total > self.capacity_words:
            raise MemoryBudgetExceeded(
                self.rank, self.step, key, total, self.capacity_words)
        self._blocks[key] = arr
        return total

    def put(self, key: Hashable, value: np.ndarray | Any) -> None:
        """Insert or replace a block; enforces the capacity limit."""
        self._words = total = self._admit(self._words, key, np.asarray(value))
        self._note_peak(total)

    def put_many(self, items: Sequence[tuple[Hashable, np.ndarray]]) -> None:
        """``put`` every ``(key, array)`` of ``items``, in order, in one
        call: the same blocks, words and high-water marks as the loop.
        On overflow the items before the refused one stay stored and the
        :class:`MemoryBudgetExceeded` names the refused key and the
        total it would have made, as the loop's ``put`` would."""
        words = peak = self._words
        try:
            for key, arr in items:
                words = self._admit(words, key, arr)
                if words > peak:
                    peak = words
        finally:
            self._words = words
            self._note_peak(peak)

    def get(self, key: Hashable) -> np.ndarray:
        try:
            return self._blocks[key]
        except KeyError:
            raise CommunicationError(
                f"rank {self.rank}: no block under key {key!r}") from None

    def pop(self, key: Hashable) -> np.ndarray:
        arr = self.get(key)
        del self._blocks[key]
        self._words -= arr.size
        return arr

    def discard(self, *keys: Hashable) -> None:
        """Drop the blocks under ``keys`` that are resident; absent keys
        are ignored."""
        for key in keys:
            arr = self._blocks.pop(key, None)
            if arr is not None:
                self._words -= arr.size

    def clear(self) -> None:
        self._blocks.clear()
        self._words = 0

    def items(self) -> Iterator[tuple[Hashable, np.ndarray]]:
        return iter(self._blocks.items())
