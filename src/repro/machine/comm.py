"""Simulated message-passing machine.

:class:`Machine` bundles ``P`` rank-private stores with a
:class:`~repro.machine.stats.CommStats` counter object and exposes the
communication operations the factorization schedules need: point-to-point
moves plus the collective operations of Algorithm 1 (broadcast, reduce,
reduce-scatter, allreduce).

The per-collective counting conventions (receive-only, flat reduce
accounting) are documented in ``ARCHITECTURE.md`` at the repo root,
alongside the engine layering that consumes them; ``stats.py`` holds the
metric rationale.

All data-moving methods actually move ``numpy`` blocks between stores, so
algorithms built on :class:`Machine` are *executable* and numerically
checkable, not just counted — the engine's
:class:`~repro.engine.backends.DistributedBackend` runs whole
factorization schedules this way.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from .exceptions import CommunicationError, RankError
from .stats import CommStats
from .store import RankStore

__all__ = ["Machine"]


#: Reduction operators shared by reduce / allreduce / reduce_scatter.
#: Each combines a contribution into the accumulator in place.
_REDUCE_OPS = {
    "sum": lambda acc, contrib: np.add(acc, contrib, out=acc),
    "max": lambda acc, contrib: np.maximum(acc, contrib, out=acc),
}


def _combine(op: str, acc: np.ndarray, contrib: np.ndarray) -> None:
    """Apply reduction operator ``op`` in place; rejects unknown names."""
    try:
        combine = _REDUCE_OPS[op]
    except KeyError:
        raise CommunicationError(
            f"unknown reduce op {op!r}; have {sorted(_REDUCE_OPS)}"
        ) from None
    combine(acc, contrib)


class Machine:
    """``P`` simulated ranks with private memories and counted communication.

    Parameters
    ----------
    nranks:
        Number of processors ``P``.
    mem_words:
        Private fast-memory capacity ``M`` per rank in words
        (``math.inf`` disables enforcement).
    enforce_memory:
        If False, stores are created unbounded even when ``mem_words`` is
        finite; the value is still available to algorithms as the model
        parameter ``M``.
    """

    def __init__(self, nranks: int, mem_words: float = math.inf,
                 enforce_memory: bool = False) -> None:
        if nranks <= 0:
            raise RankError(f"need at least one rank, got {nranks}")
        self.nranks = int(nranks)
        self.mem_words = float(mem_words)
        cap = mem_words if enforce_memory else math.inf
        self.stores = [RankStore(r, cap) for r in range(self.nranks)]
        self.stats = CommStats(self.nranks)

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> int:
        r = int(rank)
        if not 0 <= r < self.nranks:
            raise RankError(f"rank {rank} out of range [0, {self.nranks})")
        return r

    def _check_group(self, group: Sequence[int]) -> list[int]:
        gr = [self._check_rank(r) for r in group]
        if len(set(gr)) != len(gr):
            raise CommunicationError(f"duplicate ranks in group {group}")
        if not gr:
            raise CommunicationError("empty communication group")
        return gr

    def store(self, rank: int) -> RankStore:
        return self.stores[self._check_rank(rank)]

    @property
    def enforces_memory(self) -> bool:
        """True when the stores check a finite ``M``-words budget."""
        return math.isfinite(self.stores[0].capacity_words)

    # ------------------------------------------------------------------
    # Superstep brackets (stats + per-store memory context together)
    # ------------------------------------------------------------------
    def begin_step(self, label: str) -> None:
        """Open a superstep on the stats *and* every store, so budget
        violations carry the step label and each store restarts its
        transient ``step_peak_words`` high-water mark."""
        self.stats.begin_step(label)
        for s in self.stores:
            s.begin_step(label)

    def end_step(self):
        """Close the superstep; returns the stats' ``StepRecord``."""
        for s in self.stores:
            s.end_step()
        return self.stats.end_step()

    def peak_words_per_rank(self) -> np.ndarray:
        """Run-wide memory high-water mark of every rank, in words."""
        return np.array([s.peak_words for s in self.stores], dtype=float)

    def words_per_rank(self) -> np.ndarray:
        """Words currently resident on every rank."""
        return np.array([s.words for s in self.stores], dtype=float)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, key: Hashable,
             dest_key: Hashable | None = None) -> None:
        """Move block ``key`` from ``src``'s store into ``dst``'s store.

        The block stays resident at ``src`` (message passing copies).
        """
        src = self._check_rank(src)
        dst = self._check_rank(dst)
        block = self.stores[src].get(key)
        if src != dst:
            self.stats.record_transfer(src, dst, block.size)
            block = block.copy()
        self.stores[dst].put(dest_key if dest_key is not None else key, block)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def bcast(self, root: int, group: Sequence[int], key: Hashable) -> None:
        """Broadcast block ``key`` from ``root`` to every rank in ``group``.

        The receivers share one read-only copy, taken now: each holds
        (and is charged) the block's words, none may write it, and a
        later write to the root's block does not reach them.
        """
        block = self.store(root).get(key)
        shared = block.copy()
        shared.flags.writeable = False
        for r in self.charge_bcast(root, group, block.size):
            if r != root:
                self.stores[r].put(key, shared)

    def charge_bcast(self, root: int, group: Sequence[int], words: int,
                     count: int = 1) -> list[int]:
        """The accounting half of :meth:`bcast`: ``count`` broadcasts of
        ``words`` elements each from ``root`` to ``group`` (returned
        validated), nothing moved — for a schedule that fans a panel
        of equal tiles out and lands the data itself."""
        group = self._check_group(group)
        root = self._check_rank(root)
        if root not in group:
            raise CommunicationError(f"root {root} not in group")
        if not (0 <= words < math.inf and 0 <= count < math.inf):
            raise ValueError(f"words and count must be finite and "
                             f"non-negative, got {words}, {count}")
        # Every receiver gets the payload once per broadcast.
        receivers = np.array([r for r in group if r != root], dtype=np.intp)
        self.stats.recv_words[receivers] += count * words
        self.stats.recv_msgs[receivers] += count
        return group

    def reduce(self, root: int, group: Sequence[int], key: Hashable,
               op: str = "sum") -> np.ndarray:
        """Combine per-rank blocks under ``key`` at ``root``.

        Every remote contribution travels to ``root`` (flat accounting:
        ``(g-1) * n`` received at root).  The combined block replaces
        ``root``'s copy and is returned.
        """
        group = self._check_group(group)
        root = self._check_rank(root)
        if root not in group:
            raise CommunicationError(f"root {root} not in group")
        acc = self.stores[root].get(key).astype(np.float64, copy=True)
        for r in group:
            if r == root:
                continue
            contrib = self.stores[r].get(key)
            if contrib.shape != acc.shape:
                raise CommunicationError(
                    f"reduce shape mismatch: {contrib.shape} vs {acc.shape}")
            self.stats.record_transfer(r, root, contrib.size)
            _combine(op, acc, contrib)
        self.stores[root].put(key, acc)
        return acc

    def allreduce(self, group: Sequence[int], key: Hashable,
                  op: str = "sum") -> np.ndarray:
        """Reduce followed by broadcast (counted as both)."""
        group = self._check_group(group)
        root = group[0]
        acc = self.reduce(root, group, key, op=op)
        self.bcast(root, group, key)
        return acc

    def reduce_scatter(self, group: Sequence[int], keys: Sequence[Hashable],
                       op: str = "sum") -> None:
        """Reduce ``len(group)`` blocks, leaving result ``keys[i]`` on
        ``group[i]``.

        Each rank in the group must hold every block in ``keys`` (its
        partial contributions).  After the call, ``group[i]`` holds the
        combined ``keys[i]`` and the other partial blocks are dropped.
        This is the collective behind the paper's layered reduction: per
        rank received words are ``(g-1) * n/g`` for total payload ``n``.
        ``op`` accepts the same operator set as :meth:`reduce`.
        """
        group = self._check_group(group)
        if len(keys) != len(group):
            raise CommunicationError("need exactly one key per group rank")
        for dest, key in zip(group, keys):
            acc = self.stores[dest].get(key).astype(np.float64, copy=True)
            for r in group:
                if r == dest:
                    continue
                contrib = self.stores[r].get(key)
                self.stats.record_transfer(r, dest, contrib.size)
                _combine(op, acc, contrib)
            self.stores[dest].put(key, acc)
        for dest, key in zip(group, keys):
            for r in group:
                if r != dest:
                    self.stores[r].discard(key)

    # ------------------------------------------------------------------
    # Local compute attribution
    # ------------------------------------------------------------------
    def compute(self, rank: int, flops: float) -> None:
        """Attribute ``flops`` local floating-point operations to ``rank``."""
        self.stats.record_flops(rank, flops)

    def compute_many(self, ranks: np.ndarray | Sequence[int],
                     flops: np.ndarray) -> None:
        """:meth:`compute` for every ``(ranks[i], flops[i])``, in order."""
        self.stats.record_flops_many(ranks, flops)
