"""Per-rank communication and computation counters.

The paper's primary evaluation metric is *communicated elements per
processor* (measured on Piz Daint with Score-P).  In the parallel red-blue
pebble game of Section 5, a communication is a remote vertex acquiring a
local pebble, i.e. a *receive*; all per-step costs quoted in Algorithm 1 of
the paper are receive volumes.  The counters are therefore **words
received per rank** (the volume metric), messages received per rank (the
latency term of the time model) and floating-point operations (the
compute term).  A point-to-point move charges its receiver only.

Counters are plain ``numpy`` arrays of length ``P`` so that recording is
O(1) per event and aggregation (max / total / per-rank) is vectorized.
A step log optionally captures per-superstep maxima, which the
BSP-style performance model (:mod:`repro.machine.perf_model`) consumes.
Two step-log flavours exist, selected by ``CommStats(steps=...)``:

* ``"columnar"`` — :class:`ColumnarStepLog`: per-field NumPy columns
  with *lazy* :class:`StepRecord` materialization, filled by a trace
  run as whole arrays and by the machine's ``begin_step``/``end_step``
  bracketing one step at a time; the perf model reads the columns;
* ``"none"`` — :class:`NullStepLog`: appends are dropped.  Sweeps and
  the planner use this together with the closed-form trace evaluator,
  where no per-step data exists in the first place.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .exceptions import RankError

__all__ = ["CommStats", "StepRecord", "ColumnarStepLog", "NullStepLog"]


@dataclasses.dataclass(frozen=True)
class StepRecord:
    """Aggregated cost of one superstep (BSP round) of an algorithm.

    Attributes
    ----------
    label:
        Human-readable phase name (e.g. ``"tournament-pivot"``).
    flops_max / flops_total:
        Maximum per-rank and machine-total floating point operations.
    recv_words_max / recv_words_total:
        Maximum per-rank and machine-total received words (elements).
    msgs_max / msgs_total:
        Received message counts; feed the latency (alpha) term.
    """

    label: str
    flops_max: float = 0.0
    flops_total: float = 0.0
    recv_words_max: float = 0.0
    recv_words_total: float = 0.0
    msgs_max: float = 0.0
    msgs_total: float = 0.0


#: The numeric fields of a StepRecord, in declaration order.
STEP_FIELDS = ("flops_max", "flops_total", "recv_words_max",
               "recv_words_total", "msgs_max", "msgs_total")


class ColumnarStepLog:
    """Step log stored as per-field NumPy columns.

    The trace evaluator flushes all its steps at once through
    :meth:`extend`, the machine's superstep bracketing adds one record
    at a time through :meth:`append` (O(1): scalars that :meth:`column`
    folds into one array on the next read).  Labels stay *lazy* — a
    segment stores the label factory and its step range, and the string
    (like the :class:`StepRecord` itself) is only built when a caller
    indexes or iterates the log; the perf model reads the columns
    directly, so the common paths never materialize a single record.
    """

    def __init__(self) -> None:
        # Label segments: ("lazy", fn, start, count) | ("list", [str]).
        self._labels: list[tuple] = []
        self._blocks: dict[str, list[np.ndarray | float]] = {
            f: [] for f in STEP_FIELDS}
        self._cache: dict[str, np.ndarray] = {}
        self._n = 0

    # -- writing -------------------------------------------------------
    def append(self, record: StepRecord) -> None:
        for f in STEP_FIELDS:
            self._blocks[f].append(getattr(record, f))
        if self._labels and self._labels[-1][0] == "list":
            self._labels[-1][1].append(record.label)
        else:
            self._labels.append(("list", [record.label]))
        self._cache.clear()
        self._n += 1

    def extend(self, label_fn: Callable[[int], str], start: int,
               count: int, **columns: np.ndarray) -> None:
        """Append ``count`` steps at once; ``columns`` maps each field
        of :data:`STEP_FIELDS` to a ``(count,)`` array.  Labels are
        deferred: ``label_fn(start + i)`` names step ``i``."""
        if count <= 0:
            return
        for f in STEP_FIELDS:
            col = np.asarray(columns[f], dtype=np.float64)
            if col.shape != (count,):
                raise ValueError(f"column {f!r}: expected ({count},), "
                                 f"got {col.shape}")
            self._blocks[f].append(col)
        self._labels.append(("lazy", label_fn, start, count))
        self._cache.clear()
        self._n += count

    # -- reading -------------------------------------------------------
    def column(self, field: str) -> np.ndarray:
        """The whole log's values of one field, as one array."""
        if field not in self._cache:
            blocks = self._blocks[field]    # arrays and appended scalars
            blocks[:] = [np.hstack(blocks).astype(np.float64, copy=False)
                         if blocks else np.zeros(0)]
            self._cache[field] = blocks[0]
        return self._cache[field]

    def label(self, idx: int) -> str:
        if idx < 0:
            idx += self._n
        if not 0 <= idx < self._n:
            raise IndexError(idx)
        at = 0
        for seg in self._labels:
            if seg[0] == "lazy":
                _, fn, start, count = seg
                if idx < at + count:
                    return fn(start + (idx - at))
                at += count
            else:
                _, labels = seg
                if idx < at + len(labels):
                    return labels[idx - at]
                at += len(labels)
        raise IndexError(idx)  # pragma: no cover - defended above

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, idx: int) -> StepRecord:
        if idx < 0:
            idx += self._n
        if not 0 <= idx < self._n:
            raise IndexError(idx)
        values = {f: float(self.column(f)[idx]) for f in STEP_FIELDS}
        return StepRecord(label=self.label(idx), **values)

    def __iter__(self) -> Iterator[StepRecord]:
        for i in range(self._n):
            yield self[i]

    def total(self, field: str) -> float:
        return float(self.column(field).sum())


class NullStepLog:
    """A step log that records nothing (``steps="none"``)."""

    def append(self, record: StepRecord) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(())

    def __getitem__(self, idx: int) -> StepRecord:
        raise IndexError("NullStepLog records no steps")

    def total(self, field: str) -> float:
        return 0.0


def _make_step_log(mode: str):
    if mode == "columnar":
        return ColumnarStepLog()
    if mode == "none":
        return NullStepLog()
    raise ValueError(f"unknown steps mode {mode!r}; "
                     "use 'none' or 'columnar'")


class CommStats:
    """Exact per-rank counters for a machine with ``nranks`` processors.

    The recording API is deliberately low-level (rank indices plus word
    counts); the communicator in :mod:`repro.machine.comm` and the
    trace-mode accounting in the factorization modules are its clients.
    """

    def __init__(self, nranks: int, steps: str = "columnar") -> None:
        if nranks <= 0:
            raise RankError(f"need at least one rank, got {nranks}")
        self.nranks = int(nranks)
        self.recv_words = np.zeros(nranks, dtype=np.float64)
        self.recv_msgs = np.zeros(nranks, dtype=np.float64)
        self.flops = np.zeros(nranks, dtype=np.float64)
        self.steps = _make_step_log(steps)
        # Open-step accumulators (delta since begin_step).
        self._step_label: str | None = None
        self._snap: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> int:
        r = int(rank)
        if not 0 <= r < self.nranks:
            raise RankError(f"rank {rank} out of range [0, {self.nranks})")
        return r

    # ------------------------------------------------------------------
    # Event recording
    # ------------------------------------------------------------------
    def record_recv(self, rank: int, words: float, msgs: float = 1.0) -> None:
        r = self._check_rank(rank)
        if not (0 <= words < math.inf and 0 <= msgs < math.inf):
            raise ValueError(f"words and msgs must be finite and "
                             f"non-negative, got {words}, {msgs}")
        self.recv_words[r] += words
        self.recv_msgs[r] += msgs

    def record_transfer(self, src: int, dst: int, words: float,
                        msgs: float = 1.0) -> None:
        """A point-to-point move of ``words`` elements from ``src`` to
        ``dst``, charged to the receiver; a self-send is local and
        counts nothing (its arguments are still checked)."""
        self._check_rank(src)
        if src != dst:
            self.record_recv(dst, words, msgs)
        elif not (0 <= words < math.inf and 0 <= msgs < math.inf):
            raise ValueError(f"words and msgs must be finite and "
                             f"non-negative, got {words}, {msgs}")

    def record_transfers(self, src: np.ndarray, dst: np.ndarray,
                         words: np.ndarray) -> None:
        """One :meth:`record_transfer` per entry of three equal-length
        arrays: message ``i`` moves ``words[i]`` elements from
        ``src[i]`` to ``dst[i]``; entries with ``src == dst`` are local
        and count nothing."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        words = np.asarray(words)
        if not src.shape == dst.shape == words.shape or src.ndim != 1:
            raise ValueError("src, dst and words must be equal-length vectors")
        if src.size == 0:
            return
        n = self.nranks
        # Read unsigned, a negative rank lies past n too: one pass per
        # rank vector.  The words' min is nan if any is; only float
        # counts can also be inf, which takes their max.
        if max(src.view(np.uint64).max(), dst.view(np.uint64).max()) >= n:
            raise RankError(f"rank out of range [0, {n})")
        if not (0 <= words.min()
                and (words.dtype.kind != "f" or words.max() < math.inf)):
            raise ValueError("words must be finite and non-negative")
        remote = src != dst
        dst, words = dst[remote], words[remote]
        self.recv_words += np.bincount(dst, weights=words, minlength=n)
        self.recv_msgs += np.bincount(dst, minlength=n)

    def record_flops(self, rank: int, flops: float) -> None:
        r = self._check_rank(rank)
        if not 0 <= flops < math.inf:
            raise ValueError(f"flops must be finite and non-negative, "
                             f"got {flops}")
        self.flops[r] += flops

    def record_flops_many(self, ranks: np.ndarray | Sequence[int],
                          flops: np.ndarray) -> None:
        """One :meth:`record_flops` per entry of two equal-length
        vectors, in order: rank ``ranks[i]`` did ``flops[i]``."""
        ranks = np.asarray(ranks, dtype=np.int64)
        flops = np.asarray(flops, dtype=np.float64)
        if not ranks.shape == flops.shape or ranks.ndim != 1:
            raise ValueError("ranks and flops must be equal-length vectors")
        if ranks.size == 0:
            return
        if ranks.min() < 0 or ranks.max() >= self.nranks:
            raise RankError(f"rank out of range [0, {self.nranks})")
        if not (0 <= flops.min() and flops.max() < math.inf):
            raise ValueError("flops must be finite and non-negative")
        np.add.at(self.flops, ranks, flops)

    # ------------------------------------------------------------------
    # Superstep bracketing
    # ------------------------------------------------------------------
    def begin_step(self, label: str) -> None:
        if self._step_label is not None:
            raise RuntimeError(f"step {self._step_label!r} still open")
        self._step_label = label
        self._snap = (self.flops.copy(), self.recv_words.copy(),
                      self.recv_msgs.copy())

    def end_step(self) -> StepRecord:
        if self._step_label is None or self._snap is None:
            raise RuntimeError("no open step")
        flops0, recv0, msgs0 = self._snap
        dflops = self.flops - flops0
        drecv = self.recv_words - recv0
        dmsgs = self.recv_msgs - msgs0
        rec = StepRecord(
            label=self._step_label,
            flops_max=float(dflops.max()), flops_total=float(dflops.sum()),
            recv_words_max=float(drecv.max()), recv_words_total=float(drecv.sum()),
            msgs_max=float(dmsgs.max()), msgs_total=float(dmsgs.sum()),
        )
        self.steps.append(rec)
        self._step_label = None
        self._snap = None
        return rec

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def max_recv_words(self) -> float:
        """Maximum communicated (received) elements over all ranks.

        This is the quantity the paper's figures plot per node and the
        quantity bounded below by the parallel I/O lower bounds.
        """
        return float(self.recv_words.max())

    @property
    def total_recv_words(self) -> float:
        return float(self.recv_words.sum())

    @property
    def mean_recv_words(self) -> float:
        """Average communicated elements per rank (the "communication
        volume per node" metric of the paper's Figure 8)."""
        return float(self.recv_words.mean())

    @property
    def total_flops(self) -> float:
        return float(self.flops.sum())
