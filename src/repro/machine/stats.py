"""Per-rank communication and computation counters.

The paper's primary evaluation metric is *communicated elements per
processor* (measured on Piz Daint with Score-P).  In the parallel red-blue
pebble game of Section 5, a communication is a remote vertex acquiring a
local pebble, i.e. a *receive*; all per-step costs quoted in Algorithm 1 of
the paper are receive volumes.  We therefore treat **words received per
rank** as the primary volume metric, while also tracking sent words and
message counts (for the latency term of the time model) and floating-point
operations (for the compute term).

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
    sent_words_max / sent_words_total:
        Same for sent words.
    msgs_max / msgs_total:
        Message counts; feed the latency (alpha) term.
    """

    label: str
    flops_max: float = 0.0
    flops_total: float = 0.0
    recv_words_max: float = 0.0
    recv_words_total: float = 0.0
    sent_words_max: float = 0.0
    sent_words_total: float = 0.0
    msgs_max: float = 0.0
    msgs_total: float = 0.0


#: The numeric fields of a StepRecord, in declaration order.
STEP_FIELDS = ("flops_max", "flops_total", "recv_words_max",
               "recv_words_total", "sent_words_max", "sent_words_total",
               "msgs_max", "msgs_total")


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

    @property
    def records(self) -> Sequence[StepRecord]:
        return tuple(self)

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

    @property
    def records(self) -> Sequence[StepRecord]:
        return ()

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
        self.sent_words = np.zeros(nranks, dtype=np.float64)
        self.recv_words = np.zeros(nranks, dtype=np.float64)
        self.sent_msgs = np.zeros(nranks, dtype=np.float64)
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
    def record_send(self, rank: int, words: float, msgs: float = 1.0) -> None:
        r = self._check_rank(rank)
        if words < 0 or msgs < 0:
            raise ValueError("words and msgs must be non-negative")
        self.sent_words[r] += words
        self.sent_msgs[r] += msgs

    def record_recv(self, rank: int, words: float, msgs: float = 1.0) -> None:
        r = self._check_rank(rank)
        if words < 0 or msgs < 0:
            raise ValueError("words and msgs must be non-negative")
        self.recv_words[r] += words
        self.recv_msgs[r] += msgs

    def record_transfer(self, src: int, dst: int, words: float,
                        msgs: float = 1.0) -> None:
        """A point-to-point move of ``words`` elements from ``src`` to ``dst``."""
        if src == dst:
            return  # local: no communication in the distributed model
        self.record_send(src, words, msgs)
        self.record_recv(dst, words, msgs)

    def record_transfers(self, src: np.ndarray, dst: np.ndarray,
                         words: np.ndarray) -> None:
        """One :meth:`record_transfer` per entry of three equal-length
        arrays: message ``i`` moves ``words[i]`` elements from
        ``src[i]`` to ``dst[i]``; entries with ``src == dst`` are local
        and count nothing."""
        src, dst, words = np.asarray(src), np.asarray(dst), np.asarray(words)
        if not src.shape == dst.shape == words.shape or src.ndim != 1:
            raise ValueError("src, dst and words must be equal-length vectors")
        if src.size == 0:
            return
        n = self.nranks
        if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
            raise RankError(f"rank out of range [0, {n})")
        if words.min() < 0:
            raise ValueError("words must be non-negative")
        remote = src != dst
        src, dst, words = src[remote], dst[remote], words[remote]
        self.sent_words += np.bincount(src, weights=words, minlength=n)
        self.recv_words += np.bincount(dst, weights=words, minlength=n)
        self.sent_msgs += np.bincount(src, minlength=n)
        self.recv_msgs += np.bincount(dst, minlength=n)

    def record_flops(self, rank: int, flops: float) -> None:
        r = self._check_rank(rank)
        if flops < 0:
            raise ValueError("flops must be non-negative")
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
        if flops.min() < 0:
            raise ValueError("flops must be non-negative")
        np.add.at(self.flops, ranks, flops)

    # ------------------------------------------------------------------
    # Superstep bracketing
    # ------------------------------------------------------------------
    def begin_step(self, label: str) -> None:
        if self._step_label is not None:
            raise RuntimeError(f"step {self._step_label!r} still open")
        self._step_label = label
        self._snap = (self.flops.copy(), self.recv_words.copy(),
                      self.sent_words.copy(), self.recv_msgs.copy())

    def end_step(self) -> StepRecord:
        if self._step_label is None or self._snap is None:
            raise RuntimeError("no open step")
        flops0, recv0, sent0, msgs0 = self._snap
        dflops = self.flops - flops0
        drecv = self.recv_words - recv0
        dsent = self.sent_words - sent0
        dmsgs = self.recv_msgs - msgs0
        rec = StepRecord(
            label=self._step_label,
            flops_max=float(dflops.max()), flops_total=float(dflops.sum()),
            recv_words_max=float(drecv.max()), recv_words_total=float(drecv.sum()),
            sent_words_max=float(dsent.max()), sent_words_total=float(dsent.sum()),
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
    def max_sent_words(self) -> float:
        return float(self.sent_words.max())

    @property
    def total_flops(self) -> float:
        return float(self.flops.sum())

    @property
    def max_flops(self) -> float:
        return float(self.flops.max())

    def summary(self) -> dict[str, float]:
        return {
            "nranks": float(self.nranks),
            "max_recv_words": self.max_recv_words,
            "total_recv_words": self.total_recv_words,
            "max_sent_words": self.max_sent_words,
            "total_flops": self.total_flops,
            "max_flops": self.max_flops,
            "max_recv_msgs": float(self.recv_msgs.max()),
        }
