"""Spans: the zero-overhead-when-disabled tracing half of telemetry.

A :class:`Telemetry` object owns a clock, a
:class:`~repro.obs.metrics.MetricsRegistry`, and a list of finished
:class:`SpanRecord`\\ s.  Instrumented code brackets work with::

    with obs.span("plan.live", cat="planner", requests=3):
        ...

Spans nest naturally (Chrome-trace viewers reconstruct the tree from
pid/tid + time containment), record the thread and process that ran
them, and cost **nothing but a flag check** while telemetry is
disabled: :meth:`Telemetry.span` returns one shared no-op context
manager, allocates no record, and takes no lock.  Metrics, by
contrast, are always on (see :mod:`repro.obs.metrics`) — counters must
keep counting for the compatibility views even when nobody is tracing.

The clock is injectable (``enable(clock=...)``), so replayed or
property-tested runs produce deterministic timestamps.  For
cross-process work the enable epoch pins ``(time.time(),
clock())`` together; :meth:`Telemetry.adopt` uses a child process's
epoch to re-base spans shipped back from pool workers into the
parent's timebase — the executor layer ships worker spans home with
each result and re-parents them here.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Any, Callable

from .metrics import MetricsRegistry

__all__ = ["SpanRecord", "Telemetry", "NULL_SPAN",
           "default_telemetry", "set_default_telemetry",
           "span", "enable", "disable", "clock", "spans",
           "metrics"]


@dataclasses.dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    ``ts``/``dur`` are seconds on the owning telemetry's clock
    (``ts`` relative to whatever epoch that clock uses); ``pid``/
    ``tid`` identify the process and thread that ran the work — a
    span adopted from a pool worker keeps the worker's ``pid``, which
    is how the Chrome trace shows one lane per worker.  ``args`` are
    the caller's attributes, plus ``error`` when the span exited via
    an exception.
    """

    name: str
    cat: str
    ts: float
    dur: float
    pid: int
    tid: int
    args: dict[str, Any]


class _NullSpan:
    """The shared disabled-path span: enter/exit/set are no-ops."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Span:
    """A live span context manager; records itself on exit."""

    __slots__ = ("_tel", "name", "cat", "args", "_t0")

    def __init__(self, tel: "Telemetry", name: str, cat: str,
                 args: dict[str, Any]) -> None:
        self._tel = tel
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, **args: Any) -> None:
        """Attach attributes discovered mid-span (e.g. a cache
        lookup's outcome)."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self._t0 = self._tel._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = self._tel._clock()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tel._record(SpanRecord(
            name=self.name, cat=self.cat, ts=self._t0,
            dur=t1 - self._t0, pid=os.getpid(),
            tid=threading.get_ident(), args=self.args))
        return False


class Telemetry:
    """One telemetry domain: clock + metrics registry + span buffer.

    The module keeps a process-default instance (see
    :func:`default_telemetry`); libraries instrument against that, and
    tests construct their own to stay isolated.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._enabled = False
        self._clock = clock
        self.metrics = MetricsRegistry()
        self._spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self.epoch_wall = time.time()
        self.epoch_clock = self._clock()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, clock: Callable[[], float] | None = None) -> None:
        """Start recording spans (clears any previous run's buffer).

        ``clock`` swaps the time source — inject a deterministic one
        so replays produce identical traces.  The wall/clock epoch is
        re-pinned here, which is what :meth:`adopt` uses to re-base
        child-process spans.
        """
        if clock is not None:
            self._clock = clock
        with self._lock:
            self._spans.clear()
        self.epoch_wall = time.time()
        self.epoch_clock = self._clock()
        self._enabled = True

    def disable(self) -> None:
        """Stop recording (the buffered spans stay readable)."""
        self._enabled = False

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def clock(self) -> float:
        """The telemetry clock (works whether or not spans are on —
        the always-on metrics time their walls with this, so an
        injected clock steers them too)."""
        return self._clock()

    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "app", **args: Any):
        """A context manager bracketing one unit of work.

        Disabled telemetry returns the shared :data:`NULL_SPAN` —
        no allocation beyond the kwargs dict, no lock, no record.
        """
        if not self._enabled:
            return NULL_SPAN
        return _Span(self, name, cat, args)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def spans(self) -> tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._spans)

    # ------------------------------------------------------------------
    def adopt(self, records, epoch_wall: float,
              epoch_clock: float) -> None:
        """Re-parent spans shipped from another process.

        ``epoch_wall``/``epoch_clock`` are the child telemetry's
        paired epochs (wall time and its clock read at ``enable``);
        each child timestamp maps through wall time into this
        telemetry's clock base, so worker spans land on the parent
        timeline where the work actually happened.  The worker's
        ``pid`` is preserved — Chrome-trace viewers draw one lane per
        process.
        """
        shift = (self.epoch_clock - self.epoch_wall) + (
            epoch_wall - epoch_clock)
        with self._lock:
            for rec in records:
                self._spans.append(
                    dataclasses.replace(rec, ts=rec.ts + shift))


# ----------------------------------------------------------------------
# The process-default telemetry, instrumented against by the planner,
# runtime, api, and engine layers.

_default = Telemetry()


def default_telemetry() -> Telemetry:
    return _default


def set_default_telemetry(tel: Telemetry) -> Telemetry:
    """Install ``tel`` as the process default (pool workers install a
    fresh one per traced task); returns the previous default."""
    global _default
    previous, _default = _default, tel
    return previous


def span(name: str, cat: str = "app", **args: Any):
    """``obs.span(...)`` against the process-default telemetry."""
    return _default.span(name, cat, **args)


def enable(clock: Callable[[], float] | None = None) -> None:
    _default.enable(clock=clock)


def disable() -> None:
    _default.disable()


def clock() -> float:
    return _default.clock()


def spans() -> tuple[SpanRecord, ...]:
    return _default.spans()


def metrics() -> MetricsRegistry:
    """The process-default metrics registry (always on)."""
    return _default.metrics
