"""The metrics registry: named counters, gauges, and histograms.

The paper's whole subject is *accounting* — words, messages, memory
peaks — yet until this module the system's accounting of **itself**
was scattered: ``PlanService`` kept private ints, the atlas timed
builds with a bare ``perf_counter``, and the cache/executor layers
reported nothing.  :class:`MetricsRegistry` is the one substrate they
all emit into: create-or-fetch named instruments, read everything back
as a flat :meth:`snapshot`, zero it with :meth:`reset`.

Unlike spans (see :mod:`repro.obs.core`), metrics are **always on**:
an increment is a dict lookup plus a locked float add, cheap enough
for every instrumented call site (plan batches, executor runs, cache
lookups — never per-cost-term inner loops).  That is what lets
``make trace`` export every layer's wall times from one snapshot
instead of each layer keeping its own ``perf_counter`` bookkeeping,
and what lets :class:`~repro.planner.service.ServiceStats` become a
view over registry counters without breaking when telemetry is
disabled.

Thread safety: one lock per registry covers instrument creation and
every mutation — the service's async wrappers and pool bookkeeping may
bump counters from executor threads.
"""

from __future__ import annotations

import math
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically *usable* (but settable, for compatibility views)
    named float counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        """Overwrite the count (the ``ServiceStats`` compatibility
        property's ``+=`` desugars to a get + set)."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-value-wins named float (e.g. the latest build wall
    time, the latest pool utilization)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming count/sum/min/max of observations (latencies,
    durations); no buckets — the exporters want aggregates, not
    percentile sketches."""

    __slots__ = ("name", "count", "total", "vmin", "vmax", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.vmin = min(self.vmin, value)
            self.vmax = max(self.vmax, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named instruments, created on first touch.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` return
    the existing instrument or create it; asking for an existing name
    with a different kind raises ``TypeError`` (one name, one meaning).
    :meth:`snapshot` flattens everything into ``{name: value}`` —
    histograms expand to ``name.count`` / ``.sum`` / ``.min`` /
    ``.max`` / ``.mean`` — and :meth:`reset` zeroes values while
    keeping the registrations.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, self._lock)
            elif type(metric) is not cls:
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, not a "
                    f"{cls.__name__}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict[str, float]:
        """Every instrument's current value(s), flat and sorted by
        name (histograms expand to their aggregate fields)."""
        out: dict[str, float] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            if isinstance(m, Histogram):
                out[f"{m.name}.count"] = float(m.count)
                out[f"{m.name}.sum"] = m.total
                out[f"{m.name}.mean"] = m.mean
                if m.count:
                    out[f"{m.name}.min"] = m.vmin
                    out[f"{m.name}.max"] = m.vmax
            else:
                out[m.name] = m.value
        return dict(sorted(out.items()))

    def __len__(self) -> int:
        return len(self._metrics)
