"""repro.obs — the unified telemetry layer.

One substrate for the system's self-accounting, mirroring the paper's
accounting of its subject: **spans** (:func:`span` — nestable,
thread- and process-aware, zero overhead while disabled, injectable
clock), an always-on **metrics registry** (:func:`metrics` — named
counters/gauges/histograms with ``snapshot()``/``reset()``), and
**exporters** (:mod:`repro.obs.export`) that render the span tree and
the machine's superstep comm/memory accounting as Chrome-trace/
Perfetto JSON plus a flat metrics JSON.

Instrumented layers: the planner (``plan_batch``, ``PlanService``,
``PlanAtlas.build``), the runtime (``ResultCache`` lookups, sweep
executors — pool workers ship their spans home with each result),
the api (``_run_pd`` gate/prep/backend/writeback phases,
``run_workload`` operand adoption) and the engine
(``DistributedBackend`` superstep boundaries).  Turn it on with::

    from repro import obs

    obs.enable()
    ...                      # any instrumented work
    obs.spans()              # finished SpanRecords
    obs.metrics().snapshot() # flat counters/gauges/histograms

``scripts/trace_report.py`` (``make trace``) drives a representative
workload through every layer and writes the Perfetto-loadable trace.
This package must stay import-light and repro-free: every other layer
imports it, so it can depend on nothing but the stdlib.
"""

from .core import (
    NULL_SPAN,
    SpanRecord,
    Telemetry,
    clock,
    default_telemetry,
    disable,
    enable,
    metrics,
    set_default_telemetry,
    span,
    spans,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "SpanRecord", "Telemetry", "NULL_SPAN",
    "span", "enable", "disable", "clock", "spans", "metrics",
    "default_telemetry", "set_default_telemetry",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
]
