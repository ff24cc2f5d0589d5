"""Exporters: Chrome-trace/Perfetto JSON and flat metrics JSON.

Two timelines come out of a run:

* the **span tree** — every :class:`~repro.obs.core.SpanRecord` a
  telemetry recorded becomes one complete (``ph: "X"``) trace event;
  viewers (``chrome://tracing``, https://ui.perfetto.dev) reconstruct
  nesting from pid/tid + time containment, with one lane per process,
  so re-parented pool-worker spans show up as their own worker rows;
* the **per-rank comm/memory timeline** — the machine's superstep
  accounting (a step log from
  :class:`~repro.machine.stats.CommStats` — any flavour — plus an
  optional :class:`~repro.engine.backends.MemoryReport`) rendered as
  Chrome *counter* events (``ph: "C"``).  The simulated machine has no
  wall clock, so this timeline uses the superstep index as its
  timebase (1 superstep = 1 us), on a pid of its own; it sits next to
  the span tree in the same file without sharing its axis.

``metrics_json`` flattens one or more
:class:`~repro.obs.metrics.MetricsRegistry` snapshots into a single
JSON-ready dict (later registries win name collisions — callers
prefix).
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Iterable

from .core import SpanRecord, Telemetry
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.backends import MemoryReport

__all__ = ["span_events", "step_timeline_events",
           "memory_timeline_events", "chrome_trace",
           "write_chrome_trace", "metrics_json"]

#: pid label of the synthetic superstep timeline process.
TIMELINE_PID = "superstep-timeline"

#: Step-log fields rendered as counter tracks.
_STEP_FIELDS = ("recv_words_max", "recv_words_total", "flops_max",
                "msgs_max")


def span_events(records: Iterable[SpanRecord]) -> list[dict]:
    """Complete-event (``ph: "X"``) dicts for every span, in record
    order; timestamps convert from clock seconds to microseconds."""
    return [{
        "name": rec.name,
        "cat": rec.cat,
        "ph": "X",
        "ts": rec.ts * 1e6,
        "dur": rec.dur * 1e6,
        "pid": rec.pid,
        "tid": rec.tid,
        "args": dict(rec.args),
    } for rec in records]


def step_timeline_events(step_log, pid: str = TIMELINE_PID) -> list[dict]:
    """Counter events for a step log's per-superstep maxima/totals.

    Accepts either step-log flavour (a :class:`ColumnarStepLog`; a
    :class:`NullStepLog` yields no events).  Each superstep ``i`` emits
    one counter sample per field at ``ts = i`` (microseconds — the
    synthetic superstep timebase)
    plus an instant event naming the step's label, so the phase
    structure stays readable in the viewer.
    """
    events: list[dict] = []
    for i, rec in enumerate(step_log):
        events.append({
            "name": f"step:{rec.label}", "cat": "superstep", "ph": "I",
            "ts": float(i), "pid": pid, "tid": 0, "s": "t",
        })
        for field in _STEP_FIELDS:
            events.append({
                "name": field, "cat": "superstep", "ph": "C",
                "ts": float(i), "pid": pid, "tid": 0,
                "args": {field: float(getattr(rec, field))},
            })
    return events


def memory_timeline_events(report: "MemoryReport",
                           pid: str = TIMELINE_PID) -> list[dict]:
    """Counter events for a distributed run's memory behaviour.

    The per-superstep transient peaks (``report.step_peaks``) become a
    ``step_peak_words`` counter track on the superstep timebase, and
    the per-rank run-wide peaks land in one metadata-style instant
    event (per-rank series would need one track per rank — the flat
    array reads better in ``args``).  Works for aborted runs too: the
    report covers however far execution got.
    """
    events: list[dict] = [{
        "name": "memory.per_rank_peaks", "cat": "memory", "ph": "I",
        "ts": 0.0, "pid": pid, "tid": 1, "s": "p",
        "args": {
            "budget_words": report.budget_words,
            "enforced": report.enforced,
            "peak_words": [float(w) for w in report.peak_words],
            "resident_words": [float(w) for w in report.resident_words],
        },
    }]
    for i, (label, peak) in enumerate(report.step_peaks):
        events.append({
            "name": "step_peak_words", "cat": "memory", "ph": "C",
            "ts": float(i), "pid": pid, "tid": 1,
            "args": {"step_peak_words": float(peak), "label": label},
        })
    return events


def chrome_trace(telemetry: Telemetry, step_log=None,
                 memory_report: "MemoryReport | None" = None) -> dict:
    """The full trace document: span tree plus optional superstep
    comm/memory timeline, in Chrome trace-event JSON object form."""
    events = span_events(telemetry.spans())
    if step_log is not None:
        events.extend(step_timeline_events(step_log))
    if memory_report is not None:
        events.extend(memory_timeline_events(memory_report))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "spans": len(telemetry.spans()),
        },
    }


def write_chrome_trace(path, telemetry: Telemetry, step_log=None,
                       memory_report: "MemoryReport | None" = None
                       ) -> pathlib.Path:
    """Write :func:`chrome_trace` to ``path`` (load it in
    ``chrome://tracing`` or Perfetto); returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = chrome_trace(telemetry, step_log=step_log,
                       memory_report=memory_report)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def metrics_json(*registries: MetricsRegistry | dict,
                 prefix: tuple[str, ...] = ()) -> dict[str, float]:
    """Merge registry snapshots (or pre-made snapshot dicts) into one
    flat JSON-ready mapping.

    ``prefix`` optionally names each registry; a named registry's keys
    become ``"{name}.{key}"``, which is how the trace report keeps the
    default-service counters apart from the global registry's.
    """
    out: dict[str, float] = {}
    for i, reg in enumerate(registries):
        snap = reg.snapshot() if isinstance(reg, MetricsRegistry) else reg
        tag = prefix[i] if i < len(prefix) else ""
        for key, value in snap.items():
            out[f"{tag}.{key}" if tag else key] = value
    return dict(sorted(out.items()))
