"""Benchmark-side spans: the traced pass times calls into each layer's
public functions from here, so ``src/repro`` carries no extra span or
counter for the ledger.

A span is ``(name, layer, start, end, parent, op)``; spans of one
operation share its ``op`` id.  They stay in memory and are written as
Chrome-trace JSON when the run ends.  A layer's self time is its
spans' duration minus the part their direct children cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time


@dataclasses.dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, layer, time.perf_counter(), 0.0,
                   parent, self.op)
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.dur for s in self.spans if s.name == name]

    def per_op(self, name: str) -> list[float]:
        """Summed duration of ``name`` spans inside each operation."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s.name == name and s.op is not None:
                totals[s.op] = totals.get(s.op, 0.0) + s.dur
        return list(totals.values())

    def median(self, name: str, per_op: bool = True) -> float:
        values = self.per_op(name) if per_op else self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_times(self, root_name: str) -> dict[int, dict[str, float]]:
        """Per operation, the self time of every layer underneath the
        ``root_name`` spans (the root span's own glue included)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.dur
        roots = {s.id for s in self.spans if s.name == root_name}
        inside = set(roots)
        for s in self.spans:            # parents precede children
            if s.parent in inside:
                inside.add(s.id)
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            if s.id in inside and s.op is not None:
                layers = out.setdefault(s.op, {})
                layers[s.layer] = (layers.get(s.layer, 0.0)
                                   + s.dur - covered[s.id])
        return out

    def layer_sum_median(self, root_name: str) -> float:
        """Median over operations of the summed per-layer self times."""
        sums = [sum(layers.values())
                for layers in self.self_times(root_name).values()]
        return statistics.median(sums) if sums else 0.0

    # ------------------------------------------------------------------
    def chrome_events(self, pid: int, process_name: str) -> list[dict]:
        if not self.spans:
            return []
        epoch = self.spans[0].start
        events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "args": {"name": process_name}}]
        for s in self.spans:
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": pid,
                "tid": 0, "ts": (s.start - epoch) * 1e6,
                "dur": s.dur * 1e6,
                "args": {"id": s.id, "parent": s.parent, "op": s.op}})
        return events


def write_chrome_trace(path, events: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
