"""Executed COnfLUX/COnfCHOX accounting is pinned, not promised.

``exec_accounting_pinned.json`` holds, for three small configurations
of each 2.5D schedule, what a :class:`DistributedBackend` run counted
at the commit *before* the panel fan-out and Schur update were
batched: the per-rank received/sent words, received messages and
flops, every per-step column of the step log, and the per-step memory
peaks.  An execute-path optimisation may change how the Python gets
there; it may not change one of these numbers, so the comparison is
exact equality.

Regenerate (only for an intended accounting change, from the commit
whose numbers are to be pinned)::

    PYTHONPATH=src python tests/test_exec_accounting_pinned.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.engine.backends import DistributedBackend
from repro.factorizations import ConfchoxSchedule, ConfluxSchedule
from repro.machine.grid import ProcessorGrid3D
from repro.machine.stats import STEP_FIELDS

PINNED = pathlib.Path(__file__).with_name("exec_accounting_pinned.json")

SCHEDULES = {"conflux": ConfluxSchedule, "confchox": ConfchoxSchedule}

#: name -> (n, P, v, c, explicit grid or None).  The second runs on a
#: 4x1 layer grid with 12 tile rows, so late steps leave grid rows
#: without active rows; the third has no replication.
CONFIGS = {
    "n128-p16-v8-c2": (128, 16, 8, 2, None),
    "n96-p8-v8-c2-grid4x1": (96, 8, 8, 2, (4, 1, 2)),
    "n64-p4-v8-c1": (64, 4, 8, 1, None),
}

CASES = [(impl, cfg) for impl in SCHEDULES for cfg in CONFIGS]


def measure(impl: str, cfg: str) -> dict:
    """One default-input distributed run's counted accounting."""
    n, p, v, c, grid = CONFIGS[cfg]
    sched = SCHEDULES[impl](
        n, p, v=v, c=c, grid=ProcessorGrid3D(*grid) if grid else None)
    backend = DistributedBackend()
    comm = backend.run(sched).comm
    out = {field: getattr(comm, field).tolist()
           for field in ("recv_words", "sent_words", "recv_msgs", "flops")}
    out["steps"] = {field: [getattr(rec, field) for rec in comm.steps]
                    for field in ("label",) + STEP_FIELDS}
    out["step_peaks"] = [list(lp) for lp in
                         backend.memory_report().step_peaks]
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("impl,cfg", CASES)
def test_counted_accounting_equals_the_pinned_run(pinned, impl, cfg):
    got = measure(impl, cfg)
    want = pinned[f"{impl}/{cfg}"]
    assert got.keys() == want.keys()
    for field in ("recv_words", "sent_words", "recv_msgs", "flops",
                  "step_peaks"):
        assert got[field] == want[field], field
    for field, column in want["steps"].items():
        assert got["steps"][field] == column, f"step column {field}"


if __name__ == "__main__":
    PINNED.write_text(json.dumps(
        {f"{impl}/{cfg}": measure(impl, cfg) for impl, cfg in CASES},
        indent=1) + "\n")
