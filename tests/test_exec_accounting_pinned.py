"""Executed COnfLUX/COnfCHOX accounting is pinned, not promised.

``exec_accounting_pinned.json`` holds, for three small configurations
of each 2.5D schedule, what a :class:`DistributedBackend` run counted
at the commit *before* the panel fan-out and Schur update were
batched: the per-rank received/sent words, received messages and
flops, every per-step column of the step log, and the per-step memory
peaks.  An execute-path optimisation may change how the Python gets
there; it may not change one of these numbers, so the comparison is
exact equality.

Those six runs factor the diagonally dominant default input, whose
tournament winners all sit in the diagonal tile.  The ``/normal``
entries (COnfLUX on a seeded ``standard_normal`` matrix, recorded at
the commit before the point-to-point patterns were batched) spread
each step's pivots over up to eight tiles and several ranks, so steps
5 and 6 run their multi-tile paths; they pin the row permutation too.

Regenerate (only for an intended accounting change, from the commit
whose numbers are to be pinned)::

    PYTHONPATH=src python tests/test_exec_accounting_pinned.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
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

#: COnfLUX configurations also run on a general matrix (real pivoting).
PIVOTING = {
    "n128-p16-v8-c2": CONFIGS["n128-p16-v8-c2"],
    "n96-p8-v8-c2-grid4x1": CONFIGS["n96-p8-v8-c2-grid4x1"],
    "n128-p16-v8-c4": (128, 16, 8, 4, None),
}
NORMAL_SEED = 17

#: JSON key -> (schedule, configuration, general input?)
CASES = {f"{impl}/{cfg}": (impl, config, False)
         for impl in SCHEDULES for cfg, config in CONFIGS.items()}
CASES.update({f"conflux/{cfg}/normal": ("conflux", config, True)
              for cfg, config in PIVOTING.items()})


def measure(impl: str, config: tuple, normal: bool) -> dict:
    """One distributed run's counted accounting: on the schedule's
    default input, or on a seeded general matrix with its pivots."""
    n, p, v, c, grid = config
    sched = SCHEDULES[impl](
        n, p, v=v, c=c, grid=ProcessorGrid3D(*grid) if grid else None)
    backend = DistributedBackend()
    a = (np.random.default_rng(NORMAL_SEED).standard_normal((n, n))
         if normal else None)
    result = backend.run(sched, a=a)
    comm = result.comm
    out = {field: getattr(comm, field).tolist()
           for field in ("recv_words", "sent_words", "recv_msgs", "flops")}
    out["steps"] = {field: [getattr(rec, field) for rec in comm.steps]
                    for field in ("label",) + STEP_FIELDS}
    out["step_peaks"] = [list(lp) for lp in
                         backend.memory_report().step_peaks]
    if normal:
        out["perm"] = result.perm.tolist()
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("key", CASES,
                         ids=[key.replace("/", "-") for key in CASES])
def test_counted_accounting_equals_the_pinned_run(pinned, key):
    got = measure(*CASES[key])
    want = pinned[key]
    assert got.keys() == want.keys()
    for field in want.keys() - {"steps"}:
        assert got[field] == want[field], field
    for field, column in want["steps"].items():
        assert got["steps"][field] == column, f"step column {field}"


if __name__ == "__main__":
    PINNED.write_text(json.dumps(
        {key: measure(*case) for key, case in CASES.items()},
        indent=1) + "\n")
