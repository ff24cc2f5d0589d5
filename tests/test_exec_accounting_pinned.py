"""Executed COnfLUX/COnfCHOX accounting is pinned, not promised.

``exec_accounting_pinned.json`` holds, for three small configurations
of each 2.5D schedule, what a :class:`DistributedBackend` run counted
at the commit *before* the panel fan-out and Schur update were
batched: the per-rank received words, received messages and
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

The 2D entries (``lu2d``: the ScaLAPACK/SLATE flavour, ``lu2d-mkl``:
with the panel rebroadcast, each also ``/normal``; ``chol2d``) were
recorded at the commit before the 2D views moved onto
``local_panels``, on 4x4, 2x3, 2x4 (ragged tile counts) and 1x3 grids;
the ``summa`` ones at the same commit, so that neither the new free nor
a shared helper can move the matmul.  Counters, step columns and
``perm`` compare ``==`` everywhere.  Per-step memory peaks compare
``==`` for the 2.5D schedules and ``<=`` for the two 2D ones: that
commit kept a second copy of every Cholesky panel tile at its own owner
(and both in-flight segments of a row swap at one end), which nothing
read.

The step columns were recorded from the eager per-step record log the
machine used to keep.  The machine now appends to the same
:class:`ColumnarStepLog` the trace evaluator fills, so the pinned
records double as the reference for that log, and ``PARENT_TIMES``
holds what the perf model made of the eager log at that commit.

Regenerate (only for an intended accounting change, from the commit
whose numbers are to be pinned)::

    PYTHONPATH=src python tests/test_exec_accounting_pinned.py
"""

from __future__ import annotations

import functools
import json
import pathlib

import numpy as np
import pytest

from repro.engine.backends import DistributedBackend
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    Matmul25DSchedule,
)
from repro.factorizations.baselines.scalapack_chol import (
    ScalapackCholeskySchedule,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule
from repro.machine.grid import ProcessorGrid3D
from repro.machine.perf_model import PerfModel
from repro.machine.stats import STEP_FIELDS, ColumnarStepLog, StepRecord

PINNED = pathlib.Path(__file__).with_name("exec_accounting_pinned.json")


def _schedule_25d(cls):
    return lambda n, p, v, c, grid: cls(
        n, p, v=v, c=c, grid=ProcessorGrid3D(*grid) if grid else None)


#: JSON key prefix -> configuration tuple -> schedule.
SCHEDULES = {
    "conflux": _schedule_25d(ConfluxSchedule),
    "confchox": _schedule_25d(ConfchoxSchedule),
    "lu2d": lambda n, p, nb: ScalapackLUSchedule(
        n, p, nb=nb, panel_rebroadcast=False),
    "lu2d-mkl": lambda n, p, nb: ScalapackLUSchedule(
        n, p, nb=nb, panel_rebroadcast=True),
    "chol2d": lambda n, p, nb: ScalapackCholeskySchedule(n, p, nb=nb),
    "summa": lambda n, p, s, c: Matmul25DSchedule(n, p, s=s, c=c),
}

#: The schedules whose per-step peaks may fall below the pinned ones.
PEAKS_MAY_FALL = ("lu2d", "lu2d-mkl", "chol2d")

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

#: name -> (n, P, nb) of the 2D baselines: a 4x4 grid, 2x3, 2x4 with
#: ragged tile counts (15 tiles a side), 1x3.
CONFIGS_2D = {
    "n128-p16-nb8": (128, 16, 8),
    "n96-p6-nb8": (96, 6, 8),
    "n120-p8-nb8": (120, 8, 8),
    "n96-p3-nb8": (96, 3, 8),
}

#: name -> (n, P, s, c) of the SUMMA: the 2D shapes, and one replicated.
CONFIGS_SUMMA = {f"n{n}-p{p}-s{s}-c{c}": (n, p, s, c) for n, p, s, c in
                 [(*config, 1) for config in CONFIGS_2D.values()]
                 + [(128, 32, 8, 2)]}

#: JSON key -> (schedule, configuration, general input?)
CASES = {f"{impl}/{cfg}": (impl, config, False)
         for impl in ("conflux", "confchox")
         for cfg, config in CONFIGS.items()}
CASES.update({f"conflux/{cfg}/normal": ("conflux", config, True)
              for cfg, config in PIVOTING.items()})
CASES.update({f"{impl}/{cfg}": (impl, config, False)
              for impl in PEAKS_MAY_FALL
              for cfg, config in CONFIGS_2D.items()})
CASES.update({f"{impl}/{cfg}/normal": (impl, config, True)
              for impl in ("lu2d", "lu2d-mkl")
              for cfg, config in CONFIGS_2D.items()})
CASES.update({f"summa/{cfg}": ("summa", config, False)
              for cfg, config in CONFIGS_SUMMA.items()})


#: ``PerfModel().evaluate(step_log, P, N^2/P)`` ``(total_s,
#: peak_fraction)`` of each run at the last commit with the eager log.
PARENT_TIMES = {
    "conflux/n128-p16-v8-c2":
        (0.0062113362967229895, 2.4808696238936344e-05),
    "conflux/n96-p8-v8-c2-grid4x1":
        (0.00487292116994747, 2.9248668315311876e-05),
    "conflux/n64-p4-v8-c1":
        (0.00278580034348865, 3.0295241691048543e-05),
    "confchox/n128-p16-v8-c2":
        (0.0034413835786823686, 2.2852488859812322e-05),
    "confchox/n96-p8-v8-c2-grid4x1":
        (0.0024663111236748786, 2.757931845712525e-05),
    "confchox/n64-p4-v8-c1":
        (0.001631808081583888, 2.58339722249485e-05),
    "conflux/n128-p16-v8-c2/normal":
        (0.006948266211170849, 2.2185335289480965e-05),
    "conflux/n96-p8-v8-c2-grid4x1/normal":
        (0.005084213248314559, 2.8230216189499824e-05),
    "conflux/n128-p16-v8-c4/normal":
        (0.008840597325695511, 1.7436561116448035e-05),
}


@functools.lru_cache(maxsize=None)
def run(key: str):
    """One distributed run (and its backend): on the schedule's
    default input, or on a seeded general matrix with its pivots."""
    impl, config, normal = CASES[key]
    sched = SCHEDULES[impl](*config)
    backend = DistributedBackend()
    a = (np.random.default_rng(NORMAL_SEED).standard_normal(
        (sched.n, sched.n)) if normal else None)
    return backend.run(sched, a=a), backend


def measure(key: str) -> dict:
    """The counted accounting of :func:`run`, in the pinned shape."""
    result, backend = run(key)
    comm = result.comm
    out = {field: getattr(comm, field).tolist()
           for field in ("recv_words", "recv_msgs", "flops")}
    out["steps"] = {field: [getattr(rec, field) for rec in comm.steps]
                    for field in ("label",) + STEP_FIELDS}
    out["step_peaks"] = [list(lp) for lp in
                         backend.memory_report().step_peaks]
    if CASES[key][2]:
        out["perm"] = result.perm.tolist()
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def _ids(cases):
    return [key.replace("/", "-") for key in cases]


@pytest.mark.parametrize("key", CASES, ids=_ids(CASES))
def test_counted_accounting_equals_the_pinned_run(pinned, key):
    got = measure(key)
    want = pinned[key]
    assert got.keys() == want.keys()
    for field in want.keys() - {"steps", "step_peaks"}:
        assert got[field] == want[field], field
    for field, column in want["steps"].items():
        assert got["steps"][field] == column, f"step column {field}"
    if CASES[key][0] not in PEAKS_MAY_FALL:
        assert got["step_peaks"] == want["step_peaks"]
    for (label, peak), (want_label, ceiling) in zip(
            got["step_peaks"], want["step_peaks"], strict=True):
        assert label == want_label and peak <= ceiling, label


@pytest.mark.parametrize("key", PARENT_TIMES, ids=_ids(PARENT_TIMES))
def test_executed_step_log_is_columnar_and_times_as_before(pinned, key):
    """The machine's superstep bracketing writes the columnar log:
    its records are the pinned (eager-era) ones, and the perf model
    reads it to the value it read off the eager log.  To 1e-12, not
    ``==``: the eager branch summed ``flops_total`` in Python order,
    the columns sum through ``ndarray.sum``."""
    result, _ = run(key)
    log = result.step_log
    assert isinstance(log, ColumnarStepLog)
    steps = pinned[key]["steps"]
    assert list(log.records) == [
        StepRecord(**dict(zip(steps, row))) for row in zip(*steps.values())]
    got = PerfModel().evaluate(log, result.nranks,
                               result.n ** 2 / result.nranks)
    total_s, peak_fraction = PARENT_TIMES[key]
    assert got.total_s == pytest.approx(total_s, rel=1e-12)
    assert got.peak_fraction == pytest.approx(peak_fraction, rel=1e-12)


if __name__ == "__main__":
    PINNED.write_text(json.dumps(
        {key: measure(key) for key in CASES}, indent=1) + "\n")
