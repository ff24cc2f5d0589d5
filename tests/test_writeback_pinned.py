"""The pd* writeback's counts are pinned, not promised.

``writeback_pinned.json`` holds, for ``pdgetrf`` (COnfLUX),
``pdpotrf`` (COnfCHOX) and ``pdgemm`` (2.5D SUMMA), each at ``c = 1``
and ``c = 2``, from a descriptor equal to the schedule's native layout
(``native``) and from one that differs in grid and block size
(``other``), what the call counted around its factorization at the
commit before the writeback stopped copying tiles:

* ``reshuffle_words`` (``PDResult.reshuffle_words``) and the per-rank
  words and messages the machine recorded outside the factorization
  (``machine.stats`` minus ``PDResult.comm``): COSTA in and out;
* ``peak_words``: ``machine.peak_words_per_rank()`` after the call;
* ``refusals``: ``[budget, rank, step, repr(key), needed_words]`` of the
  :class:`~repro.machine.exceptions.MemoryBudgetExceeded` the call
  raises on a machine enforcing ``budget`` — first one word under the
  peak, refused by the pre-flight gate, then a ladder of budgets under
  the peak with the gate switched off, so that the refusal lands where
  the stores first overflow (the inputs' reshuffle or the backend);
* ``writeback_refusals``: the same for budgets that bind only from the
  moment the backend's working set is freed, rising from what the
  ranks then hold in half-``N^2/P`` steps up to the first that
  fits (``writeback_fits``): every registration of the writeback, in
  its refusal order.

How the writeback moves (or does not move) the factor may change; none
of these numbers may, so the comparison is exact equality.

Add an entry (an existing one is never rewritten; see ``pins.py``)::

    PYTHONPATH=src python tests/test_writeback_pinned.py
"""

from __future__ import annotations

import json
import pathlib
from unittest import mock

import numpy as np
import pytest

from repro import api
from repro.factorizations.registry import build
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, ProcessorGrid2D
from repro.machine.exceptions import MemoryBudgetExceeded
from repro.planner.core import native_layout

PINNED = pathlib.Path(__file__).with_name("writeback_pinned.json")

N, P = 64, 16

#: op -> (impl, width keyword, width).
CALLS = {"lu": ("conflux", "v", 8), "cholesky": ("confchox", "v", 8),
         "gemm": ("25d", "s", 8)}

#: The differing descriptor: a 2x4 grid of 12-wide blocks, which cut
#: the 8-wide tiles and the SUMMA's 24- and 48-wide blocks raggedly.
OTHER = dict(mb=12, nb=12, prows=2, pcols=4)

#: How many quarter-``N^2/P`` steps under the peak the gate-free ladder
#: descends (a rung whose inputs do not fit is skipped).
RUNGS = 4

CASES = [f"{op}/c{c}/{layout}" for op in CALLS for c in (1, 2)
         for layout in ("native", "other")]


def _case(key: str):
    op, c, layout = key.split("/")
    impl, width, value = CALLS[op]
    params = {width: value, "c": int(c[1:])}
    native = native_layout(op, build(op, impl, N, P, **params))
    if layout == "native":
        desc = ScaLAPACKDescriptor(m=N, n=N, mb=native.mb, nb=native.nb,
                                   prows=native.grid.rows,
                                   pcols=native.grid.cols)
    else:
        desc = ScaLAPACKDescriptor(m=N, n=N, **OTHER)
    return op, impl, params, desc


def _operands(op: str) -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    a = rng.standard_normal((N, N))
    if op == "cholesky":
        return [a @ a.T + N * np.eye(N)]
    if op == "lu":
        return [a + N * np.eye(N)]
    return [a, rng.standard_normal((N, N))]


def call(key: str, budget: float | None = None):
    """Run case ``key`` on a fresh machine (enforcing ``budget`` if
    given): ``(machine, PDResult)``."""
    op, impl, params, desc = _case(key)
    machine = (Machine(P) if budget is None
               else Machine(P, mem_words=budget, enforce_memory=True))
    layout = BlockCyclicLayout(N, N, desc.mb, desc.nb,
                               ProcessorGrid2D(desc.prows, desc.pcols))
    names = ["X", "Y"][:len(_operands(op))]
    for name, a in zip(names, _operands(op)):
        layout.scatter_from(machine, name, a)
    if op == "gemm":
        res = api.pdgemm(machine, "X", desc, "Y", desc, out_name="R",
                         impl=impl, **params)
    else:
        pd = api.pdgetrf if op == "lu" else api.pdpotrf
        res = pd(machine, "X", desc, out_name="R", impl=impl, **params)
    return machine, res


def refusal(key: str, budget: float) -> list | None:
    """``[budget, rank, step, repr(key), needed_words]`` of the refusal
    at ``budget``; None if the inputs alone do not fit."""
    try:
        call(key, budget)
    except MemoryBudgetExceeded as err:
        if err.step is None and err.key[0] in ("X", "Y"):
            return None                     # the caller's own scatter
        return [budget, err.rank, err.step, repr(err.key), err.needed_words]
    raise AssertionError(f"{key}: ran within {budget} words")


def writeback_refusals(key: str) -> tuple[list, float]:
    """The writeback's refusals, lowest budget first, and the least
    budget it fits in: the stores' capacity is cut to the rung's budget
    right after ``_run_pd`` frees the backend's working set."""
    discard, held, budget = api.discard_work, [], None

    def squeeze(machine, *names):
        discard(machine, *names)
        held.append(max(store.words for store in machine.stores))
        for store in machine.stores:
            store.capacity_words = budget or store.capacity_words

    with mock.patch.object(api, "discard_work", squeeze):
        call(key)
        refusals, budget = [], float(held[0])
        while True:
            try:
                call(key)
            except MemoryBudgetExceeded as err:
                refusals.append([budget, err.rank, err.step, repr(err.key),
                                 err.needed_words])
                budget += N * N / P / 2
            else:
                return refusals, budget


def measure(key: str) -> dict:
    machine, res = call(key)
    peak = machine.peak_words_per_rank()
    unit = N * N / P
    refusals = [refusal(key, float(peak.max()) - 1)]
    with mock.patch.object(api, "_check_memory_feasible",
                           lambda *args: None):
        refusals += [refusal(key, float(peak.max()) - k * unit / 4)
                     for k in range(1, RUNGS + 1)]
    late, fits = writeback_refusals(key)
    return {
        "reshuffle_words": res.reshuffle_words,
        "reshuffle_recv_words": (machine.stats.recv_words
                                 - res.comm.recv_words).tolist(),
        "reshuffle_recv_msgs": (machine.stats.recv_msgs
                                - res.comm.recv_msgs).tolist(),
        "peak_words": peak.tolist(),
        "refusals": [r for r in refusals if r is not None],
        "writeback_refusals": late,
        "writeback_fits": fits,
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("key", CASES, ids=[k.replace("/", "-")
                                            for k in CASES])
def test_writeback_counts_equal_the_pinned_run(pinned, key):
    got = json.loads(json.dumps(measure(key)))
    assert got == pinned[key]


def test_the_ladder_reaches_both_writeback_registrations(pinned):
    """Every case's writeback ladder is refused at the native factors'
    registration and at the output's (outside any superstep), so the
    pins cover the refusal order of both."""
    for key, entry in pinned.items():
        names = {name.split(",")[0] for _, _, step, name, _
                 in entry["writeback_refusals"] if step is None}
        assert names == {"('R:native'", "('R'"}, key


if __name__ == "__main__":
    from pins import regenerate
    raise SystemExit(regenerate(PINNED, measure, CASES))
