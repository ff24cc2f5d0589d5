"""The pd* writeback moves no data: its tiles are views of one factor.

``api._run_pd`` makes the packed factor (``OPS[op].packed``) read-only
and registers both the native-layout factors and the caller-layout
output as views of it; the COSTA pattern between the two layouts is
charged, not copied.  What that must leave: every stored tile
read-only and sharing memory with the packed factor (for Cholesky and
gemm, ``PDResult.lower`` itself), ``PDResult.gather()`` equal to it,
and a writeback phase that allocates next to nothing.  Its counts
(words, messages, peaks, refusals) are pinned in
``tests/test_writeback_pinned.py``.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro import api
from repro.engine.backends import DenseBackend, DistributedBackend
from repro.factorizations.registry import OPS, build
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, ProcessorGrid2D
from repro.planner.core import native_layout

N, P = 64, 16

#: op -> (impl, parameters).
CALLS = {"lu": ("conflux", {"v": 8, "c": 2}),
         "cholesky": ("confchox", {"v": 8, "c": 2}),
         "gemm": ("25d", {"s": 8, "c": 2})}

#: A caller layout that differs from every native one.
OTHER = ScaLAPACKDescriptor(m=N, n=N, mb=12, nb=12, prows=2, pcols=4)


def _operands(op: str, n: int = N) -> list[np.ndarray]:
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n))
    if op == "cholesky":
        return [a @ a.T + n * np.eye(n)]
    if op == "lu":
        return [a + n * np.eye(n)]
    return [a, rng.standard_normal((n, n))]


def _layout(desc: ScaLAPACKDescriptor) -> BlockCyclicLayout:
    return BlockCyclicLayout(desc.m, desc.n, desc.mb, desc.nb,
                             ProcessorGrid2D(desc.prows, desc.pcols))


def _run(op: str, desc: ScaLAPACKDescriptor | None, keep: bool = False):
    """One ``_run_pd`` of ``op`` from ``desc`` (None: the native
    layout); ``keep`` leaves the native factors resident, as
    ``run_workload`` does for an output a later node reads.  Returns
    ``(machine, result, native layout, output layout)``."""
    impl, params = CALLS[op]
    schedule = build(op, impl, N, P, **params)
    native = native_layout(op, schedule)
    if desc is None:
        desc = ScaLAPACKDescriptor(m=N, n=N, mb=native.mb, nb=native.nb,
                                   prows=native.grid.rows,
                                   pcols=native.grid.cols)
    machine = Machine(P)
    names = ["X", "Y"][:OPS[op].arity]
    for name, a in zip(names, _operands(op)):
        _layout(desc).scatter_from(machine, name, a)
    live = {"R": {}} if keep else {}
    res = api._run_pd(machine, op, impl, schedule, native, desc,
                      [(name, desc) for name in names], "R", None, live)
    if keep:
        assert live["R"] == {native: "R:native"}
    return machine, res, native, _layout(desc)


def _tiles(machine: Machine, layout: BlockCyclicLayout, name: str):
    return [machine.store(layout.owner_rank(bi, bj)).get((name, bi, bj))
            for bi in range(layout.mblocks) for bj in range(layout.nblocks)]


def _packed(res: api.PDResult) -> np.ndarray:
    return (np.tril(res.lower, -1) + res.upper if res.perm is not None
            else res.lower)


@pytest.mark.parametrize("desc", [None, OTHER], ids=["native", "other"])
@pytest.mark.parametrize("op", CALLS)
def test_output_and_kept_native_tiles_are_read_only_views(op, desc):
    machine, res, native, out = _run(op, desc, keep=True)
    output, factors = _tiles(machine, out, "R"), _tiles(machine,
                                                       native, "R:native")
    base = output[0].base
    for tile in output + factors:
        assert not tile.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tile[...] = 0.0
        assert tile.base is base            # one packed factor
        if op != "lu":
            assert np.shares_memory(tile, res.lower)
    assert not base.flags.writeable
    assert np.array_equal(base, _packed(res))
    if op != "lu":
        assert base is res.lower
        with pytest.raises(ValueError, match="read-only"):
            res.lower[0, 0] = 1.0


@pytest.mark.parametrize("desc", [None, OTHER], ids=["native", "other"])
@pytest.mark.parametrize("op", CALLS)
def test_gather_is_the_packed_factor(op, desc):
    machine, res, native, out = _run(op, desc)
    assert np.array_equal(res.gather(), _packed(res))
    # The native factors are freed once the output exists.
    assert not any(isinstance(key, tuple) and key[0] == "R:native"
                   for store in machine.stores for key in store.keys())


def test_the_summa_returns_no_identity():
    """The product is ``lower``; no ``upper`` is made for it."""
    schedule = build("gemm", "25d", N, P, s=8, c=2)
    a, b = _operands("gemm")
    for res in (DistributedBackend().run(schedule, a=(a, b)),
                DenseBackend().run(schedule, a=(a, b))):
        assert res.upper is None
        assert np.allclose(res.lower, a @ b)


def _writeback_allocation(n: int) -> int:
    """Bytes the ``pd.writeback`` phase of one confchox ``pdpotrf``
    (``v = 32``, ``c = 2``, from a 4x4 descriptor of 64-wide blocks)
    allocates at its peak: from the moment ``_run_pd`` has freed the
    backend's working set until the call returns."""
    machine = Machine(16)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=64, nb=64, prows=4, pcols=4)
    _layout(desc).scatter_from(machine, "X", _operands("cholesky", n)[0])
    discard, start = api.discard_work, []

    def mark(*args):
        discard(*args)
        start.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        with mock.patch.object(api, "discard_work", mark):
            api.pdpotrf(machine, "X", desc, impl="confchox", v=32, c=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start[0]


def test_writeback_allocates_no_matrix():
    """A copying writeback allocates two ``n x n`` matrices (native
    tiles, then the caller's); this one under a tenth of one."""
    n = 512
    assert _writeback_allocation(n) < 0.1 * n * n * 8
