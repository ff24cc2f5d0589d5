"""The batched 2.5D fan-out + Schur update against its per-tile form.

:func:`repro.engine.distops.panel_fan_out_update` runs Algorithm 1's
steps 8, 10 and 11 with one stacked operand pair, one gemm and one
indexed write per rank.  The reference here is what the schedules did
before — per owned trailing tile, ``tile[loc] -= a10 @ a01`` on the
rows of that tile that are still active — kept in ``tests/`` only.
The second half pins the Python the executed path is allowed to cost,
machine-independently (call counts under ``cProfile``, not seconds).
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import pdgetrf
from repro.engine.distops import local_panels, panel_fan_out_update
from repro.kernels import flops
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, ProcessorGrid2D
from repro.machine.grid import ProcessorGrid3D

NAME = ("work", "T")


def _chunks(ids: np.ndarray, block: np.ndarray, nranks: int):
    """1D-scatter ``(ids, block rows)`` contiguously, as the schedules'
    ``distribute_rows_1d`` / ``assemble_cols_1d`` leave them."""
    parts = np.array_split(np.arange(ids.size), nranks)
    return [(ids[p], block[p] if p.size else None) for p in parts]


def per_tile_reference(before: dict, grid: ProcessorGrid3D, v: int, t: int,
                       nb: int, rows: np.ndarray, a10: np.ndarray,
                       a01: np.ndarray, lower: bool):
    """Expected tiles and per-rank flops of the per-tile update loop.

    ``a10`` has one row per entry of ``rows`` (global row ids), ``a01``
    one column per trailing column ``(t+1) v ..``.
    """
    planes = v // grid.layers
    expected = {key: tile.copy() for key, tile in before.items()}
    fl = np.zeros(grid.size)
    for (rank, bi, bj), tile in expected.items():
        if bj <= t or (lower and bj > bi):
            continue
        in_tile = (rows >= bi * v) & (rows < (bi + 1) * v)
        if not in_tile.any():
            continue
        sl = slice(grid.coords(rank)[2] * planes,
                   (grid.coords(rank)[2] + 1) * planes)
        c0 = (bj - t - 1) * v
        tile[rows[in_tile] - bi * v] -= (a10[in_tile][:, sl]
                                         @ a01[sl, c0:c0 + v])
        fl[rank] += flops.gemm_flops(int(in_tile.sum()), v, planes)
    return expected, fl


@st.composite
def scenarios(draw):
    pr, pc, c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 2))
    v = c * draw(st.integers(1, 3))
    nb = draw(st.integers(2, 7))
    t = draw(st.integers(0, nb - 1))        # t = nb-1: no trailing columns
    lower = draw(st.booleans())
    n = nb * v
    if lower:
        # COnfCHOX: every row below the panel, tile-aligned.
        active = np.ones(n, dtype=bool)
        active[:(t + 1) * v] = False
    else:
        # COnfLUX: whatever the tournaments have not yet picked.
        active = np.array(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
    return pr, pc, c, v, nb, t, lower, active, draw(st.integers(0, 2**31))


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_batched_update_equals_the_per_tile_reference(scenario):
    pr, pc, c, v, nb, t, lower, active, seed = scenario
    rng = np.random.default_rng(seed)
    grid = ProcessorGrid3D(pr, pc, c)
    n = nb * v
    machine = Machine(grid.size)
    panels = local_panels(machine, grid, nb, v, NAME,
                          rng.standard_normal((n, n)), None, lower=lower)
    for panel in panels:                    # layers > 0 are not zero mid-run
        panel += rng.standard_normal(panel.shape)
    before = {(r, key[1], key[2]): tile.copy()
              for r in range(grid.size)
              for key, tile in machine.store(r).items()}

    rows = np.flatnonzero(active)
    cols = np.arange((t + 1) * v, n)
    a10 = rng.standard_normal((rows.size, v))
    a01 = rng.standard_normal((v, cols.size))
    row_chunks = _chunks(rows, a10, grid.size)
    col_chunks = _chunks(cols, a01.T, grid.size)
    words_before = machine.words_per_rank()

    panel_fan_out_update(machine, grid, panels, v, t, "r", row_chunks,
                         "c", col_chunks, lower=lower)

    expected, fl = per_tile_reference(before, grid, v, t, nb, rows, a10,
                                      a01, lower)
    for (rank, bi, bj), want in expected.items():
        got = machine.store(rank).get((NAME, bi, bj))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), (rank, bi, bj)
    assert np.array_equal(machine.stats.flops, fl)
    # Nothing shipped stays behind, and each message was counted once.
    assert np.array_equal(machine.words_per_rank(), words_before)
    assert machine.stats.total_recv_words == machine.stats.sent_words.sum()


def test_ranks_without_rows_or_columns_are_left_alone():
    """4x1 layer grid, last-but-one step, two active rows in one tile:
    three of the four grid rows own no active row, and nothing may
    change there (nor any flop be charged)."""
    grid, v, nb, t = ProcessorGrid3D(4, 1, 1), 2, 4, 2
    machine = Machine(4)
    a = np.arange(64.0).reshape(8, 8)
    panels = local_panels(machine, grid, nb, v, NAME, a, None)
    rows = np.array([6, 7])
    row_chunks = _chunks(rows, np.ones((2, v)), 4)
    col_chunks = _chunks(np.array([6, 7]), np.ones((2, v)), 4)
    panel_fan_out_update(machine, grid, panels, v, t, "r", row_chunks,
                         "c", col_chunks)
    assert np.array_equal(machine.stats.flops > 0, [False, False, False, True])
    for rank in range(3):
        assert np.array_equal(panels[rank], a[rank * v:(rank + 1) * v])
    assert np.array_equal(machine.store(3).get((NAME, 3, 3)),
                          a[6:, 6:] - v)


# ----------------------------------------------------------------------
# Deterministic overhead ceiling.

#: Python-level calls of one pdgetrf(conflux, n=128, P=16, v=8, c=2):
#: 274 k when the batched path landed (481 k with the per-tile loops,
#: 3420 of them ``np.stack`` calls from ``dist_step``); ceiling ~25 %
#: above the new count.
CALL_CEILING = 343_000

#: Functions of the fan-out/update path that must not stack per tile.
HOT_PATH = {"dist_step", "panel_fan_out_update", "_gather_planes",
            "_split_by_owner"}


def _profiled_pdgetrf() -> pstats.Stats:
    n, p = 128, 16
    machine = Machine(p)
    a = np.random.default_rng(3).standard_normal((n, n)) + n * np.eye(n)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=8, nb=8, prows=4, pcols=4)
    BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(4, 4)).scatter_from(
        machine, "X", a)
    profile = cProfile.Profile()
    res = profile.runcall(pdgetrf, machine, "X", desc, impl="conflux",
                          v=8, c=2)
    assert np.allclose(a[res.perm], res.lower @ res.upper)
    return pstats.Stats(profile)


def _callers(stats: pstats.Stats, name: str) -> set[str]:
    """Names of the direct callers of the profiled function ``name``."""
    return {caller[2]
            for func, (_, _, _, _, callers) in stats.stats.items()
            if func[2] == name for caller in callers}


def test_executed_conflux_python_overhead_stays_batched():
    stats = _profiled_pdgetrf()
    assert stats.total_calls < CALL_CEILING
    # No per-tile operand rebuilds in the fan-out/update path ...
    assert not _callers(stats, "stack") & HOT_PATH
    # ... and scalar flop-count arguments are validated without a trip
    # through NumPy.
    asarray = "<built-in method numpy.asarray>"
    assert _callers(stats, asarray)
    assert "_check_nonneg" not in _callers(stats, asarray)
    assert "_check_nonneg" in {func[2] for func in stats.stats}
