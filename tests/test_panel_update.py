"""The batched 2.5D execute path against its per-tile and per-message
forms.

:func:`repro.engine.distops.panel_fan_out_update` runs Algorithm 1's
steps 8, 10 and 11 with zero-padded operands and one in-place gemm
per rank.  The reference here is what the schedules did before — per
owned trailing tile, ``tile[loc] -= a10 @ a01`` on the rows of that
tile that are still active — kept in ``tests/`` only.
:func:`repro.engine.distops.exchange` charges a whole point-to-point
pattern from index arrays; its reference is the loop it replaced, one
``ship`` and one consumer ``pop`` per message.  The 1D panels of steps
4-10 are one stacked array whose chunks every rank solves in place
(:func:`repro.engine.distops.solve_1d`); the reference is the
per-chunk ``blas.trsm`` + ``put`` loop.  ``local_panels`` registers a
rank's tiles in one call; the reference is one ``put`` per tile (the
layout moves' references are in ``tests/test_layout_moves.py``).  The
last part pins the Python the executed path is allowed to cost,
machine-independently (call counts under ``cProfile``, not seconds).
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import pdgemm, pdgetrf, pdpotrf
from repro.engine.backends import DistributedBackend
from repro.engine.distops import (
    Panel1D,
    _by_grid_coord,
    assemble_cols_1d,
    distribute_rows_1d,
    exchange,
    layered_reduce,
    local_panels,
    panel_fan_out_update,
    ship,
    solve_1d,
)
from repro.factorizations.baselines.scalapack_chol import (
    ScalapackCholeskySchedule,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule
from repro.kernels import blas, flops
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, MemoryBudgetExceeded, ProcessorGrid2D
from repro.machine.grid import ProcessorGrid3D

NAME = ("work", "T")
KEY = ("work", "fan")


def _panel(ids: np.ndarray, block: np.ndarray, nranks: int) -> Panel1D:
    """1D-scatter ``(ids, block rows)`` contiguously, as the schedules'
    ``distribute_rows_1d`` / ``assemble_cols_1d`` leave them: one
    C-ordered array, ``np.array_split``'s chunks."""
    sizes = [p.size for p in np.array_split(np.arange(ids.size), nranks)]
    ends = np.cumsum(sizes).tolist()
    return Panel1D(ids, np.ascontiguousarray(block),
                   [slice(end - size, end) for size, end in zip(sizes, ends)],
                   np.repeat(np.arange(nranks), sizes))


def _chunks(panel: Panel1D):
    """A :class:`Panel1D` as per-rank ``(ids, block)``, ``block`` None
    for an empty chunk — the form the scatters returned before the
    stacked panel."""
    return [(panel.ids[part],
             panel.rows[part] if part.stop > part.start else None)
            for part in panel.parts]


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


def masked_rectangle(grid: ProcessorGrid3D, panels, v: int, row_panel,
                     col_panel):
    """``panel_fan_out_update(lower=True)``'s update in an earlier
    form, kept in ``tests/`` only: per rank the whole rectangle, masked
    to ``bi >= bj``, subtracted through a row index.  Returns the
    updated panels and the per-rank flops."""
    pr, pc = grid.rows, grid.cols
    planes = v // grid.layers
    _, a10, row_local = _by_grid_coord(row_panel, pr, v)
    _, a01t, col_local = _by_grid_coord(col_panel, pc, v)
    out = [panel.copy() for panel in panels]
    fl = np.zeros(grid.size)
    for pi, rows in enumerate(row_local):
        for pj, cols in enumerate(col_local):
            if rows.size == 0 or cols.size == 0:
                continue
            keep = ((rows // v * pr + pi)[:, None]
                    >= (cols // v * pc + pj)[None, :])
            for pk in range(grid.layers):
                sl = slice(pk * planes, (pk + 1) * planes)
                update = a10[pi][:, sl] @ a01t[pj][:, sl].T
                update *= keep
                rank = grid.rank(pi, pj, pk)
                out[rank][rows, cols[0]:cols[-1] + 1] -= update
                fl[rank] += 2.0 * np.count_nonzero(keep) * planes
    return out, fl


@st.composite
def scenarios(draw, lower=None):
    pr, pc, c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 2))
    v = c * draw(st.integers(1, 3))
    nb = draw(st.integers(2, 7))
    t = draw(st.integers(0, nb - 1))        # t = nb-1: no trailing columns
    if lower is None:
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


def _update_inputs(scenario):
    """A scenario's machine with its panels (every layer non-zero, as
    mid-run), the trailing rows and columns, random operands, and their
    1D chunks."""
    pr, pc, c, v, nb, t, lower, active, seed = scenario
    rng = np.random.default_rng(seed)
    grid = ProcessorGrid3D(pr, pc, c)
    n = nb * v
    machine = Machine(grid.size)
    panels = local_panels(machine, grid, nb, v, NAME,
                          rng.standard_normal((n, n)), None, lower=lower)
    for panel in panels:
        panel += rng.standard_normal(panel.shape)
    rows = np.flatnonzero(active)
    cols = np.arange((t + 1) * v, n)
    a10 = rng.standard_normal((rows.size, v))
    a01 = rng.standard_normal((v, cols.size))
    return (grid, machine, panels, rows, a10, a01,
            _panel(rows, a10, grid.size), _panel(cols, a01.T, grid.size))


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_batched_update_equals_the_per_tile_reference(scenario):
    _, _, _, v, nb, t, lower, _, _ = scenario
    (grid, machine, panels, rows, a10, a01, row_panel,
     col_panel) = _update_inputs(scenario)
    before = {(r, key[1], key[2]): tile.copy()
              for r in range(grid.size)
              for key, tile in machine.store(r).items()}
    words_before = machine.words_per_rank()

    panel_fan_out_update(machine, grid, panels, v, row_panel, col_panel,
                         KEY, lower=lower)

    expected, fl = per_tile_reference(before, grid, v, t, nb, rows, a10,
                                      a01, lower)
    for (rank, bi, bj), want in expected.items():
        got = machine.store(rank).get((NAME, bi, bj))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), (rank, bi, bj)
    assert np.array_equal(machine.stats.flops, fl)
    # Nothing shipped stays behind.
    assert np.array_equal(machine.words_per_rank(), words_before)


@given(scenarios(lower=True))
@settings(max_examples=60, deadline=None)
def test_lower_update_equals_the_masked_rectangle(scenario):
    """The product on zero-padded operands writes the masked
    rectangle's bits into every registered tile and charges its
    flops."""
    v = scenario[3]
    grid, machine, panels, _, _, _, row_panel, col_panel = \
        _update_inputs(scenario)
    want, fl = masked_rectangle(grid, panels, v, row_panel, col_panel)

    panel_fan_out_update(machine, grid, panels, v, row_panel, col_panel,
                         KEY, lower=True)

    for rank in range(grid.size):
        for key, got in machine.store(rank).items():
            i0, j0 = key[1] // grid.rows * v, key[2] // grid.cols * v
            assert np.array_equal(got, want[rank][i0:i0 + v, j0:j0 + v]), (
                rank, key)
    assert np.array_equal(machine.stats.flops, fl)


@given(scenarios())
@example((2, 1, 2, 2, 4, 0, False,
          np.array([0, 0, 1, 0, 1, 1, 0, 1], dtype=bool), 7))
@settings(max_examples=60, deadline=None)
def test_update_leaves_the_entries_it_must_not_change(scenario):
    """Every registered entry outside the update keeps its bits: tile
    columns ``<= t`` and, for COnfLUX, the rows not in ``rows``, which
    the zero-padded operands multiply by exact zeros.  Each rank is
    charged ``2 * planes`` flops per entry it does update."""
    _, _, _, v, _, t, lower, _, _ = scenario
    grid, machine, panels, rows, _, _, row_panel, col_panel = \
        _update_inputs(scenario)
    before = {(rank, key): tile.copy() for rank in range(grid.size)
              for key, tile in machine.store(rank).items()}

    panel_fan_out_update(machine, grid, panels, v, row_panel, col_panel,
                         KEY, lower=lower)

    fl = np.zeros(grid.size)
    for (rank, (_, bi, bj)), want in before.items():
        got = machine.store(rank).get((NAME, bi, bj))
        updated = np.isin(np.arange(bi * v, (bi + 1) * v), rows) & (bj > t)
        assert np.array_equal(got[~updated], want[~updated]), (rank, bi, bj)
        fl[rank] += 2.0 * v * updated.sum() * (v // grid.layers)
    assert np.array_equal(machine.stats.flops, fl)


def test_lower_update_refuses_rows_that_are_not_one_run():
    """COnfCHOX updates every row below the panel; a grid row with a
    gap in its rows is not that, and is refused before anything
    changes."""
    grid, v, nb = ProcessorGrid3D(1, 1, 1), 2, 4
    machine = Machine(1)
    panels = local_panels(machine, grid, nb, v, NAME,
                          np.eye(nb * v), None, lower=True)
    rows = np.array([4, 6, 7])
    with pytest.raises(ValueError, match="contiguous"):
        panel_fan_out_update(
            machine, grid, panels, v, _panel(rows, np.ones((3, v)), 1),
            _panel(np.arange(4, 8), np.ones((4, v)), 1), KEY, lower=True)


def test_ranks_without_rows_or_columns_are_left_alone():
    """4x1 layer grid, last-but-one step, two active rows in one tile:
    three of the four grid rows own no active row, and nothing may
    change there (nor any flop be charged)."""
    grid, v, nb, t = ProcessorGrid3D(4, 1, 1), 2, 4, 2
    machine = Machine(4)
    a = np.arange(64.0).reshape(8, 8)
    panels = local_panels(machine, grid, nb, v, NAME, a, None)
    rows = np.array([6, 7])
    row_panel = _panel(rows, np.ones((2, v)), 4)
    col_panel = _panel(np.array([6, 7]), np.ones((2, v)), 4)
    panel_fan_out_update(machine, grid, panels, v, row_panel, col_panel,
                         KEY)
    assert np.array_equal(machine.stats.flops > 0, [False, False, False, True])
    for rank in range(3):
        assert np.array_equal(panels[rank], a[rank * v:(rank + 1) * v])
    assert np.array_equal(machine.store(3).get((NAME, 3, 3)),
                          a[6:, 6:] - v)


# ----------------------------------------------------------------------
# exchange == one ship + one pop per message.

def per_message(machine: Machine, src, dst, words, key) -> None:
    """The loop :func:`exchange` replaces: every message packed at its
    source, landed at its destination, consumed there."""
    for i, (s, d, w) in enumerate(zip(src, dst, words)):
        ship(machine, s, d, (key, i), np.zeros(w))
        machine.store(d).pop((key, i))


COUNTERS = ("recv_words", "recv_msgs")


def charged(charge, resident, pattern, budget=None):
    """Run ``charge`` on a machine holding ``resident[r]`` words at rank
    ``r``, inside a superstep; returns the machine and the
    :class:`MemoryBudgetExceeded` it raised, if any."""
    machine = (Machine(len(resident)) if budget is None else
               Machine(len(resident), mem_words=budget, enforce_memory=True))
    for rank, words in enumerate(resident):
        if words:
            machine.store(rank).put("resident", np.zeros(words))
    machine.begin_step("pattern")
    raised = None
    try:
        charge(machine, *pattern, "msg")
    except MemoryBudgetExceeded as exc:
        raised = exc
    return machine, raised


@st.composite
def patterns(draw):
    nranks = draw(st.integers(1, 6))
    rank = st.integers(0, nranks - 1)
    resident = draw(st.lists(st.integers(0, 30), min_size=nranks,
                             max_size=nranks))
    messages = draw(st.lists(st.tuples(rank, rank, st.integers(1, 40)),
                             max_size=25))
    src, dst, words = (np.array(col, dtype=int) for col in
                       ([m[0] for m in messages], [m[1] for m in messages],
                        [m[2] for m in messages]))
    return resident, (src, dst, words)


@given(patterns())
@settings(max_examples=200, deadline=None)
def test_exchange_equals_one_ship_and_pop_per_message(scenario):
    resident, pattern = scenario
    batched, _ = charged(exchange, resident, pattern)
    looped, _ = charged(per_message, resident, pattern)
    for field in COUNTERS:
        assert np.array_equal(getattr(batched.stats, field),
                              getattr(looped.stats, field)), field
    for got, want, words in zip(batched.stores, looped.stores, resident):
        assert got.peak_words == want.peak_words
        assert got.step_peak_words == want.step_peak_words
        # Stores are left as found.
        assert got.words == want.words == words
        assert list(got.keys()) == (["resident"] if words else [])

    # One word under the peak both abort, in the same superstep, the
    # batched form at a rank the loop overflows on too, and neither
    # has noted a peak it refused.
    peaks = looped.peak_words_per_rank()
    budget = peaks.max() - 1
    if budget < max(resident + [1]):
        return                      # the resident words alone overflow
    for charge in (exchange, per_message):
        machine, raised = charged(charge, resident, pattern, budget)
        assert raised is not None and raised.step == "pattern"
        assert peaks[raised.rank] > budget
        assert machine.peak_words_per_rank().max() <= budget


# ----------------------------------------------------------------------
# Steps 1, 4, 5 and 6 of one COnfLUX step == their per-tile reduces and
# per-message scatters (the helpers as they were, kept here only).

def fiber_reduce_subset(machine, grid, bi, bj, rows_local, k_root, tile_key,
                        out_key) -> int:
    """Sum rows ``rows_local`` of partial tile ``(bi, bj)`` over the
    layers onto layer ``k_root``'s owner, under ``out_key``."""
    fiber = [grid.rank(bi % grid.rows, bj % grid.cols, k)
             for k in range(grid.layers)]
    root = fiber[k_root]
    for r in fiber:
        tile = machine.store(r).get(tile_key)
        machine.store(r).put(out_key, tile[rows_local, :])
    machine.reduce(root, fiber, out_key)
    for r in fiber:
        if r != root:
            machine.store(r).discard(out_key)
    return root


def distribute_rows_per_message(machine, pieces, nranks, key):
    owners = np.concatenate([np.full(len(ids), owner)
                             for owner, ids, _ in pieces])
    ids = np.concatenate([ids for _, ids, _ in pieces])
    rows = np.vstack([block for _, _, block in pieces])
    order = np.argsort(ids)
    ids, owners, rows = ids[order], owners[order], rows[order]
    out = []
    for dst, part in enumerate(np.array_split(np.arange(ids.size), nranks)):
        if part.size == 0:
            out.append((ids[part], None))
            continue
        chunk_block = np.empty((part.size, rows.shape[1]))
        for src in dict.fromkeys(owners[part].tolist()):
            sel = part[owners[part] == src]
            ship(machine, src, dst, (key, "s", src), rows[sel])
            chunk_block[sel - part[0]] = machine.store(dst).pop(
                (key, "s", src))
        machine.store(dst).put(key, chunk_block)
        out.append((ids[part], chunk_block))
    return out


def assemble_cols_per_message(machine, pieces, row_order, nranks, key):
    row_pos = {int(g): i for i, g in enumerate(row_order)}
    col_order = np.array(sorted({int(cg) for _, _, cids, _ in pieces
                                 for cg in cids}), dtype=int)
    out = []
    for dst, chunk in enumerate(np.array_split(col_order, nranks)):
        if chunk.size == 0:
            out.append((chunk, None))
            continue
        col_pos = {int(cg): i for i, cg in enumerate(chunk)}
        acc = np.zeros((len(row_order), chunk.size))
        for idx, (src, rids, cids, block) in enumerate(pieces):
            csel = [i for i, cg in enumerate(cids) if int(cg) in col_pos]
            if not csel:
                continue
            ship(machine, src, dst, (key, "s", src, idx), block[:, csel])
            ri = [row_pos[int(g)] for g in rids]
            ci = [col_pos[int(cids[i])] for i in csel]
            acc[np.ix_(ri, ci)] = machine.store(dst).pop((key, "s", src, idx))
        machine.store(dst).put(key, acc)
        out.append((chunk, acc))
    return out


def per_tile_panels(machine, grid, v, t, nb, active, winners):
    """Steps 1 + 4 and 5 + 6 as the schedule ran them tile by tile;
    returns the 1D A10 row chunks and A01 column chunks."""
    k_root, nranks = t % grid.layers, grid.size
    panel = {}
    for bi in range(nb):
        ids = active[(active >= bi * v) & (active < (bi + 1) * v)]
        if ids.size:
            panel[bi] = (ids, fiber_reduce_subset(
                machine, grid, bi, t, ids - bi * v, k_root, (NAME, bi, t),
                ("cr", bi)))
    pieces = []
    for bi, (ids, root) in panel.items():
        sel = ~np.isin(ids, winners)
        if sel.any():
            pieces.append((root, ids[sel],
                           machine.store(root).get(("cr", bi))[sel]))
    rows = (distribute_rows_per_message(machine, pieces, nranks, "a10")
            if pieces else [])
    for bi, (_, root) in panel.items():
        machine.store(root).discard(("cr", bi))
    by_tile = {}
    for g in winners.tolist():
        by_tile.setdefault(g // v, []).append(g)
    pieces, held = [], []
    for bj in range(t + 1, nb):
        for bi, gids in sorted(by_tile.items()):
            root = fiber_reduce_subset(
                machine, grid, bi, bj, np.array(gids) - bi * v, k_root,
                (NAME, bi, bj), ("rr", bi, bj))
            held.append((root, ("rr", bi, bj)))
            pieces.append((root, np.array(gids),
                           np.arange(bj * v, (bj + 1) * v),
                           machine.store(root).get(("rr", bi, bj))))
    cols = (assemble_cols_per_message(machine, pieces, winners, nranks, "a01")
            if pieces else [])
    for root, key in held:
        machine.store(root).discard(key)
    return rows, cols


def batched_panels(machine, grid, panels, v, t, nb, active, winners):
    """The same four sub-steps on the batched helpers, as
    ``ConfluxSchedule.dist_step`` strings them together; returns the
    stacked A10 panel and the stacked, transposed A01 panel (None where
    the step has none)."""
    k_root, nranks = t % grid.layers, grid.size
    column = layered_reduce(machine, grid, panels, v, active, t, t + 1,
                            k_root, "cr")
    masked = ~np.isin(active, winners)
    pieces = [(root, active[rsel][keep], block[keep])
              for root, rsel, _, block in column
              if (keep := masked[rsel]).any()]
    rows = (distribute_rows_1d(machine, pieces, nranks, "a10")
            if pieces else None)
    for root, _, _, _ in column:
        machine.store(root).discard("cr")
    cols = None
    if t + 1 < nb:
        pivot_rows = layered_reduce(machine, grid, panels, v, winners, t + 1,
                                    nb, k_root, "rr")
        cols = assemble_cols_1d(machine, pivot_rows, winners,
                                np.arange((t + 1) * v, nb * v), nranks, v,
                                "a01")
        for root, _, _, _ in pivot_rows:
            machine.store(root).discard("rr")
    return rows, cols


@st.composite
def panel_steps(draw):
    pr, pc, c = (draw(st.integers(1, 3)) for _ in range(3))
    v = c * draw(st.integers(1, 2))
    nb = draw(st.integers(2, 6))
    t = draw(st.integers(0, nb - 1))
    n = nb * v
    active = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n)))
    # The step's pivots: up to v of the active rows, in tournament
    # (arbitrary) order, over as many tiles as they happen to hit.
    winners = np.array(draw(st.permutations(active.tolist()))[:v], dtype=int)
    return pr, pc, c, v, nb, t, active, winners, draw(st.integers(0, 2**31))


@given(panel_steps())
@settings(max_examples=150, deadline=None)
def test_batched_reduces_and_scatters_equal_the_per_tile_forms(scenario):
    pr, pc, c, v, nb, t, active, winners, seed = scenario
    if winners.size == 0:
        return
    grid = ProcessorGrid3D(pr, pc, c)
    n = nb * v
    runs = []
    for batched in (True, False):
        rng = np.random.default_rng(seed)
        machine = Machine(grid.size)
        panels = local_panels(machine, grid, nb, v, NAME,
                              rng.standard_normal((n, n)), None)
        for panel in panels:
            panel += rng.standard_normal(panel.shape)
        machine.begin_step("panels")
        chunks = (batched_panels(machine, grid, panels, v, t, nb, active,
                                 winners) if batched else
                  per_tile_panels(machine, grid, v, t, nb, active, winners))
        runs.append((machine, chunks))
    (got, got_panels), (want, want_chunks) = runs
    for field in COUNTERS:
        assert np.array_equal(getattr(got.stats, field),
                              getattr(want.stats, field)), field
    assert np.array_equal(got.peak_words_per_rank(),
                          want.peak_words_per_rank())
    assert np.array_equal(got.words_per_rank(), want.words_per_rank())
    # A10 chunks are the panel's rows as they were; A01 chunks are its
    # transposed columns (one stacked row per column), so compare them
    # against the per-message blocks transposed.
    for key, panel, want_side, flip in zip(("a10", "a01"), got_panels,
                                           want_chunks, (False, True)):
        assert (panel is None) == (len(want_side) == 0)
        if panel is None:
            continue
        assert panel.rows.flags.c_contiguous
        assert len(panel.parts) == len(want_side) == grid.size
        for rank, ((ids, block), (want_ids, want_block)) in enumerate(
                zip(_chunks(panel), want_side)):
            assert np.array_equal(ids, want_ids)
            assert (block is None) == (want_block is None)
            if block is None:
                assert key not in got.store(rank)
                continue
            assert np.array_equal(block.T if flip else block, want_block)
            # Stored as the panel's own view, with the loop's values.
            stored = got.store(rank).get(key)
            assert np.shares_memory(stored, panel.rows)
            assert np.array_equal(stored.T if flip else stored,
                                  want.store(rank).get(key))


# ----------------------------------------------------------------------
# Steps 7 and 9 (and COnfCHOX's step 7): one in-place solve per rank on
# the stacked panel == the per-chunk ``blas.trsm`` + ``put`` loop the
# schedules ran before, kept here only.

#: The three solves: ``(a left solve on the A01 orientation, unit
#: diagonal, the triangle is the broadcast block's transpose)``.
SOLVES = {
    "lu_a10": (False, False, False),    # X U00 = A10
    "lu_a01": (True, True, True),       # L00 X = A01 (unit)
    "chol_a10": (False, False, True),   # X L00^T = A10
}


def per_chunk_solve(machine, chunks, key, tri_key, solve):
    """Every rank's solve as the schedules ran it: ``blas.trsm`` on its
    chunk (``(ids, block)``, A01 chunks as ``v x m`` blocks), the flops
    charged, the fresh solution ``put`` over the chunk.  Returns the
    solutions."""
    left, unit, transpose = SOLVES[solve]
    out = []
    for rank, (ids, block) in enumerate(chunks):
        if block is None:
            out.append(None)
            continue
        tri = machine.store(rank).get(tri_key)
        if left:
            sol, fl = blas.trsm(tri, block, side="left", lower=True,
                                unit_diagonal=unit)
        else:
            sol, fl = blas.trsm(tri.T if transpose else tri, block,
                                side="right", lower=False)
        machine.compute(rank, fl)
        machine.store(rank).put(key, sol)
        out.append(sol)
    return out


@st.composite
def solve_cases(draw):
    nranks = draw(st.integers(1, 6))
    v = draw(st.integers(1, 4))
    # Fewer rows than ranks leaves chunks empty, as many gives every
    # rank a single row.
    m = draw(st.sampled_from([1, nranks, nranks + 1,
                              draw(st.integers(1, 4 * nranks))]))
    return (nranks, v, m, draw(st.sampled_from(sorted(SOLVES))),
            draw(st.booleans()), draw(st.integers(0, 2**31)))


def _solve_setup(case, zero_diagonal=False):
    """Two machines holding the same broadcast triangle (the root's in
    Fortran or C order, as ``potrf`` and ``getrf`` leave it; every
    receiver the broadcast copy) and the same 1D-scattered panel."""
    nranks, v, m, solve, fortran_root, seed = case
    rng = np.random.default_rng(seed)
    tri = rng.standard_normal((v, v)) + v * np.eye(v)
    if zero_diagonal:
        tri[v // 2, v // 2] = 0.0
    if fortran_root:
        tri = np.asfortranarray(tri)
    block = rng.standard_normal((m, v))
    runs = []
    for _ in range(2):
        machine = Machine(nranks)
        machine.store(0).put("tri", tri.copy(order="A"))
        machine.bcast(0, list(range(nranks)), "tri")
        panel = _panel(np.arange(m), block.copy(), nranks)
        for rank in panel.held():
            machine.store(rank).put("chunk", panel.rows[panel.parts[rank]])
        machine.begin_step("solve")
        runs.append((machine, panel))
    return runs


@given(solve_cases())
@settings(max_examples=150, deadline=None)
def test_in_place_solve_equals_the_per_chunk_trsm_loop(case):
    solve = case[3]
    left, unit, transpose = SOLVES[solve]
    (got, panel), (want, ref_panel) = _solve_setup(case)
    # The loop sees A01 chunks in their v x m orientation.
    chunks = [(ids, None if block is None else block.T if left else block)
              for ids, block in _chunks(ref_panel)]
    want_sol = per_chunk_solve(want, chunks, "chunk", "tri", solve)

    solve_1d(got, panel, "tri", unit_diagonal=unit, transpose=transpose)

    for rank, sol in enumerate(want_sol):
        if sol is None:
            assert "chunk" not in got.store(rank)
            continue
        mine = panel.rows[panel.parts[rank]]
        assert np.array_equal(mine.T if left else mine, sol)
        stored = got.store(rank).get("chunk")
        assert np.shares_memory(stored, panel.rows)
        assert np.array_equal(stored, mine)
    for field in COUNTERS + ("flops",):
        assert np.array_equal(getattr(got.stats, field),
                              getattr(want.stats, field)), field
    for mine, theirs in zip(got.stores, want.stores):
        assert (mine.words, mine.peak_words, mine.step_peak_words) == (
            theirs.words, theirs.peak_words, theirs.step_peak_words)


@given(solve_cases())
@settings(max_examples=40, deadline=None)
def test_zero_diagonal_refused_before_any_chunk_changes(case):
    _, unit, transpose = SOLVES[case[3]]
    if unit:
        return                      # a unit triangle's diagonal is not read
    (machine, panel), _ = _solve_setup(case, zero_diagonal=True)
    before = panel.rows.copy()
    with pytest.raises(blas.SingularMatrixError):
        solve_1d(machine, panel, "tri", transpose=transpose)
    assert np.array_equal(panel.rows, before)
    assert not machine.stats.flops.any()


def test_solve_refuses_a_panel_it_cannot_solve_in_place():
    """A Fortran-ordered (or read-only) panel has no in-place solve:
    ``trsm_rows`` refuses it rather than solving a copy."""
    tri = np.eye(2)
    parts = [slice(0, 3)]
    with pytest.raises(blas.KernelError, match="C-ordered"):
        blas.trsm_rows([tri], np.asfortranarray(np.ones((3, 2))), parts)
    frozen = np.ones((3, 2))
    frozen.flags.writeable = False
    with pytest.raises(blas.KernelError, match="writeable"):
        blas.trsm_rows([tri], frozen, parts)


# ----------------------------------------------------------------------
# local_panels registers a rank's tiles in one call == one ``put`` per
# tile (the loop as it was, kept here only).

def per_tile_local_panels(machine, grid, nb, v, name, a, lower=False):
    pr, pc = grid.rows, grid.cols
    panels = []
    for rank in range(grid.size):
        pi, pj, k = grid.coords(rank)
        panel = np.zeros((len(range(pi, nb, pr)) * v,
                          len(range(pj, nb, pc)) * v))
        for bi in range(pi, nb, pr):
            for bj in range(pj, bi + 1 if lower else nb, pc):
                i0, j0 = (bi // pr) * v, (bj // pc) * v
                tile = panel[i0:i0 + v, j0:j0 + v]
                if k == 0:
                    tile[...] = a[bi * v:(bi + 1) * v, bj * v:(bj + 1) * v]
                machine.store(rank).put((name, bi, bj), tile)
        panels.append(panel)
    return panels


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.integers(1, 5), st.integers(1, 3), st.booleans(),
       st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_one_registration_per_rank_equals_per_tile_puts(pr, pc, c, nb, v,
                                                        lower, short):
    """Same tiles, words and peaks; under a budget ``short`` words below
    the loop's peak, the same refusal at the same (rank, step, key)."""
    grid = ProcessorGrid3D(pr, pc, c)
    n = nb * v
    a = np.arange(float(n * n)).reshape(n, n)
    # Every rank already holds a block under a tile key (its first
    # tile's, where it has one, replaced by the registration) and one
    # of another name.
    held = {rank: [((NAME, grid.coords(rank)[0], grid.coords(rank)[1]),
                    np.zeros(rank + 1)), ("other", np.zeros(3))]
            for rank in range(grid.size)}

    def run(register, budget=None):
        machine = (Machine(grid.size) if budget is None else
                   Machine(grid.size, mem_words=budget, enforce_memory=True))
        for rank, items in held.items():
            for key, block in items:
                machine.store(rank).put(key, block)
        machine.begin_step("init")
        try:
            panels = register(machine, grid, nb, v, NAME, a, lower=lower)
        except MemoryBudgetExceeded as exc:
            return machine, None, exc
        return machine, panels, None

    def batched(machine, grid, nb, v, name, a, lower):
        return local_panels(machine, grid, nb, v, name, a, None, lower=lower)

    (got, got_panels, _), (want, want_panels, _) = (
        run(batched), run(per_tile_local_panels))
    for g, w in zip(got_panels, want_panels):
        assert np.array_equal(g, w)
    for rank, (mine, theirs) in enumerate(zip(got.stores, want.stores)):
        assert (mine.words, mine.peak_words, mine.step_peak_words) == (
            theirs.words, theirs.peak_words, theirs.step_peak_words)
        assert list(mine.keys()) == list(theirs.keys())
        for key, tile in mine.items():
            if not any(tile is block for _, block in held[rank]):
                assert np.shares_memory(tile, got_panels[rank])
    budget = want.peak_words_per_rank().max() - short
    if budget < max(sum(block.size for _, block in items)
                    for items in held.values()):
        return                      # what is held already overflows
    (got, _, err), (want, _, want_err) = (run(batched, budget),
                                          run(per_tile_local_panels, budget))
    assert (err is None) == (want_err is None)
    if err is not None:
        assert (err.rank, err.step, err.key, err.needed_words) == (
            want_err.rank, want_err.step, want_err.key,
            want_err.needed_words)
    for mine, theirs in zip(got.stores, want.stores):
        assert (mine.words, mine.peak_words, mine.step_peak_words) == (
            theirs.words, theirs.peak_words, theirs.step_peak_words)


# ----------------------------------------------------------------------
# Deterministic overhead ceiling.

#: Python-level calls of one pdgetrf(conflux, n=128, P=16, v=8, c=2),
#: SciPy already imported: 35.5 k with the writeback registering views
#: of the packed factor (36.3 k copying it into native tiles, then
#: COSTA-copying those into the caller's; ceiling lowered by the 785
#: calls that saved); 35.8 k with every layout move around the
#: call made per rank — one ``get_many``/``put_many`` per rank, ``put``
#: and ``put_many`` without an ``_admit`` call per block (44.7 k with a
#: ``put`` per tile of the reshuffles and the native scatter; 44.9 k
#: with the trailing update one in-place gemm per rank on zero-padded
#: operands, 44.7 k with a row-indexed write per rank; 43.0 k when the
#: 1D panels were first stacked and solved in place, with one
#: registration per rank and vectorized broadcast counting; 100 k with
#: a ``blas.trsm`` + ``put`` per chunk and a ``put`` per tile, 272 k
#: with one ``ship`` per message, 481 k with the per-tile update loops
#: before that); the ceiling was first set 10 % above 35.8 k.
CALL_CEILING = 38_650

#: Functions of the batched path: none may stack operands per tile, and
#: only the tournament still sends message by message.
HOT_PATH = {"dist_step", "panel_fan_out_update", "_by_grid_coord",
            "layered_reduce", "distribute_rows_1d", "assemble_cols_1d",
            "_scatter_1d", "exchange", "solve_1d", "trsm_rows"}


def _profiled_pd(op: str) -> pstats.Stats:
    """One profiled 2.5D ``pdgetrf`` (COnfLUX) or ``pdpotrf``
    (COnfCHOX), n=128, P=16, v=8, c=2, from a 4x4, mb=8 descriptor."""
    n, p = 128, 16
    machine = Machine(p)
    a = np.random.default_rng(3).standard_normal((n, n))
    a = a @ a.T + n * np.eye(n) if op == "cholesky" else a + n * np.eye(n)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=8, nb=8, prows=4, pcols=4)
    BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(4, 4)).scatter_from(
        machine, "X", a)
    blas._lapack()          # the first kernel call would import SciPy
    profile = cProfile.Profile()
    if op == "cholesky":
        res = profile.runcall(pdpotrf, machine, "X", desc, impl="confchox",
                              v=8, c=2)
        assert np.allclose(a, res.lower @ res.lower.T)
    else:
        res = profile.runcall(pdgetrf, machine, "X", desc, impl="conflux",
                              v=8, c=2)
        assert np.allclose(a[res.perm], res.lower @ res.upper)
    return pstats.Stats(profile)


def _callers(stats: pstats.Stats, name: str) -> set[str]:
    """Names of the direct callers of the profiled function ``name``."""
    return {caller[2]
            for func, (_, _, _, _, callers) in stats.stats.items()
            if func[2] == name for caller in callers}


def _calls(stats: pstats.Stats, name: str) -> int:
    """How often the profiled function ``name`` was called."""
    return sum(calls for func, (_, calls, _, _, _) in stats.stats.items()
               if func[2] == name)


def _calls_by(stats: pstats.Stats, name: str, caller: str) -> int:
    """How often ``caller`` called the profiled function ``name``."""
    return sum(counts[0] for func, (_, _, _, _, callers) in stats.stats.items()
               if func[2] == name
               for by, counts in callers.items() if by[2] == caller)


def _batched_panel_steps(stats: pstats.Stats, nranks: int) -> None:
    """What both 2.5D schedules share: every chunk solved in place (no
    ``blas.trsm``, no ``isin`` mask), each rank's tiles registered by
    one call — the working panels' and those of every layout move
    around the call — each step's trailing update one batch of in-place
    gemms.  The layout moves: COSTA moves data for the input only (one
    ``redistribute``, under ``_reshuffle``); the writeback copies no
    tile — it registers the native factors and the output as views of
    the packed factor (two ``view_from``, no ``scatter_from``, no
    ``ndarray.copy`` under either) and charges the pattern between them
    (the one ``charge_reshuffle`` outside ``redistribute``)."""
    assert _calls(stats, "trsm") == 0
    assert _calls(stats, "isin") == 0
    assert _calls_by(stats, "solve_1d", "dist_step") > 0
    assert not {"local_panels", "scatter_from", "view_from", "redistribute",
                "_register"} & _callers(stats, "put")
    assert _calls_by(stats, "put_many", "local_panels") <= nranks
    assert _callers(stats, "redistribute") == {"_reshuffle"}
    assert _calls(stats, "scatter_from") == 0
    assert _callers(stats, "view_from") == {"_run_pd"}
    assert not {"view_from", "_tiles", "_register"} & _callers(
        stats, "<method 'copy' of 'numpy.ndarray' objects>")
    assert _calls_by(stats, "charge_reshuffle", "_run_pd") == _calls_by(
        stats, "charge_reshuffle", "redistribute") == 1
    moves = _calls(stats, "redistribute") + _calls(stats, "view_from")
    assert _calls(stats, "_register") == moves == 3
    assert _callers(stats, "put_many") == {"local_panels", "_register"}
    assert _calls_by(stats, "put_many", "_register") <= moves * nranks
    assert _calls_by(stats, "gemm_acc_many", "panel_fan_out_update") == (
        _calls(stats, "panel_fan_out_update")) > 0


def test_executed_conflux_python_overhead_stays_batched():
    stats = _profiled_pd("lu")
    assert stats.total_calls < CALL_CEILING
    # No per-tile operand rebuilds and no per-message sends in the
    # batched path: the tournament's rounds are the only ``ship``s ...
    assert not _callers(stats, "stack") & HOT_PATH
    assert _callers(stats, "ship") == {"_factor_a00"}
    assert HOT_PATH <= {func[2] for func in stats.stats}
    # ... and scalar flop-count arguments are validated without a trip
    # through NumPy.
    asarray = "<built-in method numpy.asarray>"
    assert _callers(stats, asarray)
    assert "_check_nonneg" not in _callers(stats, asarray)
    assert "_check_nonneg" in {func[2] for func in stats.stats}
    _batched_panel_steps(stats, 16)


#: Python-level calls of the same pdpotrf(confchox): 22.9 k with the
#: writeback registering views (23.7 k copying; ceiling lowered by the
#: 785 calls saved); 22.7 k with every layout move made per rank (30.0 k
#: with a ``put`` per tile of the reshuffles and the native scatter;
#: 30.6 k with the trailing update one in-place gemm per rank on
#: zero-padded operands, 30.7 k with one product per local tile column;
#: 29.5 k when the A10 panel was first solved in place with one
#: registration per rank; 43 k with a ``blas.trsm`` + ``put`` per chunk
#: and a ``put`` per tile, 56 k with a masked rectangle per rank and an
#: owner lookup per tile); the ceiling was first set 10 % above 22.7 k.
CALL_CEILING_CHOL = 24_200


def test_executed_confchox_python_overhead_stays_batched():
    stats = _profiled_pd("cholesky")
    assert stats.total_calls < CALL_CEILING_CHOL
    _batched_panel_steps(stats, 16)
    # The lower update keeps no mask ...
    assert "panel_fan_out_update" not in _callers(stats, "count_nonzero")
    # ... and the layout moves validate no tile one by one.
    assert _calls(stats, "_check_block") == 0


#: Python-level calls of one executed 2D view at n=512, nb=16, P=16:
#: ``(schedule, ceiling)``.  On ``local_panels`` slabs LU makes 220 k
#: (2.01 M tile by tile: 43 k ``RankStore.put``s, 22 k ``ship``s) and
#: Cholesky 58 k (374 k); the ceilings sit well below the per-tile cost.
CALL_CEILINGS_2D = {
    "lu": (lambda: ScalapackLUSchedule(512, 16, nb=16,
                                       panel_rebroadcast=False), 400_000),
    "cholesky": (lambda: ScalapackCholeskySchedule(512, 16, nb=16), 80_000),
}


@pytest.mark.parametrize("op", CALL_CEILINGS_2D)
def test_executed_2d_python_overhead_stays_batched(op):
    make, ceiling = CALL_CEILINGS_2D[op]
    a = np.random.default_rng(3).standard_normal((512, 512))
    if op == "cholesky":
        a = a @ a.T + 512 * np.eye(512)
    blas._lapack()          # the first kernel call would import SciPy
    profile = cProfile.Profile()
    res = profile.runcall(DistributedBackend().run, make(), a=a)
    if op == "lu":
        assert np.allclose(a[res.perm], res.lower @ res.upper)
    else:
        assert np.allclose(a, res.lower @ res.lower.T)
    stats = pstats.Stats(profile)
    assert stats.total_calls < ceiling
    # Nothing in the 2D views sends message by message, and the store
    # is touched per rank and step, not per tile.
    assert _callers(stats, "ship") == set()
    assert _calls(stats, "put") < 10_000


#: Python-level calls of one pdgemm(25d, n=96, P=16, s=16, c=2) on the
#: 2x4x2 grid, where one A strip in three straddles two 24-column
#: blocks: 14.1 k on shared panels (18.2 k with a ``put`` + ``bcast``
#: per piece and a stack per rank); ceiling ~25 % above.
CALL_CEILING_SUMMA = 17_700


def _profiled_pdgemm(s: int) -> pstats.Stats:
    n, p = 96, 16
    machine = Machine(p)
    a, b = np.random.default_rng(3).standard_normal((2, n, n))
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=8, nb=8, prows=4, pcols=4)
    layout = BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(4, 4))
    layout.scatter_from(machine, "X", a)
    layout.scatter_from(machine, "Y", b)
    blas._lapack()          # the first kernel call would import SciPy
    profile = cProfile.Profile()
    res = profile.runcall(pdgemm, machine, "X", desc, "Y", desc, s=s, c=2)
    assert np.allclose(res.lower, a @ b)
    return pstats.Stats(profile)


def test_executed_summa_moves_panels_not_pieces():
    stats = _profiled_pdgemm(16)
    assert stats.total_calls < CALL_CEILING_SUMMA
    # Pieces are charged, not sent: nothing calls ``Machine.bcast``, no
    # rank stacks a panel of its own (one ``hstack`` per grid row of
    # the two straddling rounds, no ``vstack``: 48-row blocks hold
    # every B strip), and the product accumulates in place.
    assert _calls(stats, "bcast") == 0
    assert _callers(stats, "charge_bcast") == {"_panel"}
    assert _callers(stats, "hstack") == {"_panel"}
    assert (_calls(stats, "hstack"), _calls(stats, "vstack")) == (4, 0)
    assert _calls(stats, "gemm_acc") == _calls(stats, "stage") == 3 * 16
    # Strips of 8 lie in one block each: nothing is stacked at all.
    aligned = _profiled_pdgemm(8)
    assert _calls(aligned, "hstack") == _calls(aligned, "vstack") == 0
