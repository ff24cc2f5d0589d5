"""The layout moves, made per rank, against their per-tile forms.

``BlockCyclicLayout.scatter_from`` / ``gather_to`` and
``costa.redistribute`` make a rank's tiles with one ``map`` (a copy
per tile, or a copy per overlap of a source with a destination tile)
and store them with one ``put_many`` per rank.  The references here are
what they did before, kept in ``tests/`` only: a walk over every tile
in row-major order with one ``put`` (or ``get``) per tile, and, for the
reshuffle, one fresh array per destination tile filled by one slice
copy per overlap with a source tile.  On generated ragged layouts both
forms must leave the same stored keys (in the same order), words,
per-rank and per-step peaks, bits and counted transfers, and under a
budget below the reference's peak refuse the same tile with the same
``(rank, step, key, needed_words)``.

The pd* writeback's form — ``view_from`` of one read-only matrix in two
layouts with ``costa.charge_reshuffle`` between them — is held to the
copying pair it replaced, ``scatter_from`` then ``redistribute``, the
same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.layouts import BlockCyclicLayout, redistribute
from repro.layouts.costa import charge_reshuffle
from repro.machine import (
    CommunicationError,
    Machine,
    MemoryBudgetExceeded,
    ProcessorGrid2D,
)
from oracle import block_shape

STEP = "move"


def reference_tiles(layout: BlockCyclicLayout, machine: Machine):
    """``(owner's store, bi, bj, row slice, column slice)`` of every
    tile, row-major."""
    grid = layout.grid
    machine.store(grid.rank(min(layout.mblocks, grid.rows) - 1,
                            min(layout.nblocks, grid.cols) - 1))
    for bi in range(layout.mblocks):
        rows = slice(bi * layout.mb, min((bi + 1) * layout.mb, layout.m))
        for bj in range(layout.nblocks):
            cols = slice(bj * layout.nb, min((bj + 1) * layout.nb, layout.n))
            yield (machine.stores[grid.rank(bi % grid.rows, bj % grid.cols)],
                   bi, bj, rows, cols)


def reference_scatter(layout: BlockCyclicLayout, machine: Machine, name,
                      a: np.ndarray) -> None:
    for store, bi, bj, rows, cols in reference_tiles(layout, machine):
        store.put((name, bi, bj), a[rows, cols].copy())


def reference_gather(layout: BlockCyclicLayout, machine: Machine,
                     name) -> np.ndarray:
    out = np.empty((layout.m, layout.n))
    for store, bi, bj, rows, cols in reference_tiles(layout, machine):
        out[rows, cols] = store.get((name, bi, bj))
    return out


def _cuts(extent: int, sb: int, db: int):
    """``(src block, dst block, slice in the source block, slice in the
    destination block)`` of every segment of ``[0, extent)`` cut at
    both partitions' block boundaries."""
    lo = np.union1d(np.arange(0, extent, sb), np.arange(0, extent, db))
    hi = np.append(lo[1:], extent)
    return [(lo_ // sb, lo_ // db, slice(lo_ - lo_ // sb * sb, hi_ - lo_ // sb * sb),
             slice(lo_ - lo_ // db * db, hi_ - lo_ // db * db))
            for lo_, hi_ in zip(lo.tolist(), hi.tolist())]


def reference_redistribute(machine: Machine, name, src: BlockCyclicLayout,
                           dst: BlockCyclicLayout, dst_name) -> None:
    """One fresh array per destination tile, one slice copy per overlap,
    one message per (source rank, destination rank) pair with words to
    move (the words of every overlap whose owners differ), then one
    ``put`` per destination tile in row-major order."""
    tiles = {(bi, bj): store.get((name, bi, bj))
             for store, bi, bj, _, _ in reference_tiles(src, machine)}
    out = {(bi, bj): np.empty((rows.stop - rows.start, cols.stop - cols.start))
           for _, bi, bj, rows, cols in reference_tiles(dst, machine)}
    moved = np.zeros((machine.nranks, machine.nranks))
    for sbi, dbi, from_rows, to_rows in _cuts(src.m, src.mb, dst.mb):
        for sbj, dbj, from_cols, to_cols in _cuts(src.n, src.nb, dst.nb):
            out[dbi, dbj][to_rows, to_cols] = tiles[sbi, sbj][from_rows,
                                                              from_cols]
            s, d = src.owner_rank(sbi, sbj), dst.owner_rank(dbi, dbj)
            if s != d:
                moved[s, d] += ((from_rows.stop - from_rows.start)
                                * (from_cols.stop - from_cols.start))
    s, d = np.nonzero(moved)
    machine.stats.record_transfers(s, d, moved[s, d])
    for store, bi, bj, _, _ in reference_tiles(dst, machine):
        store.put((dst_name, bi, bj), out[bi, bj])


@st.composite
def scenarios(draw):
    """Two layouts of one ragged matrix, what every rank holds before
    the move, a matrix and a budget shortfall."""
    m, n = draw(st.integers(1, 23)), draw(st.integers(1, 23))

    def layout():
        return BlockCyclicLayout(
            m, n, draw(st.integers(1, 9)), draw(st.integers(1, 9)),
            ProcessorGrid2D(draw(st.integers(1, 3)), draw(st.integers(1, 3))))

    src, dst = layout(), layout()
    nranks = max(src.grid.size, dst.grid.size) + draw(st.integers(0, 1))
    # Some ranks already hold a block of another matrix, and some a
    # block under a destination tile key, which the move replaces.
    held = {rank: draw(st.integers(0, 12)) for rank in range(nranks)}
    replaced = draw(st.lists(st.tuples(st.integers(0, dst.mblocks - 1),
                                       st.integers(0, dst.nblocks - 1),
                                       st.integers(1, 20)), max_size=2))
    seed = draw(st.integers(0, 2**31))
    return src, dst, nranks, held, replaced, seed, draw(st.integers(1, 30))


def _machine(nranks: int, held: dict, replaced, dst: BlockCyclicLayout,
             name, budget=None) -> Machine:
    machine = (Machine(nranks) if budget is None else
               Machine(nranks, mem_words=budget, enforce_memory=True))
    for rank, words in held.items():
        if words:
            machine.store(rank).put("other", np.zeros(words))
    for bi, bj, words in replaced:
        machine.store(dst.owner_rank(bi, bj)).put((name, bi, bj),
                                                  np.zeros(words))
    return machine


def _assert_same_stores(got: Machine, want: Machine) -> None:
    for mine, theirs in zip(got.stores, want.stores):
        assert (mine.words, mine.peak_words, mine.step_peak_words) == (
            theirs.words, theirs.peak_words, theirs.step_peak_words)
        assert list(mine.keys()) == list(theirs.keys())
        for key, block in theirs.items():
            assert mine.get(key).shape == block.shape
            assert np.array_equal(mine.get(key), block)
    for field in ("recv_words", "recv_msgs", "flops"):
        assert np.array_equal(getattr(got.stats, field),
                              getattr(want.stats, field))


def _refusal(move, machine: Machine):
    machine.begin_step(STEP)
    try:
        move(machine)
    except MemoryBudgetExceeded as exc:
        return exc.rank, exc.step, exc.key, exc.needed_words
    return None


def _compare(scenario, prepare, move, reference_move, name) -> None:
    """Run ``move`` and ``reference_move`` on equal machines, unbounded
    and under a budget ``short`` words below the reference's peak."""
    src, dst, nranks, held, replaced, _, short = scenario

    def run(mover, budget=None):
        machine = _machine(nranks, held, replaced, dst, name, budget)
        prepare(machine)
        return machine, _refusal(mover, machine)

    (got, _), (want, _) = run(move), run(reference_move)
    _assert_same_stores(got, want)
    budget = want.peak_words_per_rank().max() - short
    if budget < 1:
        return
    try:
        prepare(_machine(nranks, held, replaced, dst, name, budget))
    except MemoryBudgetExceeded:
        return                          # the set-up alone overflows
    (got, got_err), (want, want_err) = run(move, budget), run(reference_move,
                                                              budget)
    assert got_err == want_err
    _assert_same_stores(got, want)


@given(scenarios())
@settings(max_examples=80, deadline=None)
@example((BlockCyclicLayout(16, 16, 4, 4, ProcessorGrid2D(2, 2)),
          BlockCyclicLayout(16, 16, 2, 2, ProcessorGrid2D(2, 2)),
          4, {0: 0, 1: 3, 2: 0, 3: 3}, [], 0, 5))
def test_scatter_equals_one_put_per_tile(scenario):
    _, dst, _, _, _, seed, _ = scenario
    a = np.random.default_rng(seed).standard_normal((dst.m, dst.n))
    _compare(scenario, lambda machine: None,
             lambda machine: dst.scatter_from(machine, "A", a),
             lambda machine: reference_scatter(dst, machine, "A", a), "A")


@given(scenarios())
@settings(max_examples=80, deadline=None)
@example((BlockCyclicLayout(16, 16, 4, 4, ProcessorGrid2D(4, 4)),
          BlockCyclicLayout(16, 16, 2, 2, ProcessorGrid2D(2, 4)),
          16, {rank: rank % 3 for rank in range(16)}, [(0, 0, 9)], 1, 3))
@example((BlockCyclicLayout(12, 12, 2, 2, ProcessorGrid2D(2, 3)),
          BlockCyclicLayout(12, 12, 5, 4, ProcessorGrid2D(3, 2)),
          6, {rank: 0 for rank in range(6)}, [(2, 1, 3)], 2, 1))
def test_redistribute_equals_one_copy_per_overlap(scenario):
    src, dst, _, _, _, seed, _ = scenario
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((src.m, src.n))
    # The source as the stores hold it: scattered, then one tile
    # replaced by a fresh array the reshuffle must read.
    bi, bj = rng.integers(src.mblocks), rng.integers(src.nblocks)
    rows, cols = block_shape(src, bi, bj)
    fresh = rng.standard_normal((rows, cols))

    def prepare(machine):
        src.scatter_from(machine, "S", a)
        machine.store(src.owner_rank(bi, bj)).put(("S", bi, bj), fresh)

    _compare(scenario, prepare,
             lambda machine: redistribute(machine, "S", src, dst,
                                          dst_name="A"),
             lambda machine: reference_redistribute(machine, "S", src, dst,
                                                    "A"), "A")


@given(scenarios())
@settings(max_examples=80, deadline=None)
@example((BlockCyclicLayout(12, 12, 2, 2, ProcessorGrid2D(2, 3)),
          BlockCyclicLayout(12, 12, 5, 4, ProcessorGrid2D(3, 2)),
          6, {rank: 0 for rank in range(6)}, [(2, 1, 3)], 2, 1))
def test_writeback_by_views_equals_scatter_then_redistribute(scenario):
    src, dst, nranks, held, replaced, seed, _ = scenario
    a = np.random.default_rng(seed).standard_normal((src.m, src.n))
    a.flags.writeable = False

    def by_views(machine):
        src.view_from(machine, "S", a)
        charge_reshuffle(machine, src, dst)
        dst.view_from(machine, "A", a)

    _compare(scenario, lambda machine: None, by_views,
             lambda machine: (src.scatter_from(machine, "S", a),
                              redistribute(machine, "S", src, dst,
                                           dst_name="A")), "A")
    machine = _machine(nranks, held, replaced, dst, "A")
    by_views(machine)
    for layout, name in ((src, "S"), (dst, "A")):
        for store, bi, bj, rows, cols in reference_tiles(layout, machine):
            tile = store.get((name, bi, bj))
            assert tile.base is a and not tile.flags.writeable
            assert np.shares_memory(tile, a[rows, cols])


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_gather_reads_what_the_stores_hold(scenario):
    src, _, nranks, _, _, seed, _ = scenario
    rng = np.random.default_rng(seed)
    machine = Machine(nranks)
    src.scatter_from(machine, "S", rng.standard_normal((src.m, src.n)))
    bi, bj = rng.integers(src.mblocks), rng.integers(src.nblocks)
    machine.store(src.owner_rank(bi, bj)).put(
        ("S", bi, bj), rng.standard_normal(block_shape(src, bi, bj)))
    got = src.gather_to(machine, "S")
    assert got.flags.c_contiguous and got.shape == (src.m, src.n)
    assert np.array_equal(got, reference_gather(src, machine, "S"))


def test_every_tile_is_an_array_of_its_own():
    """Scattered and reshuffled tiles are C-ordered arrays with the
    block's extents that alias neither the caller's matrix nor each
    other: one allocation per tile, as a tile-by-tile move makes."""
    src = BlockCyclicLayout(10, 9, 3, 2, ProcessorGrid2D(2, 2))
    dst = BlockCyclicLayout(10, 9, 4, 5, ProcessorGrid2D(2, 1))
    machine = Machine(4)
    a = np.arange(90.0).reshape(10, 9)
    src.scatter_from(machine, "S", a)
    redistribute(machine, "S", src, dst, dst_name="D")
    for layout, name in ((src, "S"), (dst, "D")):
        for bi in range(layout.mblocks):
            for bj in range(layout.nblocks):
                tile = machine.store(layout.owner_rank(bi, bj)).get(
                    (name, bi, bj))
                assert tile.shape == block_shape(layout, bi, bj)
                assert tile.flags.c_contiguous and tile.flags.owndata
                assert not np.shares_memory(tile, a)


def test_a_missing_tile_is_named():
    """Reading a matrix with a tile gone raises as ``RankStore.get``
    would, naming the key."""
    src = BlockCyclicLayout(8, 8, 4, 4, ProcessorGrid2D(2, 2))
    dst = BlockCyclicLayout(8, 8, 2, 2, ProcessorGrid2D(2, 2))
    machine = Machine(4)
    src.scatter_from(machine, "S", np.ones((8, 8)))
    machine.store(src.owner_rank(1, 0)).discard(("S", 1, 0))
    for move in (lambda: src.gather_to(machine, "S"),
                 lambda: redistribute(machine, "S", src, dst)):
        with pytest.raises(CommunicationError, match=r"\('S', 1, 0\)"):
            move()
