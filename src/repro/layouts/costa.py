"""COSTA-style layout redistribution.

The paper's implementation achieves ScaLAPACK compatibility through COSTA
(Kabic et al., ISC 2021): an algorithm that reshuffles a distributed
matrix between two arbitrary grid-like layouts with minimal communication.
Here we implement the redistribution over the simulated machine: every
element moves directly from its source owner to its destination owner
(one-shot, no store-and-forward), which is exactly COSTA's communication
pattern, and the counters record per-rank traffic.

The paper uses the fact that any such reshuffle costs only O(N^2 / P) per
rank — asymptotically negligible against the factorization's
N^3/(P sqrt(M)) — to argue layout compatibility is essentially free; the
tests verify both the round-trip correctness and that cost bound.
"""

from __future__ import annotations

import math

import numpy as np

from ..machine.comm import Machine
from ..machine.exceptions import LayoutError
from .block_cyclic import BlockCyclicLayout, block_key

__all__ = ["redistribute", "redistribution_volume", "conversion_words"]


def _overlaps(extent: int, sb: int, db: int,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every non-empty overlap of a source block with a destination
    block along one axis of length ``extent`` (block sizes ``sb`` /
    ``db``): ``(src_block, dst_block, lo, hi)`` arrays in ascending
    order.  Cutting the axis at every block boundary of either
    partition leaves segments that lie in one block of each."""
    lo = np.union1d(np.arange(0, extent, sb), np.arange(0, extent, db))
    return lo // sb, lo // db, lo, np.append(lo[1:], extent)


def _cuts(overlaps: tuple[np.ndarray, ...], sb: int, db: int,
          ) -> list[tuple[int, int, slice, slice]]:
    """:func:`_overlaps` as ``(src_block, dst_block, slice inside the
    source block, slice inside the destination block)`` per overlap."""
    return [(s, d, slice(lo - s * sb, hi - s * sb),
             slice(lo - d * db, hi - d * db))
            for s, d, lo, hi in zip(*(x.tolist() for x in overlaps))]


def _check_same_matrix(src: BlockCyclicLayout,
                       dst: BlockCyclicLayout) -> None:
    if (src.m, src.n) != (dst.m, dst.n):
        raise LayoutError(
            f"layouts describe different matrices: "
            f"{src.m}x{src.n} vs {dst.m}x{dst.n}")


def _traffic(src: BlockCyclicLayout, dst: BlockCyclicLayout):
    """The tile intersections of two layouts of one matrix: the row
    and column :func:`_overlaps` they are the product of, and their
    source rank, destination rank and cross-rank word count (zero
    where the two coincide) as ``(row overlap, column overlap)``
    matrices."""
    _check_same_matrix(src, dst)
    rows = _overlaps(src.m, src.mb, dst.mb)
    cols = _overlaps(src.n, src.nb, dst.nb)
    (sbi, dbi, r0, r1), (sbj, dbj, c0, c1) = rows, cols
    src_rank = ((sbi % src.grid.rows)[:, None] * src.grid.cols
                + sbj % src.grid.cols)
    dst_rank = ((dbi % dst.grid.rows)[:, None] * dst.grid.cols
                + dbj % dst.grid.cols)
    moved = np.multiply.outer(r1 - r0, c1 - c0) * (src_rank != dst_rank)
    return rows, cols, src_rank, dst_rank, moved


def redistribute(machine: Machine, name: str, src: BlockCyclicLayout,
                 dst: BlockCyclicLayout, dst_name: str | None = None) -> None:
    """Reshuffle distributed matrix ``name`` from layout ``src`` to ``dst``.

    Source tiles must already reside in the machine's stores under
    ``block_key(name, bi, bj)``.  Destination tiles are created under
    ``block_key(dst_name or name + ':r', bi, bj)``.  Every element travels
    at most once between distinct ranks; co-located pieces are free.
    One message per (source rank, destination rank) pair with words to
    move.
    """
    out_name = dst_name if dst_name is not None else name + ":r"
    rows, cols, src_rank, dst_rank, words = _traffic(src, dst)

    # Both layouts' tiles row-major, as their owners' stores hold them.
    tiles = [store.get(block_key(name, bi, bj))
             for store, bi, bj, _, _ in src._tiles(machine)]
    out = [np.empty((r.stop - r.start, c.stop - c.start))
           for _, _, _, r, c in dst._tiles(machine)]
    col_cuts = _cuts(cols, src.nb, dst.nb)
    for sbi, dbi, from_rows, to_rows in _cuts(rows, src.mb, dst.mb):
        s0, d0 = sbi * src.nblocks, dbi * dst.nblocks
        for sbj, dbj, from_cols, to_cols in col_cuts:
            out[d0 + dbj][to_rows, to_cols] = tiles[s0 + sbj][from_rows,
                                                              from_cols]

    nranks = machine.nranks
    moved = np.bincount((src_rank * nranks + dst_rank).ravel(),
                        weights=words.ravel())
    pair = np.flatnonzero(moved)
    machine.stats.record_transfers(pair // nranks, pair % nranks, moved[pair])
    for (store, bi, bj, _, _), tile in zip(dst._tiles(machine), out):
        store.put(block_key(out_name, bi, bj), tile)


def _owner_pairs(extent: int, sb: int, sp: int, db: int,
                 dp: int) -> np.ndarray:
    """``J[a, b]``: indices of ``[0, extent)`` on source slot ``a``
    (block ``sb``, ``sp`` slots) and destination slot ``b`` (``db``,
    ``dp``), walking the coarser partition's blocks in one period
    ``lcm(sb sp, db dp)``, weighted by recurrence; below ``y`` the finer
    one (``f``, ``P``) puts ``(y // fP) f + clip(y mod fP - b f, 0, f)``
    indices on slot ``b``."""
    period = math.lcm(sb * sp, db * dp)
    full, tail = divmod(extent, period)
    span = min(period, extent)
    (cb, cp), (fb, fp) = sorted([(sb, sp), (db, dp)], reverse=True)
    # Also cut at the tail (0 without a full period): nothing straddles.
    y = np.union1d(np.arange(0, span, cb), [tail % span, span])[:, None]
    cycle = fb * fp
    below = y // cycle * fb + np.clip(y % cycle - np.arange(fp) * fb, 0, fb)
    counts = np.zeros((cp, fp), dtype=np.int64)
    np.add.at(counts, y[:-1, 0] // cb % cp,
              (full + (y[1:] <= tail)) * np.diff(below, axis=0))
    return counts if (cb, cp) == (sb, sp) else counts.T


def conversion_words(src: BlockCyclicLayout,
                     dst: BlockCyclicLayout) -> float:
    """Total cross-rank words :func:`redistribute` would move, in
    closed form — no per-tile intersection walk, no per-index array.

    An element ``(i, j)`` moves iff its source owner differs from its
    destination owner.  On a row-major grid the owner rank splits into
    a row part that depends only on ``i`` and a column part that
    depends only on ``j``::

        rank = ((i // mb) % rows) * cols + (j // nb) % cols

    so the ranks agree exactly when the per-row difference
    ``row_src - row_dst`` equals the per-column difference
    ``col_dst - col_src``.  Counting matches therefore factorizes into
    two 1-D histograms of :func:`_owner_pairs` joined on that
    difference — O(coarse blocks per period x grid dimension), usable as
    a *planning* term at paper scale, where the per-intersection
    matrices of :func:`redistribution_volume` are far too large.
    The workload planner charges exactly this quantity (normalized per
    rank) for every producer→consumer edge whose native layouts differ.
    """
    _check_same_matrix(src, dst)
    if src == dst:
        return 0.0
    sr, sc = src.grid.rows, src.grid.cols
    dr, dc = dst.grid.rows, dst.grid.cols
    row_diff = np.arange(sr)[:, None] * sc - np.arange(dr) * dc
    col_diff = np.arange(dc) - np.arange(sc)[:, None]
    shift = min(int(row_diff.min()), int(col_diff.min()))
    length = max(int(row_diff.max()), int(col_diff.max())) - shift + 1
    hist = np.zeros((2, length), dtype=np.int64)
    np.add.at(hist[0], row_diff - shift,
              _owner_pairs(src.m, src.mb, sr, dst.mb, dr))
    np.add.at(hist[1], col_diff - shift,
              _owner_pairs(src.n, src.nb, sc, dst.nb, dc))
    return float(src.m) * src.n - int(hist[0] @ hist[1])


def redistribution_volume(src: BlockCyclicLayout,
                          dst: BlockCyclicLayout) -> np.ndarray:
    """Per-rank received words of :func:`redistribute`, without moving data.

    Trace-mode companion used by the cost-model validation: confirms the
    O(N^2/P) bound the paper invokes for layout transformations.
    """
    _, _, _, dst_rank, words = _traffic(src, dst)
    return np.bincount(dst_rank.ravel(), weights=words.ravel(),
                       minlength=max(src.grid.size, dst.grid.size))
