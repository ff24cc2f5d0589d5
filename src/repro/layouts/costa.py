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


def conversion_words(src: BlockCyclicLayout,
                     dst: BlockCyclicLayout) -> float:
    """Total cross-rank words :func:`redistribute` would move, in
    closed form — O(m + n), no per-tile intersection walk.

    An element ``(i, j)`` moves iff its source owner differs from its
    destination owner.  On a row-major grid the owner rank splits into
    a row part that depends only on ``i`` and a column part that
    depends only on ``j``::

        rank = ((i // mb) % rows) * cols + (j // nb) % cols

    so the ranks agree exactly when the per-row difference
    ``row_src - row_dst`` equals the per-column difference
    ``col_dst - col_src``.  Counting matches therefore factorizes into
    two 1-D histograms joined on that difference — which is what makes
    the cost usable as a *planning* term at paper scale, where the
    per-intersection matrices of :func:`redistribution_volume` are far
    too large.
    The workload planner charges exactly this quantity (normalized per
    rank) for every producer→consumer edge whose native layouts differ.
    """
    _check_same_matrix(src, dst)
    if src == dst:
        return 0.0
    i = np.arange(src.m)
    row_diff = (((i // src.mb) % src.grid.rows) * src.grid.cols
                - ((i // dst.mb) % dst.grid.rows) * dst.grid.cols)
    j = np.arange(src.n)
    col_diff = ((j // dst.nb) % dst.grid.cols
                - (j // src.nb) % src.grid.cols)
    shift = min(int(row_diff.min()), int(col_diff.min()))
    length = max(int(row_diff.max()), int(col_diff.max())) - shift + 1
    rows = np.bincount(row_diff - shift, minlength=length)
    cols = np.bincount(col_diff - shift, minlength=length)
    colocated = int(rows @ cols)
    return float(src.m) * src.n - colocated


def redistribution_volume(src: BlockCyclicLayout,
                          dst: BlockCyclicLayout) -> np.ndarray:
    """Per-rank received words of :func:`redistribute`, without moving data.

    Trace-mode companion used by the cost-model validation: confirms the
    O(N^2/P) bound the paper invokes for layout transformations.
    """
    _, _, _, dst_rank, words = _traffic(src, dst)
    return np.bincount(dst_rank.ravel(), weights=words.ravel(),
                       minlength=max(src.grid.size, dst.grid.size))
