"""Helpers for message-passing schedule execution.

The distributed view of a schedule keeps a strict discipline: *control*
(step structure, pivot bookkeeping, who-needs-what plans) is global —
the engine is a simulator and may orchestrate freely — but *matrix
data* lives only in per-rank stores and crosses rank boundaries only
through counted :class:`~repro.machine.comm.Machine` operations.  These
helpers implement the recurring movement patterns of the 2.5D
schedules:

* :func:`ship` — pack a sub-block at its owner and move it to a
  destination rank (one counted point-to-point message; what is
  genuinely sequential — the tournament rounds — uses it);
* :func:`exchange` — a whole point-to-point pattern charged at once
  from ``(src, dst, words)`` index arrays, equal to one ``ship`` and
  consumer ``pop`` per message;
* :func:`local_panels` — one contiguous local panel per rank, its
  ``v x v`` tiles stored as views;
* :func:`layered_reduce` — the layered reduction of Algorithm 1 steps
  1 and 5: sum a set of rows of a range of tile columns over the ``c``
  layers onto a chosen layer, one block per root;
* :func:`distribute_rows_1d` — the 1D panel scatter of step 4: spread
  panel rows contiguously over all ranks;
* :func:`assemble_cols_1d` — the column-chunk counterpart of step 6
  for the A01 panel, where each destination needs *all* rows of its
  column chunk gathered from several sources; both return one
  :class:`Panel1D`, each rank's chunk a view of it;
* :func:`solve_1d` — steps 7 and 9: every rank's local trsm, in place
  on its chunk;
* :func:`panel_fan_out_update` — Algorithm 1 steps 8, 10 and 11: fan
  the factored panels out, then one Schur update per rank;
* :func:`maxloc_allreduce`, :func:`swap_rows`, :func:`fan_out_panel`,
  :func:`gather_panels` — the 2D block-cyclic schedules on the same
  panels (sliced at :func:`local_start`): MAXLOC pivot search, the
  pivot-row exchange (``laswp``), a factored panel broadcast along
  its tiles' grid rows or columns, and the factors' assembly.
"""

from __future__ import annotations

from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from ..kernels import blas
from ..layouts.descriptors import global_to_local
from ..machine.comm import Machine
from ..machine.grid import ProcessorGrid3D, balanced_block_count

__all__ = [
    "ship",
    "exchange",
    "local_panels",
    "panel_fan_out_update",
    "layered_reduce",
    "Panel1D",
    "distribute_rows_1d",
    "assemble_cols_1d",
    "solve_1d",
    "maxloc_allreduce",
    "local_start",
    "swap_rows",
    "fan_out_panel",
    "gather_panels",
]


def ship(machine: Machine, src: int, dst: int, key: Hashable,
         block: np.ndarray) -> None:
    """Pack ``block`` at ``src`` and move it to ``dst`` under ``key``.

    Packing a sub-block at its owner is a local (free) operation; the
    move is a counted point-to-point transfer.  The packed copy is
    ``src``'s only in passing: its words are checked against ``src``'s
    budget and charged to its memory peaks, then ``dst`` holds ``key``.
    """
    packed = np.array(block, order="C")
    if dst == src:
        machine.store(src).put(key, packed)
        return
    machine.store(src).stage(packed.size, key)
    machine.stats.record_transfer(src, dst, packed.size)
    machine.store(dst).put(key, packed)


def maxloc_allreduce(machine: Machine, key: Hashable,
                     entries: Mapping[int, tuple[float, int]],
                     ) -> tuple[float, int]:
    """Counted MAXLOC allreduce of per-rank ``(value, index)`` pairs.

    Every participating rank contributes a 2-word ``(value, index)``
    block — the ``MPI_MAXLOC`` payload of a distributed pivot search —
    and the words move through a real :meth:`Machine.allreduce`.  The
    winning pair itself is resolved here in control space (elementwise
    max of heterogeneous pairs is not an argmax), matching the
    simulator's discipline that *control* is global while *data
    movement* is counted.  Ties resolve to the smallest index, the
    first-occurrence convention of ``getrf``.
    """
    group = sorted(entries)
    for r in group:
        machine.store(r).put(key, np.asarray(entries[r], dtype=np.float64))
    machine.allreduce(group, key, op="max")
    for r in group:
        machine.store(r).discard(key)
    return max(entries.values(), key=lambda e: (e[0], -e[1]))


def local_start(k: int, nprocs: int, v: int) -> np.ndarray:
    """Per grid coordinate of a cyclic axis, the offset in its local
    panel where its tiles with index ``>= k`` begin."""
    return balanced_block_count(k, nprocs, np.arange(nprocs)) * v


def swap_rows(machine: Machine, grid: ProcessorGrid3D,
              panels: Sequence[np.ndarray], v: int, g1: int, g2: int,
              key: Hashable) -> None:
    """Exchange global rows ``g1`` and ``g2`` across every tile column
    (the ``laswp`` of a pivoted 2D schedule): every rank of the two
    owning grid rows swaps its whole local row.  Between different
    grid rows the segments travel tile by tile — per tile column one
    ``v``-word message each way, the 2D trace's ``2 * nb * width`` swap
    charge — as one :func:`exchange` under ``key``; within a grid row
    the swap is local and free."""
    pc = grid.cols
    (q1, l1), (q2, l2) = (global_to_local(g, v, grid.rows) for g in (g1, g2))
    if q1 != q2:
        tiles = sum(panels[pj].shape[1] for pj in range(pc)) // v
        one = q1 * pc + np.arange(tiles) % pc
        two = one + (q2 - q1) * pc
        exchange(machine, np.concatenate([one, two]),
                 np.concatenate([two, one]), np.full(2 * tiles, v), key)
    for pj in range(pc):
        ours, theirs = panels[q1 * pc + pj], panels[q2 * pc + pj]
        ours[l1], theirs[l2] = theirs[l2].copy(), ours[l1].copy()


def fan_out_panel(machine: Machine, grid: ProcessorGrid3D,
                  panels: Sequence[np.ndarray], v: int, k: int,
                  key: Hashable, along_rows: bool) -> list[np.ndarray]:
    """Broadcast step ``k``'s factored panel over a 2D grid: counted
    tile by tile, moved slab by slab.

    ``along_rows``: the tiles ``(bi, k)``, ``bi > k``, of block column
    ``k`` go along their grid rows (an L panel); otherwise the tiles
    ``(k, bj)``, ``bj > k``, of block row ``k`` down their grid columns
    (a U panel).  Per grid row (column) the root — its rank holding
    block ``k`` — is charged one :meth:`Machine.charge_bcast` with its
    tile count, and every other rank of it holds the root's stacked
    tiles under ``key`` until the caller discards them.  Returns the
    stacked tiles per grid row (column), empty where none is left.
    """
    lines, roots = (grid.rows, grid.cols) if along_rows else (grid.cols, grid.rows)
    at = k // roots * v
    slabs = []
    for q, start in enumerate(local_start(k + 1, lines, v).tolist()):
        group = [grid.rank(q, o, 0) if along_rows else grid.rank(o, q, 0)
                 for o in range(roots)]
        root = group[k % roots]
        slab = np.array(panels[root][start:, at:at + v] if along_rows
                        else panels[root][at:at + v, start:])
        slabs.append(slab)
        if slab.size:
            machine.charge_bcast(root, group, v * v, slab.size // (v * v))
            for rank in group:
                if rank != root:
                    machine.store(rank).put(key, slab)
    return slabs


def gather_panels(grid: ProcessorGrid3D, panels: Sequence[np.ndarray],
                  n: int, v: int) -> np.ndarray:
    """Assemble layer 0's panels into the ``n x n`` matrix they tile
    (control space, free): one strided assignment per rank."""
    out = np.zeros((n, n))
    tiles = out.reshape(n // v, v, n // v, v)
    for rank, panel in enumerate(panels[:grid.layer_size]):
        pi, pj, _ = grid.coords(rank)
        tiles[pi::grid.rows, :, pj::grid.cols] = panel.reshape(
            panel.shape[0] // v, v, panel.shape[1] // v, v)
    return out


def exchange(machine: Machine, src: np.ndarray, dst: np.ndarray,
             words: np.ndarray, key: Hashable) -> None:
    """Charge a whole point-to-point pattern at once: message ``i``
    moves ``words[i] > 0`` elements from ``src[i]`` to ``dst[i]``.

    Equal, counter for counter and peak for peak, to one :func:`ship`
    plus the consumer's ``pop`` per message, provided every message is
    transient at both ends and nothing else changes residency while
    the pattern is in flight (the caller moves the data itself).
    Volume: remote messages count their words and one message at both
    ends, self-sends nothing.  Memory: a rank holds one message at a
    time, so it is charged the largest of those it receives (its own
    self-sends included) and of the remote ones it sends — staged once
    per rank touched, ranks ascending, so an overflow raises
    :class:`~repro.machine.exceptions.MemoryBudgetExceeded` under
    ``key`` at a deterministic rank before a peak above the budget is
    noted.
    """
    src, dst, words = np.asarray(src), np.asarray(dst), np.asarray(words)
    machine.stats.record_transfers(src, dst, words)
    remote = src != dst
    _stage_largest(machine, np.concatenate([dst, src[remote]]),
                   np.concatenate([words, words[remote]]), key)


def _stage_largest(machine: Machine, ranks: np.ndarray, words: np.ndarray,
                   key: Hashable) -> None:
    """Stage, at every rank named in ``ranks`` (ascending), the largest
    of the ``words`` entries naming it."""
    held = np.zeros(machine.nranks, dtype=np.int64)
    np.maximum.at(held, ranks, words)
    for rank in np.flatnonzero(held):
        machine.stores[rank].stage(int(held[rank]), key)


def layered_reduce(machine: Machine, grid: ProcessorGrid3D,
                   panels: Sequence[np.ndarray], v: int, rows: np.ndarray,
                   bj0: int, bj1: int, k_root: int, key: Hashable,
                   ) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The layered reduction of Algorithm 1 steps 1 and 5: sum global
    rows ``rows`` of tile columns ``[bj0, bj1)`` over the ``c`` layers
    onto layer ``k_root``.

    Every fiber rank reads its share from its local panel in one
    indexed read; contributions are added in layer order, the root's
    own first.  The root at grid position ``(q, p)`` keeps its reduced
    block under ``key`` and is returned as a piece ``(root, rsel,
    csel, block)``: ``block`` holds rows ``rows[rsel]`` and the columns
    at offsets ``csel`` from ``bj0 * v`` (``rsel`` and ``csel``
    ascending); pieces come grid-row-major.  Accounting is per tile —
    the flat reduce accounting, ``(c-1) * rows-in-tile * v`` words
    received at the root per (row tile, column tile): every other layer
    sends one message per tile and holds the largest of them in passing.
    """
    pr, pc = grid.rows, grid.cols
    rows = np.asarray(rows)
    tile = rows // v
    local = (tile // pr) * v + rows % v
    bi, in_tile = np.unique(tile, return_counts=True)
    others = [k for k in range(grid.layers) if k != k_root]
    if others and bi.size:
        at = (bi % pr)[:, None] * pc + np.arange(bj0, bj1) % pc
        src = (np.array(others) * grid.layer_size)[:, None, None] + at
        machine.stats.record_transfers(
            src.ravel(),
            np.broadcast_to(k_root * grid.layer_size + at, src.shape).ravel(),
            np.broadcast_to((in_tile * v)[:, None], src.shape).ravel())
    # Grid column p's tile columns in range: one run of its panels.
    col_groups = []
    for p in range(pc):
        bjs = np.arange(bj0 + (p - bj0) % pc, bj1, pc)
        if bjs.size:
            col_groups.append((
                p, slice(bjs[0] // pc * v, (bjs[-1] // pc + 1) * v),
                ((bjs - bj0)[:, None] * v + np.arange(v)).ravel()))
    pieces = []
    for q in range(pr):
        rsel = np.flatnonzero(tile % pr == q)
        if rsel.size == 0:
            continue
        largest = int(in_tile[bi % pr == q].max()) * v
        for p, cols, csel in col_groups:
            root = grid.rank(q, p, k_root)
            acc = panels[root][local[rsel], cols]
            for k in others:
                rank = grid.rank(q, p, k)
                machine.stores[rank].stage(largest, key)
                acc += panels[rank][local[rsel], cols]
            machine.store(root).put(key, acc)
            pieces.append((root, rsel, csel, acc))
    return pieces


def _split_1d(n: int, parts: int) -> tuple[list[slice], np.ndarray]:
    """``np.array_split``'s cut of ``n`` items into ``parts`` contiguous
    chunks (the first ``n % parts`` one longer): the slice of every
    chunk, and the chunk of every item."""
    size, extra = divmod(n, parts)
    sizes = size + (np.arange(parts) < extra)
    ends = np.cumsum(sizes)
    return ([slice(lo, hi) for lo, hi in zip((ends - sizes).tolist(),
                                             ends.tolist())],
            np.repeat(np.arange(parts), sizes))


class Panel1D(NamedTuple):
    """A ``v``-wide panel 1D-scattered over all ranks, as one array.

    ``rows`` is C-ordered with one row per global index ``ids``
    (ascending); rank ``r`` holds the contiguous chunk ``rows[parts[r]]``
    — a *view*, stored under the scatter's key, so the stored chunk
    counts its words and an in-place solve on it is a solve on the
    panel.  Nothing may ``put`` a fresh array under a chunk key: it
    would detach the chunk from its panel.  ``rank_of[i]`` is the rank
    holding row ``i``.
    """

    ids: np.ndarray
    rows: np.ndarray
    parts: list[slice]
    rank_of: np.ndarray

    def held(self) -> list[int]:
        """The ranks holding a non-empty chunk, ascending."""
        return [r for r, part in enumerate(self.parts)
                if part.stop > part.start]


def _scatter_1d(machine: Machine, src: np.ndarray, dst: np.ndarray,
                words: np.ndarray, key: Hashable, panel: Panel1D) -> None:
    """Charge the messages of a 1D scatter and land rank ``r``'s chunk
    of ``panel`` in its store under ``key``.

    Destinations are served in rank order and a chunk lands once its
    messages have arrived, so what a source sends to a *higher* rank
    leaves while the source's own chunk is resident: those sends are
    staged once more on top of the landed chunks, which makes every
    rank's peak the per-message loop's.
    """
    exchange(machine, src, dst, words, key)
    for rank in panel.held():
        machine.stores[rank].put(key, panel.rows[panel.parts[rank]])
    up = src < dst
    _stage_largest(machine, src[up], words[up], key)


def distribute_rows_1d(machine: Machine,
                       pieces: Sequence[tuple[int, np.ndarray, np.ndarray]],
                       nranks: int, key: Hashable) -> Panel1D:
    """1D-scatter panel rows contiguously over all ranks.

    ``pieces`` is ``(owner_rank, global_row_ids, block)`` triples; the
    union of rows, ordered by global id, is stacked into one
    :class:`Panel1D` and split into ``nranks`` contiguous chunks, chunk
    ``r`` landing in rank ``r``'s store under ``key``.  One message per
    (owner, destination) pair with rows to move; only cross-rank ones
    are counted.
    """
    owners = np.repeat([owner for owner, _, _ in pieces],
                       [len(ids) for _, ids, _ in pieces])
    ids = np.concatenate([ids for _, ids, _ in pieces])
    rows = np.concatenate([block for _, _, block in pieces])
    order = np.argsort(ids)
    ids, owners, rows = ids[order], owners[order], rows[order]
    panel = Panel1D(ids, rows, *_split_1d(ids.size, nranks))
    moved = np.bincount(owners * nranks + panel.rank_of)
    pair = np.flatnonzero(moved)
    _scatter_1d(machine, pair // nranks, pair % nranks,
                moved[pair] * rows.shape[1], key, panel)
    return panel


def assemble_cols_1d(machine: Machine,
                     pieces: Sequence[tuple[int, np.ndarray, np.ndarray,
                                            np.ndarray]],
                     rows: np.ndarray, cols: np.ndarray, nranks: int,
                     v: int, key: Hashable) -> Panel1D:
    """1D-scatter panel *columns* over all ranks, assembling full rows.

    ``pieces`` is :func:`layered_reduce`'s ``(owner, rsel, csel,
    block)``: ``block`` holds global rows ``rows[rsel]`` and columns
    ``cols[csel]`` of the ``len(rows) x len(cols)`` panel (``cols``
    ascending, whole ``v``-wide tiles).  The panel is built transposed,
    one :class:`Panel1D` row per column (its entries in ``rows``
    order), and its columns split into ``nranks`` contiguous chunks,
    chunk ``r`` landing in rank ``r``'s store under ``key``.  Messages
    keep tile granularity: one per (row tile, column tile) of a piece
    and destination chunk that column tile meets.
    """
    panel = Panel1D(cols, np.empty((len(cols), len(rows))),
                    *_split_1d(len(cols), nranks))
    for _, rsel, csel, block in pieces:
        panel.rows[csel[:, None], rsel] = block.T
    # Per piece, as (piece, tile[, dst]) codes with multiplicities: its
    # row tiles with their row counts, and the destinations each of
    # its column tiles meets with the columns they share.
    index = np.arange(len(pieces))
    rsel = np.concatenate([rsel for _, rsel, _, _ in pieces])
    csel = np.concatenate([csel for _, _, csel, _ in pieces])
    of_row = np.repeat(index, [len(rsel) for _, rsel, _, _ in pieces])
    of_col = np.repeat(index, [len(csel) for _, _, csel, _ in pieces])
    row_tiles = int(rows.max()) // v + 1
    col_tiles = len(cols) // v
    row_code, nrows = np.unique(of_row * row_tiles + rows[rsel] // v,
                                return_counts=True)
    col_code, ncols = np.unique(
        (of_col * col_tiles + csel // v) * nranks + panel.rank_of[csel],
        return_counts=True)
    i, j = np.nonzero((row_code // row_tiles)[:, None]
                      == col_code // (col_tiles * nranks))
    owners = np.array([owner for owner, _, _, _ in pieces])
    _scatter_1d(machine, owners[row_code[i] // row_tiles],
                col_code[j] % nranks, nrows[i] * ncols[j], key, panel)
    return panel


def solve_1d(machine: Machine, panel: Panel1D, tri_key: Hashable,
             unit_diagonal: bool = False, transpose: bool = False) -> None:
    """Algorithm 1 steps 7 and 9: every rank holding a chunk ``B`` of
    ``panel`` solves ``X T = B`` into it (the chunk is a view, so the
    panel holds the solution), ``T`` the upper triangle of its own
    broadcast copy under ``tri_key`` — or of that copy's transpose with
    ``transpose``.  One
    :func:`~repro.kernels.blas.trsm_rows`, whose flops each rank is
    charged; no communication."""
    ranks = panel.held()
    tris = [machine.stores[r].get(tri_key) for r in ranks]
    fl = blas.trsm_rows([tri.T for tri in tris] if transpose else tris,
                        panel.rows, [panel.parts[r] for r in ranks],
                        unit_diagonal)
    machine.compute_many(ranks, fl)


def local_panels(machine: Machine, grid: ProcessorGrid3D, nb: int, v: int,
                 name: Hashable, a: np.ndarray | None,
                 in_name: Hashable | None,
                 lower: bool = False) -> list[np.ndarray]:
    """Lay out the 2.5D partial sums: one contiguous panel per rank.

    Rank ``(pi, pj, k)`` packs its tiles ``bi % Pr == pi``, ``bj % Pc
    == pj`` of layer ``k``'s partial sum as local tile ``(bi // Pr,
    bj // Pc)``.  Layer 0 is filled from the dense ``a`` or the
    resident ``(in_name, bi, bj)`` tiles — adopted tiles must be finite
    (``ValueError`` naming the first entry that is not, before anything
    is registered) — the other layers with zeros; ``lower`` registers
    only ``bi >= bj``.  Each tile is stored under ``(name, bi, bj)`` *as
    a view of the panel*, one :meth:`~repro.machine.store.RankStore.put_many`
    per rank: same keys and words as separately allocated tiles, but a
    run of a rank's panel rows can be updated by one in-place gemm.
    Nothing may ``put`` a fresh array under these keys — it would
    detach the tile from its panel.  Returns the panels, indexed by
    rank.
    """
    pr, pc = grid.rows, grid.cols
    panels, tiles = [], []
    for rank in range(grid.size):
        pi, pj, k = grid.coords(rank)
        panel = np.zeros((len(range(pi, nb, pr)) * v,
                          len(range(pj, nb, pc)) * v))
        store = machine.stores[rank]
        mine = []
        for bi in range(pi, nb, pr):
            for bj in range(pj, bi + 1 if lower else nb, pc):
                i0, j0 = (bi // pr) * v, (bj // pc) * v
                tile = panel[i0:i0 + v, j0:j0 + v]
                if k == 0 and in_name is not None:
                    tile[...] = store.get((in_name, bi, bj))
                elif k == 0:
                    tile[...] = a[bi * v:(bi + 1) * v, bj * v:(bj + 1) * v]
                mine.append(((name, bi, bj), tile))
        panels.append(panel)
        tiles.append(mine)
    if in_name is not None:
        _check_finite(grid, panels, v)
    for store, mine in zip(machine.stores, tiles):
        store.put_many(mine)
    return panels


def _check_finite(grid: ProcessorGrid3D, panels: Sequence[np.ndarray],
                  v: int) -> None:
    """Refuse layer 0's panels if any entry is NaN or infinite, naming
    the first such entry of the global matrix (row-major)."""
    bad = []
    for rank, panel in enumerate(panels[:grid.layer_size]):
        if not np.isfinite(panel).all():
            pi, pj, _ = grid.coords(rank)
            i, j = np.argwhere(~np.isfinite(panel))[0].tolist()
            bad.append(((i // v * grid.rows + pi) * v + i % v,
                        (j // v * grid.cols + pj) * v + j % v, panel[i, j]))
    if bad:
        i, j, value = min(bad)
        raise ValueError(f"input entry ({i}, {j}) is {value}; "
                         "the matrix must be finite")


def _by_grid_coord(panel: Panel1D, nprocs: int, v: int):
    """Split a 1D panel's rows by the grid coordinate ``q`` cyclically
    owning each index's tile.  Returns ``counts[src, q]`` (indices of
    rank ``src``'s chunk that ``q`` owns) and, per ``q``, its rows in
    index order with their positions in ``q``'s local panel."""
    ids = panel.ids
    tile = ids // v
    owner = tile % nprocs
    local = (tile // nprocs) * v + ids % v
    nranks = len(panel.parts)
    counts = np.bincount(panel.rank_of * nprocs + owner,
                         minlength=nranks * nprocs)
    mine = [np.flatnonzero(owner == q) for q in range(nprocs)]
    return (counts.reshape(nranks, nprocs),
            [panel.rows[sel] for sel in mine], [local[sel] for sel in mine])


def panel_fan_out_update(machine: Machine, grid: ProcessorGrid3D,
                         panels: Sequence[np.ndarray], v: int,
                         row_panel: Panel1D, col_panel: Panel1D,
                         key: Hashable, lower: bool = False) -> None:
    """Fan the factored panels out and apply the local Schur update:
    Algorithm 1 steps 8, 10 and 11 of one step.

    ``row_panel`` / ``col_panel`` are the 1D-scattered panels, one
    ``v``-wide row per global row (resp. column) index, i.e. A10 and
    A01 *transposed*; COnfCHOX passes its A10 on both sides.  Rank
    ``(pi, pj, k)`` receives, from every source holding any, one
    message with its grid row's rows and one with its grid column's
    columns, layer ``k``'s ``v/c`` planes of each — the whole pattern
    is one :func:`exchange` under ``key``.  Each grid row's rows become
    one zero-padded left operand, placed at their local panel rows from
    the first to the last; each grid column's columns one zero-padded
    right operand, placed at their local panel columns.  A rank then
    subtracts the product of its planes of the two from that run of
    whole panel rows — C-ordered, so one in-place
    :func:`~repro.kernels.blas.gemm_acc_many` product — and the padding
    multiplies exact zeros: rows not in ``row_panel`` (COnfLUX's pivot
    rows) and tile columns not in ``col_panel`` keep their bits.  With
    ``lower`` (COnfCHOX: a grid row's rows are one contiguous run, else
    ``ValueError`` before anything changes) only tiles ``bi >= bj`` are
    registered, and are charged; the product also writes the
    unregistered tiles above the diagonal, which nothing reads.
    Flops: ``2mnk`` over the registered entries updated, once per rank.
    """
    pr, pc, layers = grid.rows, grid.cols, grid.layers
    planes = v // layers
    row_counts, a10, row_local = _by_grid_coord(row_panel, pr, v)
    col_counts, a01t, col_local = _by_grid_coord(col_panel, pc, v)
    at = np.arange(grid.size) % grid.layer_size
    words = np.concatenate([row_counts[:, at // pc],
                            col_counts[:, at % pc]]) * planes
    src, dst = np.nonzero(words)
    exchange(machine, src % len(row_panel.parts), dst, words[src, dst],
             key)
    # Operand planes are (layers, ...) arrays whose per-layer slices are
    # C-ordered: the left (rows, planes), the right (planes, columns).
    rights = []
    for pj, cols in enumerate(col_local):
        if cols.size:                   # rank (0, pj, 0) is pj
            right = np.zeros((layers, planes, panels[pj].shape[1]))
            right[..., cols] = a01t[pj].reshape(-1, layers,
                                                planes).transpose(1, 2, 0)
            rights.append((pj, cols, right))
    fl = np.zeros(grid.size)
    products = []
    for pi, rows in enumerate(row_local):
        if rows.size == 0 or not rights:
            continue
        if lower and np.any(np.diff(rows) != 1):
            raise ValueError(f"lower=True needs one contiguous run of rows "
                             f"per grid row; grid row {pi}'s are not")
        r0, r1 = rows[0], rows[-1] + 1
        left = np.zeros((layers, r1 - r0, planes))
        left[:, rows - r0] = a10[pi].reshape(-1, layers,
                                             planes).transpose(1, 0, 2)
        for pj, cols, right in rights:
            updated = rows.size * cols.size
            if lower:
                top = np.searchsorted(rows // v * pr + pi,
                                      cols[::v] // v * pc + pj)
                updated = int((rows.size - top).sum()) * v
            fiber = range(pi * pc + pj, grid.size, grid.layer_size)
            fl[fiber.start::fiber.step] = 2.0 * updated * planes
            products += [(panels[rank][r0:r1], a, b)
                         for rank, a, b in zip(fiber, left, right)]
    blas.gemm_acc_many(products, -1.0)
    machine.compute_many(np.arange(grid.size), fl)
