"""Helpers for message-passing schedule execution.

The distributed view of a schedule keeps a strict discipline: *control*
(step structure, pivot bookkeeping, who-needs-what plans) is global —
the engine is a simulator and may orchestrate freely — but *matrix
data* lives only in per-rank stores and crosses rank boundaries only
through counted :class:`~repro.machine.comm.Machine` operations.  These
helpers implement the recurring movement patterns of the 2.5D
schedules:

* :func:`ship` — pack a sub-block at its owner and move it to a
  destination rank (point-to-point, counted);
* :func:`local_panels` — one contiguous local panel per rank, its
  ``v x v`` tiles stored as views;
* :func:`panel_fan_out_update` — Algorithm 1 steps 8, 10 and 11: fan
  the factored panels out, then one Schur update per rank;
* :func:`fiber_reduce_subset` — the layered reduction of Algorithm 1
  steps 1 and 5: sum a row subset of one partial tile over the ``c``
  layers onto a chosen layer's rank;
* :func:`distribute_rows_1d` — the 1D panel scatter of steps 4 and 6:
  spread panel rows contiguously over all ranks;
* :func:`assemble_cols_1d` — the column-chunk counterpart used for the
  A01 panel, where each destination needs *all* rows of its column
  chunk gathered from several sources;
* :func:`bcast_copy`, :func:`swap_rows_2d`, :func:`maxloc_allreduce` —
  the recurring patterns of the 2D block-cyclic schedules (panel/tile
  broadcasts, cross-matrix pivot-row exchange, MAXLOC pivot search),
  promoted here from the retired special-cased ``distributed2d`` module
  so ScaLAPACK LU/Cholesky and the 2.5D SUMMA share them.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from ..machine.comm import Machine
from ..machine.grid import ProcessorGrid3D

__all__ = [
    "ship",
    "local_panels",
    "panel_fan_out_update",
    "fiber_reduce_subset",
    "distribute_rows_1d",
    "assemble_cols_1d",
    "bcast_copy",
    "swap_rows_2d",
    "maxloc_allreduce",
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


def bcast_copy(machine: Machine, src: int, src_key: Hashable,
               group: Sequence[int], key: Hashable) -> None:
    """Broadcast the block stored under ``src_key`` at ``src`` to every
    rank in ``group`` under the transient key ``key``.

    Unlike a bare :meth:`Machine.bcast` this does not require the block
    to already sit under the destination key, so a schedule can fan the
    same tile out along several communicators (e.g. a Cholesky panel
    tile along both its grid row and its grid column) without the
    copies shadowing each other.  ``src`` must be in ``group``.
    """
    machine.store(src).put(key, machine.store(src).get(src_key))
    machine.bcast(src, group, key)


def swap_rows_2d(machine: Machine, lay, name: Hashable, g1: int,
                 g2: int) -> None:
    """Exchange global rows ``g1`` and ``g2`` of block-cyclic matrix
    ``name`` across every block column (the ``laswp`` of a pivoted 2D
    schedule).

    Per block column the two row segments either share an owner (a free
    local swap) or travel between the two owners as counted
    point-to-point messages — both directions move, matching the 2D
    trace's ``2 * nb * width`` swap charge.
    """
    if g1 == g2:
        return
    bi1, i1 = divmod(g1, lay.mb)
    bi2, i2 = divmod(g2, lay.mb)
    for bj in range(lay.nblocks):
        r1 = lay.owner_rank(bi1, bj)
        r2 = lay.owner_rank(bi2, bj)
        t1 = machine.store(r1).get((name, bi1, bj))
        t2 = machine.store(r2).get((name, bi2, bj))
        if r1 == r2:
            row = t1[i1].copy()
            t1[i1] = t2[i2]
            t2[i2] = row
            continue
        ship(machine, r1, r2, ("swap", g1, bj), t1[i1])
        ship(machine, r2, r1, ("swap", g2, bj), t2[i2])
        t1[i1] = machine.store(r1).pop(("swap", g2, bj))
        t2[i2] = machine.store(r2).pop(("swap", g1, bj))


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


def fiber_reduce_subset(machine: Machine, grid: ProcessorGrid3D,
                        bi: int, bj: int, rows_local: np.ndarray,
                        k_root: int, tile_key: Hashable,
                        out_key: Hashable) -> int:
    """Sum rows ``rows_local`` of partial tile ``(bi, bj)`` over layers.

    Every layer's owner of tile ``(bi, bj)`` holds its partial
    contribution under ``tile_key``; the reduced block lands on layer
    ``k_root``'s owner under ``out_key`` (returned rank).  The root
    receives ``(c-1) * len(rows_local) * width`` words — the flat
    reduce accounting of Algorithm 1's layered reductions.
    """
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


def distribute_rows_1d(machine: Machine,
                       pieces: Sequence[tuple[int, np.ndarray, np.ndarray]],
                       nranks: int, key_tag: Hashable,
                       ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """1D-scatter panel rows contiguously over all ranks.

    ``pieces`` is ``(owner_rank, global_row_ids, block)`` triples; the
    union of rows, ordered by global id, is split into ``nranks``
    contiguous chunks, chunk ``r`` assembled in rank ``r``'s store under
    ``(key_tag, "1d")``.  Returns per-rank ``(row_ids, block)`` (block
    None for empty chunks).  Only cross-rank pieces are counted.
    """
    owners = np.concatenate([np.full(len(ids), owner)
                             for owner, ids, _ in pieces])
    ids = np.concatenate([np.asarray(ids, dtype=int) for _, ids, _ in pieces])
    rows = np.vstack([block for _, _, block in pieces])
    order = np.argsort(ids)
    ids, owners, rows = ids[order], owners[order], rows[order]
    out: list[tuple[np.ndarray, np.ndarray | None]] = []
    for dst, part in enumerate(np.array_split(np.arange(ids.size), nranks)):
        if part.size == 0:
            out.append((ids[part], None))
            continue
        chunk_block = np.empty((part.size, rows.shape[1]))
        for src in dict.fromkeys(owners[part].tolist()):
            sel = part[owners[part] == src]
            ship(machine, src, dst, (key_tag, "s", src), rows[sel])
            chunk_block[sel - part[0]] = machine.store(dst).pop(
                (key_tag, "s", src))
        machine.store(dst).put((key_tag, "1d"), chunk_block)
        out.append((ids[part], chunk_block))
    return out


def assemble_cols_1d(machine: Machine,
                     pieces: Sequence[tuple[int, np.ndarray, np.ndarray,
                                            np.ndarray]],
                     row_order: np.ndarray, nranks: int,
                     key_tag: Hashable,
                     ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """1D-scatter panel *columns* over all ranks, assembling full rows.

    ``pieces`` is ``(owner_rank, row_ids, col_ids, block)``; every
    destination needs all ``row_order`` rows of its contiguous column
    chunk, so each source ships the intersection of its piece with the
    chunk and the destination stitches them in ``row_order`` under
    ``(key_tag, "1d")``.  Returns per-rank ``(col_ids, block)``.
    """
    row_pos = {int(g): i for i, g in enumerate(row_order)}
    col_order = np.array(sorted({int(cg) for _, _, cids, _ in pieces
                                 for cg in cids}), dtype=int)
    out: list[tuple[np.ndarray, np.ndarray | None]] = []
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
            sub = block[:, csel]
            ship(machine, src, dst, (key_tag, "s", src, idx), sub)
            ri = [row_pos[int(g)] for g in rids]
            ci = [col_pos[int(cids[i])] for i in csel]
            acc[np.ix_(ri, ci)] = machine.store(dst).pop(
                (key_tag, "s", src, idx))
        machine.store(dst).put((key_tag, "1d"), acc)
        out.append((chunk, acc))
    return out


def local_panels(machine: Machine, grid: ProcessorGrid3D, nb: int, v: int,
                 name: Hashable, a: np.ndarray | None,
                 in_name: Hashable | None,
                 lower: bool = False) -> list[np.ndarray]:
    """Lay out the 2.5D partial sums: one contiguous panel per rank.

    Rank ``(pi, pj, k)`` packs its tiles ``bi % Pr == pi``, ``bj % Pc
    == pj`` of layer ``k``'s partial sum as local tile ``(bi // Pr,
    bj // Pc)``.  Layer 0 is filled from the dense ``a`` or the
    resident ``(in_name, bi, bj)`` tiles, the other layers with zeros;
    ``lower`` registers only ``bi >= bj``.  Each tile is stored under
    ``(name, bi, bj)`` *as a view of the panel*: same keys and words as
    separately allocated tiles, but a rank's whole trailing block can
    be updated in one indexed write.  Nothing may ``put`` a fresh
    array under these keys — it would detach the tile from its panel.
    Returns the panels, indexed by rank.
    """
    pr, pc = grid.rows, grid.cols
    panels = [np.zeros((len(range(pi, nb, pr)) * v,
                        len(range(pj, nb, pc)) * v))
              for pi, pj, _ in map(grid.coords, range(grid.size))]
    for bi in range(nb):
        for bj in range(bi + 1 if lower else nb):
            i0, j0 = (bi // pr) * v, (bj // pc) * v
            for k in range(grid.layers):
                rank = grid.rank(bi % pr, bj % pc, k)
                tile = panels[rank][i0:i0 + v, j0:j0 + v]
                if k == 0 and in_name is not None:
                    tile[...] = machine.store(rank).get((in_name, bi, bj))
                elif k == 0:
                    tile[...] = a[bi * v:(bi + 1) * v, bj * v:(bj + 1) * v]
                machine.store(rank).put((name, bi, bj), tile)
    return panels


def _split_by_owner(chunks: Sequence[tuple[np.ndarray, np.ndarray | None]],
                    nprocs: int, v: int):
    """Split 1D panel chunks ``(ids, block)`` (one block row per global
    index) by the grid coordinate ``q`` cyclically owning each index's
    tile: per ``q``, the ``(src, rows)`` pieces and the indices'
    positions in ``q``'s local panel, both in source order."""
    pieces: list[list] = [[] for _ in range(nprocs)]
    local: list[list] = [[] for _ in range(nprocs)]
    for src, (ids, block) in enumerate(chunks):
        if block is None:
            continue
        tile = ids // v
        owner = tile % nprocs
        loc = (tile // nprocs) * v + ids % v
        for q in range(nprocs):
            sel = np.flatnonzero(owner == q)
            if sel.size:
                pieces[q].append((src, block[sel]))
                local[q].append(loc[sel])
    return pieces, [np.concatenate(x) if x else None for x in local]


def _gather_planes(machine: Machine, dst: int, tag: str, t: int,
                   pieces: Sequence[tuple[int, np.ndarray]],
                   planes: slice) -> np.ndarray | None:
    """Ship ``planes`` of every piece to ``dst``, one counted message
    ``(tag, t, src)`` per source, and stack what arrived (or None)."""
    store = machine.store(dst)
    arrived = []
    for src, rows in pieces:
        ship(machine, src, dst, (tag, t, src), rows[:, planes])
        arrived.append(store.pop((tag, t, src)))
    return np.concatenate(arrived) if arrived else None


def panel_fan_out_update(machine: Machine, grid: ProcessorGrid3D,
                         panels: Sequence[np.ndarray], v: int, t: int,
                         row_tag: str, row_chunks, col_tag: str, col_chunks,
                         lower: bool = False) -> None:
    """Fan the factored panels out and apply the local Schur update:
    Algorithm 1 steps 8, 10 and 11 of step ``t``.

    ``row_chunks[src]`` / ``col_chunks[src]`` are the 1D-scattered
    panels as ``(ids, block)`` with one ``v``-wide block row per global
    row (resp. column) index, i.e. A10 and A01 *transposed*; COnfCHOX
    passes its A10 chunks on both sides.  Columns are whole tiles in
    ascending order, so a rank's share is one run of its panel.  Rank
    ``(pi, pj, k)`` is shipped its grid row's rows and its grid
    column's columns, layer ``k``'s ``v/c`` planes of each (keys
    ``(tag, t, src)``), stacks them into one A10 and one A01 operand
    and subtracts their product from its panel in one indexed write —
    on tiles ``bi >= bj`` only when ``lower``.  Flops: ``2mnk`` over
    the entries updated, once per rank.
    """
    pr, pc = grid.rows, grid.cols
    planes = v // grid.layers
    row_pieces, row_local = _split_by_owner(row_chunks, pr, v)
    col_pieces, col_local = _split_by_owner(col_chunks, pc, v)
    for dst in range(grid.size):
        pi, pj, pk = grid.coords(dst)
        sl = slice(pk * planes, (pk + 1) * planes)
        a10 = _gather_planes(machine, dst, row_tag, t, row_pieces[pi], sl)
        a01t = _gather_planes(machine, dst, col_tag, t, col_pieces[pj], sl)
        if a10 is None or a01t is None:
            continue
        rows, cols = row_local[pi], col_local[pj]
        update = a10 @ a01t.T
        if lower:
            keep = ((rows // v * pr + pi)[:, None]
                    >= (cols // v * pc + pj)[None, :])
            update *= keep
        panels[dst][rows, cols[0]:cols[-1] + 1] -= update
        updated = np.count_nonzero(keep) if lower else update.size
        machine.compute(dst, 2.0 * updated * planes)
