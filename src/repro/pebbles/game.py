"""Sequential red-blue pebble game (Hong & Kung, Section 2.3).

Rules, with fast memory of ``M`` red pebbles and unlimited blue pebbles:

* **load**  — place a red pebble on a vertex carrying a blue pebble;
* **store** — place a blue pebble on a vertex carrying a red pebble;
* **compute** — place a red pebble on a vertex whose predecessors all
  carry red pebbles;
* **evict** — remove a red pebble.

Inputs start blue; the game ends when every output carries a blue pebble.
The I/O cost ``Q`` is the number of loads plus stores.

:class:`PebbleGame` is a *validating executor*: it replays a schedule and
raises :class:`PebbleGameError` on any illegal move, so schedulers cannot
silently cheat the memory limit.  :func:`greedy_schedule` produces a valid
schedule with Belady (furthest-next-use) eviction — an upper bound on the
optimal ``Q`` that the tests compare against the Section-3 lower bounds.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterable, Sequence

from .cdag import CDag

__all__ = ["Move", "PebbleGame", "PebbleGameError", "greedy_schedule",
           "run_greedy"]


class PebbleGameError(RuntimeError):
    """An illegal pebble-game move."""


@dataclasses.dataclass(frozen=True)
class Move:
    """One pebble-game move: op in {'load', 'store', 'compute', 'evict'}."""

    op: str
    vertex: Hashable


class PebbleGame:
    """Validating executor of sequential red-blue pebble schedules."""

    def __init__(self, cdag: CDag, mem_pebbles: int) -> None:
        if mem_pebbles < 1:
            raise ValueError("need at least one red pebble")
        max_indeg = max((cdag.in_degree(v) for v in cdag.compute_vertices()),
                        default=0)
        if mem_pebbles < max_indeg + 1:
            raise ValueError(
                f"M={mem_pebbles} cannot pebble a vertex with "
                f"{max_indeg} predecessors (need M >= {max_indeg + 1})")
        self.cdag = cdag
        self.mem = mem_pebbles
        self.red: set[Hashable] = set()
        self.blue: set[Hashable] = set(cdag.inputs())
        self.computed: set[Hashable] = set(cdag.inputs())
        self.loads = 0
        self.stores = 0
        self.computes = 0
        self.max_red = 0

    @property
    def io_cost(self) -> int:
        """``Q`` = loads + stores."""
        return self.loads + self.stores

    # ------------------------------------------------------------------
    def apply(self, move: Move) -> None:
        v = move.vertex
        if v not in self.cdag:
            raise PebbleGameError(f"unknown vertex {v!r}")
        if move.op == "load":
            if v not in self.blue:
                raise PebbleGameError(f"load of {v!r} without blue pebble")
            if v in self.red:
                raise PebbleGameError(f"load of already-red {v!r}")
            self._place_red(v)
            self.loads += 1
        elif move.op == "store":
            if v not in self.red:
                raise PebbleGameError(f"store of {v!r} without red pebble")
            self.blue.add(v)
            self.stores += 1
        elif move.op == "compute":
            if v in self.computed:
                raise PebbleGameError(f"recomputation of {v!r} (allowed by "
                                      "the game, but schedulers here are "
                                      "recomputation-free by construction)")
            missing = [p for p in self.cdag.preds(v) if p not in self.red]
            if missing:
                raise PebbleGameError(
                    f"compute {v!r}: predecessors {missing[:3]} not red")
            self._place_red(v)
            self.computed.add(v)
            self.computes += 1
        elif move.op == "evict":
            if v not in self.red:
                raise PebbleGameError(f"evict of non-red {v!r}")
            self.red.discard(v)
        else:
            raise PebbleGameError(f"unknown op {move.op!r}")

    def _place_red(self, v: Hashable) -> None:
        if len(self.red) >= self.mem:
            raise PebbleGameError(
                f"placing red pebble on {v!r} exceeds M={self.mem}")
        self.red.add(v)
        self.max_red = max(self.max_red, len(self.red))

    def run(self, schedule: Iterable[Move]) -> int:
        """Apply all moves; returns the I/O cost ``Q``."""
        for move in schedule:
            self.apply(move)
        return self.io_cost

    def finished(self) -> bool:
        """All outputs carry a blue pebble (game termination condition)."""
        return all(v in self.blue for v in self.cdag.outputs())


def greedy_schedule(cdag: CDag, mem_pebbles: int,
                    order: Sequence[Hashable] | None = None) -> list[Move]:
    """Produce a valid schedule via topological execution with Belady
    (furthest-next-use) eviction.

    Every computed vertex that still has un-computed successors is stored
    before eviction; outputs are stored when computed (inputs start
    blue), so every output ends blue.  The result is an
    *upper bound* schedule: ``Q_greedy >= Q_opt >= lower bound``.
    """
    topo = [v for v in (order or cdag.topological_order())
            if cdag.in_degree(v) > 0]
    inputs, outputs = cdag.inputs(), cdag.outputs()

    # next_use[v]: ascending positions at which v is consumed.
    next_use: dict[Hashable, list[int]] = {}
    for pos, v in enumerate(topo):
        for p in cdag.preds(v):
            next_use.setdefault(p, []).append(pos)
    use_ptr: dict[Hashable, int] = {v: 0 for v in next_use}

    def next_use_of(v: Hashable, pos: int) -> float:
        uses = next_use.get(v, ())
        i = use_ptr.get(v, 0)
        while i < len(uses) and uses[i] < pos:
            i += 1
        use_ptr[v] = i
        return uses[i] if i < len(uses) else float("inf")

    moves: list[Move] = []
    red: set[Hashable] = set()
    blue: set[Hashable] = set(inputs)

    def evict_one(pinned: set[Hashable], pos: int) -> None:
        candidates = red - pinned
        if not candidates:
            raise RuntimeError(
                f"M={mem_pebbles} too small: all red pebbles pinned")
        victim = max(candidates, key=lambda u: (next_use_of(u, pos), repr(u)))
        if victim not in blue and next_use_of(victim, pos) != float("inf"):
            moves.append(Move("store", victim))
            blue.add(victim)
        moves.append(Move("evict", victim))
        red.discard(victim)

    for pos, v in enumerate(topo):
        needed = set(cdag.preds(v))
        pinned = set(needed) | {v}
        for p in sorted(needed - red, key=repr):
            while len(red) >= mem_pebbles:
                evict_one(pinned, pos)
            if p not in blue:
                raise RuntimeError(
                    f"scheduler bug: {p!r} neither red nor blue")
            moves.append(Move("load", p))
            red.add(p)
        while len(red) >= mem_pebbles:
            evict_one(pinned, pos)
        moves.append(Move("compute", v))
        red.add(v)
        if v in outputs:
            moves.append(Move("store", v))
            blue.add(v)
    return moves


def run_greedy(cdag: CDag, mem_pebbles: int) -> PebbleGame:
    """Convenience: build the greedy schedule, execute it validated, and
    return the finished game (with ``io_cost``)."""
    game = PebbleGame(cdag, mem_pebbles)
    game.run(greedy_schedule(cdag, mem_pebbles))
    if not game.finished():
        raise RuntimeError("greedy schedule did not blue-pebble all outputs")
    return game
