"""Seeded input generation — the only place the workload seed is read.

The program under test receives what these functions return (matrices,
request tuples, case lists), never the seed.  The same seed gives the
same inputs; the *content* every pinned count depends on (matrix size,
request universe, case grid) is fixed, the seed varies matrix entries,
request order, the hot set and the query stream.
"""

from __future__ import annotations

import numpy as np


def _rng(seed: int, *salt: int) -> np.random.Generator:
    """One stream per (seed, salt); any integer is a valid seed."""
    return np.random.default_rng([seed % 2 ** 64, *salt])


def matrices(seed: int, n: int, kind: str, count: int) -> list[np.ndarray]:
    """``count`` n x n matrices: ``dd`` diagonally dominant, ``spd``
    symmetric positive definite, ``gen`` plain Gaussian."""
    rng = _rng(seed, n, len(kind))
    out = []
    for _ in range(count):
        g = rng.standard_normal((n, n))
        if kind == "dd":
            g += n * np.eye(n)
        elif kind == "spd":
            g = g @ g.T + n * np.eye(n)
        elif kind != "gen":
            raise ValueError(f"unknown matrix kind {kind!r}")
        out.append(g)
    return out


def shuffled(seed: int, items: list) -> list:
    """``items`` in a seeded order (content unchanged)."""
    rng = _rng(seed, len(items))
    return [items[i] for i in rng.permutation(len(items))]


def serve_stream(seed: int, lattice: int, off_lattice: int, hot_lattice: int,
                 hot_off: int, length: int, hot_share: float = 0.9,
                 ) -> tuple[list[int], np.ndarray]:
    """The serving traffic over a universe of ``lattice`` exact and
    ``off_lattice`` snapping requests (indexed lattice first).

    Returns ``(hot, stream)``: the seeded hot set — ``hot_lattice``
    exact plus ``hot_off`` snapping requests, so every seed has the same
    path mix — and ``length`` universe indices, ``hot_share`` of them
    uniform over the hot set and the rest uniform over the others.
    """
    rng = _rng(seed, lattice, off_lattice, length)
    hot = sorted(rng.choice(lattice, hot_lattice, replace=False).tolist()
                 + (lattice + rng.choice(off_lattice, hot_off,
                                         replace=False)).tolist())
    cold = [i for i in range(lattice + off_lattice) if i not in hot]
    pick_hot = rng.random(length) < hot_share
    stream = np.where(pick_hot,
                      np.asarray(hot)[rng.integers(0, len(hot), length)],
                      np.asarray(cold)[rng.integers(0, len(cold), length)])
    return hot, stream
