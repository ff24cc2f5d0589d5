"""Divisor-aware parameter-candidate generation for the planner.

One source of truth for the (c, v, nb, s) search spaces: the sweep
harness' defaults (:func:`config_25d` / :func:`panel_width_2d`) live
next to the enumerators the planner proper searches over.  Everything is a
pure function of the problem shape — candidate enumeration never builds
a schedule, so the planner can prune cheaply before instantiating the
few survivors.
"""

from __future__ import annotations

__all__ = [
    "config_25d", "panel_width_2d",
    "replication_candidates", "tile_candidates",
    "panel_candidates", "strip_candidates",
]


def replication_candidates(p: int, n: int,
                           mem_words: float = float("inf"),
                           copies: int = 1) -> list[int]:
    """Replication depths worth trying: divisors of ``P`` up to the
    paper's ``P^(1/3)`` whose replicated footprint ``copies * c N^2 / P``
    fits in ``mem_words`` (the model-memory pre-filter; the planner
    re-checks the schedule's exact ``required_words`` afterwards).
    ``copies`` is the operand count the footprint replicates (1 for the
    factorizations, 3 for the 2.5D matmul's A/B/C)."""
    if p <= 0 or n <= 0:
        raise ValueError("p and n must be positive")
    c_max = int(round(p ** (1.0 / 3.0)))
    return [c for c in range(1, c_max + 1)
            if p % c == 0 and copies * c * float(n) * n / p <= mem_words]


def tile_candidates(n: int, c: int,
                    multiples: tuple[int, ...] = (1, 2, 4)) -> list[int]:
    """Tile sizes ``v = a * c`` for the paper's small constants ``a``
    (Section 7.2) that divide ``N``."""
    return [a * c for a in multiples if a * c <= n and n % (a * c) == 0]


def panel_width_2d(n: int) -> int:
    """2D panel width: ScaLAPACK-style 128, shrunk for small matrices."""
    nb = 128
    while n % nb != 0 or nb > n:
        nb //= 2
        if nb == 0:
            raise ValueError(f"cannot pick a panel width for N={n}")
    return nb


def panel_candidates(n: int) -> list[int]:
    """2D panel widths worth trying: the ScaLAPACK default (shrunk to
    divide ``N``) and its next two halvings — wider panels amortize the
    per-panel latency, narrower ones shrink the in-panel volume.
    ``nb == N`` (a single panel step: the whole matrix on the diagonal
    owner, a degenerate non-distributed layout) is excluded whenever a
    real blocking exists."""
    w = panel_width_2d(n)
    cands = [nb for nb in (w, w // 2, w // 4)
             if nb >= 4 and nb < n and n % nb == 0]
    return cands or [w]


def strip_candidates(n: int, c: int) -> list[int]:
    """SUMMA strip widths ``s``: divisor-aware values with
    ``s * c | N`` (whole reduction slices per layer), preferring the
    wider strips that cut the round count."""
    seen: list[int] = []
    for s in (64, 32, 16, 8, 4 * c, 2 * c, c):
        if s >= 1 and s not in seen and n % s == 0 and n % (s * c) == 0:
            seen.append(s)
    return sorted(seen, reverse=True)


def config_25d(n: int, p: int, c: int) -> tuple[int, int]:
    """(c, v) for the 2.5D schedules, degrading ``c`` when ``N`` has no
    tile size compatible with it (e.g. N = 2^a * k with an odd
    replication depth)."""
    from ..factorizations.conflux import default_block_size

    while c > 1:
        if p % c == 0:
            try:
                return c, default_block_size(n, p, c)
            except ValueError:
                pass
        c -= 1
    return 1, default_block_size(n, p, 1)
