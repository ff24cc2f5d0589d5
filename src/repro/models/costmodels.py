"""Analytic communication-cost models (Table 2 of the paper).

Two tiers per implementation:

* ``*_paper_model`` — the leading-order expressions printed in Table 2
  (what Figure 8 plots as solid lines):

  ===================  =======================================
  MKL / SLATE          ``N^2 / sqrt(P)``
  CANDMC               ``5 N^3 / (P sqrt(M))``
  CAPITAL              ``45 N^3 / (8 P sqrt(M))``
  COnfLUX / COnfCHOX   ``N^3 / (P sqrt(M))``
  ===================  =======================================

* ``*_full_model`` — the closed-form sum of the per-step costs of the
  schedules implemented in :mod:`repro.factorizations`, including the
  lower-order terms (``O(M)`` layered reductions, ``O(N^2/P)`` scatters,
  ``O(N v)`` A00 broadcasts, swaps, ...).  The Table-2 validation claim —
  models matching measured volumes within a few percent for the 2D codes
  and COnfLUX/COnfCHOX — is reproduced by comparing the *traced* volumes
  against these.

All models return **received words per rank** (multiply by 8 for bytes).
"""

from __future__ import annotations

import math

from ..machine.grid import largest_square_divisor

__all__ = [
    "conflux_paper_model", "conflux_full_model",
    "confchox_paper_model", "confchox_full_model",
    "mkl_lu_paper_model", "mkl_lu_full_model",
    "slate_lu_paper_model", "slate_lu_full_model",
    "mkl_cholesky_full_model", "slate_cholesky_full_model",
    "candmc_paper_model", "capital_paper_model",
    "lu_models", "cholesky_models",
    "grid_25d_dims", "grid_2d_dims",
]


def _check(n: float, p: float, mem_words: float | None = None) -> None:
    if n <= 0 or p <= 0:
        raise ValueError("N and P must be positive")
    if mem_words is not None and mem_words <= 0:
        raise ValueError("M must be positive")


def grid_2d_dims(p: int) -> tuple[int, int]:
    """The (rows, cols) used by the 2D schedules."""
    return largest_square_divisor(int(p))


def grid_25d_dims(p: int, c: int) -> tuple[int, int, int]:
    """The (rows, cols, layers) used by the 2.5D schedules."""
    if c <= 0 or p % c != 0:
        raise ValueError(f"replication c={c} must divide P={p}")
    rows, cols = largest_square_divisor(p // c)
    return rows, cols, c


# ---------------------------------------------------------------------------
# COnfLUX / COnfCHOX
# ---------------------------------------------------------------------------

def conflux_paper_model(n: float, p: float, mem_words: float) -> float:
    """Table 2: ``N^3 / (P sqrt(M))``."""
    _check(n, p, mem_words)
    return n ** 3 / (p * math.sqrt(mem_words))


def conflux_full_model(n: int, p: int, c: int, v: int) -> float:
    """Closed-form sum of Algorithm 1's per-step costs (Lemma 10 with the
    exact lower-order terms of our schedule).

    Components: panel distributions for the Schur update (steps 8/10,
    the ``N^3/(P sqrt(M))`` leading term), layered reductions (steps 1/5,
    the ``O(M)`` term), 1D panel scatters (steps 4/6), and the A00 + pivot
    broadcast (step 3).
    """
    _check(n, p)
    pr, pc, c = grid_25d_dims(p, c)
    steps = n // v
    sum_nrem = sum(n - t * v for t in range(steps))          # ~ N^2/(2v)*v
    sum_n11 = sum(n - (t + 1) * v for t in range(steps))
    # Step 8 distributes masked rows (extent nrem while the trailing
    # matrix is non-empty); step 10 distributes tile-aligned columns.
    sum_nrem_open = sum(n - t * v for t in range(steps)
                        if n - (t + 1) * v > 0)
    lead = (sum_nrem_open * v / (pr * c)) + (sum_n11 * v / (pc * c))
    reductions = (sum_nrem + sum_n11) * v * (c - 1.0) / p
    scatters = (sum_n11 + sum_n11) * v / p
    bcast_a00 = steps * (v * v + v)
    return lead + reductions + scatters + bcast_a00


def confchox_paper_model(n: float, p: float, mem_words: float) -> float:
    """Table 2: same leading term as COnfLUX (Section 7.5 / Table 1)."""
    return conflux_paper_model(n, p, mem_words)


def confchox_full_model(n: int, p: int, c: int, v: int) -> float:
    """Closed-form sum of COnfCHOX's per-step costs.

    Cholesky trails are tile-aligned: the schedule's exact cyclic tile
    counts average to ``(T - t - 1)/pr`` tiles per grid row, which this
    closed form uses; the residual is the sub-percent cyclic rounding
    the validation tolerance absorbs.
    """
    _check(n, p)
    pr, pc, c = grid_25d_dims(p, c)
    steps = n // v
    lead = sum(
        (steps - t - 1) * (1.0 / pr + 1.0 / pc) * v * (v / c)
        for t in range(steps))
    sum_nrem = sum(n - t * v for t in range(steps))
    sum_n11 = sum(n - (t + 1) * v for t in range(steps))
    reductions = sum_nrem * v * (c - 1.0) / p
    scatters = sum_n11 * v / p
    bcast_a00 = steps * v * v
    return lead + reductions + scatters + bcast_a00


# ---------------------------------------------------------------------------
# 2D codes (MKL / SLATE)
# ---------------------------------------------------------------------------

def mkl_lu_paper_model(n: float, p: float,
                       mem_words: float | None = None) -> float:
    """Table 2: ``N^2 / sqrt(P)`` (M-independent: 2D uses one copy)."""
    _check(n, p)
    return n * n / math.sqrt(p)


slate_lu_paper_model = mkl_lu_paper_model


def _lu_2d_full_model(n: int, p: int, nb: int, rebroadcast: bool) -> float:
    _check(n, p)
    pr, pc = grid_2d_dims(p)
    steps = n // nb
    total = 0.0
    for k in range(steps):
        nrem = n - k * nb
        n11 = nrem - nb
        trailing_tiles = steps - k - 1
        col_share = trailing_tiles * nb / pc
        # L panel along rows + U panel along columns, plus the diagonal
        # tile shipped along the owner grid row for the U trsm.
        # Broadcasts charge g-1 receivers: the panel-owning grid
        # column/row (and the diagonal owner) already hold their tiles,
        # so a (Pc-1)/Pc resp. (Pr-1)/Pr share of the grid actually
        # receives (matching the trace and the machine).
        if n11 > 0:
            total += (nrem / pr * nb * (pc - 1.0) / pc
                      + col_share * nb * (pr - 1.0) / pr
                      + nb * nb * (pc - 1.0) / p)
        # Row swaps (``laswp`` spans all block columns, factored ones
        # included).
        total += 2.0 * nb * (n / pc) * (pr - 1) / pr / pr
        # Panel-column costs are paid by every rank once per Pc steps:
        # the pivot-search allreduces and the eliminating-row broadcasts
        # (nb - j trailing entries to the Pr - 1 non-root column ranks).
        panel_cost = (2.0 * nb * math.ceil(math.log2(max(2, pr)))
                      + nb * (nb + 1) / 2.0 * (pr - 1) / pr)
        if rebroadcast:
            # The rebroadcast root (each tile's owner) receives nothing.
            panel_cost += nrem / pr * nb * (pr - 1.0) / pr
        total += panel_cost / pc
    return total


def mkl_lu_full_model(n: int, p: int, nb: int = 128) -> float:
    """Closed form of the ``mkl`` LU schedule (max-rank volume
    approximated by the rotating-panel average; exact to O(1/steps))."""
    return _lu_2d_full_model(n, p, nb, rebroadcast=True)


def slate_lu_full_model(n: int, p: int, nb: int = 128) -> float:
    """Closed form of the ``slate`` LU schedule."""
    return _lu_2d_full_model(n, p, nb, rebroadcast=False)


def _cholesky_2d_full_model(n: int, p: int, nb: int) -> float:
    _check(n, p)
    pr, pc = grid_2d_dims(p)
    steps = n // nb
    total = 0.0
    for k in range(steps):
        n11 = n - (k + 1) * nb
        trailing_tiles = steps - k - 1
        if n11 > 0:
            # Broadcasts charge g-1 receivers (per-rank means): the
            # diagonal owner, the panel-owning grid column (row fan-out)
            # and the tile owners that sit inside their own column
            # fan-out group receive nothing.
            total += nb * nb * (pr - 1.0) / p        # diag bcast
            total += (trailing_tiles * nb / pr * nb  # L panel along rows
                      * (pc - 1.0) / pc)
            total += (trailing_tiles * pr            # L^T along columns
                      - (steps - 1 - k) // pc) * nb * nb / p
    return total


def mkl_cholesky_full_model(n: int, p: int, nb: int = 128) -> float:
    """Closed form of the ``mkl-chol`` Cholesky schedule."""
    return _cholesky_2d_full_model(n, p, nb)


slate_cholesky_full_model = mkl_cholesky_full_model


# ---------------------------------------------------------------------------
# CANDMC / CAPITAL (the authors' models, Table 2)
# ---------------------------------------------------------------------------

def candmc_paper_model(n: float, p: float, mem_words: float) -> float:
    """Solomonik & Demmel's 2.5D LU model: ``5 N^3 / (P sqrt(M))``."""
    _check(n, p, mem_words)
    return 5.0 * n ** 3 / (p * math.sqrt(mem_words))


def capital_paper_model(n: float, p: float, mem_words: float) -> float:
    """Hutter & Solomonik's model: ``45 N^3 / (8 P sqrt(M))``."""
    _check(n, p, mem_words)
    return 45.0 * n ** 3 / (8.0 * p * math.sqrt(mem_words))


# ---------------------------------------------------------------------------
# Grouped accessors used by the figure generators
# ---------------------------------------------------------------------------

def lu_models(n: float, p: float, mem_words: float) -> dict[str, float]:
    """Leading-order LU models of all compared implementations."""
    return {
        "conflux": conflux_paper_model(n, p, mem_words),
        "mkl": mkl_lu_paper_model(n, p),
        "slate": slate_lu_paper_model(n, p),
        "candmc": candmc_paper_model(n, p, mem_words),
    }


def cholesky_models(n: float, p: float, mem_words: float) -> dict[str, float]:
    """Leading-order Cholesky models of all compared implementations."""
    return {
        "confchox": confchox_paper_model(n, p, mem_words),
        "mkl-chol": mkl_lu_paper_model(n, p),
        "slate-chol": slate_lu_paper_model(n, p),
        "capital": capital_paper_model(n, p, mem_words),
    }
