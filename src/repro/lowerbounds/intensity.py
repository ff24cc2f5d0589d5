"""Computational intensity via the X-partition optimization problem.

This module implements the core of Sections 3 and 5 of the paper:

1. **Lemma 3 / Section 3.2** — for a statement whose inputs ``A_j`` touch
   iteration-variable groups ``G_j``, the largest subcomputation of an
   X-partition is the solution of

       maximize   prod_t d_t
       subject to sum_j w_j * prod_{k in G_j} d_k  <=  X,   d_t >= 1,

   giving ``chi(X) = |H_max|``.  The weights ``w_j`` default to 1; output
   reuse (Lemma 8 / Corollary 1) replaces ``w_j`` by ``1 / rho_producer``
   when that is larger than 1 is *not* allowed — the dominator can only
   shrink when the producer can recompute cheaply, i.e. ``rho > 1``
   (see :mod:`repro.lowerbounds.reuse`).

2. **Lemma 2** — the I/O bound follows from the ``X`` minimizing the
   intensity ``rho(X) = chi(X) / (X - M)``: the root of ``1/s = X/(X - M)``,
   ``s`` the certified marginal below (exactly ``X_0 = 3M``, ``rho =
   sqrt(M)/2`` on the Schur statements of LU and Cholesky), or ``X_0 = inf``
   and the limit of a face linear in ``X`` (1 on the panel statements).

3. **Lemma 6** — if every compute vertex consumes at least ``u``
   out-degree-one graph inputs, ``rho <= 1/u`` regardless of ``M``.

The optimization is a geometric program, i.e. convex after the
substitution ``y = log d``.  Each ``X`` gets one bounded SLSQP solve
(``y >= 0`` covers the ``d_t = 1`` faces), and its point is returned only
with a KKT certificate — budget spent (to 1e-7), one marginal shared by
the free variables and none smaller on a pinned one (to 1e-6 relative).
Convexity makes a certified point the global optimum; an uncertified
solve raises :class:`ArithmeticError`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np

from .daap import Statement

__all__ = [
    "SubcomputationSolution",
    "IntensityResult",
    "max_subcomputation",
    "minimize_rho",
    "statement_intensity",
    "lemma6_intensity_cap",
]

_CEILING = 1e6  # Lemma 2's search ceiling is X_c = M (1 + _CEILING).


@functools.cache
def _optimize():
    """``scipy.optimize``, imported by the first solve: ``import repro``
    reaches this module, and most processes never optimize anything."""
    import scipy.optimize
    return scipy.optimize


@dataclasses.dataclass(frozen=True)
class SubcomputationSolution:
    """Solution of the ``|H_max|`` optimization for one value of ``X``."""

    chi: float
    domain_sizes: dict[str, float]
    access_sizes: tuple[float, ...]
    x: float
    marginal: float

    def dominator_size(self) -> float:
        return float(sum(self.access_sizes))


@dataclasses.dataclass(frozen=True)
class IntensityResult:
    """Computational intensity of a statement.

    ``rho`` is the maximum vertices-per-I/O ratio; ``x0`` the minimizing
    ``X`` (``math.inf`` when the minimum is attained asymptotically, e.g.
    for statements with ``rho = 1``); ``limited_by`` records whether the
    optimization (``"x-partition"``) or Lemma 6 (``"out-degree-one"``)
    provided the binding cap.
    """

    rho: float
    x0: float
    limited_by: str
    solution: SubcomputationSolution | None = None


def _solve(masks: np.ndarray, logw: np.ndarray, logx: float) -> tuple:
    """Global optimum ``y = log d`` of the |H_max| program, and its ``s``.

    Maximize ``sum(y)`` subject to ``sum_j exp(logw_j + masks_j . y) <= X``
    and ``y >= 0``: one bounded SLSQP solve, whose bounds cover the
    ``d_t = 1`` faces (the LU panel statement's optimum has ``|D_k| = 1``).
    The program is convex, so a KKT point is the global optimum, and the
    answer is returned only once it is certified to be one:

    1. the budget is spent (every variable joins some access, so any
       slack could still grow the objective);
    2. the free variables (``y > 1e-9``) share one marginal
       ``s = masks^T t / sum(t)``, ``t`` the access terms;
    3. no pinned variable has a smaller marginal than that.

    Raises :class:`ArithmeticError` when SLSQP's point fails any of them.
    """
    nvars = masks.shape[1]

    def terms(y: np.ndarray) -> np.ndarray:
        return np.exp(logw + masks @ y - logx)

    # Balanced start: every term gets an equal share of the budget, and
    # each variable takes the smallest target over the terms it joins so
    # the start is (approximately) feasible.
    target = (logx - math.log(len(logw)) - logw) / np.sum(masks, axis=1)
    y0 = np.min(np.where(masks > 0, target[:, None], np.inf), axis=0)
    res = _optimize().minimize(
        lambda y: -float(np.sum(y)), np.maximum(y0, 0.0),
        jac=lambda y: -np.ones_like(y), method="SLSQP",
        bounds=[(0.0, None)] * nvars,
        constraints=[{"type": "ineq",
                      "fun": lambda y: 1.0 - float(np.sum(terms(y))),
                      "jac": lambda y: -(masks.T @ terms(y))}],
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    y = np.maximum(res.x, 0.0)
    t = terms(y)
    s = masks.T @ t / np.sum(t)
    free = y > 1e-9
    level = float(np.mean(s[free])) if np.any(free) else 0.0
    if not (abs(1.0 - float(np.sum(t))) <= 1e-7
            and np.all(np.abs(s[free] - level) <= 1e-6 * level)
            and np.all(s[~free] >= level * (1.0 - 1e-6))):
        raise ArithmeticError(
            f"X-partition solve not certified at X={math.exp(logx)!r}: "
            f"{res.message}")
    return y, level


def max_subcomputation(
    loop_vars: Sequence[str],
    input_groups: Sequence[Sequence[str]],
    x: float,
    weights: Sequence[float] | None = None,
) -> SubcomputationSolution:
    """Solve ``max prod d_t  s.t.  sum_j w_j prod_{k in G_j} d_k <= X``.

    Parameters
    ----------
    loop_vars:
        Names of the iteration variables (the ``d_t``).
    input_groups:
        For each input access, the iteration variables appearing in it
        (``G_j``); empty groups are rejected.
    x:
        The X-partition parameter (dominator budget).
    weights:
        Optional per-access dominator weights (Lemma 8 adjustments).
    """
    loop_vars = list(loop_vars)
    nvars = len(loop_vars)
    if nvars == 0:
        raise ValueError("need at least one iteration variable")
    groups = [tuple(g) for g in input_groups]
    if not groups:
        raise ValueError("need at least one input access")
    for g in groups:
        if not g:
            raise ValueError("input access uses no iteration variable")
        if not set(g) <= set(loop_vars):
            raise ValueError(f"group {g} uses unknown variables")
    w = np.ones(len(groups)) if weights is None else np.asarray(weights, float)
    if len(w) != len(groups) or not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("need one finite positive weight per access")
    if not math.isfinite(x):
        raise ValueError(f"X must be finite, got {x}")
    if x < float(np.sum(w)):
        raise ValueError(
            f"X={x} below the trivial dominator size {float(np.sum(w))}")

    var_index = {v: i for i, v in enumerate(loop_vars)}
    masks = np.zeros((len(groups), nvars))
    for j, g in enumerate(groups):
        for v in g:
            masks[j, var_index[v]] = 1.0

    covered = np.sum(masks, axis=0)
    if np.any(covered == 0):
        missing = [loop_vars[t] for t in range(nvars) if covered[t] == 0]
        raise ValueError(
            f"iteration variables {missing} appear in no input access; "
            "|H_max| would be unbounded (not a valid DAAP dominator)")
    logw = np.log(w)

    def raw_slack(y: np.ndarray) -> float:
        return x - float(np.sum(np.exp(logw + masks @ y)))

    y, level = _solve(masks, logw, math.log(x))
    # Tiny infeasibilities from round-off: shrink uniformly until feasible.
    shrink = 0
    while raw_slack(y) < 0 and shrink < 60:
        y = y * (1.0 - 1e-12 * 2 ** shrink)
        shrink += 1
    y = np.maximum(y, 0.0)
    d = np.exp(y)
    access_sizes = tuple(float(np.exp(logw[j] + masks[j] @ y))
                         for j in range(len(groups)))
    return SubcomputationSolution(
        chi=float(np.prod(d)),
        domain_sizes={v: float(d[i]) for v, i in var_index.items()},
        access_sizes=access_sizes,
        x=float(x),
        marginal=level,
    )


def minimize_rho(loop_vars: Sequence[str],
                 input_groups: Sequence[Sequence[str]], mem_words: float,
                 weights: Sequence[float] | None = None,
                 ) -> tuple[float, float, SubcomputationSolution]:
    """``(rho, x0, solution)`` at ``X_0 = argmin chi(X)/(X - M)`` (Lemma 2).

    ``d log chi / d log X = 1/s`` (envelope theorem), so ``X_0`` is a root
    of ``phi = 1/s - X/(X - M)``.  If ``phi < 0`` at the ceiling ``X_c``,
    ``x0 = inf`` and ``rho = 1/W`` when every access touching the free
    variables holds all of them (their face ``chi = (X - C)/W`` lasts past
    ``X_c``; ``W`` their weights), else ``rho(X_c)``.  Otherwise the step
    ``X_1 = M/(1 - s(X_c))``, exact for constant ``s`` (``3M``), or else a
    bracketed ``brentq`` finds the root."""
    if not (math.isfinite(mem_words) and mem_words > 0):
        raise ValueError(f"memory size must be finite and positive, "
                         f"got {mem_words}")
    m = float(mem_words)

    @functools.cache
    def solve(logx: float) -> SubcomputationSolution:
        return max_subcomputation(loop_vars, input_groups, m + math.exp(logx),
                                  weights)

    def phi(logx: float) -> float:
        return 1.0 / solve(logx).marginal - 1.0 - m * math.exp(-logx)

    hi = math.log(m * _CEILING)
    ceiling = solve(hi)
    if phi(hi) < 0:
        free = {v for v, d in ceiling.domain_sizes.items() if d > 1 + 1e-9}
        w = [1.0] * len(input_groups) if weights is None else weights
        touching = [j for j, g in enumerate(input_groups) if free & set(g)]
        if all(free <= set(input_groups[j]) for j in touching):
            return 1.0 / sum(w[j] for j in touching), math.inf, ceiling
        return ceiling.chi / (ceiling.x - m), math.inf, ceiling
    step = math.log(m / (1.0 - ceiling.marginal) - m)
    if abs(phi(step)) > 1e-12:
        step = _optimize().brentq(phi, math.log(m * 1e-3 + 1.0), hi)
    sol = solve(step)
    return sol.chi / (sol.x - m), sol.x, sol


def lemma6_intensity_cap(u: int) -> float:
    """Lemma 6: ``rho <= 1/u`` when each vertex consumes ``u``
    out-degree-one graph inputs.  ``u = 0`` yields no cap."""
    if u < 0:
        raise ValueError("u must be non-negative")
    return math.inf if u == 0 else 1.0 / u


def statement_intensity(stmt: Statement, mem_words: float,
                        weights: Sequence[float] | None = None,
                        ) -> IntensityResult:
    """Maximum computational intensity of one DAAP statement.

    Combines the X-partition optimization (Lemmas 2-5) with the
    out-degree-one cap (Lemma 6) and the trivial no-reuse case
    (``rho = 1/m`` when every access has full dimension).
    """
    cap = lemma6_intensity_cap(stmt.min_unique_inputs)

    if stmt.trivially_no_reuse():
        rho = min(1.0 / len(stmt.inputs), cap)
        limited = ("out-degree-one" if cap < 1.0 / len(stmt.inputs)
                   else "no-reuse")
        return IntensityResult(rho=rho, x0=math.inf, limited_by=limited)

    rho, x0, solution = minimize_rho(
        stmt.loop_vars, stmt.input_variable_groups(), mem_words, weights)
    if cap <= rho:
        return IntensityResult(rho=cap, x0=math.inf,
                               limited_by="out-degree-one")
    return IntensityResult(rho=rho, x0=x0, limited_by="x-partition",
                           solution=solution)
