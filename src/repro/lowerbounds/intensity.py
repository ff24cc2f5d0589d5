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
substitution ``y = log d``.  Each ``X`` gets one exact solve: column
dominance pins the variables that can never be free, and Newton's method
with an active set finds the rest, stepping along the objective where
only terms below eps of the budget bound it (:func:`_solve`).  Its point is
returned only with a KKT certificate at machine precision — budget spent,
one marginal shared by the free variables and none smaller on a pinned
one.  Convexity makes a certified point the global optimum; an
uncertified solve raises :class:`ArithmeticError`.
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
_TOL = 2.0 ** -44  # the KKT certificate on log residuals, scaled past log X = 64
_RCOND = 1e-10  # null space: singular values under this share of the largest


@functools.cache
def _optimize():
    """``scipy.optimize``, imported by the first bracketed root search:
    ``import repro`` reaches this module, and most processes never need
    one."""
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
    and ``y >= 0``.  The program is convex, so a KKT point is the global
    optimum, and only one is returned, to ``_TOL`` (scaled by ``|log X| /
    64`` past 64: 4-8 ulps of ``log X``): the budget is spent, the free
    variables share one marginal ``s = masks^T t / sum(t)`` (``t`` the
    access terms) and no pinned (``y = 0``) one has a smaller marginal.

    A variable whose accesses strictly contain another's always has the
    larger marginal, so it starts pinned (of identical columns, all but
    the first).  Newton's method then solves ``mu + log s = 0`` (free
    variables) and ``log sum(t) = 0`` with an active set: a step halves
    until it shrinks the residual; one that would take a variable below 0
    stops there and pins it; if none shrinks it, the variable whose
    marginal most exceeds the level ``exp(-mu)`` is pinned; on a solved
    face, a pinned variable whose marginal is below the level is freed.
    Directions the Jacobian cannot see (singular values under ``_RCOND``
    of the largest) change only terms below eps of the budget, and along
    them the objective is linear.  When most of the residual lies there,
    the step is instead the objective's ascent in that null space, to
    where the first such term reaches a balanced share of the budget (or
    a variable reaches 0, which pins it).
    Raises :class:`ArithmeticError` when no certified point is reached.
    """
    cols = [frozenset(np.flatnonzero(c)) for c in masks.T]
    free = np.array([not any(a < b or (a == b and u < v)
                             for u, a in enumerate(cols))
                     for v, b in enumerate(cols)])
    # Balanced start: every term gets an equal share of the budget, split
    # over its free variables; each takes the smallest target it joins.
    count = np.sum(masks[:, free], axis=1)
    target = np.divide(logx - math.log(len(logw)) - logw, count,
                       out=np.full(len(logw), np.inf), where=count > 0)
    y = np.min(np.where(masks > 0, target[:, None], np.inf), axis=0)
    y = np.where(free, np.maximum(y, 0.0), 0.0)

    def kkt(y: np.ndarray, mu: float) -> tuple:
        with np.errstate(over="ignore", divide="ignore"):
            t = np.exp(logw + masks @ y - logx)
            s = masks.T @ t
            gap = mu + np.log(s)
            return t, s, gap, np.append(gap[free], np.log(np.sum(t)))

    tol = _TOL * max(1.0, abs(logx) / 64)
    mu = -float(np.mean(kkt(y, 0.0)[2][free]))
    for _ in range(200):
        t, s, gap, r = kkt(y, mu)
        f = np.flatnonzero(free)
        if np.max(np.abs(r)) <= tol:
            gap[f] = np.inf
            if np.min(gap) >= -tol:
                return y, float(np.mean(s[f]) / np.sum(t))
            free[np.argmin(gap)] = True
            continue
        jac = np.zeros((len(f) + 1, len(f) + 1))
        jac[:-1, :-1] = masks[:, f].T @ (t[:, None] * masks[:, f]) / s[f, None]
        jac[:-1, -1] = 1.0
        jac[-1, :-1] = s[f] / np.sum(t)
        step, _, _, sv = np.linalg.lstsq(jac, -r)
        along = sv[-1] < sv[0] * _RCOND
        if along:
            u, sv, vt = np.linalg.svd(jac)
            null = sv < sv[0] * _RCOND
            ray = vt[null, :-1].T @ np.sum(vt[null, :-1], axis=1)
            along = np.linalg.norm(u[:, null].T @ r) > np.linalg.norm(r) / 2 \
                and np.sum(ray) > _TOL
            step = np.append(ray, 0.0) if along else step
        dy = np.zeros_like(y)
        dy[f] = step[:-1]
        ratios = np.divide(y, -dy, out=np.full_like(y, np.inf), where=dy < 0)
        pin, reach = int(np.argmin(ratios)), float(np.min(ratios))
        alpha, norm = min(1.0, reach), float(np.linalg.norm(r))
        if along:
            share, logt, rate = -math.log(len(t)), np.log(t), masks @ dy
            grow = (rate > 0) & (logt < share)
            alpha = min([reach, *((share - logt[grow]) / rate[grow])])
        while not along and alpha > 0 and not np.linalg.norm(kkt(
                np.maximum(y + alpha * dy, 0.0), mu + alpha * step[-1])[3]) < norm:
            alpha = alpha / 2 if alpha > 1e-18 else 0.0
        if alpha == 0.0 < reach:
            pin = int(f[np.argmax(gap[f])])
        if not math.isfinite(alpha):
            break
        y = np.maximum(y + alpha * dy, 0.0)
        mu += alpha * float(step[-1])
        if alpha in (0.0, reach) and len(f) > 1:
            y[pin], free[pin] = 0.0, False
        elif alpha == 0.0:
            break
    raise ArithmeticError(
        f"X-partition solve not certified at X={math.exp(logx)!r}")


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

    y, level = _solve(masks, logw, math.log(x))
    d = np.exp(y)
    access_sizes = tuple(float(np.exp(logw[j] + masks[j] @ y))
                         for j in range(len(groups)))
    with np.errstate(over="ignore"):  # chi past the float range is inf
        chi = float(np.prod(d))
    return SubcomputationSolution(
        chi=chi,
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
