#!/usr/bin/env python
"""Numerical stability of tournament pivoting vs partial pivoting.

Section 7.3 claims tournament pivoting "is shown to be as stable as
partial pivoting" (Grigori et al.), unlike incremental pivoting.  This
example measures backward-error residuals and growth factors of COnfLUX's
tournament-pivoted LU against partial-pivoting LU over several matrix
families, including the classic hard cases, and exits 1 if the
tournament's residual exceeds twice partial pivoting's on any family.

Run:  python examples/tournament_pivoting_stability.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.factorizations import conflux_lu
from repro.factorizations.baselines import scalapack_lu


def matrix_families(n: int, rng: np.random.Generator):
    yield "gaussian", rng.standard_normal((n, n))
    yield "uniform", rng.uniform(-1, 1, (n, n))
    yield "ill-scaled", (rng.standard_normal((n, n))
                         * np.logspace(-8, 8, n)[None, :])
    # Wilkinson-style growth matrix (worst case for partial pivoting).
    w = np.tril(-np.ones((n, n)), -1) + np.eye(n)
    w[:, -1] = 1.0
    yield "wilkinson", w
    yield "orthogonal", np.linalg.qr(rng.standard_normal((n, n)))[0]


def residual(a, res) -> float:
    pa = a[res.perm]
    return float(np.linalg.norm(pa - res.lower @ res.upper)
                 / np.linalg.norm(a))


def growth(a, res) -> float:
    return float(np.abs(res.upper).max() / np.abs(a).max())


def main() -> None:
    n, p, v, c = 128, 8, 16, 2
    rng = np.random.default_rng(11)
    rows = []
    for name, a in matrix_families(n, rng):
        tp = conflux_lu(n, p, v=v, c=c, a=a)
        pp = scalapack_lu(n, 4, nb=16, a=a)
        rows.append([name, residual(a, tp), residual(a, pp),
                     growth(a, tp), growth(a, pp)])
    print(format_table(
        ["family", "tournament resid", "partial resid",
         "tournament growth", "partial growth"],
        rows,
        title=f"Backward error and growth, N={n} "
              f"(tournament: v={v}, {p} ranks)",
        floatfmt="{:.3g}"))
    # The conclusion is read off the rows: the worst residual ratio
    # and the largest growth of each pivoting strategy.
    ratio = {r[0]: r[1] / r[2] if r[2] else (0.0 if r[1] == 0 else np.inf)
             for r in rows}
    worst = max(ratio, key=ratio.get)
    grow_tp = max(rows, key=lambda r: r[3])
    grow_pp = max(rows, key=lambda r: r[4])
    print(f"\nWorst tournament/partial residual ratio: "
          f"{ratio[worst]:.2g}x ({worst}).")
    print(f"Largest growth: tournament {grow_tp[3]:.3g} ({grow_tp[0]}), "
          f"partial {grow_pp[4]:.3g} ({grow_pp[0]}).")
    unstable = [name for name, x in ratio.items() if x > 2.0]
    if unstable:
        raise SystemExit("tournament residual exceeds 2x the partial-"
                         f"pivoting residual on: {', '.join(unstable)}")
    print("Tournament residual within 2x of partial pivoting's on every "
          "family.")


if __name__ == "__main__":
    main()
