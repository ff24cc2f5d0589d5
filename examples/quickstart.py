#!/usr/bin/env python
"""Quickstart: factorize a matrix with COnfLUX and COnfCHOX, verify the
factors, and inspect the communication counters.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.analysis.harness import trace
from repro.factorizations import build


def main() -> None:
    rng = np.random.default_rng(7)
    n, nranks = 256, 16

    # ------------------------------------------------------------------
    # LU with tournament pivoting on a 4 x 2 x 2 simulated 2.5D grid.
    # ------------------------------------------------------------------
    a = rng.standard_normal((n, n))
    result = repro.conflux_lu(n, nranks, v=16, c=2, a=a)

    pa = a[result.perm]
    residual = np.linalg.norm(pa - result.lower @ result.upper)
    residual /= np.linalg.norm(a)
    print(f"COnfLUX  N={n} P={nranks}")
    print(f"  residual ||PA - LU|| / ||A||     = {residual:.2e}")
    print(f"  communicated words (max rank)    = {result.max_recv_words:,.0f}")
    print(f"  communicated words (mean rank)   = {result.mean_recv_words:,.0f}")
    print(f"  total flops                      = {result.total_flops:,.0f}")

    # Compare against the parallel I/O lower bound of Section 6.1.
    bound = repro.lu_io_lower_bound(n, nranks, result.mem_words)
    print(f"  lower bound (Section 6.1)        = {bound:,.0f}")
    print(f"  measured / bound                 = "
          f"{result.max_recv_words / bound:.2f}x")

    # ------------------------------------------------------------------
    # Cholesky of an SPD matrix.
    # ------------------------------------------------------------------
    g = rng.standard_normal((n, n))
    spd = g @ g.T + n * np.eye(n)
    chol = repro.confchox_cholesky(n, nranks, v=16, c=2, a=spd)
    chol_res = np.linalg.norm(spd - chol.lower @ chol.lower.T)
    chol_res /= np.linalg.norm(spd)
    print(f"\nCOnfCHOX N={n} P={nranks}")
    print(f"  residual ||A - LL^T|| / ||A||    = {chol_res:.2e}")
    print(f"  communicated words (mean rank)   = {chol.mean_recv_words:,.0f}")

    # ------------------------------------------------------------------
    # Trace mode: paper-scale communication accounting, no numerics.
    # ------------------------------------------------------------------
    [big] = trace(build("lu", "conflux", 16384, 1024, v=32, c=8))
    model = 16384 ** 3 / (1024 * big.mem_words ** 0.5)
    print(f"\nTrace N=16384 P=1024 (paper scale)")
    print(f"  mean volume per rank             = {big.mean_recv_words:,.0f}")
    print(f"  N^3/(P sqrt(M)) model            = {model:,.0f}")


if __name__ == "__main__":
    main()
