#!/usr/bin/env python
"""Derive an I/O lower bound for YOUR OWN kernel with the DAAP framework.

The paper's framework is general: any program whose statements satisfy
the disjoint access property gets a bound from the same machinery that
produced the LU and Cholesky results.  This example:

1. analyzes the built-in catalog kernels (TRSM, SYRK, LDL^T, GEMV);
2. defines a brand-new kernel — a Khatri-Rao-style contraction
   ``C[i,j] += A[i,k] * B[j,k] * w[k]`` — and derives its bound;
3. shows the framework *refusing* a stencil whose offset accesses break
   the disjoint access property (the boundary polyhedral methods cover).

Run:  python examples/custom_kernel_bound.py
"""

from __future__ import annotations

import math

from repro.analysis import format_table
from repro.lowerbounds import (
    ArrayAccess,
    DAAPError,
    Program,
    Statement,
    derive_gemv_bound,
    derive_ldlt_bound,
    derive_program_bound,
    derive_syrk_bound,
    derive_trsm_bound,
    jacobi2d_program,
)


def main() -> None:
    n, mem = 4096, 2.0 ** 14

    # ------------------------------------------------------------------
    # 1. The catalog.
    # ------------------------------------------------------------------
    rows = []
    for name, derive in [("TRSM", derive_trsm_bound),
                         ("SYRK", derive_syrk_bound),
                         ("LDL^T", derive_ldlt_bound),
                         ("GEMV", derive_gemv_bound)]:
        b = derive(n, mem)
        lead_rho = max(a.intensity.rho for a in b.per_statement.values())
        rows.append([name, lead_rho, b.sequential_bound])
    print(format_table(
        ["kernel", "max rho", f"Q bound (N={n}, M=2^14)"], rows,
        title="Catalog kernels through the Section-3 pipeline"))
    print(f"(sqrt(M)/2 = {math.sqrt(mem) / 2:.1f})\n")

    # ------------------------------------------------------------------
    # 2. A user-defined kernel.
    # ------------------------------------------------------------------
    contraction = Program("weighted-contraction", (Statement(
        name="S1",
        loop_vars=("i", "j", "k"),
        output=ArrayAccess("C", ("i", "j")),
        inputs=(ArrayAccess("C", ("i", "j")),
                ArrayAccess("A", ("i", "k")),
                ArrayAccess("B", ("j", "k")),
                ArrayAccess("w", ("k",))),
        domain=(("0", "n"),) * 3,            # i, j, k < n
    ),))
    b = derive_program_bound(contraction, n, mem)
    rho = b.intensity("S1").rho
    print("Custom kernel  C[i,j] += A[i,k] * B[j,k] * w[k]:")
    print(f"  rho = {rho:.2f}  (the weight vector barely moves the "
          f"matmul-shaped optimum {math.sqrt(mem) / 2:.1f})")
    print(f"  Q >= {b.sequential_bound:,.0f} words at N={n}, M=2^14\n")

    # ------------------------------------------------------------------
    # 3. The framework boundary.
    # ------------------------------------------------------------------
    print("Stencil check (2D Jacobi):")
    try:
        jacobi2d_program()
    except DAAPError as exc:
        print(f"  rejected as expected -> {exc}")


if __name__ == "__main__":
    main()
