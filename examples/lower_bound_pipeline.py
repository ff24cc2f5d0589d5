#!/usr/bin/env python
"""The Figure-2 pipeline, end to end: input program -> cDAG -> X-partition
intensity -> I/O lower bound -> pebbled schedule.

Walks LU factorization through every stage of the paper's framework:

1. the DAAP form of the two LU statements (Section 2.2);
2. per-statement computational intensities (Sections 3, Lemma 6);
3. the optimization problem max |H| s.t. |Dom(H)| <= X (Section 3.2);
4. sequential and parallel bounds (Sections 5-6);
5. a validated red-blue pebbling of the literal cDAG whose measured I/O
   respects the bound.

Run:  python examples/lower_bound_pipeline.py
"""

from __future__ import annotations

import math

from repro.lowerbounds import (
    derive_lu_bound,
    lu_io_lower_bound,
    lu_program,
    max_subcomputation,
    statement_intensity,
)
from repro.pebbles import program_cdag, run_greedy


def main() -> None:
    mem = 1024.0

    # Stage 1: the input program.
    prog = lu_program()
    print("DAAP form of LU (Figure 3):")
    for s in prog.statements:
        groups = s.input_variable_groups()
        print(f"  {s.name}: loop vars {s.loop_vars}, "
              f"input access dims {[len(g) for g in groups]}")

    # Stage 2: intensities.
    print(f"\nComputational intensities at M = {mem:.0f}:")
    for s in prog.statements:
        res = statement_intensity(s, mem)
        x0 = "inf" if math.isinf(res.x0) else f"{res.x0:.0f}"
        print(f"  rho_{s.name} = {res.rho:.3f}   (X0 = {x0}, "
              f"limited by {res.limited_by})")
    print(f"  [paper: rho_S1 = 1, rho_S2 = sqrt(M)/2 = "
          f"{math.sqrt(mem) / 2:.1f} at X0 = 3M = {3 * mem:.0f}]")

    # Stage 3: the optimization problem, explicitly.
    x = 3 * mem
    sol = max_subcomputation(("k", "i", "j"),
                             [("i", "j"), ("i", "k"), ("k", "j")], x)
    print(f"\n|H_max| at X = 3M: chi = {sol.chi:.0f} "
          f"(= (X/3)^(3/2) = {(x / 3) ** 1.5:.0f}); "
          f"domains {dict((k, round(v, 1)) for k, v in sol.domain_sizes.items())}")

    # Stage 4: the bounds.
    n, p = 8192, 64
    bound = derive_lu_bound(n, mem, p)
    print(f"\nParallel LU bound, N={n}, P={p}, M={mem:.0f}:")
    print(f"  derived through the pipeline : {bound.parallel_bound:,.0f}")
    print(f"  closed form (Section 6.1)    : "
          f"{lu_io_lower_bound(n, p, mem):,.0f}")

    # Stage 5: pebble the literal cDAG at a toy size.
    n_small, m_small = 8, 16
    game = run_greedy(program_cdag(lu_program(), n_small), m_small)
    small_bound = derive_lu_bound(n_small, m_small).sequential_bound
    print(f"\nRed-blue pebbling of the LU cDAG (N={n_small}, M={m_small}):")
    print(f"  measured I/O (greedy schedule): {game.io_cost}")
    print(f"  derived lower bound           : {small_bound:.1f}")
    print(f"  schedule is valid, used <= M red pebbles "
          f"(peak {game.max_red}), and blue-pebbled all outputs.")


if __name__ == "__main__":
    main()
