#!/usr/bin/env python
"""A density-functional-theory-shaped workload (the paper's motivating
application domain), planned and executed as one program.

Section 9: "In physical chemistry or density functional theory (DFT),
simulations require factorizing matrices of atom interactions, yielding
sizes ranging from N = 1,024 up to N = 131,072" — e.g. the RPA
calculations of CP2K, whose overlap matrices are SPD and get Cholesky-
factorized on every SCF step.  Real DFT traffic is a *pipeline*: build
an interaction matrix (GEMM), factorize the overlap (Cholesky — twice,
successive SCF steps reuse the operand), LU-factorize the freshly
built interaction matrix.

This example expresses that pipeline as a workload DAG, plans it
*jointly* — every node's candidates scored in one batched pass, DAG
assignments ranked by counted words *including* the closed-form COSTA
layout-conversion cost between stages — and executes the plan
end-to-end through :func:`repro.api.run_workload` on a simulated
machine that *enforces* the plan's own per-rank memory peak, where
still-resident native tiles are adopted whenever consecutive nodes
agree on a layout.  A paper-scale sweep then shows the joint charge
against independently planned per-call schedules.

Run:  python examples/dft_workload.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.analysis.harness import dft_workload_request
from repro.api import run_workload
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, ProcessorGrid2D
from repro.planner import plan_workload


def overlap_matrix(n_atoms: int, decay: float = 0.7,
                   seed: int = 3) -> np.ndarray:
    """Synthetic DFT overlap matrix: atoms on a cubic lattice, Gaussian
    overlaps decaying with distance, diagonally shifted to be SPD."""
    rng = np.random.default_rng(seed)
    side = int(round(n_atoms ** (1.0 / 3.0))) + 1
    coords = np.array([(x, y, z) for x in range(side) for y in range(side)
                       for z in range(side)][:n_atoms], dtype=float)
    coords += 0.05 * rng.standard_normal(coords.shape)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    s = np.exp(-decay * d2)
    return s + n_atoms ** 0.5 * np.eye(n_atoms)


def main() -> None:
    # ------------------------------------------------------------------
    # Executable: a 128-orbital system on 4 simulated ranks, planned
    # jointly and run end-to-end with exactly the memory the plan says
    # the chain needs: planned >= measured, or the run would abort.
    # ------------------------------------------------------------------
    n, p = 128, 4
    request = dft_workload_request(n, p)
    plan = plan_workload(request)
    print(plan.summary())
    print()

    rng = np.random.default_rng(7)
    s = overlap_matrix(n)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal((n, n)) + n * np.eye(n)

    planned = max(plan.chosen.node_peaks)
    machine = Machine(p, mem_words=planned, enforce_memory=True)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=32, nb=32, prows=2, pcols=2)
    layout = BlockCyclicLayout(n, n, 32, 32, ProcessorGrid2D(2, 2))
    layout.scatter_from(machine, "A", a)
    layout.scatter_from(machine, "B", b)
    layout.scatter_from(machine, "S", s)

    result = run_workload(machine, plan, {"A": desc, "B": desc, "S": desc})
    unit = n * n / p
    measured = machine.peak_words_per_rank().max()
    print("Per-rank memory, in copies of N^2/P: planned peak "
          + ", ".join(f"{node.name} {peak / unit:.2f}" for node, peak
                      in zip(request.nodes, plan.chosen.node_peaks))
          + f"; enforced M = {planned / unit:.2f}, "
          f"measured {measured / unit:.2f}")

    cond = np.linalg.cond(s)
    print(f"Synthetic overlap matrix: N={n}, cond(S) = {cond:.1e}")
    lchol = result.results["f1"].lower
    err_chol = np.linalg.norm(s - lchol @ lchol.T) / np.linalg.norm(s)
    print(f"Cholesky residual ||S - LL^T||/||S|| = {err_chol:.2e}")
    k = a @ b
    res_lu = result.results["lu"]
    err_lu = (np.linalg.norm(k[res_lu.perm] - res_lu.lower @ res_lu.upper)
              / np.linalg.norm(k))
    print(f"LU residual on k = A@B               = {err_lu:.2e}")
    print(f"COSTA reshuffle words (counted)      = "
          f"{result.reshuffle_words:,.0f}")
    for consumer, operand in result.reused:
        print(f"  reused resident native tiles: {operand} -> {consumer}")
    print()

    # ------------------------------------------------------------------
    # Paper-scale DFT sweep: the same chain planned jointly at the
    # sizes Section 9 quotes, vs independent per-call planning.
    # ------------------------------------------------------------------
    rows = []
    for n_big in (4096, 16384, 65536):
        for p_big in (64, 1024):
            if n_big * n_big / p_big > 32 * 2 ** 30 / 8:
                continue
            big = plan_workload(dft_workload_request(n_big, p_big))
            joint = big.chosen.total_words
            indep = big.independent.total_words
            rows.append([n_big, p_big,
                         joint * 8 / 1e9, indep * 8 / 1e9,
                         big.chosen.conversion_words * 8 / 1e9,
                         indep / joint])
    print(format_table(
        ["N", "ranks", "joint GB/rank", "indep GB/rank",
         "conversion GB/rank", "reduction"],
        rows, title="DFT workload chain, jointly planned (counted words "
                    "incl. cross-stage conversion)"))


if __name__ == "__main__":
    main()
