"""Sequential and parallel I/O lower bounds (Sections 3-6), in two layers.

* **Derivation pipeline** — :func:`derive_program_bound` runs the full
  DAAP machinery (per-statement intensity with output-reuse weights,
  Lemma 9 parallelization) on any :class:`~repro.lowerbounds.daap.Program`
  and problem size, returning per-statement detail.  Its
  ``parallel_bound`` is the one bound every consumer divides by.

* **Closed forms** — the formulas Section 6 prints, kept as the pipeline
  table's checked reference column and for ``perf/``'s ``comm_over_bound``:

  - LU (Section 6.1):
    ``Q >= (2N^3 - 6N^2 + 4N) / (3 P sqrt(M)) + N(N-1) / (2P)``
  - Cholesky (Section 6.2):
    ``Q >= N^3 / (3 P sqrt(M)) + N^2 / (2P) + N / P``
  - Matrix multiplication (SC19, used as a framework cross-check):
    ``Q >= 2 N^3 / (P sqrt(M))``

The pipeline finds intensity ``sqrt(M)/2`` at ``X_0 = 3M`` for the Schur
statements, exact to rounding (their certified marginal is ``2/3`` at every
``X``, so Lemma 2's first-order condition gives ``3M`` in one step), and
the limit ``rho = 1`` exactly for the panel statements, where Lemma 6's
cap of 1 ties it and is reported.  ``|V_S|`` is the exact point count of
each statement's domain, so the derivation backs the matmul formula
(equal) and the LU one (which counts ``N(N-1)(N-2)/3`` Schur updates, not
``(N-1)N(2N-1)/6``: ``N(N-1) / (P sqrt(M))`` weaker), but not the Cholesky
one: it exceeds the derived ``(N^3 - N) / (3 P sqrt(M)) + N(N+1) / (2P)``
by ``N/(3 P sqrt(M)) + N/(2P)``, Listing 1's S3 and S2 domains rounded up
to ``N^3/6`` and ``N^2/2`` points.
"""

from __future__ import annotations

import dataclasses
import math

from .daap import Program, cholesky_program, lu_program, matmul_program
from .intensity import IntensityResult
from .reuse import StatementAnalysis, analyze_statement, output_reuse_weights

__all__ = [
    "ProgramBound",
    "derive_program_bound",
    "derive_lu_bound",
    "derive_cholesky_bound",
    "derive_matmul_bound",
    "lu_io_lower_bound",
    "cholesky_io_lower_bound",
    "matmul_io_lower_bound",
    "memory_feasible",
    "max_usable_memory",
    "min_required_memory",
]


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# Memory regimes (Section 6, "Memory size")
# ---------------------------------------------------------------------------

def min_required_memory(n: float, p: float) -> float:
    """``M >= N^2 / P``: below this the input cannot fit in aggregate."""
    if n <= 0 or p <= 0:
        raise ValueError("n and p must be positive")
    return n * n / p


def max_usable_memory(n: float, p: float) -> float:
    """``M <= N^2 / P^(2/3)``: the memory-dependent regime's ceiling
    (larger M transitions to the memory-independent regime)."""
    if n <= 0 or p <= 0:
        raise ValueError("n and p must be positive")
    return n * n / p ** (2.0 / 3.0)


def memory_feasible(n: float, p: float, mem_words: float) -> bool:
    """True when ``(N, P, M)`` lies in the memory-dependent analysis band."""
    return min_required_memory(n, p) <= mem_words <= max_usable_memory(n, p)


# ---------------------------------------------------------------------------
# Derivation pipeline
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ProgramBound:
    """Result of the full lower-bound derivation for one program."""

    program: str
    n: float
    p: float
    mem_words: float
    per_statement: dict[str, StatementAnalysis]
    sequential_bound: float
    parallel_bound: float

    def intensity(self, statement: str) -> IntensityResult:
        return self.per_statement[statement].intensity


def derive_program_bound(program: Program, n: float, mem_words: float,
                         p: float = 1.0) -> ProgramBound:
    """Run Sections 3-5 on ``program``: per-statement intensities with
    output-reuse dominator weights, summed via Lemmas 1 and 9.

    Statements are processed in order; a statement's intensity feeds the
    output-reuse weights of statements consuming its results (Case II).
    Case I input-reuse subtraction is not applied: for the paper's
    kernels it only lowers low-order terms.
    """
    if not (_finite(n, p, mem_words) and n > 1 and p > 0 and mem_words > 0):
        raise ValueError("need finite n > 1, p > 0, mem_words > 0")
    analyses: dict[str, StatementAnalysis] = {}
    rhos: dict[str, float] = {}
    for stmt in program.statements:
        weights = output_reuse_weights(program, stmt, rhos)
        analysis = analyze_statement(stmt, n, mem_words, weights)
        analyses[stmt.name] = analysis
        rhos[stmt.name] = analysis.intensity.rho
    seq = sum(a.io_lower_bound for a in analyses.values())
    return ProgramBound(
        program=program.name, n=float(n), p=float(p),
        mem_words=float(mem_words),
        per_statement=analyses,
        sequential_bound=float(seq),
        parallel_bound=float(seq) / float(p),
    )


def derive_lu_bound(n: float, mem_words: float, p: float = 1.0) -> ProgramBound:
    """Full pipeline on the LU DAAP program (Figure 3)."""
    return derive_program_bound(lu_program(), n, mem_words, p)


def derive_cholesky_bound(n: float, mem_words: float,
                          p: float = 1.0) -> ProgramBound:
    """Full pipeline on the Cholesky DAAP program (Listing 1)."""
    return derive_program_bound(cholesky_program(), n, mem_words, p)


def derive_matmul_bound(n: float, mem_words: float,
                        p: float = 1.0) -> ProgramBound:
    """Full pipeline on classic matrix multiplication (cross-check)."""
    return derive_program_bound(matmul_program(), n, mem_words, p)


# ---------------------------------------------------------------------------
# Closed forms (Section 6)
# ---------------------------------------------------------------------------

def lu_io_lower_bound(n: float, p: float, mem_words: float) -> float:
    """The parallel LU I/O bound as Section 6.1 prints it."""
    if not (_finite(n, p, mem_words) and n >= 0 and p > 0 and mem_words > 0):
        raise ValueError("invalid arguments")
    sm = math.sqrt(mem_words)
    return (2.0 * n ** 3 - 6.0 * n * n + 4.0 * n) / (3.0 * p * sm) \
        + n * (n - 1.0) / (2.0 * p)


def cholesky_io_lower_bound(n: float, p: float, mem_words: float) -> float:
    """The parallel Cholesky I/O formula as Section 6.2 prints it; the
    derivation does not back it (see the module docstring)."""
    if not (_finite(n, p, mem_words) and n >= 0 and p > 0 and mem_words > 0):
        raise ValueError("invalid arguments")
    sm = math.sqrt(mem_words)
    return n ** 3 / (3.0 * p * sm) + n * n / (2.0 * p) + n / p


def matmul_io_lower_bound(n: float, p: float, mem_words: float) -> float:
    """Parallel square-matmul bound ``2 N^3 / (P sqrt(M))`` (SC19)."""
    if not (_finite(n, p, mem_words) and n >= 0 and p > 0 and mem_words > 0):
        raise ValueError("invalid arguments")
    return 2.0 * n ** 3 / (p * math.sqrt(mem_words))
