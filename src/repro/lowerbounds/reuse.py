"""Data reuse across multiple statements (Section 4 of the paper).

I/O cost is not composable: statements sharing data may avoid loads that a
per-statement analysis would double-count.  The paper handles two cases:

* **Case I, input overlap (Lemma 7).**  Statements ``S`` and ``T`` read
  the same array ``A_i``; the combined bound may subtract the *reuse
  bound* ``Reuse(A_i) = min(|A_i(R_S)|, |A_i(R_T)|)``.  It is not
  applied here: for the paper's kernels it only lowers low-order terms
  (:func:`~repro.lowerbounds.bounds.derive_program_bound`).

* **Case II, output overlap (Lemma 8 / Corollary 1).**  Statement ``S``
  produces array elements consumed by ``T``.  Consumed vertices are no
  longer graph inputs, so ``T``'s dominator may shrink — but only by the
  factor the producer can *recompute* them: ``|Dom(B_j(D))| >=
  |B_j(D)| / rho_S``.  When ``rho_S <= 1`` recomputation is never cheaper
  than loading and the dominator size is unchanged — exactly the paper's
  observation for the LU and Cholesky panel statements.
"""

from __future__ import annotations

import dataclasses

from .daap import Program, Statement
from .intensity import IntensityResult, statement_intensity

__all__ = [
    "StatementAnalysis",
    "analyze_statement",
    "output_reuse_weights",
]


@dataclasses.dataclass(frozen=True)
class StatementAnalysis:
    """Per-statement quantities feeding the program-level bound."""

    statement: Statement
    intensity: IntensityResult
    num_vertices: float

    @property
    def io_lower_bound(self) -> float:
        """Sequential I/O bound ``|V_S| / rho_S`` (Lemma 1)."""
        return self.num_vertices / self.intensity.rho


def analyze_statement(stmt: Statement, n: float, mem_words: float,
                      weights=None) -> StatementAnalysis:
    """Run the Section-3 pipeline on one statement at problem size ``n``."""
    res = statement_intensity(stmt, mem_words, weights)
    return StatementAnalysis(statement=stmt, intensity=res,
                             num_vertices=float(stmt.num_vertices(n)))


def output_reuse_weights(program: Program, consumer: Statement,
                         producer_rhos: dict[str, float]) -> list[float]:
    """Case II dominator weights for ``consumer``'s input accesses.

    For each input access of ``consumer`` whose array is produced by a
    statement with intensity ``rho_S``, the minimum dominator of the
    consumed access set has size at least ``|B_j(D)| / rho_S``
    (Corollary 1); we encode that as weight ``1/rho_S``, floored at 1
    whenever ``rho_S <= 1`` because recomputation can then never beat a
    load (the paper's LU/Cholesky argument).
    """
    # Match producer *output access patterns* (array + subscripts) against
    # the consumer's input patterns; this is how the paper identifies the
    # reused A[i,k] between S1 and S2 of LU while leaving A[k,j] untouched.
    producers: dict[tuple, str] = {}
    for stmt in program.statements:
        if stmt.name == consumer.name:
            continue
        producers[(stmt.output.array, stmt.output.subscripts)] = stmt.name
    weights = []
    for acc in consumer.inputs:
        key = (acc.array, acc.subscripts)
        if key in producers:
            rho_s = producer_rhos[producers[key]]
            weights.append(1.0 / rho_s if rho_s > 1.0 else 1.0)
        else:
            weights.append(1.0)
    return weights
