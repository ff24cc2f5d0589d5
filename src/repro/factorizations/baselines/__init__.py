"""Comparison targets of the paper's evaluation (Section 9):
MKL/ScaLAPACK 2D, SLATE 2D, CANDMC 2.5D (LU), CAPITAL 2.5D (Cholesky).

CANDMC and CAPITAL are cost-model schedules with no numeric view; trace
them with ``repro.analysis.harness.trace(build("lu", "candmc", ...))``.
"""

from .scalapack_chol import scalapack_cholesky, slate_cholesky
from .scalapack_lu import scalapack_lu, slate_lu

__all__ = [
    "scalapack_lu", "scalapack_cholesky",
    "slate_lu", "slate_cholesky",
]
