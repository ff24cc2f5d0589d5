"""Comparison targets of the paper's evaluation (Section 9):
MKL/ScaLAPACK 2D, SLATE 2D, CANDMC 2.5D (LU), CAPITAL 2.5D (Cholesky).

Each is a row of the implementation table: build one with
``repro.factorizations.build(op, label, ...)`` or run one with
``repro.factorizations.run_impl(op, label, n, p, ...)``.  CANDMC and
CAPITAL are cost-model schedules with no numeric view; trace them with
``repro.analysis.harness.trace(build("lu", "candmc", ...))``.
"""
