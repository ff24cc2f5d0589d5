"""Parallel I/O lower bounds for Disjoint Access Array Programs.

Implements Sections 2-6 of the paper: DAAP representation, the
X-partition intensity optimization, inter-statement reuse, and the LU /
Cholesky / matmul lower bounds (pipeline + closed forms).
"""

from .bounds import (
    ProgramBound,
    cholesky_io_lower_bound,
    derive_cholesky_bound,
    derive_lu_bound,
    derive_matmul_bound,
    derive_program_bound,
    lu_io_lower_bound,
    matmul_io_lower_bound,
    max_usable_memory,
    memory_feasible,
    min_required_memory,
)
from .catalog import (
    derive_gemv_bound,
    derive_ldlt_bound,
    derive_syrk_bound,
    derive_trsm_bound,
    gemv_program,
    jacobi2d_program,
    ldlt_program,
    syrk_program,
    trsm_program,
)
from .daap import (
    ArrayAccess,
    DAAPError,
    Program,
    Statement,
    cholesky_program,
    lu_program,
    matmul_program,
)
from .intensity import (
    IntensityResult,
    SubcomputationSolution,
    lemma6_intensity_cap,
    max_subcomputation,
    minimize_rho,
    statement_intensity,
)
from .reuse import (
    StatementAnalysis,
    analyze_statement,
    array_accesses_per_schedule,
    input_reuse_bound,
    output_reuse_weights,
)

__all__ = [
    "ArrayAccess", "Statement", "Program", "DAAPError",
    "lu_program", "cholesky_program", "matmul_program",
    "SubcomputationSolution", "IntensityResult",
    "max_subcomputation", "minimize_rho",
    "statement_intensity", "lemma6_intensity_cap",
    "StatementAnalysis", "analyze_statement",
    "array_accesses_per_schedule", "input_reuse_bound",
    "output_reuse_weights",
    "ProgramBound", "derive_program_bound",
    "derive_lu_bound", "derive_cholesky_bound", "derive_matmul_bound",
    "lu_io_lower_bound", "cholesky_io_lower_bound", "matmul_io_lower_bound",
    "trsm_program", "syrk_program", "ldlt_program", "gemv_program",
    "jacobi2d_program",
    "derive_trsm_bound", "derive_syrk_bound", "derive_ldlt_bound",
    "derive_gemv_bound",
    "memory_feasible", "max_usable_memory", "min_required_memory",
]
