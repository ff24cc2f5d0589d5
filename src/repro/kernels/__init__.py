"""Node-local dense kernels with exact flop accounting."""

from .blas import (
    KernelError,
    SingularMatrixError,
    gemm,
    gemm_acc,
    gemmt,
    getrf,
    laswp,
    pivots_to_permutation,
    potrf,
    trsm,
)
from .flops import (
    cholesky_flops,
    gemm_flops,
    gemmt_flops,
    getrf_flops,
    lu_flops,
    potrf_flops,
    trsm_flops,
)

__all__ = [
    "gemm", "gemm_acc", "gemmt", "trsm", "getrf", "potrf", "laswp",
    "pivots_to_permutation",
    "KernelError", "SingularMatrixError",
    "gemm_flops", "gemmt_flops", "trsm_flops", "getrf_flops",
    "potrf_flops", "lu_flops", "cholesky_flops",
]
