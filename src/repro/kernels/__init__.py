"""Node-local dense kernels with exact flop accounting."""

from .blas import (
    KernelError,
    SingularMatrixError,
    gemm,
    gemm_acc,
    getrf,
    pivots_to_permutation,
    potrf,
    trsm,
)
from .flops import gemm_flops, getrf_flops, potrf_flops, trsm_flops

__all__ = [
    "gemm", "gemm_acc", "trsm", "getrf", "potrf", "pivots_to_permutation",
    "KernelError", "SingularMatrixError",
    "gemm_flops", "trsm_flops", "getrf_flops", "potrf_flops",
]
