"""Parallel matrix factorizations: COnfLUX, COnfCHOX, and the baselines."""

from .common import FactorizationResult, RankAccountant
from .confchox import ConfchoxCholesky, ConfchoxSchedule, confchox_cholesky
from .conflux import (
    ConfluxLU,
    ConfluxSchedule,
    conflux_lu,
    default_block_size,
)
from .matmul25d import Matmul25D, Matmul25DSchedule, matmul_25d
from .pivoting import TournamentResult, tournament_pivot, tournament_rounds
from .solve import SolveResult, cholesky_solve, lu_solve
from . import baselines

__all__ = [
    "FactorizationResult", "RankAccountant",
    "ConfluxLU", "ConfluxSchedule", "conflux_lu", "default_block_size",
    "ConfchoxCholesky", "ConfchoxSchedule", "confchox_cholesky",
    "Matmul25D", "Matmul25DSchedule", "matmul_25d",
    "TournamentResult", "tournament_pivot", "tournament_rounds",
    "SolveResult", "lu_solve", "cholesky_solve",
    "baselines",
]

