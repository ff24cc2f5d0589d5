"""Parallel matrix factorizations: COnfLUX, COnfCHOX, and the baselines."""

from .common import FactorizationResult
from .confchox import ConfchoxSchedule, confchox_cholesky
from .conflux import ConfluxSchedule, conflux_lu, default_block_size
from .matmul25d import Matmul25DSchedule, matmul_25d
from .pivoting import TournamentResult, tournament_pivot, tournament_rounds
from .solve import SolveResult, cholesky_solve, lu_solve
from . import baselines
from .registry import build

__all__ = [
    "FactorizationResult", "build",
    "ConfluxSchedule", "conflux_lu", "default_block_size",
    "ConfchoxSchedule", "confchox_cholesky",
    "Matmul25DSchedule", "matmul_25d",
    "TournamentResult", "tournament_pivot", "tournament_rounds",
    "SolveResult", "lu_solve", "cholesky_solve",
    "baselines",
]
