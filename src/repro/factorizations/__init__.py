"""Parallel matrix factorizations: COnfLUX, COnfCHOX, and the baselines."""

from .common import FactorizationResult, run_impl
from .confchox import ConfchoxSchedule, confchox_cholesky
from .conflux import ConfluxSchedule, conflux_lu, default_block_size
from .matmul25d import Matmul25DSchedule
from .pivoting import TournamentResult, tournament_pivot, tournament_rounds
from . import baselines
from .registry import build

__all__ = [
    "FactorizationResult", "build", "run_impl",
    "ConfluxSchedule", "conflux_lu", "default_block_size",
    "ConfchoxSchedule", "confchox_cholesky",
    "Matmul25DSchedule",
    "TournamentResult", "tournament_pivot", "tournament_rounds",
    "baselines",
]
