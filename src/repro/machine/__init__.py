"""Simulated distributed-memory machine.

This package is the substrate standing in for the paper's Piz Daint + MPI
testbed (see ARCHITECTURE.md, "Substitutions"): ``P`` ranks with private
memories, explicit counted communication, and an alpha-beta-gamma time
model calibrated to XC40 node parameters.
"""

from .comm import Machine
from .exceptions import (
    CommunicationError,
    GridError,
    LayoutError,
    MachineError,
    MemoryBudgetExceeded,
    MemoryLimitError,
    RankError,
)
from .grid import (
    ProcessorGrid2D,
    ProcessorGrid3D,
    balanced_block_count,
    choose_grid_25d,
    choose_grid_2d,
    largest_square_divisor,
    replication_factor,
    sorted_divisors,
)
from .perf_model import PIZ_DAINT_XC40, MachineParams, PerfModel, TimeBreakdown
from .stats import (
    ColumnarStepLog,
    CommStats,
    NullStepLog,
    StepRecord,
)
from .store import RankStore

__all__ = [
    "Machine",
    "CommStats",
    "ColumnarStepLog",
    "NullStepLog",
    "StepRecord",
    "RankStore",
    "ProcessorGrid2D",
    "ProcessorGrid3D",
    "balanced_block_count",
    "choose_grid_2d",
    "choose_grid_25d",
    "largest_square_divisor",
    "replication_factor",
    "sorted_divisors",
    "MachineParams",
    "PerfModel",
    "TimeBreakdown",
    "PIZ_DAINT_XC40",
    "MachineError",
    "RankError",
    "MemoryLimitError",
    "MemoryBudgetExceeded",
    "CommunicationError",
    "GridError",
    "LayoutError",
]
