"""cDAGs, the red-blue pebble game, X-partitions, and the parallel
pebble game of Section 5."""

from .builders import program_cdag
from .cdag import CDag, CDagError
from .game import Move, PebbleGame, PebbleGameError, greedy_schedule, run_greedy
from .parallel_game import (
    ParallelMove,
    ParallelPebbleGame,
    ParallelPebbleGameError,
    block_row_schedule,
)
from .schedules import (
    blocked_matmul_schedule,
    optimal_block_side,
    run_blocked_matmul,
)
from .partition import (
    XPartitionError,
    minimum_dominator_size,
    minimum_set,
    partition_from_schedule,
    validate_x_partition,
)

__all__ = [
    "CDag", "CDagError",
    "program_cdag",
    "Move", "PebbleGame", "PebbleGameError", "greedy_schedule", "run_greedy",
    "ParallelMove", "ParallelPebbleGame", "ParallelPebbleGameError",
    "block_row_schedule",
    "blocked_matmul_schedule", "optimal_block_side", "run_blocked_matmul",
    "minimum_set", "minimum_dominator_size", "validate_x_partition",
    "partition_from_schedule", "XPartitionError",
]
