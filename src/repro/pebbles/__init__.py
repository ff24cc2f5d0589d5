"""cDAGs of DAAP programs, the sequential red-blue pebble game with a
Belady-greedy scheduler, and the X-partition-guided blocked matmul
schedule (Sections 2.3, 12).  ``repro.analysis.reporting`` pebbles them
against the derived bounds (``pebbling_vs_bounds``,
``xpartition_schedule_quality``)."""

from .builders import program_cdag
from .cdag import CDag, CDagError
from .game import Move, PebbleGame, PebbleGameError, greedy_schedule, run_greedy
from .schedules import (
    blocked_matmul_schedule,
    optimal_block_side,
    run_blocked_matmul,
)

__all__ = [
    "CDag", "CDagError",
    "program_cdag",
    "Move", "PebbleGame", "PebbleGameError", "greedy_schedule", "run_greedy",
    "blocked_matmul_schedule", "optimal_block_side", "run_blocked_matmul",
]
