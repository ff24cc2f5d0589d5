"""Experiment harness and figure/table generators for the evaluation."""

from .figures import (
    DEFAULT_P_SWEEP,
    VolumePoint,
    fig1_lu_heatmap,
    fig8a_comm_volume,
    fig8b_weak_scaling,
    fig8c_comm_reduction,
    fig9_lu_scaling,
    fig10_cholesky_scaling,
    fig11_cholesky_heatmap,
    lower_bound_ratios,
    table1_routine_costs,
    table2_model_validation,
    weak_scaling_n,
)
from .ablations import (
    block_size_ablation,
    pivoting_latency_ablation,
    replication_ablation,
    row_swap_ablation,
)
from .harness import (
    CHOLESKY_IMPLEMENTATIONS,
    LU_IMPLEMENTATIONS,
    MemoryFeasibility,
    NODE_MEM_WORDS,
    RANKS_PER_NODE,
    TimedRun,
    estimate_time,
    feasible,
    format_table,
    max_replication,
    memory_feasibility,
    trace,
    trace_cholesky,
    trace_lu,
)

__all__ = [
    "LU_IMPLEMENTATIONS", "CHOLESKY_IMPLEMENTATIONS",
    "NODE_MEM_WORDS", "RANKS_PER_NODE",
    "max_replication", "feasible",
    "MemoryFeasibility", "memory_feasibility",
    "trace", "trace_lu", "trace_cholesky",
    "block_size_ablation", "replication_ablation",
    "row_swap_ablation", "pivoting_latency_ablation",
    "estimate_time", "TimedRun", "format_table",
    "VolumePoint", "DEFAULT_P_SWEEP", "weak_scaling_n",
    "fig1_lu_heatmap", "fig8a_comm_volume", "fig8b_weak_scaling",
    "fig8c_comm_reduction", "fig9_lu_scaling", "fig10_cholesky_scaling",
    "fig11_cholesky_heatmap", "table1_routine_costs",
    "table2_model_validation", "lower_bound_ratios",
]
