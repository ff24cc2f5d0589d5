"""Ablation benches for the design choices of Section 7:
block size v, replication depth c, row masking vs swapping, and
tournament vs partial pivoting latency.
"""

import pytest

from repro.analysis import (
    block_size_ablation,
    format_table,
    pivoting_latency_ablation,
    replication_ablation,
    row_swap_ablation,
)


@pytest.mark.benchmark(group="ablations")
def test_block_size_ablation(benchmark, save_result):
    rows = benchmark.pedantic(
        block_size_ablation,
        kwargs=dict(n=16384, p=1024, c=8, v_sweep=(8, 16, 32, 64, 128)),
        iterations=1, rounds=1)
    table = format_table(
        ["v", "mean recv words", "max msgs", "est. time s", "% peak"],
        [[r["v"], r["mean_recv_words"], r["max_msgs"], r["time_s"],
          r["peak_pct"]] for r in rows],
        title="Ablation: tile size v (N=16384, P=1024, c=8)")
    save_result("ablation_block_size", table)
    msgs = [r["max_msgs"] for r in rows]
    assert all(b < a for a, b in zip(msgs, msgs[1:]))  # latency falls
    vols = [r["mean_recv_words"] for r in rows]
    assert vols[-1] > vols[0]                          # volume rises


@pytest.mark.benchmark(group="ablations")
def test_replication_ablation(benchmark, save_result):
    rows = benchmark.pedantic(
        replication_ablation,
        kwargs=dict(n=16384, p=1024, c_sweep=(1, 2, 4, 8)),
        iterations=1, rounds=1)
    table = format_table(
        ["c", "M (words)", "leading model", "measured", "O(M) overhead"],
        [[r["c"], r["mem_words"], r["leading_model"],
          r["mean_recv_words"], r["reduction_overhead"]] for r in rows],
        title="Ablation: replication depth c (N=16384, P=1024)")
    save_result("ablation_replication", table)
    vols = [r["mean_recv_words"] for r in rows]
    best = min(range(len(vols)), key=vols.__getitem__)
    assert 0 < best < len(vols) - 1  # interior optimum


@pytest.mark.benchmark(group="ablations")
def test_row_masking_ablation(benchmark, save_result):
    out = benchmark.pedantic(row_swap_ablation,
                             kwargs=dict(n=16384, p=1024),
                             iterations=1, rounds=1)
    lat = pivoting_latency_ablation(n=16384, p=1024, v=32)
    table = format_table(
        ["metric", "value"],
        [["masking words/rank (pivot indices)", out["masking_words"]],
         ["hypothetical swapping words/rank", out["swapping_words"]],
         ["swap overhead vs COnfLUX total", out["swap_overhead_fraction"]],
         ["partial-pivoting sync rounds", lat["partial_rounds"]],
         ["tournament sync rounds", lat["tournament_rounds"]],
         ["latency reduction factor", lat["round_reduction"]]],
        title="Ablation: row masking + tournament pivoting (Section 7.3)")
    save_result("ablation_row_masking", table)
    assert out["swapping_words"] > 50 * out["masking_words"]
    assert lat["round_reduction"] == 32.0
