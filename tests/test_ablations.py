"""Tests for the ablation studies (repro.analysis.ablations)."""

import pytest

from repro.analysis import (
    block_size_ablation,
    pivoting_latency_ablation,
    replication_ablation,
    row_swap_ablation,
    trace,
)
from repro.factorizations import build


class TestBlockSizeAblation:
    def test_rows_structure(self):
        rows = block_size_ablation(n=8192, p=256, c=4,
                                   v_sweep=(8, 16, 32, 64))
        assert len(rows) == 4
        for r in rows:
            assert r["mean_recv_words"] > 0
            assert r["time_s"] > 0

    def test_messages_fall_with_v(self):
        """Larger tiles mean fewer messages (the latency trade-off)."""
        rows = block_size_ablation(n=8192, p=256, c=4,
                                   v_sweep=(8, 32, 128))
        msgs = [r["max_msgs"] for r in rows]
        assert msgs[0] > msgs[1] > msgs[2]

    def test_volume_grows_with_v(self):
        """The O(N v) A00 broadcast makes volume increase with v."""
        rows = block_size_ablation(n=8192, p=256, c=4,
                                   v_sweep=(8, 64, 256))
        vols = [r["mean_recv_words"] for r in rows]
        assert vols[0] < vols[-1]

    def test_incompatible_v_skipped(self):
        rows = block_size_ablation(n=8192, p=256, c=4,
                                   v_sweep=(6, 8))  # 6 not multiple of 4
        assert len(rows) == 1

    def test_all_invalid_raises(self):
        with pytest.raises(ValueError):
            block_size_ablation(n=8192, p=256, c=4, v_sweep=(6,))


class TestReplicationAblation:
    def test_leading_term_falls_with_c(self):
        rows = replication_ablation(n=32768, p=4096, c_sweep=(1, 4, 16))
        leads = [r["leading_model"] for r in rows]
        assert leads[0] > leads[1] > leads[2]

    def test_overhead_grows_with_c(self):
        rows = replication_ablation(n=32768, p=4096, c_sweep=(2, 8, 16))
        over = [r["reduction_overhead"] for r in rows]
        assert over[0] < over[-1]

    def test_interior_optimum_exists(self):
        """At N=16384, P=1024 the tuned c is strictly between 1 and max:
        total volume is not monotone in c."""
        rows = replication_ablation(n=16384, p=1024, c_sweep=(1, 2, 4, 8))
        vols = [r["mean_recv_words"] for r in rows]
        best = min(range(len(vols)), key=vols.__getitem__)
        assert 0 < best < len(vols) - 1

    def test_tile_is_a_multiple_of_every_depth(self):
        """P = 216 admits c = 3 and 6, of which 16 is no multiple: each
        depth runs at the smallest multiple of c that is at least
        max(4c, 16) and divides N (v = 18 and 24 here); a depth with no
        such tile is skipped."""
        rows = replication_ablation(3456, 216, c_sweep=(1, 2, 3, 6))
        assert [r["c"] for r in rows] == [1, 2, 3, 6]
        for row, v in zip(rows, (16, 16, 18, 24)):
            [res] = trace(build("lu", "conflux", 3456, 216, v=v, c=row["c"]))
            assert row["mean_recv_words"] == res.mean_recv_words
        assert replication_ablation(8, 4, c_sweep=(1,)) == []


class TestRowSwapAblation:
    def test_swap_overhead_is_significant(self):
        """Section 7.3: swapping would add a leading-order term."""
        out = row_swap_ablation(16384, 1024)
        assert out["swapping_words"] > 100 * out["masking_words"]
        assert out["swap_overhead_fraction"] > 0.1

    def test_masking_cost_is_linear(self):
        out = row_swap_ablation(16384, 1024)
        assert out["masking_words"] == 16384.0  # one index per row

    def test_block_size_follows_the_replication_depth(self):
        """P = 216 replicates c = 6 times, which does not divide 32:
        the tile size is the sweep's default for (n, p, c), and the
        bench-scale point keeps v = 32."""
        out = row_swap_ablation(3456, 216)
        assert (out["c"], out["v"]) == (6, 24)
        assert out["masking_words"] == 3456.0
        assert out["swapping_words"] > 50 * out["masking_words"]
        assert row_swap_ablation(16384, 1024)["v"] == 32

    def test_explicit_replication_depth_is_what_the_result_reports(self):
        """Every number of the result is at the caller's ``c``; the
        latency half of the Section-7.3 table (fixed at the maximal
        depth) is merged in by the registry, not here."""
        out = row_swap_ablation(16384, 1024, c=4)
        assert out["c"] == 4 and "partial_rounds" not in out
        assert out["leading_term"] > row_swap_ablation(16384, 1024)["leading_term"]


class TestPivotingLatencyAblation:
    def test_round_reduction_is_v(self):
        """Tournament pivoting reduces synchronization rounds by exactly
        the factor v (O(N) -> O(N/v))."""
        out = pivoting_latency_ablation(n=16384, p=1024, v=32)
        assert out["round_reduction"] == 32.0

    def test_latencies_scale(self):
        out = pivoting_latency_ablation(n=16384, p=1024, v=64)
        assert out["tournament_latency_s"] < out["partial_latency_s"] / 32

    def test_validation(self):
        with pytest.raises(ValueError):
            pivoting_latency_ablation(n=100, p=64, v=32)
