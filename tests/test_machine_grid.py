"""Unit tests for processor grids (repro.machine.grid)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine import (
    GridError,
    ProcessorGrid2D,
    ProcessorGrid3D,
    balanced_block_count,
    choose_grid_25d,
    choose_grid_2d,
    largest_square_divisor,
    replication_factor,
    sorted_divisors,
)


class TestSquareDivisor:
    @pytest.mark.parametrize("p,expected", [
        (1, (1, 1)), (4, (2, 2)), (8, (2, 4)), (12, (3, 4)),
        (16, (4, 4)), (36, (6, 6)), (7, (1, 7)), (128, (8, 16)),
    ])
    def test_values(self, p, expected):
        assert largest_square_divisor(p) == expected

    def test_product_preserved(self):
        for p in range(1, 200):
            a, b = largest_square_divisor(p)
            assert a * b == p
            assert a <= b

    def test_rejects_nonpositive(self):
        with pytest.raises(GridError):
            largest_square_divisor(0)


class TestSortedDivisors:
    @given(st.integers(min_value=0, max_value=20000))
    def test_equals_linear_scan(self, n):
        assert sorted_divisors(n) == [d for d in range(1, n + 1)
                                      if n % d == 0]

    @pytest.mark.parametrize("n", [1, 4, 49, 262144, 510 * 510])
    def test_perfect_square_root_listed_once(self, n):
        divs = sorted_divisors(n)
        assert divs == sorted(set(divs))
        assert divs[0] == 1 and divs[-1] == n

    def test_sqrt_cost_at_large_n(self):
        """A linear scan of 2**40 candidates would not return."""
        assert sorted_divisors(2 ** 40) == [2 ** k for k in range(41)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sorted_divisors(-4)


class TestGrid2D:
    def test_rank_coords_roundtrip(self):
        g = ProcessorGrid2D(3, 4)
        for pi in range(3):
            for pj in range(4):
                assert g.coords(g.rank(pi, pj)) == (pi, pj)

    def test_size(self):
        assert ProcessorGrid2D(3, 4).size == 12

    def test_row_and_col_ranks(self):
        g = ProcessorGrid2D(2, 3)
        assert g.row_ranks(1) == [3, 4, 5]
        assert g.col_ranks(2) == [2, 5]

    def test_out_of_range(self):
        g = ProcessorGrid2D(2, 2)
        with pytest.raises(GridError):
            g.rank(2, 0)
        with pytest.raises(GridError):
            g.coords(4)

    def test_iteration_covers_grid(self):
        g = ProcessorGrid2D(2, 3)
        assert len(list(g)) == 6


class TestGrid3D:
    def test_rank_coords_roundtrip(self):
        g = ProcessorGrid3D(2, 3, 4)
        seen = set()
        for pi, pj, pk in g:
            r = g.rank(pi, pj, pk)
            assert g.coords(r) == (pi, pj, pk)
            seen.add(r)
        assert seen == set(range(24))

    def test_layer_ordering_is_slowest(self):
        g = ProcessorGrid3D(2, 2, 2)
        # Layer 0 occupies ranks 0..3, layer 1 ranks 4..7.
        assert g.layer_ranks(0) == [0, 1, 2, 3]
        assert g.layer_ranks(1) == [4, 5, 6, 7]

    def test_fiber_ranks(self):
        g = ProcessorGrid3D(2, 2, 3)
        fiber = g.fiber_ranks(1, 0)
        assert len(fiber) == 3
        assert all(g.coords(r)[:2] == (1, 0) for r in fiber)

    def test_layer_grid(self):
        g = ProcessorGrid3D(2, 3, 4)
        lg = g.layer_grid()
        assert (lg.rows, lg.cols) == (2, 3)


class TestReplicationFactor:
    def test_memory_limited(self):
        # P*M/N^2 = 2 -> c = 2.
        assert replication_factor(16, 4, 2.0) == 2

    def test_cube_root_cap(self):
        # Plenty of memory: capped at P^(1/3) (rounded, divisor-adjusted).
        assert replication_factor(64, 4, 1e9) == 4

    def test_divisor_adjustment(self):
        # P=10, cube root ~2.15 -> 2 divides 10.
        assert replication_factor(10, 4, 1e9) == 2

    def test_at_least_one(self):
        assert replication_factor(4, 100, 2500.0) == 1

    def test_invalid(self):
        with pytest.raises(GridError):
            replication_factor(0, 4, 10)


class TestChooseGrids:
    def test_choose_2d_square(self):
        g = choose_grid_2d(16)
        assert (g.rows, g.cols) == (4, 4)

    def test_choose_25d_consistent(self):
        g = choose_grid_25d(64, 1024, 1024 * 1024.0, c=4)
        assert g.layers == 4
        assert g.size == 64

    def test_choose_25d_bad_c(self):
        with pytest.raises(GridError):
            choose_grid_25d(64, 1024, 1024.0, c=5)


class TestBalancedBlockCount:
    def test_full_range(self):
        # 10 blocks cyclic over 3 procs: 4, 3, 3.
        counts = [balanced_block_count(10, 3, p) for p in range(3)]
        assert counts == [4, 3, 3]

    def test_with_offset(self):
        # Blocks 4..9 cyclic over 3: owners 1,2,0,1,2,0.
        counts = [balanced_block_count(10, 3, p, first=4) for p in range(3)]
        assert counts == [2, 2, 2]
        assert sum(counts) == 6

    def test_vectorized_matches_scalar(self):
        procs = np.arange(5)
        vec = balanced_block_count(17, 5, procs, first=3)
        scalar = [balanced_block_count(17, 5, p, first=3) for p in range(5)]
        assert list(vec) == scalar

    def test_total_equals_range(self):
        for nb in (1, 7, 16):
            for first in (0, 3, 15):
                for p in (1, 2, 5):
                    total = sum(balanced_block_count(nb, p, q, first)
                                for q in range(p))
                    assert total == max(0, nb - first)

    def test_empty_range(self):
        assert balanced_block_count(5, 2, 0, first=5) == 0

    def test_negative_rejected(self):
        with pytest.raises(GridError):
            balanced_block_count(-1, 2, 0)
