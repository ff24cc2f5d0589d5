"""Tests for the X-partition-guided blocked schedules."""

import math

import pytest

from repro.lowerbounds import derive_matmul_bound, matmul_program
from repro.pebbles import (
    PebbleGame,
    blocked_matmul_schedule,
    optimal_block_side,
    program_cdag,
    run_blocked_matmul,
    run_greedy,
)


class TestOptimalBlockSide:
    def test_working_set_fits(self):
        for m in (9, 16, 27, 64, 100, 500):
            b = optimal_block_side(m)
            assert b * b + 2 * b + 1 <= m or b == 1

    def test_scales_as_sqrt_m(self):
        assert optimal_block_side(400) == pytest.approx(
            math.sqrt(400), abs=2)

    def test_minimum_memory(self):
        with pytest.raises(ValueError):
            optimal_block_side(3)


class TestBlockedSchedule:
    @pytest.mark.parametrize("n,m", [(6, 16), (8, 27), (9, 27), (12, 48)])
    def test_valid_and_complete(self, n, m):
        game = run_blocked_matmul(n, m)
        assert game.finished()
        assert game.max_red <= m

    def test_io_formula_when_blocks_divide(self):
        """With b | n the cost is exactly 2n^3/b + 2n^2."""
        n, m = 8, 27  # b = 4 divides 8
        b = optimal_block_side(m)
        assert n % b == 0
        game = run_blocked_matmul(n, m)
        assert game.io_cost == 2 * n ** 3 / b + 2 * n * n

    def test_respects_lower_bound(self):
        for n, m in [(8, 27), (12, 48), (16, 80)]:
            q = run_blocked_matmul(n, m).io_cost
            bound = derive_matmul_bound(n, m).sequential_bound
            assert q >= bound

    def test_beats_greedy(self):
        """The X-partition hint buys a real improvement over Belady
        caching without blocking."""
        for n, m in [(12, 48), (16, 80)]:
            blocked = run_blocked_matmul(n, m).io_cost
            greedy = run_greedy(program_cdag(matmul_program(), n), m).io_cost
            assert blocked < greedy

    def test_approaches_bound_constant(self):
        """blocked/bound = sqrt(M)/b + sqrt(M)/n -> sqrt(M)/(sqrt(M)-1)
        as n grows at fixed M: the schedule matches the bound's leading
        *constant*, not just its order.  At M=121 (b=10 divides both n):
        n=20 gives 1.65, n=40 gives 1.375, asymptote 1.1."""
        m = 121
        r20 = (run_blocked_matmul(20, m).io_cost
               / derive_matmul_bound(20, m).sequential_bound)
        r40 = (run_blocked_matmul(40, m).io_cost
               / derive_matmul_bound(40, m).sequential_bound)
        assert r40 < r20
        assert r40 < 1.45

    def test_explicit_block_side(self):
        game = run_blocked_matmul(8, 80, block=2)
        assert game.finished()

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            blocked_matmul_schedule(4, 27, block=10)

    def test_schedule_replayable(self):
        """The emitted schedule is a plain move list: replaying it on a
        fresh game gives identical cost."""
        n, m = 8, 27
        moves = blocked_matmul_schedule(n, m)
        g1 = PebbleGame(program_cdag(matmul_program(), n), m)
        g1.run(moves)
        g2 = PebbleGame(program_cdag(matmul_program(), n), m)
        g2.run(moves)
        assert g1.io_cost == g2.io_cost
