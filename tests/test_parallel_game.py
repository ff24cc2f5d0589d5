"""Tests for the parallel pebble game (Section 5) and Lemma 9."""


import pytest

from repro.lowerbounds import derive_matmul_bound
from repro.pebbles import (
    ParallelMove,
    ParallelPebbleGame,
    ParallelPebbleGameError,
    block_row_schedule,
    lu_cdag,
    matmul_cdag,
)


def tiny_chain():
    from repro.pebbles import CDag

    g = CDag()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


class TestRules:
    def test_compute_needs_local_preds(self):
        g = tiny_chain()
        game = ParallelPebbleGame(g, 2, 10, input_owner=lambda v: 0)
        with pytest.raises(ParallelPebbleGameError):
            game.apply(ParallelMove("compute", 1, "b"))  # 'a' lives on 0

    def test_recv_requires_a_holder(self):
        g = tiny_chain()
        game = ParallelPebbleGame(g, 2, 10, input_owner=lambda v: 0)
        with pytest.raises(ParallelPebbleGameError):
            game.apply(ParallelMove("recv", 1, "b"))  # not computed yet

    def test_recv_moves_and_counts(self):
        g = tiny_chain()
        game = ParallelPebbleGame(g, 2, 10, input_owner=lambda v: 0)
        game.apply(ParallelMove("recv", 1, "a"))
        assert game.recv_count[1] == 1
        assert game.send_count[0] == 1
        game.apply(ParallelMove("compute", 1, "b"))
        assert game.holders("b") == [1]

    def test_recv_already_local_rejected(self):
        g = tiny_chain()
        game = ParallelPebbleGame(g, 2, 10, input_owner=lambda v: 0)
        with pytest.raises(ParallelPebbleGameError):
            game.apply(ParallelMove("recv", 0, "a"))

    def test_overflowing_initial_distribution_rejected(self):
        g = matmul_cdag(2)
        # All 12 inputs on rank 0 exceed M=3.
        with pytest.raises(ValueError):
            ParallelPebbleGame(g, 2, 3, input_owner=lambda v: 0)

    def test_compute_respects_capacity(self):
        g = tiny_chain()
        game = ParallelPebbleGame(g, 1, 1, input_owner=lambda v: 0)
        with pytest.raises(ParallelPebbleGameError):
            game.apply(ParallelMove("compute", 0, "b"))  # no room for b

    def test_evict(self):
        g = tiny_chain()
        game = ParallelPebbleGame(g, 2, 10, input_owner=lambda v: 0)
        game.apply(ParallelMove("evict", 0, "a"))
        assert game.holders("a") == []
        with pytest.raises(ParallelPebbleGameError):
            game.apply(ParallelMove("evict", 0, "a"))

    def test_no_pebble_sharing(self):
        """A pebble on one rank does not let another rank compute
        (explicit-communication model vs PRAM)."""
        g = tiny_chain()
        game = ParallelPebbleGame(g, 2, 10, input_owner=lambda v: 0)
        game.apply(ParallelMove("compute", 0, "b"))
        with pytest.raises(ParallelPebbleGameError):
            game.apply(ParallelMove("compute", 1, "c"))


class TestBlockRowSchedule:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matmul_completes(self, nprocs):
        g = matmul_cdag(3)
        sched, owner = block_row_schedule(
            g, nprocs, 64, part=lambda v: v[1] % nprocs)
        game = ParallelPebbleGame(g, nprocs, 64, input_owner=owner)
        game.run(sched)
        assert game.finished()

    def test_lu_completes(self):
        g = lu_cdag(4)
        sched, owner = block_row_schedule(g, 2, 40,
                                          part=lambda v: v[1] % 2)
        game = ParallelPebbleGame(g, 2, 40, input_owner=owner)
        game.run(sched)
        assert game.finished()

    def test_single_proc_no_communication(self):
        g = matmul_cdag(3)
        sched, owner = block_row_schedule(g, 1, 64, part=lambda v: 0)
        game = ParallelPebbleGame(g, 1, 64, input_owner=owner)
        game.run(sched)
        assert game.total_io == 0

    def test_tight_memory_still_valid(self):
        g = matmul_cdag(3)
        m = 20
        sched, owner = block_row_schedule(g, 2, m, part=lambda v: v[1] % 2)
        game = ParallelPebbleGame(g, 2, m, input_owner=owner)
        game.run(sched)
        assert game.finished()
        # Tight memory forces communication.
        assert game.total_io > 0

    def test_work_split_reduces_per_rank_io_vs_volume(self):
        g = matmul_cdag(4)
        sched, owner = block_row_schedule(g, 4, 64,
                                          part=lambda v: v[1] % 4)
        game = ParallelPebbleGame(g, 4, 64, input_owner=owner)
        game.run(sched)
        assert game.max_io <= game.total_io
        assert game.max_io >= game.total_io / 4


class TestLemma9:
    """max_p Q_p >= |V| / (P * rho): the parallel bound holds for any
    executed schedule."""

    @pytest.mark.parametrize("n,nprocs,m", [(16, 32, 32), (12, 16, 32)])
    def test_matmul_parallel_bound(self, n, nprocs, m):
        """In the parallel game inputs are pre-placed in fast memory
        (there is no slow memory), so up to M words per rank arrive
        without I/O: the executed schedule must beat bound - M.
        Parameters are chosen so bound - M is strictly positive (needs
        P large enough that N^3/(P sqrt(M)) dominates M)."""
        g = matmul_cdag(n)
        sched, owner = block_row_schedule(
            g, nprocs, m, part=lambda v: (v[1] * n + v[2]) % nprocs)
        game = ParallelPebbleGame(g, nprocs, m, input_owner=owner)
        game.run(sched)
        bound = derive_matmul_bound(n, m, p=nprocs).parallel_bound
        assert bound - m > 0, "test parameters must be non-vacuous"
        assert game.max_io >= bound - m

    def test_intensity_independent_of_p(self):
        """Lemma 9's core: rho depends on M only, so the bound scales
        exactly as 1/P."""
        n, m = 4, 8
        b2 = derive_matmul_bound(n, m, p=2).parallel_bound
        b8 = derive_matmul_bound(n, m, p=8).parallel_bound
        assert b2 == pytest.approx(4 * b8)
