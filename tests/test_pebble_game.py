"""Tests for the sequential red-blue pebble game and greedy scheduler."""

import pytest

from repro.lowerbounds import (
    cholesky_program,
    derive_cholesky_bound,
    derive_ldlt_bound,
    derive_lu_bound,
    derive_matmul_bound,
    derive_syrk_bound,
    derive_trsm_bound,
    ldlt_program,
    lu_program,
    matmul_program,
    syrk_program,
    trsm_program,
)
from repro.pebbles import (
    CDag,
    Move,
    PebbleGame,
    PebbleGameError,
    greedy_schedule,
    program_cdag,
    run_greedy,
)


def chain(k: int) -> CDag:
    g = CDag()
    for i in range(k):
        g.add_edge(i, i + 1)
    return g


class TestGameRules:
    def test_load_requires_blue(self):
        g = chain(2)
        game = PebbleGame(g, 4)
        with pytest.raises(PebbleGameError):
            game.apply(Move("load", 1))  # vertex 1 is not an input

    def test_compute_requires_red_preds(self):
        g = chain(2)
        game = PebbleGame(g, 4)
        with pytest.raises(PebbleGameError):
            game.apply(Move("compute", 1))

    def test_memory_limit_enforced(self):
        g = CDag()
        for i in range(5):
            g.add_edge(("in", i), "out")
        game = PebbleGame(g, 6)
        for i in range(5):
            game.apply(Move("load", ("in", i)))
        game.apply(Move("compute", "out"))
        assert game.max_red == 6
        game2 = PebbleGame(g, 6)
        for i in range(5):
            game2.apply(Move("load", ("in", i)))
        # A sixth unrelated red pebble then compute would exceed M.
        game2.apply(Move("store", ("in", 0)))

    def test_min_memory_check(self):
        g = CDag()
        for i in range(5):
            g.add_edge(("in", i), "out")
        with pytest.raises(ValueError):
            PebbleGame(g, 5)  # needs 5 preds + result = 6

    def test_store_requires_red(self):
        g = chain(1)
        game = PebbleGame(g, 3)
        with pytest.raises(PebbleGameError):
            game.apply(Move("store", 1))

    def test_evict_requires_red(self):
        g = chain(1)
        game = PebbleGame(g, 3)
        with pytest.raises(PebbleGameError):
            game.apply(Move("evict", 0))

    def test_io_counting(self):
        g = chain(1)
        game = PebbleGame(g, 3)
        game.apply(Move("load", 0))
        game.apply(Move("compute", 1))
        game.apply(Move("store", 1))
        assert game.io_cost == 2
        assert game.finished()

    def test_recomputation_flagged(self):
        g = chain(1)
        game = PebbleGame(g, 3)
        game.apply(Move("load", 0))
        game.apply(Move("compute", 1))
        with pytest.raises(PebbleGameError):
            game.apply(Move("compute", 1))

    def test_unknown_vertex(self):
        game = PebbleGame(chain(1), 3)
        with pytest.raises(PebbleGameError):
            game.apply(Move("load", 99))

    def test_unknown_op(self):
        game = PebbleGame(chain(1), 3)
        with pytest.raises(PebbleGameError):
            game.apply(Move("jump", 0))


class TestGreedyScheduler:
    @pytest.mark.parametrize("n,m", [(3, 6), (4, 8), (6, 12), (6, 30)])
    def test_lu_schedule_valid_and_finishes(self, n, m):
        game = run_greedy(program_cdag(lu_program(), n), m)
        assert game.finished()
        assert game.computes == len(program_cdag(lu_program(), n).compute_vertices())

    @pytest.mark.parametrize("n,m", [(3, 6), (5, 10), (6, 24)])
    def test_cholesky_schedule_valid(self, n, m):
        game = run_greedy(program_cdag(cholesky_program(), n), m)
        assert game.finished()

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 8), (4, 16)])
    def test_matmul_schedule_valid(self, n, m):
        game = run_greedy(program_cdag(matmul_program(), n), m)
        assert game.finished()

    def test_never_exceeds_memory(self):
        g = program_cdag(lu_program(), 5)
        game = PebbleGame(g, 7)
        game.run(greedy_schedule(g, 7))
        assert game.max_red <= 7

    def test_more_memory_never_hurts(self):
        g = program_cdag(matmul_program(), 4)
        q_small = run_greedy(g, 8).io_cost
        q_large = run_greedy(g, 64).io_cost
        assert q_large <= q_small

    def test_io_at_least_inputs_plus_outputs(self):
        """Any complete pebbling loads every used input and stores every
        output at least once."""
        for n in (3, 4, 5):
            g = program_cdag(lu_program(), n)
            game = run_greedy(g, 10)
            used_inputs = g.inputs() & {u for v in g.vertices()
                                       for u in g.preds(v)}
            assert game.io_cost >= len(used_inputs) + len(g.outputs())

    @pytest.mark.parametrize("make", [
        lu_program, cholesky_program, matmul_program, trsm_program,
        syrk_program, ldlt_program], ids=lambda f: f.__name__)
    def test_every_kernel_pebbles_within_memory(self, make):
        """The schedule ``pebbling_vs_bounds`` counts is legal on each of
        the six kernels' cDAGs: it computes every vertex once, stays
        within M red pebbles, ends with every output blue, and loads
        each used input and stores each output at least once."""
        g = program_cdag(make(), 6)
        game = PebbleGame(g, 12)
        game.run(greedy_schedule(g, 12))
        assert game.finished() and game.max_red <= 12
        assert game.computes == len(g.compute_vertices())
        used_inputs = g.inputs() & {u for v in g.vertices()
                                       for u in g.preds(v)}
        assert game.loads >= len(used_inputs)
        assert game.stores >= len(g.outputs())


class TestGreedyRespectsLowerBounds:
    """Q_greedy (an upper bound on optimal) must respect the Section-3
    lower bounds: greedy >= derived bound."""

    @pytest.mark.parametrize("n,m", [(4, 8), (6, 10), (8, 16)])
    def test_matmul(self, n, m):
        q = run_greedy(program_cdag(matmul_program(), n), m).io_cost
        bound = derive_matmul_bound(n, m).sequential_bound
        assert q >= bound

    @pytest.mark.parametrize("n,m", [(4, 8), (6, 12), (8, 16)])
    def test_lu(self, n, m):
        q = run_greedy(program_cdag(lu_program(), n), m).io_cost
        bound = derive_lu_bound(n, m).sequential_bound
        assert q >= bound

    @pytest.mark.parametrize("n,m", [(4, 8), (6, 12), (8, 16)])
    def test_cholesky(self, n, m):
        """Every final factor entry is an output and is stored: with only
        the last diagonal entry stored, greedy did (4, 8) in 11 I/Os,
        under this bound of 17.07."""
        q = run_greedy(program_cdag(cholesky_program(), n), m).io_cost
        assert q >= derive_cholesky_bound(n, m).sequential_bound

    @pytest.mark.parametrize("n,m", [(4, 8), (6, 12), (8, 16)])
    def test_ldlt(self, n, m):
        q = run_greedy(program_cdag(ldlt_program(), n), m).io_cost
        assert q >= derive_ldlt_bound(n, m).sequential_bound

    @pytest.mark.parametrize("n,m", [(4, 8), (6, 12), (8, 16)])
    def test_trsm(self, n, m):
        q = run_greedy(program_cdag(trsm_program(), n), m).io_cost
        assert q >= derive_trsm_bound(n, m).sequential_bound

    @pytest.mark.parametrize("n,m", [(4, 8), (6, 12), (8, 16)])
    def test_syrk(self, n, m):
        q = run_greedy(program_cdag(syrk_program(), n), m).io_cost
        assert q >= derive_syrk_bound(n, m).sequential_bound

    def test_greedy_within_constant_of_bound(self):
        """The greedy schedule should not be wildly suboptimal on matmul
        (sanity check that the bound is meaningful, not vacuous)."""
        n, m = 8, 27
        q = run_greedy(program_cdag(matmul_program(), n), m).io_cost
        bound = derive_matmul_bound(n, m).sequential_bound
        assert q <= 20 * bound
