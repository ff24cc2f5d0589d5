"""Tests for dominator sets, minimum sets, and X-partitions."""

import pytest

from repro.lowerbounds import lu_program, matmul_program
from repro.pebbles import (
    CDag,
    XPartitionError,
    greedy_schedule,
    minimum_dominator_size,
    minimum_set,
    partition_from_schedule,
    program_cdag,
    run_greedy,
    validate_x_partition,
)


def diamond() -> CDag:
    g = CDag()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("b", "d")
    g.add_edge("c", "d")
    return g


class TestMinimumSet:
    def test_no_internal_successors(self):
        g = diamond()
        assert minimum_set(g, {"b", "c"}) == {"b", "c"}

    def test_internal_successors_excluded(self):
        g = diamond()
        assert minimum_set(g, {"b", "c", "d"}) == {"d"}

    def test_empty(self):
        assert minimum_set(diamond(), set()) == set()


class TestMinimumDominator:
    def test_single_vertex_dominated_by_itself(self):
        g = diamond()
        assert minimum_dominator_size(g, {"d"}) == 1

    def test_bottleneck(self):
        # a -> m, b -> m, m -> x, m -> y: Dom({x, y}) = {m}, size 1.
        g = CDag()
        g.add_edge("a", "m")
        g.add_edge("b", "m")
        g.add_edge("m", "x")
        g.add_edge("m", "y")
        assert minimum_dominator_size(g, {"x", "y"}) == 1

    def test_parallel_paths(self):
        # Two disjoint chains: dominating both sinks needs 2 vertices.
        g = CDag()
        g.add_edge("a1", "b1")
        g.add_edge("a2", "b2")
        assert minimum_dominator_size(g, {"b1", "b2"}) == 2

    def test_input_in_subset(self):
        g = diamond()
        # 'a' is an input and a length-0 path to itself: must be in Dom.
        assert minimum_dominator_size(g, {"a"}) == 1

    def test_empty_subset(self):
        assert minimum_dominator_size(diamond(), set()) == 0

    def test_unknown_vertex(self):
        with pytest.raises(XPartitionError):
            minimum_dominator_size(diamond(), {"zz"})

    def test_matmul_schur_block(self):
        """For the first-update block of C (n^2 vertices), the dominator
        is at most the 2n^2 A/B inputs + n^2 C inputs but at least n^2
        (the block itself cuts all paths)."""
        n = 3
        g = program_cdag(matmul_program(), n)
        h = {("C", i, j, 1) for i in range(n) for j in range(n)}
        dom = minimum_dominator_size(g, h)
        assert n * n <= dom <= 3 * n * n


class TestValidatePartition:
    def test_valid_trivial_partition(self):
        g = diamond()
        validate_x_partition(g, [{"b", "c", "d"}], x=4)

    def test_valid_two_part(self):
        g = diamond()
        validate_x_partition(g, [{"b", "c"}, {"d"}], x=3)

    def test_overlap_rejected(self):
        g = diamond()
        with pytest.raises(XPartitionError):
            validate_x_partition(g, [{"b", "c"}, {"c", "d"}], x=4)

    def test_missing_cover_rejected(self):
        g = diamond()
        with pytest.raises(XPartitionError):
            validate_x_partition(g, [{"b", "c"}], x=4)

    def test_dominator_size_limit(self):
        g = diamond()
        with pytest.raises(XPartitionError):
            validate_x_partition(g, [{"b", "c"}, {"d"}], x=1)

    def test_cyclic_quotient_rejected(self):
        g = CDag()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("in", "a")
        # {a, c} and {b} depend on each other both ways.
        with pytest.raises(XPartitionError):
            validate_x_partition(g, [{"a", "c"}, {"b"}], x=5)

    def test_cover_all_mode(self):
        g = diamond()
        validate_x_partition(g, [{"a"}, {"b", "c"}, {"d"}], x=3,
                             cover="all")


class TestPartitionFromSchedule:
    def test_respects_lemma2_size_bound(self):
        """|P(X)| <= (Q + X - M)/(X - M) for the schedule's partition."""
        g = program_cdag(lu_program(), 5)
        m = 10
        sched = greedy_schedule(g, m)
        game = run_greedy(g, m)
        for x in (2 * m, 3 * m, 5 * m):
            parts = partition_from_schedule(g, sched, m, x)
            assert len(parts) <= (game.io_cost + x - m) / (x - m) + 1

    def test_partition_is_valid_x_partition(self):
        g = program_cdag(matmul_program(), 3)
        m = 10
        sched = greedy_schedule(g, m)
        x = 3 * m
        parts = partition_from_schedule(g, sched, m, x)
        # Segments of a valid sequential schedule form an X-partition
        # with dominators bounded by loads + resident <= X.
        validate_x_partition(g, parts, x=x)

    def test_covers_all_compute_vertices(self):
        g = program_cdag(lu_program(), 4)
        sched = greedy_schedule(g, 8)
        parts = partition_from_schedule(g, sched, 8, 24)
        union = set().union(*parts)
        assert union == g.compute_vertices()

    def test_requires_x_above_m(self):
        g = diamond()
        with pytest.raises(XPartitionError):
            partition_from_schedule(g, [], 4, 4)
