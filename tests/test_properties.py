"""Property-based tests (hypothesis) on core invariants."""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kernels import blas
from repro.layouts import BlockCyclicLayout, global_to_local, local_to_global, numroc
from repro.lowerbounds import (
    derive_lu_bound,
    matmul_program,
    max_subcomputation,
)
from repro.machine import (
    ProcessorGrid2D,
    ProcessorGrid3D,
    balanced_block_count,
    largest_square_divisor,
)
from repro.machine.stats import CommStats
from repro.pebbles import PebbleGame, greedy_schedule, program_cdag
from oracle import block_shape
from workload_oracle import assert_search_equals_product, brute_force_plan


class TestGridProperties:
    @given(p=st.integers(1, 10000))
    def test_square_divisor_invariants(self, p):
        a, b = largest_square_divisor(p)
        assert a * b == p and 1 <= a <= b

    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           layers=st.integers(1, 6))
    def test_grid3d_rank_bijective(self, rows, cols, layers):
        g = ProcessorGrid3D(rows, cols, layers)
        ranks = {g.rank(pi, pj, pk) for (pi, pj, pk) in g}
        assert ranks == set(range(g.size))

    @given(nb=st.integers(0, 200), p=st.integers(1, 20),
           first=st.integers(0, 200))
    def test_balanced_block_count_partitions(self, nb, p, first):
        total = sum(balanced_block_count(nb, p, q, first) for q in range(p))
        assert total == max(0, nb - first)

    @given(nb=st.integers(1, 100), p=st.integers(1, 16),
           first=st.integers(0, 100))
    def test_balanced_block_count_balanced(self, nb, p, first):
        counts = [balanced_block_count(nb, p, q, first) for q in range(p)]
        assert max(counts) - min(counts) <= 1


class TestLayoutProperties:
    @given(n=st.integers(1, 300), nb=st.integers(1, 40),
           p=st.integers(1, 12))
    def test_numroc_partitions(self, n, nb, p):
        assert sum(numroc(n, nb, q, 0, p) for q in range(p)) == n

    @given(ig=st.integers(0, 1000), nb=st.integers(1, 40),
           p=st.integers(1, 12))
    def test_index_map_roundtrip(self, ig, nb, p):
        owner, il = global_to_local(ig, nb, p)
        assert 0 <= owner < p
        assert local_to_global(il, nb, owner, 0, p) == ig

    @given(m=st.integers(1, 60), n=st.integers(1, 60),
           mb=st.integers(1, 17), nb=st.integers(1, 17),
           pr=st.integers(1, 4), pc=st.integers(1, 4))
    @settings(max_examples=50)
    def test_block_cyclic_words_partition(self, m, n, mb, nb, pr, pc):
        lay = BlockCyclicLayout(m, n, mb, nb, ProcessorGrid2D(pr, pc))
        assert int(lay.words_per_rank().sum()) == m * n

    @given(m=st.integers(1, 60), n=st.integers(1, 60),
           mb=st.integers(1, 17), nb=st.integers(1, 17),
           pr=st.integers(1, 5), pc=st.integers(1, 5))
    @settings(max_examples=50)
    def test_words_per_rank_is_the_sum_of_its_blocks(self, m, n, mb, nb,
                                                      pr, pc):
        """The closed form (local rows x local columns) against the
        block-by-block count, on ragged shapes and non-square grids;
        rank 0 is the fullest, a rank off the grid holds nothing."""
        lay = BlockCyclicLayout(m, n, mb, nb, ProcessorGrid2D(pr, pc))
        by_block = [sum(rows * cols for rows, cols in
                        (block_shape(lay, bi, bj)
                         for bi, bj in lay.blocks_of_rank(rank)))
                    for rank in range(pr * pc)]
        assert lay.words_per_rank().tolist() == by_block
        assert [lay.local_words(rank) for rank in range(pr * pc)] == by_block
        assert sum(by_block) == m * n and max(by_block) == by_block[0]
        assert lay.local_words(pr * pc) == 0


class TestStatsProperties:
    @given(st.lists(st.tuples(st.integers(0, 7), st.floats(0, 1e6)),
                    max_size=30))
    def test_totals_match_sum_of_events(self, events):
        s = CommStats(8)
        for rank, words in events:
            s.record_recv(rank, words)
        assert s.total_recv_words == pytest.approx(
            sum(w for _, w in events))
        assert s.max_recv_words <= s.total_recv_words + 1e-9


class TestIntensityProperties:
    @given(x=st.floats(10.0, 1e7))
    @settings(max_examples=30, deadline=None)
    def test_matmul_chi_closed_form(self, x):
        sol = max_subcomputation(("i", "j", "k"),
                                 [("i", "j"), ("i", "k"), ("k", "j")], x)
        assert sol.chi == pytest.approx((x / 3) ** 1.5, rel=1e-4)

    @given(x1=st.floats(10.0, 1e5), x2=st.floats(10.0, 1e5))
    @settings(max_examples=30, deadline=None)
    def test_chi_monotone_in_x(self, x1, x2):
        assume(x1 < x2)
        groups = [("i", "j"), ("i", "k"), ("k", "j")]
        c1 = max_subcomputation(("i", "j", "k"), groups, x1).chi
        c2 = max_subcomputation(("i", "j", "k"), groups, x2).chi
        assert c2 >= c1 * (1 - 1e-9)


class TestBoundProperties:
    @settings(deadline=None)
    @given(n=st.floats(2, 1e6), p=st.floats(1, 1e6),
           m=st.floats(4, 1e12))
    def test_lu_bound_positive_and_monotone_in_n(self, n, p, m):
        q = derive_lu_bound(n, m, p).parallel_bound
        assert q >= 0
        assert derive_lu_bound(n * 2, m, p).parallel_bound >= q


class TestKernelProperties:
    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_getrf_reconstructs(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        lu, piv, _ = blas.getrf(a)
        l = np.tril(lu, -1) + np.eye(n)
        u = np.triu(lu)
        perm = blas.pivots_to_permutation(piv, n)
        assert np.allclose(a[perm], l @ u, atol=1e-8)

    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_potrf_reconstructs(self, n, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        l, _ = blas.potrf(a)
        assert np.allclose(l @ l.T, a, atol=1e-8)

    @given(st.integers(1, 10), st.integers(1, 10),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trsm_solves(self, t, nrhs, seed):
        rng = np.random.default_rng(seed)
        tri = np.tril(rng.standard_normal((t, t))) + t * np.eye(t)
        rhs = rng.standard_normal((t, nrhs))
        x, _ = blas.trsm(tri, rhs)
        assert np.allclose(tri @ x, rhs, atol=1e-8)


class TestPebbleGameProperties:
    @given(n=st.integers(2, 4), extra=st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_greedy_always_valid_and_within_memory(self, n, extra):
        g = program_cdag(matmul_program(), n)
        m = 4 + extra
        game = PebbleGame(g, m)
        game.run(greedy_schedule(g, m))
        assert game.max_red <= m
        assert game.finished()

    @given(n=st.integers(2, 4), m1=st.integers(5, 15),
           m2=st.integers(16, 120))
    @settings(max_examples=15, deadline=None)
    def test_io_monotone_in_memory(self, n, m1, m2):
        g = program_cdag(matmul_program(), n)
        game1 = PebbleGame(g, m1)
        game1.run(greedy_schedule(g, m1))
        game2 = PebbleGame(g, m2)
        game2.run(greedy_schedule(g, m2))
        assert game2.io_cost <= game1.io_cost


class TestFactorizationProperties:
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_conflux_residual_random_matrices(self, seed):
        from repro.factorizations import conflux_lu

        rng = np.random.default_rng(seed)
        n = 32
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        res = conflux_lu(n, 4, v=8, c=2, a=a)
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-10

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_tournament_winners_distinct_and_valid(self, seed):
        from repro.factorizations.pivoting import tournament_pivot

        rng = np.random.default_rng(seed)
        panel = rng.standard_normal((40, 4))
        res = tournament_pivot(panel, 4, parts=5)
        winners = res.winners.tolist()
        assert len(set(winners)) == 4
        assert all(0 <= w < 40 for w in winners)


class TestGenerated2DBaselines:
    """A fixed-seed slice of ROADMAP's generated-scenario net for the
    2D baselines, oracles (b) — the distributed factors are LAPACK's,
    pivots included — and (d) — the measured peak fits
    ``required_words()`` and one word less is refused at a stable
    place.  One seeded generator draws the
    whole scenario, so the slice is spread evenly however hypothesis
    picks its seeds.  The 2D schedules take their grid from
    ``choose_grid_2d(P)``: 1xP for a prime P, 2x3, 2x4, 3x3, 3x4, 4x4;
    the tile count need not be a multiple of either side."""

    RANKS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16)

    @staticmethod
    def scenario(seed):
        """``(schedule, matrix)``: P, panel width, 2..9 tiles a side,
        Cholesky or LU with or without the panel rebroadcast, on a
        general (rows swap) or diagonally dominant matrix."""
        from repro.factorizations.baselines.scalapack_chol import (
            ScalapackCholeskySchedule,
        )
        from repro.factorizations.baselines.scalapack_lu import (
            ScalapackLUSchedule,
        )

        rng = np.random.default_rng(seed)
        p = int(rng.choice(TestGenerated2DBaselines.RANKS))
        nb = int(rng.choice([4, 8, 16]))
        n = nb * int(rng.integers(2, 10))
        op, general = rng.integers(3), rng.integers(2)
        a = rng.standard_normal((n, n))
        if op == 2:
            return ScalapackCholeskySchedule(n, p, nb=nb), a @ a.T + n * np.eye(n)
        return (ScalapackLUSchedule(n, p, nb=nb, panel_rebroadcast=bool(op)),
                a if general else a + n * np.eye(n))

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_agrees_with_lapack_within_its_declared_memory(self, seed):
        import scipy.linalg

        from oracle import lapack_lu
        from repro.engine import DistributedBackend
        from repro.machine import Machine, MemoryBudgetExceeded

        sched, a = self.scenario(seed)
        p = sched.nranks
        machine = Machine(p)
        dist = DistributedBackend(machine).run(sched, a=a)
        if dist.perm is None:
            lower = scipy.linalg.cholesky(a, lower=True)
            assert np.abs(lower - dist.lower).max() <= 1e-10
            product = dist.lower @ dist.lower.T
        else:
            perm, lower, upper = lapack_lu(a)
            assert np.array_equal(perm, dist.perm)
            assert np.abs(lower - dist.lower).max() <= 1e-10
            assert np.abs(upper - dist.upper).max() <= 1e-10
            product = (dist.lower @ dist.upper)[np.argsort(dist.perm)]
        assert np.linalg.norm(a - product) <= 1e-12 * np.linalg.norm(a)

        peaks = machine.peak_words_per_rank()
        assert peaks.max() <= sched.required_words()
        refused = []
        for _ in range(2):
            tight = Machine(p, mem_words=peaks.max() - 1,
                            enforce_memory=True)
            with pytest.raises(MemoryBudgetExceeded) as exc_info:
                DistributedBackend(tight).run(sched, a=a)
            refused.append((exc_info.value.rank, exc_info.value.step))
        assert refused[0] == refused[1]
        # Only a rank that touches the peak can be the one refused.
        assert peaks[refused[0][0]] == peaks.max()


def per_piece_summa(sched):
    """``sched`` with its SUMMA rounds as they ran before the panels
    were shared: every strip piece stored at its owner and ``bcast`` to
    the line (a private copy per receiver), every rank stacking its own
    panels, the product formed in a temporary and added.  Kept here
    only, as the counted reference of the form that was replaced."""
    from repro.factorizations import matmul25d as mm

    strip_a, strip_b = ("work", "ref-Ap"), ("work", "ref-Bp")

    def dist_step(machine, state, t):
        if t >= sched.rounds:
            return type(sched).dist_step(sched, machine, state, t)
        n, s, grid = sched.n, sched.s, sched.grid
        pr, pc = grid.rows, grid.cols
        rows, cols = sched._cuts(pr), sched._cuts(pc)
        for kk in range(sched.c):
            lo = kk * (n // sched.c) + t * s
            a_pieces = sched._strip_pieces(lo, cols)
            b_pieces = sched._strip_pieces(lo, rows)
            for pi in range(pr):
                row_group = [grid.rank(pi, j, kk) for j in range(pc)]
                for jb, c0, c1 in a_pieces:
                    src = grid.rank(pi, jb, kk)
                    block = machine.store(src).get((mm.WORK_A, pi, jb))
                    machine.store(src).put((strip_a, t, jb),
                                           block[:, c0:c1].copy())
                    machine.bcast(src, row_group, (strip_a, t, jb))
            for pj in range(pc):
                col_group = [grid.rank(i, pj, kk) for i in range(pr)]
                for ib, r0, r1 in b_pieces:
                    src = grid.rank(ib, pj, kk)
                    block = machine.store(src).get((mm.WORK_B, ib, pj))
                    machine.store(src).put((strip_b, t, ib),
                                           block[r0:r1, :].copy())
                    machine.bcast(src, col_group, (strip_b, t, ib))
            for pi in range(pr):
                for pj in range(pc):
                    r = grid.rank(pi, pj, kk)
                    store = machine.store(r)
                    a_panel = np.hstack([store.get((strip_a, t, jb))
                                         for jb, _, _ in a_pieces])
                    b_panel = np.vstack([store.get((strip_b, t, ib))
                                         for ib, _, _ in b_pieces])
                    store.get((mm.WORK_C, pi, pj))[...] += a_panel @ b_panel
                    machine.compute(r, 2.0 * (rows[pi + 1] - rows[pi])
                                    * (cols[pj + 1] - cols[pj]) * s)
                    for jb, _, _ in a_pieces:
                        store.discard((strip_a, t, jb))
                    for ib, _, _ in b_pieces:
                        store.discard((strip_b, t, ib))

    sched.dist_step = dist_step         # instance attribute, this run only
    return sched


class TestGeneratedSumma:
    """The same one-seed-draws-the-scenario net for the 2.5D SUMMA's
    distributed view: P, replication and strip width drawn so that
    layer grids are 1x1, 1x2, 1x3, 2x2, 2x3, 2x4, 3x4, 4x4 and 4x8 and
    a round's strip lies in one operand block or straddles two or
    three.  The run adopts named native blocks, the way ``pdgemm``
    reaches it."""

    RANKS = (1, 2, 4, 6, 8, 12, 16, 32)

    @staticmethod
    def scenario(seed):
        """``(schedule, a, b)``: ``N`` a small multiple of what the
        grid needs, the strip width a divisor of a layer's ``N / c``
        slice — two times in three, where there is one, a divisor that
        does not divide both block extents."""
        import math

        from repro.factorizations import Matmul25DSchedule
        from repro.machine import sorted_divisors

        rng = np.random.default_rng(seed)
        p = int(rng.choice(TestGeneratedSumma.RANKS))
        c = int(rng.choice([c for c in (1, 2, 4) if p % c == 0]))
        pr, pc = largest_square_divisor(p // c)
        n = math.lcm(pr, pc, c) * int(rng.integers(1, 13))
        widths = sorted_divisors(n // c)
        straddling = [s for s in widths if (n // pr) % s or (n // pc) % s]
        s = int(rng.choice(straddling if straddling and rng.integers(3)
                           else widths))
        a, b = rng.standard_normal((2, n, n))
        return Matmul25DSchedule(n, p, s=s, c=c), a, b

    @staticmethod
    def counters(result, machine):
        comm = result.comm
        return {**{field: getattr(comm, field).tolist()
                   for field in ("recv_words", "recv_msgs", "flops")},
                "steps": list(comm.steps),
                "peaks": machine.peak_words_per_rank().tolist()}

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_shared_panels_count_and_compute_as_the_per_piece_form(self, seed):
        from repro.engine import DistributedBackend
        from repro.factorizations.matmul25d import WORK_A, WORK_B
        from repro.machine import Machine, MemoryBudgetExceeded
        from repro.planner.workload import native_layout

        sched, a, b = self.scenario(seed)
        p, c, grid = sched.nranks, sched.c, sched.grid
        rl, cl = sched.n // grid.rows, sched.n // grid.cols
        native = native_layout("gemm", sched)   # one block per layer-0 rank

        def run(schedule, **machine_kw):
            machine = Machine(p, **machine_kw)
            native.scatter_from(machine, "X", a)
            native.scatter_from(machine, "Y", b)
            return machine, DistributedBackend(machine).run(
                schedule, in_name=("X", "Y"))

        machine, dist = run(sched)
        ref_machine, ref = run(per_piece_summa(self.scenario(seed)[0]))

        # Counted exactly as the per-piece form and computed to its
        # bits (NumPy sends a one-row or one-column block's product to
        # gemv, not gemm: that one is equal to rounding).  So is the
        # plain product, formed in one gemm rather than per block,
        # strip and layer.
        assert self.counters(dist, machine) == self.counters(ref, ref_machine)
        if min(rl, cl) > 1:
            assert np.array_equal(dist.lower, ref.lower)
        for other in (ref.lower, a @ b):
            assert np.abs(dist.lower - other).max() <= 1e-12 * sched.n

        # Operands are shared, never written: the caller's blocks are
        # as they were, layer 0 holds them, the replicas refuse a write.
        for work, name, x in ((WORK_A, "X", a), (WORK_B, "Y", b)):
            assert np.array_equal(native.gather_to(machine, name), x)
            block = machine.store(0).get((name, 0, 0))
            assert machine.store(0).get((work, 0, 0)) is block
            if c > 1:
                replica = machine.store(grid.rank(0, 0, 1)).get((work, 0, 0))
                assert np.shares_memory(replica, block)
                with pytest.raises(ValueError):
                    replica[0, 0] = 1.0

        peaks = machine.peak_words_per_rank()
        resident = 2 * rl * cl              # the adopted X and Y blocks
        assert peaks.max() <= sched.required_words() + resident
        refused = []
        for _ in range(2):
            with pytest.raises(MemoryBudgetExceeded) as exc_info:
                run(sched, mem_words=peaks.max() - 1, enforce_memory=True)
            refused.append((exc_info.value.rank, exc_info.value.step))
        assert refused[0] == refused[1]
        assert refused[0][1] is not None
        assert peaks[refused[0][0]] == peaks.max()


class TestGeneratedWorkloadMemory:
    """ROADMAP's oracle (f) on the same one-seed-draws-the-scenario
    net: planned >= gated >= measured for workload DAGs.  Chains and
    diamonds of 2-5 gemm / cholesky / lu nodes over shared externals
    and producer->consumer edges (a gemm may take one operand twice),
    some nodes held to one implementation, some outputs renamed, on
    P = 4, 8, 16, 64 — the unbounded plans replicate at c = 1, 2 and 4.
    The caller's layout is one block per rank, so every caller-layout
    copy is exactly ``N^2/P`` words on every rank and the plan's
    balanced assumption is the truth."""

    LABELS = {"lu": (None, ("conflux",), ("scalapack",)),
              "cholesky": (None, ("confchox",), ("scalapack",)),
              "gemm": (None,)}

    @staticmethod
    def scenario(seed):
        """``(request, out_names)``: a chain (node ``i`` consumes node
        ``i-1``) or a diamond (``x1`` and ``x2`` both consume ``x0``,
        ``x3`` multiplies them); a Cholesky only where its operand is
        known SPD (``S``, or a product ``x @ x`` of an SPD ``x``)."""
        from repro.planner import WorkloadNode, WorkloadRequest

        rng = np.random.default_rng(seed)
        p = int(rng.choice([4, 8, 16, 64]))
        n = 64 if p == 64 else int(rng.choice([32, 64]))
        count = int(rng.integers(2, 6))
        diamond = count >= 4 and bool(rng.integers(2))
        labels = TestGeneratedWorkloadMemory.LABELS
        spd, nodes = {"S"}, []
        for i in range(count):
            name = f"x{i}"
            if diamond and i == 3:
                op, inputs = "gemm", ("x1", "x2")
            else:
                src = (str(rng.choice(["A", "S"])) if i == 0
                       else "x0" if diamond and i == 2 else f"x{i - 1}")
                op = str(rng.choice(["lu", "gemm", "cholesky"]
                                    if src in spd else ["lu", "gemm"]))
                inputs = (src,)
                if op == "gemm":
                    other = str(rng.choice(
                        [src, "A", "B", "S"] + [f"x{j}" for j in range(i)]))
                    inputs = (src, other)
                    if other == src and src in spd:
                        spd.add(name)
            impls = labels[op][rng.integers(len(labels[op]))]
            nodes.append(WorkloadNode(name, op, n, inputs, impls=impls))
        out_names = {node.name: f"out:{node.name}"
                     for node in nodes if rng.integers(3) == 0}
        return WorkloadRequest(tuple(nodes), p=p), out_names

    @staticmethod
    def loaded(request, mem_words):
        """An enforcing machine holding the externals, one block per
        rank; returns it and the descriptor map."""
        from repro.layouts import ScaLAPACKDescriptor
        from repro.machine import Machine

        n, p = request.nodes[0].n, request.p
        pr, pc = largest_square_divisor(p)
        machine = Machine(p, mem_words=mem_words, enforce_memory=True)
        layout = BlockCyclicLayout(n, n, n // pr, n // pc,
                                   ProcessorGrid2D(pr, pc))
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=n // pr, nb=n // pc,
                                   prows=pr, pcols=pc)
        rng = np.random.default_rng(5)
        g = rng.standard_normal((n, n))
        matrices = {"A": rng.standard_normal((n, n)) + n * np.eye(n),
                    "B": rng.standard_normal((n, n)),
                    "S": g @ g.T + n * np.eye(n)}
        for name in request.externals():
            layout.scatter_from(machine, name, matrices[name])
        return machine, {name: desc for name in request.externals()}

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_planned_bounds_gated_bounds_measured(self, seed):
        import dataclasses

        from repro.api import run_workload
        from repro.machine import MemoryBudgetExceeded
        from repro.planner import NoFeasiblePlanError, plan_workload

        request, out_names = self.scenario(seed)
        names = [node.name for node in request.nodes]
        plan = plan_workload(request)
        planned = plan.chosen.node_peaks
        budget = max(planned)
        unit = request.nodes[0].n ** 2 / request.p

        # At the planned peak the run completes, within it.
        machine, descs = self.loaded(request, budget)
        done = run_workload(machine, plan, descs, out_names)
        peak = machine.peak_words_per_rank().max()
        assert peak <= budget
        moved = np.cumsum([0.0] + [
            done.results[name].reshuffle_words
            + done.results[name].factorization_words for name in names])
        assert moved[-1] == machine.stats.total_recv_words

        # What the gate sees at node j: the plan counts every earlier
        # output as kept; the run has freed the intermediates that
        # retired unnamed.
        last_use = request.last_use()
        gated = [planned[j] - unit * sum(
            1 for i, name in enumerate(names[:j])
            if i < last_use[name] < j and name not in out_names)
            for j in range(len(names))]
        first = planned.index(budget)
        if request.nodes[first].op == "gemm" and gated[first] == budget:
            assert peak == budget               # the SUMMA's need is exact

        # One word under: refused up front at the first node whose gate
        # no longer fits, having moved nothing since it began — or, the
        # freed intermediates making room everywhere, completed.
        machine, descs = self.loaded(request, budget - 1)
        over = [j for j, words in enumerate(gated) if words > budget - 1]
        if over:
            with pytest.raises(MemoryBudgetExceeded) as exc_info:
                run_workload(machine, plan, descs, out_names)
            exc = exc_info.value
            node = names[over[0]]
            assert exc.step == "<feasibility>"
            assert exc.key[1] == out_names.get(node, node)
            assert exc.key[2].words == exc.needed_words == gated[over[0]]
            assert machine.stats.total_recv_words == moved[over[0]]
        else:
            run_workload(machine, plan, descs, out_names)
            assert machine.peak_words_per_rank().max() <= budget - 1

        # Planning under a budget: feasible from some rung up, every
        # plan within its budget, a refusal naming a node and a peak
        # the budget is under.  (Three candidates a node keep the
        # five-node searches at 3^5 assignments a rung.)
        feasible = []
        for rung in np.linspace(0.25, 1.0, 12) * budget:
            asked = dataclasses.replace(request, mem_words=float(rung))
            try:
                tight = plan_workload(asked, top_k=3)
            except NoFeasiblePlanError as err:
                assert err.node in names and err.peak_words > rung
                feasible.append(False)
            else:
                assert max(tight.chosen.node_peaks) <= rung
                feasible.append(True)
        assert feasible == sorted(feasible) and feasible[-1]

    @staticmethod
    def with_sibling(request, seed):
        """``request`` with (on a coin flip, and within five nodes) one
        node repeated under a new name right behind the original — same
        op, operands and implementations, like the DFT chain's two
        Cholesky factorizations of ``S``."""
        rng = np.random.default_rng([seed, 1])
        nodes = list(request.nodes)
        if len(nodes) < 5 and rng.integers(2):
            at = int(rng.integers(len(nodes)))
            nodes.insert(at + 1, dataclasses.replace(
                nodes[at], name=nodes[at].name + "b"))
        return dataclasses.replace(request, nodes=tuple(nodes))

    def test_best_first_search_is_the_sorted_product(self):
        """``plan_workload`` scores a corner of the candidate product;
        ``tests/workload_oracle.py`` scores and sorts all of it.  Same
        ``ranked``, ``independent`` and refusal on the generated DAGs,
        unbounded and down a budget ladder — and the net does reach
        equal siblings, tied ``predicted_words``, refusals, and budgets
        only the leanest second pass fits."""
        seen = collections.Counter()
        for seed in range(25):
            request = self.with_sibling(self.scenario(seed)[0], seed)
            # The default top_k while the reference's product stays
            # a few hundred assignments (36, 216, 256, 243).
            wide = {2: 6, 3: 6, 4: 4, 5: 3}[len(request.nodes)]
            free, _ = brute_force_plan(request, wide)
            budget = max(free.chosen.node_peaks)
            seen["sibling"] += len({dataclasses.replace(node, name="x")
                                    for node in request.nodes}
                                   ) < len(request.nodes)
            seen["tied"] += any(
                a.predicted_words == b.predicted_words
                for plan in free.node_plans
                for a, b in zip(plan.ranked[:3], plan.ranked[1:3]))
            asked = [(request, wide, 8)] + [
                (dataclasses.replace(request, mem_words=float(rung)),
                 *((3, 8), (2, 3))[k % 2])
                for k, rung in enumerate(np.linspace(0.4, 1.0, 8) * budget)]
            for req, top_k, keep in asked:
                passes = assert_search_equals_product(req, top_k, keep)
                seen["refused"] += passes == 0
                seen["second pass"] += passes == 2
        assert all(seen[what] >= 3 for what in
                   ("sibling", "tied", "refused", "second pass")), seen
