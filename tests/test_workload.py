"""Tests for workload-DAG planning and execution (repro.planner.workload
+ repro.api.run_workload).

The load-bearing contracts:

* a single-node workload plans **bit-identically** to the standalone
  planner — the joint layer adds cross-stage accounting, it never
  changes per-call ranking;
* the jointly chosen assignment never charges more counted words than
  independent per-call planning (every standalone winner is in the
  joint search space);
* the planning model and the execution agree: repeated native layouts
  of a shared operand are free (the run adopts resident tiles), and a
  workload whose stages cannot share counts exactly what the
  equivalent sequence of pd* calls counts;
* native-copy residency is bounded — nothing with ``:native`` in its
  key survives the run, and retired intermediates free their
  caller-layout tiles too.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.harness import dft_workload_request, workload_case
from repro.api import pdpotrf, run_workload
from repro.layouts import (
    BlockCyclicLayout,
    ScaLAPACKDescriptor,
    conversion_words,
)
from repro.machine import LayoutError, Machine, ProcessorGrid2D
from repro.planner import (
    NoFeasiblePlanError,
    PlanAtlas,
    PlanRequest,
    PlanService,
    WorkloadNode,
    WorkloadRequest,
    plan_request,
    plan_workload,
)
from repro.runtime import ProcessPoolSweepExecutor, SerialExecutor, SweepTask
from oracle import redistribution_volume
from workload_oracle import assert_search_equals_product

NODE_M = 32 * 2 ** 30 / 8

#: ``(n, p, budget, top_k, keep, passes)`` of DFT chains for the
#: search-vs-product comparison, budgets at n = 128 in units of
#: ``n^2/P``: the two ledger chains, an unbounded one, two that only the
#: leanest pass fits (``passes`` 2), one asking for more than the product
#: holds, and three refusals (``passes`` 0: a node with no candidate,
#: twice; a frontier overflowing in both passes).
DFT_SEARCHES = [
    (16384, 1024, NODE_M, 6, 8, 1),
    (65536, 1024, NODE_M, 6, 8, 1),
    (4096, 64, None, 6, 8, 1),
    (128, 16, 10.0 * 1024, 3, 8, 2),
    (128, 16, 10.5 * 1024, 3, 20, 2),
    (128, 16, 16.5 * 1024, 2, 40, 1),
    (128, 16, 8.0 * 1024, 6, 8, 0),
    (128, 16, 9.5 * 1024, 6, 8, 0),
    (16384, 64, 100.0, 6, 8, 0),
]


def chol_pair(impls_f1=None, impls_f2=None, n=64, p=4):
    """Two Cholesky factorizations of one shared SPD external."""
    return WorkloadRequest((
        WorkloadNode("f1", "cholesky", n, ("S",), impls=impls_f1),
        WorkloadNode("f2", "cholesky", n, ("S",), impls=impls_f2),
    ), p=p)


def scatter_spd(machine, n=64, mb=16, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    s = g @ g.T + n * np.eye(n)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=mb, nb=mb, prows=2, pcols=2)
    layout = BlockCyclicLayout(n, n, mb, mb, ProcessorGrid2D(2, 2))
    layout.scatter_from(machine, "S", s)
    return desc, s


def native_keys(machine):
    return [key for rank in range(machine.nranks)
            for key in machine.store(rank).keys()
            if isinstance(key, tuple) and ":native" in key[0]]


class TestWorkloadNode:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            WorkloadNode("", "lu", 64, ("A",))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            WorkloadNode("x", "qr", 64, ("A",))

    def test_arity_enforced(self):
        with pytest.raises(ValueError, match="takes 2 operand"):
            WorkloadNode("x", "gemm", 64, ("A",))
        with pytest.raises(ValueError, match="takes 1 operand"):
            WorkloadNode("x", "lu", 64, ("A", "B"))

    def test_default_impls_normalize_to_none(self):
        spelled = WorkloadNode("x", "lu", 64, ("A",),
                               impls=("conflux", "scalapack"))
        assert spelled == WorkloadNode("x", "lu", 64, ("A",))
        assert spelled.impls is None

    def test_restricted_impls_stay(self):
        node = WorkloadNode("x", "lu", 64, ("A",), impls=["conflux"])
        assert node.impls == ("conflux",)

    @pytest.mark.parametrize("op,inputs,impls,valid", [
        ("lu", ("A",), ("conflx",), "conflux, scalapack"),
        ("cholesky", ("A",), ("conflux",), "confchox, scalapack"),
        ("gemm", ("A", "B"), ("bogus",), "25d"),
    ])
    def test_unknown_impls_name_the_valid_labels(self, op, inputs, impls,
                                                 valid):
        with pytest.raises(ValueError, match=valid):
            WorkloadNode("x", op, 64, inputs, impls=impls)


class TestWorkloadRequest:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            WorkloadRequest((), p=4)

    def test_duplicate_node_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate node name"):
            WorkloadRequest((WorkloadNode("x", "lu", 64, ("A",)),
                             WorkloadNode("x", "lu", 64, ("A",))), p=4)

    def test_self_consumption_rejected(self):
        with pytest.raises(ValueError, match="consumes itself"):
            WorkloadRequest((WorkloadNode("x", "lu", 64, ("x",)),), p=4)

    def test_forward_reference_rejected(self):
        # "y" reads as an external for node x, then node y reuses the
        # name — topological order is part of the contract.
        with pytest.raises(ValueError, match="already used as an external"):
            WorkloadRequest((WorkloadNode("x", "lu", 64, ("y",)),
                             WorkloadNode("y", "lu", 64, ("A",))), p=4)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            WorkloadRequest((WorkloadNode("x", "lu", 64, ("A",)),
                             WorkloadNode("y", "lu", 128, ("x",))), p=4)

    def test_infinite_budget_normalizes_to_none(self):
        req = WorkloadRequest((WorkloadNode("x", "lu", 64, ("A",)),),
                              p=4, mem_words=math.inf)
        assert req.mem_words is None
        assert req.budget == math.inf

    def test_externals_and_producers(self):
        req = dft_workload_request(64, 4)
        assert req.externals() == ("A", "B", "S")
        assert req.producers() == {"k": 0, "f1": 1, "f2": 2, "lu": 3}

    def test_token_distinguishes_every_field(self):
        base = dft_workload_request(64, 4)
        variants = [
            dft_workload_request(128, 4),
            dft_workload_request(64, 16),
            dft_workload_request(64, 4, mem_words=NODE_M),
            WorkloadRequest(base.nodes[:-1], p=4),
            WorkloadRequest(base.nodes[:-1] + (WorkloadNode(
                "lu", "lu", 64, ("k",), impls=("conflux",)),), p=4),
        ]
        tokens = {base.token()} | {v.token() for v in variants}
        assert len(tokens) == 1 + len(variants)

    def test_node_requests_hold_externals_and_earlier_outputs(self):
        """Node ``k`` is planned holding every external and the ``k``
        outputs before it; an operand retires after its last user."""
        req = dft_workload_request(64, 4)
        assert [r.api_copies for r in req.node_requests()] == [3, 4, 5, 6]
        assert req.last_use() == {"A": 0, "B": 0, "S": 2, "k": 3,
                                  "f1": 1, "f2": 2, "lu": 3}

    @pytest.mark.parametrize("op,inputs", [("lu", ("A",)),
                                           ("cholesky", ("A",)),
                                           ("gemm", ("A", "B"))])
    def test_one_node_peak_is_the_plan_requests_requirement(self, op,
                                                           inputs):
        """A pd* call is the one-node workload: the joint planner's
        peak for it is what ``plan_request`` says the call needs."""
        req = WorkloadRequest((WorkloadNode("x", op, 128, inputs),), p=16)
        plan = plan_workload(req)
        [node_request] = req.node_requests()
        assert node_request.api_copies == len(inputs)
        standalone = plan_request(node_request)
        assert plan.chosen.configs == (standalone.chosen,)
        assert plan.chosen.node_peaks == (standalone.chosen.required_words,)


class TestConversionWords:
    def pairs(self):
        rng = np.random.default_rng(11)
        grids = [(1, 4), (2, 2), (4, 2), (3, 3)]
        for _ in range(12):
            n = int(rng.integers(16, 97))
            g1 = grids[int(rng.integers(len(grids)))]
            g2 = grids[int(rng.integers(len(grids)))]
            src = BlockCyclicLayout(n, n, int(rng.integers(1, 17)),
                                    int(rng.integers(1, 17)),
                                    ProcessorGrid2D(*g1))
            dst = BlockCyclicLayout(n, n, int(rng.integers(1, 17)),
                                    int(rng.integers(1, 17)),
                                    ProcessorGrid2D(*g2))
            yield src, dst
        shapes = [
            # One block per rank against small tiles.
            ((96, 96, 48, 24, (2, 4)), (96, 96, 4, 4, (3, 3))),
            # Rectangular, m != n.
            ((72, 40, 6, 5, (3, 2)), (72, 40, 4, 8, (2, 4))),
            # Extents no multiple of either period (lcm 120 and 24).
            ((250, 131, 5, 3, (3, 2)), (250, 131, 4, 4, (2, 3))),
            # Co-prime grids.
            ((120, 120, 4, 3, (3, 5)), (120, 120, 5, 2, (4, 2))),
            # Blocks larger than the matrix.
            ((30, 50, 40, 7, (2, 3)), (30, 50, 3, 64, (4, 2))),
        ]
        for (m, n, mb, nb, g1), (_, _, mb2, nb2, g2) in shapes:
            src = BlockCyclicLayout(m, n, mb, nb, ProcessorGrid2D(*g1))
            dst = BlockCyclicLayout(m, n, mb2, nb2, ProcessorGrid2D(*g2))
            yield src, dst
            yield dst, src

    def test_matches_redistribution_volume(self):
        for src, dst in self.pairs():
            closed = conversion_words(src, dst)
            reference = redistribution_volume(src, dst).sum()
            assert closed == reference

    def test_summa_against_small_tiles_walks_blocks_not_indices(self):
        """O(coarse blocks per period x grid dimension): the SUMMA's one
        block per rank against 4-wide tiles at n = 65536 allocates no
        n-long array (which alone would be 512 KiB of int64)."""
        import tracemalloc

        n = 65536
        summa = BlockCyclicLayout(n, n, n // 8, n // 16, ProcessorGrid2D(8, 16))
        tiles = BlockCyclicLayout(n, n, 4, 4, ProcessorGrid2D(16, 16))
        for src, dst in [(summa, tiles), (tiles, summa)]:
            conversion_words(src, dst)
            tracemalloc.start()
            try:
                words = conversion_words(src, dst)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024
            # Both grids have 16 columns, so the owners agree iff their
            # grid rows and columns do: n/16 rows (block i of 8 192 meets
            # its 4-row stripe 128 times) and n/16 columns, likewise.
            assert words == n * n - (n // 16) ** 2

    def test_identical_layouts_are_free(self):
        lay = BlockCyclicLayout(64, 64, 16, 16, ProcessorGrid2D(2, 2))
        assert conversion_words(lay, lay) == 0.0

    def test_mismatched_extents_rejected(self):
        a = BlockCyclicLayout(64, 64, 16, 16, ProcessorGrid2D(2, 2))
        b = BlockCyclicLayout(32, 64, 16, 16, ProcessorGrid2D(2, 2))
        with pytest.raises(LayoutError):
            conversion_words(a, b)


class TestPlanWorkload:
    def test_single_node_bit_identical_to_plan_request(self):
        req = WorkloadRequest((WorkloadNode("x", "lu", 4096, ("A",)),),
                              p=64, mem_words=NODE_M)
        plan = plan_workload(req)
        standalone = plan_request(PlanRequest("lu", 4096, 64, NODE_M,
                                              api_copies=1))
        assert plan.node_plans[0] == standalone
        assert plan.chosen.configs == (standalone.chosen,)
        assert plan.chosen.conversion_words == 0.0
        assert plan.chosen.node_words == standalone.chosen.predicted_words

    def test_joint_never_exceeds_independent(self):
        for n, p in [(4096, 64), (16384, 64), (16384, 1024)]:
            plan = plan_workload(dft_workload_request(n, p))
            assert (plan.chosen.total_words
                    <= plan.independent.total_words)

    def test_shared_operand_amortized_once(self):
        # Identical cholesky nodes agree on a layout: the second
        # consumer of S is free, so no conversion is charged at all.
        plan = plan_workload(chol_pair())
        first, second = plan.chosen.configs      # f2 also holds f1
        assert (first.impl, first.params) == (second.impl, second.params)
        assert plan.chosen.conversion_words == 0.0
        assert plan.chosen.edges == ()

    def test_forced_disagreement_charges_conversion(self):
        plan = plan_workload(chol_pair(impls_f1=("confchox",),
                                       impls_f2=("scalapack",)))
        if plan.chosen.conversion_words > 0:
            (edge,) = plan.chosen.edges
            assert (edge.consumer, edge.operand) == ("f2", "S")

    def test_deterministic(self):
        a = plan_workload(dft_workload_request(4096, 64))
        b = plan_workload(dft_workload_request(4096, 64))
        assert a == b

    def test_infeasible_budget_raises(self):
        with pytest.raises(NoFeasiblePlanError):
            plan_workload(dft_workload_request(16384, 64, mem_words=100.0))

    @pytest.mark.parametrize("arg", ["top_k", "keep"])
    def test_top_k_and_keep_must_be_positive(self, arg):
        # top_k=0 used to die on scored[0]; keep=0 returned the whole
        # product because len(ranked) == keep never fired.
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"{arg} must be at least 1"):
                plan_workload(chol_pair(), **{arg: value})

    @pytest.mark.parametrize("n, p, mem, top_k, keep, passes", DFT_SEARCHES)
    def test_best_first_search_equals_the_sorted_product(
            self, n, p, mem, top_k, keep, passes):
        assert assert_search_equals_product(
            dft_workload_request(n, p, mem), top_k, keep) == passes

    def test_the_search_scores_and_reduces_only_what_the_answer_needs(
            self, tel):
        # Counts, not timings: 1 296 assignments in the product, the two
        # equal Cholesky nodes' 15 candidates reduced once.
        plan_workload(dft_workload_request(16384, 1024, NODE_M))
        counts = tel.metrics.snapshot()
        assert counts["planner.assignments_scored"] <= 100
        assert counts["planner.candidates"] == 67
        assert counts["planner.schedules_reduced"] == 52

    def test_a_capped_search_ranks_what_it_scored(self, monkeypatch, tel):
        # Past the cap the search drains, in order, what it has — every
        # node's winner (the lowest bound, scored first) included.
        from repro.planner import workload

        monkeypatch.setattr(workload, "_MAX_SCORED", 5)
        plan = plan_workload(dft_workload_request(4096, 64))
        assert tel.metrics.snapshot()["planner.assignments_scored"] == 5
        totals = [a.total_words for a in plan.ranked]
        assert totals == sorted(totals) and len(totals) == 5
        assert plan.independent in plan.ranked

    def test_ranked_sorted_and_capped(self):
        plan = plan_workload(dft_workload_request(4096, 64), keep=4)
        totals = [a.total_words for a in plan.ranked]
        assert totals == sorted(totals)
        assert len(plan.ranked) <= 4

    def test_plan_summary(self):
        plan = plan_workload(dft_workload_request(4096, 64))
        assert "workload[4 nodes]" in plan.summary()


class TestServiceWorkload:
    def test_lru_round_trip(self):
        service = PlanService()
        req = dft_workload_request(4096, 64)
        first = service.plan_workload(req)
        second = service.plan_workload(req)
        assert first == second == plan_workload(req)
        assert service.stats.live_plans == 1
        assert service.stats.lru_hits == 1

    def test_atlas_round_trip(self, tmp_path):
        atlas = PlanAtlas(tmp_path / "atlas")
        req = dft_workload_request(4096, 64)
        stats = atlas.build([req])
        assert stats.built == 1
        service = PlanService(atlas=atlas)
        assert service.plan_workload(req) == plan_workload(req)
        assert service.stats.atlas_hits == 1
        assert service.stats.live_plans == 0

    def test_infeasible_cached_and_replayed(self):
        service = PlanService()
        req = dft_workload_request(16384, 64, mem_words=100.0)
        for _ in range(2):
            with pytest.raises(NoFeasiblePlanError):
                service.plan_workload(req)
        assert service.stats.live_plans == 1

    def test_threads_share_one_joint_plan(self):
        service = PlanService()
        req = dft_workload_request(4096, 64)
        with ThreadPoolExecutor(max_workers=4) as pool:
            plans = list(pool.map(service.plan_workload, [req] * 4,
                                  timeout=60))
        assert plans == [plan_workload(req)] * 4
        assert service.stats.live_plans == 1
        assert service.stats.lru_hits == 3


class TestRunWorkload:
    def test_dft_chain_correct_and_reuses(self):
        n, p = 64, 4
        machine = Machine(p)
        desc, s = scatter_spd(machine, n=n)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal((n, n)) + n * np.eye(n)
        layout = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
        layout.scatter_from(machine, "A", a)
        layout.scatter_from(machine, "B", b)
        result = run_workload(machine, dft_workload_request(n, p),
                              {"A": desc, "B": desc, "S": desc})
        lchol = result.results["f1"].lower
        assert (np.linalg.norm(s - lchol @ lchol.T)
                / np.linalg.norm(s) < 1e-12)
        k = a @ b
        lu = result.results["lu"]
        assert (np.linalg.norm(k[lu.perm] - lu.lower @ lu.upper)
                / np.linalg.norm(k) < 1e-12)
        # f2 adopts the native S tiles f1 prepped; lu adopts k's
        # written-back native factors when the layouts agree.
        assert ("f2", "S") in result.reused
        # Identical nodes produce identical counted factorizations.
        assert (result.results["f1"].factorization_words
                == result.results["f2"].factorization_words)

    def test_no_native_keys_survive(self):
        machine = Machine(4)
        desc, _ = scatter_spd(machine)
        run_workload(machine, chol_pair(), {"S": desc})
        assert native_keys(machine) == []

    def test_dft_chain_leaves_externals_and_outputs_only(self):
        """No node's working set (``work_name`` keys: tiles, replicas,
        SUMMA chunks) outlives it: what stays is the three externals
        and the three outputs nobody consumed, each one caller-layout
        copy.  Regression: several N^2 dead words stayed beside them."""
        n, p = 64, 4
        machine = Machine(p)
        desc, _ = scatter_spd(machine, n=n)
        rng = np.random.default_rng(5)
        layout = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
        for name in "AB":
            layout.scatter_from(
                machine, name, rng.standard_normal((n, n)) + n * np.eye(n))
        run_workload(machine, dft_workload_request(n, p),
                     {"A": desc, "B": desc, "S": desc})
        names = {key[0] for store in machine.stores for key in store.keys()}
        assert names == {"A", "B", "S", "f1", "f2", "lu"}
        assert np.array_equal(machine.words_per_rank(),
                              6 * layout.words_per_rank())

    def test_retired_intermediate_freed_terminal_kept(self):
        n, p = 64, 4
        machine = Machine(p)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16,
                                   prows=2, pcols=2)
        layout = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
        layout.scatter_from(machine, "A", a)
        req = WorkloadRequest((WorkloadNode("f", "lu", n, ("A",)),
                               WorkloadNode("g", "lu", n, ("f",))), p=p)
        result = run_workload(machine, req, {"A": desc})
        keys = {key[0] for rank in range(p)
                for key in machine.store(rank).keys()
                if isinstance(key, tuple)}
        assert "f" not in keys          # consumed intermediate freed
        assert "g" in keys              # terminal output resident
        assert "A" in keys              # caller's tiles untouched
        # ...but its dense factors are still on the PDResult.
        assert result.results["f"].lower is not None

    def test_out_names_keep_intermediate(self):
        n, p = 64, 4
        machine = Machine(p)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16,
                                   prows=2, pcols=2)
        layout = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
        layout.scatter_from(machine, "A", a)
        req = WorkloadRequest((WorkloadNode("f", "lu", n, ("A",)),
                               WorkloadNode("g", "lu", n, ("f",))), p=p)
        result = run_workload(machine, req, {"A": desc},
                              out_names={"f": "keep_f"})
        keys = {key[0] for rank in range(p)
                for key in machine.store(rank).keys()
                if isinstance(key, tuple)}
        assert "keep_f" in keys
        assert np.allclose(result.gather("f"),
                           np.tril(result.results["f"].lower, -1)
                           + result.results["f"].upper)

    def test_counted_parity_with_sequential_calls_when_layouts_differ(
            self):
        """A workload whose stages cannot share a layout counts exactly
        what the same pd* calls count one by one."""
        req = chol_pair(impls_f1=("confchox",), impls_f2=("scalapack",))
        machine = Machine(4)
        desc, _ = scatter_spd(machine)
        plan = plan_workload(req)
        result = run_workload(machine, plan, {"S": desc})
        assert result.reused == ()
        workload_counted = result.reshuffle_words + sum(
            r.factorization_words for r in result.results.values())

        sequential = Machine(4)
        scatter_spd(sequential)
        seq_counted = 0.0
        for name, config in zip(("f1", "f2"), plan.chosen.configs):
            r = pdpotrf(sequential, "S", desc, out_name=name, plan=config)
            seq_counted += r.reshuffle_words + r.factorization_words
        assert workload_counted == seq_counted

    def test_shared_layout_counts_strictly_less_than_sequential(self):
        req = chol_pair()
        machine = Machine(4)
        desc, _ = scatter_spd(machine)
        plan = plan_workload(req)
        result = run_workload(machine, plan, {"S": desc})
        assert result.reused == (("f2", "S"),)
        workload_counted = result.reshuffle_words + sum(
            r.factorization_words for r in result.results.values())

        sequential = Machine(4)
        scatter_spd(sequential)
        seq_counted = 0.0
        for name, config in zip(("f1", "f2"), plan.chosen.configs):
            r = pdpotrf(sequential, "S", desc, out_name=name, plan=config)
            seq_counted += r.reshuffle_words + r.factorization_words
        assert workload_counted < seq_counted

    def test_wrong_rank_count_rejected(self):
        machine = Machine(8)
        desc, _ = scatter_spd(machine)
        with pytest.raises(ValueError, match="P=4"):
            run_workload(machine, plan_workload(chol_pair(p=4)),
                         {"S": desc})

    def test_missing_external_rejected(self):
        machine = Machine(4)
        with pytest.raises(ValueError, match="missing external"):
            run_workload(machine, chol_pair(), {})

    def test_bare_request_inherits_machine_budget(self):
        # Just enough for the scattered operand (N^2/P = 1024 words per
        # rank), far too little for any schedule's working set.
        machine = Machine(4, mem_words=1100.0, enforce_memory=True)
        desc, _ = scatter_spd(machine)
        with pytest.raises(NoFeasiblePlanError):
            run_workload(machine, chol_pair(), {"S": desc})


class TestWorkloadSweepTask:
    def test_workload_case_row_shape(self):
        row = workload_case(4096, 64, mem_words=NODE_M)
        assert row["joint_words"] <= row["independent_words"]
        assert "exec_checksum" not in row

    def test_executed_row_deterministic(self):
        a = workload_case(64, 4, execute=True)
        b = workload_case(64, 4, execute=True)
        assert a == b
        assert a["exec_checksum"] > 0
        assert a["reused"] >= 1

    def test_executed_row_on_the_pool_equals_serial(self):
        """Workload execution is deterministic across executors: the
        pool's row — joint and independent words, reuse count and the
        checksum over counted traffic and dense factors — equals the
        serial one."""
        tasks = [SweepTask("workload", "dft", 64, 4,
                           extra=(("execute", True),))]
        serial = SerialExecutor().run(tasks)
        with ProcessPoolSweepExecutor(2) as pool:
            assert pool.run(tasks) == serial
        assert serial[0]["exec_checksum"] > 0
