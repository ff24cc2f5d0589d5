"""Tests for the plan atlas + service layer (repro.planner.atlas /
repro.planner.service) and the PlanRequest entry shape.

The load-bearing contract: any plan served from the atlas or through
the service's caches is **bit-identical** to what live planning would
produce for the same request — exact atlas hits replay the live
planner's pickled output, snapped hits replay a provably feasible
lattice neighbour, and a stale code fingerprint reads as a cold cache,
never as stale data.  Infeasibility must be cached and replayed, not
re-proven.
"""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.machine.perf_model import PIZ_DAINT_XC40
from repro.planner import (
    Infeasible,
    NoFeasiblePlanError,
    Plan,
    PlanAtlas,
    PlanRequest,
    PlanService,
    default_service,
    plan_batch,
    plan_cholesky,
    plan_gemm,
    plan_lu,
    plan_request,
    set_default_service,
)

#: One Piz Daint rank's memory, as in the harness.
NODE_M = 32 * 2 ** 30 / 8

#: A lattice small enough to build in milliseconds but wide enough to
#: exercise snapping (two budgets per op) and infeasibility caching
#: (the last point's budget is below N^2/P).
OPS = ("lu", "cholesky", "gemm")


def lattice() -> list[PlanRequest]:
    points = [PlanRequest(op, 4096, 64, mem, api_copies=3)
              for op in OPS for mem in (NODE_M, NODE_M / 4)]
    points += [PlanRequest(op, 16384, 64, 16384.0 ** 2 / 64 / 2,
                           api_copies=3) for op in OPS]
    return points


@pytest.fixture
def atlas(tmp_path) -> PlanAtlas:
    a = PlanAtlas(tmp_path / "atlas")
    a.build(lattice())
    return a


class TestPlanRequest:
    def test_infinite_budget_normalizes_to_none(self):
        assert (PlanRequest("lu", 4096, 64, math.inf)
                == PlanRequest("lu", 4096, 64, None))

    def test_default_impls_normalize_to_none(self):
        spelled = PlanRequest("lu", 4096, 64,
                              impls=("conflux", "scalapack"))
        assert spelled == PlanRequest("lu", 4096, 64)
        assert spelled.impls is None

    def test_restricted_impls_stay(self):
        req = PlanRequest("lu", 4096, 64, impls=["conflux"])
        assert req.impls == ("conflux",)
        assert req != PlanRequest("lu", 4096, 64)

    def test_numeric_coercion_keeps_hash_equality(self):
        a = PlanRequest("gemm", 4096.0, 64.0, 2.0 ** 20, api_copies=3.0)
        b = PlanRequest("gemm", 4096, 64, float(2 ** 20), api_copies=3)
        assert a == b and hash(a) == hash(b)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            PlanRequest("qr", 4096, 64)

    def test_budget_property(self):
        assert PlanRequest("lu", 4096, 64).budget == math.inf
        assert PlanRequest("lu", 4096, 64, NODE_M).budget == NODE_M

    def test_token_distinguishes_every_field(self):
        base = PlanRequest("lu", 4096, 64, NODE_M, api_copies=3)
        variants = [
            PlanRequest("cholesky", 4096, 64, NODE_M, api_copies=3),
            PlanRequest("lu", 8192, 64, NODE_M, api_copies=3),
            PlanRequest("lu", 4096, 256, NODE_M, api_copies=3),
            PlanRequest("lu", 4096, 64, NODE_M / 2, api_copies=3),
            PlanRequest("lu", 4096, 64, NODE_M, api_copies=4),
            PlanRequest("lu", 4096, 64, NODE_M, api_copies=3,
                        impls=("conflux",)),
        ]
        tokens = {base.token()} | {v.token() for v in variants}
        assert len(tokens) == 1 + len(variants)


class TestPlanRequestRouting:
    """plan_request / plan_batch vs the historical plan_* wrappers."""

    def test_wrappers_equal_request_path(self):
        assert (plan_lu(4096, 64, mem_words=NODE_M, api_copies=3)
                == plan_request(PlanRequest("lu", 4096, 64, NODE_M,
                                            api_copies=3)))
        assert (plan_cholesky(4096, 64, mem_words=NODE_M, api_copies=3)
                == plan_request(PlanRequest("cholesky", 4096, 64, NODE_M,
                                            api_copies=3)))
        assert (plan_gemm(4096, 64, mem_words=NODE_M, api_copies=3)
                == plan_request(PlanRequest("gemm", 4096, 64, NODE_M,
                                            api_copies=3)))

    def test_batch_bit_identical_to_sequential(self):
        requests = [r for r in lattice() if r.n == 4096]
        batched = plan_batch(requests)
        assert batched == [plan_request(r) for r in requests]

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("change", [{"api_copies": 0},
                                        {"mem_words": 12 * 4096 ** 2 / 64}])
    def test_batch_shares_reductions_across_copies_and_budgets(
            self, op, change, tel):
        # A schedule's cost terms depend on neither field: the pair
        # reduces each distinct schedule once, and plans as if alone.
        first = PlanRequest(op, 4096, 64, NODE_M, api_copies=3)
        second = dataclasses.replace(first, **change)
        alone = [plan_request(first), plan_request(second)]
        assert alone[0] != alone[1]
        tel.metrics.reset()
        assert plan_batch([first, second]) == alone
        counts = tel.metrics.snapshot()
        assert counts["planner.candidates"] == sum(
            len(plan.ranked) for plan in alone)
        assert counts["planner.schedules_reduced"] == max(
            len(plan.ranked) for plan in alone)

    def test_batch_strict_false_marks_infeasible_slots(self):
        requests = [PlanRequest("lu", 4096, 64, NODE_M, api_copies=3),
                    PlanRequest("lu", 16384, 64, 100.0, api_copies=3)]
        plans = plan_batch(requests, strict=False)
        assert isinstance(plans[0], Plan)
        assert plans[1] is None

    def test_batch_strict_raises(self):
        with pytest.raises(NoFeasiblePlanError):
            plan_batch([PlanRequest("lu", 16384, 64, 100.0)])


class TestAtlas:
    def test_exact_hit_bit_identical_to_live(self, atlas):
        for req in lattice()[:6]:
            assert atlas.get(req) == plan_request(req)

    def test_miss_returns_none(self, atlas):
        assert atlas.get(PlanRequest("lu", 8192, 64, NODE_M)) is None

    def test_build_is_resumable(self, atlas):
        stats = atlas.build(lattice())
        assert stats.built == 0
        assert stats.reused == stats.points == len(lattice())

    def test_incremental_build_extends_manifest(self, atlas):
        extra = PlanRequest("lu", 8192, 256, NODE_M, api_copies=3)
        before = len(atlas.manifest())
        stats = atlas.build([extra])
        assert stats.built == 1
        assert len(atlas.manifest()) == before + 1
        assert atlas.get(extra) == plan_request(extra)

    def test_infeasible_point_stored_as_marker(self, atlas):
        req = PlanRequest("lu", 16384, 64, 16384.0 ** 2 / 64 / 2,
                          api_copies=3)
        stored = atlas.get(req)
        assert isinstance(stored, Infeasible)
        assert "16384" in stored.message

    def test_stale_fingerprint_reads_cold(self, tmp_path):
        root = tmp_path / "atlas"
        req = PlanRequest("lu", 4096, 64, NODE_M, api_copies=3)
        PlanAtlas(root, fingerprint="v1").build([req])
        stale = PlanAtlas(root, fingerprint="v2")
        assert stale.get(req) is None
        assert stale.manifest() == ()
        # The original fingerprint still reads warm.
        assert PlanAtlas(root, fingerprint="v1").get(req) is not None

    def test_snap_candidates_dominated_and_sorted(self, atlas):
        # Off-lattice budget between the two lu lattice budgets: only
        # the smaller lattice point dominates (NODE_M does not fit).
        query = PlanRequest("lu", 4096, 64, NODE_M / 2, api_copies=3)
        cands = atlas.snap_candidates(query)
        assert cands == [PlanRequest("lu", 4096, 64, NODE_M / 4,
                                     api_copies=3)]
        # A budget above both lattice points sees both, largest first.
        wide = atlas.snap_candidates(
            PlanRequest("lu", 4096, 64, 2 * NODE_M, api_copies=3))
        assert [c.mem_words for c in wide] == [NODE_M, NODE_M / 4]

    def test_snap_candidates_respect_identity_fields(self, atlas):
        # Different api_copies (or op, n, p) is a different question.
        assert atlas.snap_candidates(
            PlanRequest("lu", 4096, 64, NODE_M / 2, api_copies=4)) == []
        assert atlas.snap_candidates(
            PlanRequest("lu", 4096, 128, NODE_M / 2, api_copies=3)) == []


class TestServiceResolution:
    def test_lru_counters(self):
        service = PlanService()
        req = PlanRequest("lu", 4096, 64, NODE_M, api_copies=3)
        first = service.plan(req)
        assert (service.stats.lru_misses, service.stats.live_plans) == (1, 1)
        second = service.plan(req)
        assert service.stats.lru_hits == 1
        assert service.stats.live_plans == 1   # no re-planning
        assert first == second == plan_request(req)
        assert service.stats.served == 2
        assert service.stats.hit_rate == 0.5

    @pytest.mark.parametrize("op", OPS)
    def test_live_plan_is_the_batch_of_one(self, op):
        """A miss plans exactly what ``plan_batch`` of the one request
        does: no batching with other queries changes the answer."""
        req = PlanRequest(op, 4096, 64, NODE_M / 2, api_copies=3)
        assert PlanService().plan(req) == plan_batch([req])[0]

    def test_every_lattice_point_served_as_built(self, atlas):
        service = PlanService(atlas=atlas)
        for req in lattice():
            stored = atlas.get(req)
            if isinstance(stored, Infeasible):
                with pytest.raises(NoFeasiblePlanError):
                    service.plan(req)
            else:
                assert service.plan(req) == stored == plan_request(req)
        assert service.stats.atlas_hits == len(lattice())
        assert service.stats.live_plans == 0

    def test_infeasible_request_leaves_the_lru_intact(self):
        service = PlanService()
        ok = PlanRequest("lu", 4096, 64, NODE_M, api_copies=3)
        bad = PlanRequest("lu", 16384, 64, 100.0)
        first = service.plan(ok)
        with pytest.raises(NoFeasiblePlanError, match="16384"):
            service.plan(bad)
        assert service.plan(ok) == first
        assert len(service) == 2
        assert service.stats.live_plans == 2
        assert service.stats.lru_hits == 1

    def test_atlas_hit_bit_identical_and_counted(self, atlas):
        service = PlanService(atlas=atlas)
        req = PlanRequest("cholesky", 4096, 64, NODE_M, api_copies=3)
        assert service.plan(req) == plan_request(req)
        assert service.stats.atlas_hits == 1
        assert service.stats.live_plans == 0

    def test_snap_serves_dominated_lattice_plan(self, atlas):
        service = PlanService(atlas=atlas)
        query = PlanRequest("lu", 4096, 64, NODE_M / 2, api_copies=3)
        served = service.plan(query)
        assert service.stats.atlas_snaps == 1
        assert service.stats.live_plans == 0
        lattice_point = PlanRequest("lu", 4096, 64, NODE_M / 4,
                                    api_copies=3)
        assert served == atlas.get(lattice_point)
        # Deterministic: a second fresh service snaps identically.
        assert PlanService(atlas=atlas).plan(query) == served

    def test_snap_below_lattice_falls_back_live(self, atlas):
        service = PlanService(atlas=atlas)
        query = PlanRequest("lu", 4096, 64, NODE_M / 8, api_copies=3)
        assert service.plan(query) == plan_request(query)
        assert service.stats.live_plans == 1
        assert service.stats.atlas_snaps == 0

    def test_snap_never_serves_infeasible_marker(self, atlas):
        """An infeasible smaller budget proves nothing about a larger
        one: the snap loop must skip the marker and plan live."""
        service = PlanService(atlas=atlas)
        query = PlanRequest("lu", 16384, 64, NODE_M, api_copies=3)
        assert isinstance(service.plan(query), Plan)
        assert service.stats.live_plans == 1

    def test_exact_infeasible_hit_replays_without_planning(self, atlas):
        service = PlanService(atlas=atlas)
        req = PlanRequest("lu", 16384, 64, 16384.0 ** 2 / 64 / 2,
                          api_copies=3)
        with pytest.raises(NoFeasiblePlanError):
            service.plan(req)
        assert service.stats.live_plans == 0

    def test_infeasibility_cached_in_lru(self):
        service = PlanService()
        req = PlanRequest("lu", 16384, 64, 100.0)
        for _ in range(2):
            with pytest.raises(NoFeasiblePlanError):
                service.plan(req)
        assert service.stats.live_plans == 1

    def test_lru_eviction(self):
        service = PlanService(lru_size=2)
        reqs = [PlanRequest("lu", 4096, 64, NODE_M, api_copies=k)
                for k in range(3)]
        for req in reqs:
            service.plan(req)
        assert len(service) == 2
        service.plan(reqs[0])               # evicted: plans live again
        assert service.stats.live_plans == 4

    def test_cache_clear(self):
        service = PlanService()
        req = PlanRequest("lu", 4096, 64, NODE_M)
        service.plan(req)
        service.cache_clear()
        assert len(service) == 0
        service.plan(req)
        assert service.stats.live_plans == 2

    def test_mismatched_machine_params_rejected(self, atlas):
        other = dataclasses.replace(
            PIZ_DAINT_XC40, latency_s=PIZ_DAINT_XC40.latency_s * 2)
        with pytest.raises(ValueError, match="machine_params"):
            PlanService(atlas=atlas, machine_params=other)


class TestConcurrency:
    """The service's state sits behind one lock: threads querying the
    same request must live-plan it exactly once and keep the counters
    consistent — no torn LRU, no double planning."""

    def test_concurrent_same_request_plans_once(self, monkeypatch):
        import time

        from repro.planner import atlas as atlas_mod

        calls = []
        real_plan_batch = atlas_mod.plan_batch

        def slow_plan_batch(requests, **kwargs):
            calls.append(tuple(requests))
            # Widen the race window: without the lock, every waiter
            # reaches live planning before the first answer lands.
            time.sleep(0.02)
            return real_plan_batch(requests, **kwargs)

        monkeypatch.setattr(atlas_mod, "plan_batch", slow_plan_batch)
        service = PlanService()
        req = PlanRequest("lu", 4096, 64, NODE_M, api_copies=3)
        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(service.plan, [req] * 8, timeout=60))
        assert len(calls) == 1
        assert all(p == plans[0] for p in plans)
        assert plans[0] == plan_request(req)
        assert service.stats.live_plans == 1
        assert service.stats.lru_hits == 7
        assert service.stats.served == 8

    def test_concurrent_mixed_requests_consistent(self):
        service = PlanService()
        requests = [PlanRequest(op, 4096, 64, NODE_M, api_copies=3)
                    for op in OPS]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                plans = list(pool.map(service.plan, requests * 6,
                                      timeout=60))
        finally:
            sys.setswitchinterval(interval)
        expected = [plan_request(r) for r in requests]
        assert plans == expected * 6
        # Each unique request was live-planned exactly once, whatever
        # the interleaving; every other resolution hit the LRU.
        assert service.stats.live_plans == len(requests)
        assert service.stats.served == 6 * len(requests)

    def test_concurrent_infeasible_request_proven_once(self):
        service = PlanService()
        req = PlanRequest("lu", 16384, 64, 100.0)

        def outcome(_):
            try:
                return service.plan(req)
            except NoFeasiblePlanError as err:
                return err

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(outcome, range(8), timeout=60))
        assert all(isinstance(o, NoFeasiblePlanError) for o in outcomes)
        assert service.stats.live_plans == 1
        assert service.stats.lru_hits == 7

    def test_concurrent_atlas_reads_consistent(self, atlas):
        service = PlanService(atlas=atlas)
        requests = [r for r in lattice() if r.n == 4096]
        with ThreadPoolExecutor(max_workers=6) as pool:
            plans = list(pool.map(service.plan, requests * 4, timeout=60))
        assert plans == [atlas.get(r) for r in requests] * 4
        # Each point came from the atlas once; the repeats hit the LRU.
        assert service.stats.atlas_hits == len(requests)
        assert service.stats.lru_hits == 3 * len(requests)
        assert service.stats.live_plans == 0


class TestAtlasBuildDedupe:
    def test_duplicate_lattice_points_planned_once(self, tmp_path):
        """Regression: a lattice spelled with repeats (easy to produce
        from nested sweep loops) used to inflate the build stats and
        re-plan the duplicates."""
        atlas = PlanAtlas(tmp_path / "atlas")
        req = PlanRequest("lu", 4096, 64, NODE_M, api_copies=3)
        other = PlanRequest("cholesky", 4096, 64, NODE_M, api_copies=3)
        stats = atlas.build([req, other, req, req, other])
        assert stats.points == 2
        assert stats.built == 2
        assert stats.reused == 0
        assert len(atlas.manifest()) == 2
        assert atlas.get(req) == plan_request(req)


class TestDefaultService:
    def test_created_on_first_use_and_replaceable(self):
        previous = set_default_service(None)
        try:
            created = default_service()
            assert isinstance(created, PlanService)
            assert default_service() is created
            mine = PlanService(lru_size=8)
            assert set_default_service(mine) is created
            assert default_service() is mine
        finally:
            set_default_service(previous)
