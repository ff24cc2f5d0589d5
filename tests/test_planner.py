"""Tests for the planner subsystem (repro.planner).

Pins the contract the new subsystem introduces: deterministic ranked
plans, the historical COnfLUX-only ``(c, v)`` search's answers on the
Table-2 points, feasibility identical to :mod:`repro.api`'s
pre-flight memory gate, and ``impl="auto"`` picking a configuration
whose *counted* communication beats every explicitly named
implementation at the same (N, P, M).
"""

import math

import numpy as np
import pytest

from repro.api import pdgemm, pdgetrf, pdpotrf
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, MemoryBudgetExceeded, ProcessorGrid2D
from repro.planner import (
    NoFeasiblePlanError,
    PlanRequest,
    config_25d,
    panel_candidates,
    panel_width_2d,
    plan_cholesky,
    plan_gemm,
    plan_lu,
    replication_candidates,
    strip_candidates,
    tile_candidates,
)

TABLE2_POINTS = [(8192, 256), (16384, 1024), (32768, 4096)]

#: One Piz Daint rank's memory, as in the harness.
NODE_M = 32 * 2 ** 30 / 8


class TestCandidates:
    def test_replication_divisors_only(self):
        for c in replication_candidates(1024, 16384):
            assert 1024 % c == 0
            assert c <= round(1024 ** (1 / 3))

    def test_replication_memory_pruned(self):
        n, p = 65536, 64
        tight = 2.0 * n * n / p      # fits c=1 and c=2 only
        assert replication_candidates(p, n, tight) == [1, 2]

    def test_tile_candidates_divide_n(self):
        for v in tile_candidates(16384, 8):
            assert 16384 % v == 0 and v % 8 == 0

    def test_panel_candidates_exclude_single_step(self):
        """nb == N (whole matrix on the diagonal owner) is degenerate."""
        assert all(nb < 64 for nb in panel_candidates(64))

    def test_strip_candidates_whole_slices(self):
        for s in strip_candidates(16384, 8):
            assert 16384 % (s * 8) == 0

    def test_config_25d_degrades_incompatible_c(self):
        """N = 2^a * k with an odd c: fall back to a compatible depth."""
        c, v = config_25d(9728, 27, 3)   # 9728 = 2^9 * 19, c=3 impossible
        assert 27 % c == 0
        assert 9728 % v == 0 and v % c == 0

    def test_config_25d_keeps_compatible_c(self):
        c, _ = config_25d(16384, 1024, 8)
        assert c == 8

    def test_panel_width_2d(self):
        assert panel_width_2d(16384) == 128
        assert panel_width_2d(96) == 32


class TestPlanDeterminism:
    def test_identical_plans(self):
        a = plan_lu(16384, 1024, mem_words=NODE_M)
        b = plan_lu(16384, 1024, mem_words=NODE_M)
        assert a == b

    def test_ranked_by_predicted_words(self):
        plan = plan_lu(16384, 1024, mem_words=NODE_M)
        words = [cfg.predicted_words for cfg in plan.ranked]
        assert words == sorted(words)
        assert plan.chosen == plan.ranked[0]

    def test_summary_mentions_choice(self):
        plan = plan_cholesky(8192, 256, mem_words=NODE_M)
        assert plan.chosen.impl in plan.summary()


class TestAgreementWithLegacySearch:
    """The planner's conflux-only search reproduces what the retired
    ``best_conflux_config`` search returned (values pinned when the
    shim was deleted)."""

    LEGACY = {(8192, 256): (4, 4, 3190398.25),
              (16384, 1024): (4, 4, 5329853.40625),
              (32768, 4096): (8, 8, 8688574.796875)}

    @pytest.mark.parametrize("n,p", TABLE2_POINTS)
    def test_table2_points(self, n, p):
        c_old, v_old, cost_old = self.LEGACY[n, p]
        chosen = plan_lu(n, p, mem_words=NODE_M, impls=("conflux",)).chosen
        assert (chosen.params["c"], chosen.params["v"]) == (c_old, v_old)
        assert chosen.predicted_words == pytest.approx(cost_old)

    def test_tuned_c_below_max_replication_near_n(self):
        """When P approaches N the tuned c sits below P^(1/3)."""
        chosen = plan_lu(16384, 4096, mem_words=NODE_M,
                         impls=("conflux",)).chosen
        assert chosen.params["c"] < 16      # 4096^(1/3) = 16


class TestFeasibility:
    def test_feasible_margin_nonnegative(self):
        plan = plan_lu(4096, 64, mem_words=NODE_M, api_copies=3)
        for cfg in plan.ranked:
            assert cfg.mem_margin >= 0
            assert cfg.required_words <= NODE_M

    def test_unbounded_budget_infinite_margin(self):
        plan = plan_gemm(256, 16)
        assert math.isinf(plan.chosen.mem_margin)

    def test_infeasible_raises(self):
        with pytest.raises(NoFeasiblePlanError):
            plan_lu(16384, 64, mem_words=16384.0 * 16384 / 64 / 2)

    def test_infeasible_is_value_error(self):
        """The shim's historical contract: ValueError on no-fit."""
        assert issubclass(NoFeasiblePlanError, ValueError)

    @pytest.mark.parametrize("op,impls,valid", [
        ("lu", ("conflx",), "conflux, scalapack"),       # misspelt
        ("lu", ("conflux", "mkl"), "conflux, scalapack"),  # not planned
        ("cholesky", ("conflux",), "confchox, scalapack"),  # another op's
        ("gemm", ("bogus",), "25d"),
    ])
    def test_unknown_impls_name_the_valid_labels(self, op, impls, valid):
        """A misspelt or foreign ``impls=`` is a spelling problem, not
        a memory problem (it used to gate every candidate out, or — for
        gemm — be ignored)."""
        with pytest.raises(ValueError, match=valid) as exc_info:
            PlanRequest(op, 1024, 16, impls=impls)
        assert not isinstance(exc_info.value, NoFeasiblePlanError)

    def test_rejection_matches_api_gate(self, rng):
        """A budget the planner rejects is one the API's pre-flight
        gate rejects for every explicit impl at the same (N, P, M)."""
        n, p = 64, 4
        budget = 1.2 * n * n / p      # < required + api layout copies
        with pytest.raises(NoFeasiblePlanError):
            plan_lu(n, p, mem_words=budget, api_copies=4)
        for impl, kw in (("conflux", {"v": 16}), ("scalapack", {"nb": 16})):
            machine = Machine(p, mem_words=budget, enforce_memory=True)
            desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16,
                                       prows=2, pcols=2)
            with pytest.raises(MemoryBudgetExceeded):
                pdgetrf(machine, "A", desc, impl=impl, **kw)

    def test_planned_config_passes_api_gate(self, rng):
        """api_copies=1 (the resident input) makes planner feasibility
        the API gate's own arithmetic: a planned config never trips
        the pre-flight reserve, even at a budget barely above its
        requirement."""
        n, p = 64, 4
        budget = plan_lu(n, p, api_copies=1).chosen.required_words * 1.05
        machine = _auto_machine(rng, n, p, budget)[0]
        res = pdgetrf(machine, "A",
                      ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16,
                                          prows=2, pcols=2), impl="auto")
        assert res.plan is not None
        assert float(machine.peak_words_per_rank().max()) <= budget


    @pytest.mark.parametrize("k", [22, 24, 26, 28])
    def test_auto_depth_is_one_its_machine_can_hold(self, rng, k):
        """Regression: at these budgets ``impl="auto"`` planned
        ``c = 4`` counting its native copies as ``N^2/P`` each (they
        are ``4 N^2/P`` on layer 0), passed the gate and died in
        ``summa-0``.  Planned >= gated >= measured."""
        n, p = 256, 64
        budget = k * n * n / p
        machine = Machine(p, mem_words=budget, enforce_memory=True)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=32, nb=32, prows=8, pcols=8)
        lay = BlockCyclicLayout(n, n, 32, 32, ProcessorGrid2D(8, 8))
        a, b = rng.standard_normal((2, n, n))
        lay.scatter_from(machine, "A", a)
        lay.scatter_from(machine, "B", b)
        res = pdgemm(machine, "A", desc, "B", desc, impl="auto")
        assert np.allclose(res.lower, a @ b)
        peak = float(machine.peak_words_per_rank().max())
        assert peak <= res.plan.chosen.required_words <= budget


def _auto_machine(rng, n, p, budget, spd=False):
    machine = Machine(p, mem_words=budget, enforce_memory=True)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16, prows=2, pcols=2)
    lay = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
    if spd:
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
    else:
        a = rng.standard_normal((n, n)) + n * np.eye(n)
    lay.scatter_from(machine, "A", a)
    return machine, desc, a


#: Smoke points for the auto-vs-explicit comparison (machine of 4 ranks
#: with a 2x2 descriptor grid, as the API tests use).
AUTO_POINTS = [(64, 4), (128, 4)]


class TestAutoImpl:
    """impl="auto": planner-routed execution on the caller's machine."""

    @pytest.mark.parametrize("n,p", AUTO_POINTS)
    def test_lu_completes_within_budget(self, rng, n, p):
        budget = 6.0 * n * n / p + 4096
        machine, desc, a = _auto_machine(rng, n, p, budget)
        res = pdgetrf(machine, "A", desc, impl="auto")
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-11
        assert float(machine.peak_words_per_rank().max()) <= budget
        assert res.plan is not None and res.plan.chosen.mem_margin >= 0

    @pytest.mark.parametrize("n,p", AUTO_POINTS)
    def test_lu_counted_words_beat_explicit_impls(self, rng, n, p):
        budget = 6.0 * n * n / p + 4096
        machine, desc, _ = _auto_machine(rng, n, p, budget)
        auto = pdgetrf(machine, "A", desc, impl="auto")
        for impl, kw in (("conflux", {"v": 16}), ("scalapack", {"nb": 16})):
            m2, d2, _ = _auto_machine(rng, n, p, budget)
            explicit = pdgetrf(m2, "A", d2, impl=impl, **kw)
            assert (auto.factorization_words
                    <= explicit.factorization_words)

    def test_cholesky_auto(self, rng):
        n, p = 64, 4
        budget = 6.0 * n * n / p + 4096
        machine, desc, a = _auto_machine(rng, n, p, budget, spd=True)
        auto = pdpotrf(machine, "A", desc, impl="auto")
        err = np.linalg.norm(a - auto.lower @ auto.lower.T)
        assert err / np.linalg.norm(a) < 1e-11
        for impl, kw in (("confchox", {"v": 16}), ("scalapack", {"nb": 16})):
            m2, d2, _ = _auto_machine(rng, n, p, budget, spd=True)
            explicit = pdpotrf(m2, "A", d2, impl=impl, **kw)
            assert (auto.factorization_words
                    <= explicit.factorization_words)

    def test_gemm_auto(self, rng):
        n, p = 64, 4
        machine = Machine(p)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16,
                                   prows=2, pcols=2)
        lay = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        lay.scatter_from(machine, "A", a)
        lay.scatter_from(machine, "B", b)
        res = pdgemm(machine, "A", desc, "B", desc, impl="auto")
        assert np.allclose(res.lower, a @ b)
        s, c = res.plan.chosen.params["s"], res.plan.chosen.params["c"]
        assert n % (s * c) == 0

    def test_unknown_gemm_impl_rejected(self, rng):
        machine = Machine(4)
        desc = ScaLAPACKDescriptor(m=64, n=64, mb=16, nb=16,
                                   prows=2, pcols=2)
        with pytest.raises(ValueError, match="25d, auto"):
            pdgemm(machine, "A", desc, "B", desc, impl="nope")
