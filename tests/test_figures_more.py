"""Additional coverage for the figure generators (9/10, table1 params,
harness config fallback)."""

import pytest

from repro.analysis import (
    fig9_lu_scaling,
    fig10_cholesky_scaling,
    fig11_cholesky_heatmap,
    table1_routine_costs,
    trace_lu,
)
from repro.planner import PlanRequest, config_25d, plan_request


class TestFig9And10:
    @pytest.fixture(scope="class")
    def rows9(self):
        return fig9_lu_scaling(p_sweep=(16, 256))

    @pytest.fixture(scope="class")
    def rows10(self):
        return fig10_cholesky_scaling(p_sweep=(16, 256))

    def test_three_workloads(self, rows9):
        assert {r["workload"] for r in rows9} == \
            {"strong-131072", "strong-16384", "weak"}

    def test_all_implementations_present(self, rows9, rows10):
        assert {r["name"] for r in rows9} == \
            {"conflux", "mkl", "slate", "candmc"}
        assert {r["name"] for r in rows10} == \
            {"confchox", "mkl-chol", "slate-chol", "capital"}

    def test_peak_percentages_sane(self, rows9):
        for r in rows9:
            assert 0 < r["peak_pct"] < 100

    def test_conflux_wins_big_strong_scaling(self, rows9):
        by = {(r["name"], r["nranks"]): r["peak_pct"] for r in rows9
              if r["workload"] == "strong-131072"}
        for p in (16, 256):
            for other in ("mkl", "slate", "candmc"):
                assert by[("conflux", p)] >= by[(other, p)]

    def test_weak_scaling_n_grows(self, rows9):
        ns = sorted({r["n"] for r in rows9 if r["workload"] == "weak"})
        assert ns[0] < ns[-1]


class TestFig11:
    def test_cells_structure(self):
        cells = fig11_cholesky_heatmap(n_sweep=(16384,), p_sweep=(64,))
        assert len(cells) == 1
        cell = cells[0]
        assert cell["status"] == "ok"
        assert cell["second_best"] in ("mkl-chol", "slate-chol", "capital")


class TestTable1Parameters:
    def test_step_dependence(self):
        """Later steps shrink the trailing extents and therefore the
        panel and A11 costs."""
        early = table1_routine_costs(n=16384, p=1024, t=0)
        late = table1_routine_costs(n=16384, p=1024, t=100)
        by_e = {r["routine"]: r for r in early}
        by_l = {r["routine"]: r for r in late}
        assert by_l["A11"]["lu_comp"] < by_e["A11"]["lu_comp"]
        assert by_l["A10/A01"]["lu_comm"] < by_e["A10/A01"]["lu_comm"]


class TestConfigFallback:
    def test_incompatible_c_degrades(self):
        """N = 2^a * k with an odd c: fall back to a compatible depth."""
        c, v = config_25d(9728, 27, 3)  # 9728 = 2^9 * 19, c=3 impossible
        assert 27 % c == 0
        assert 9728 % v == 0 and v % c == 0

    def test_compatible_c_kept(self):
        c, v = config_25d(16384, 1024, 8)
        assert c == 8

    def test_planned_config_feasible(self):
        chosen = plan_request(PlanRequest("lu", 16384, 1024,
                                          impls=("conflux",))).chosen
        c, v = chosen.params["c"], chosen.params["v"]
        assert 1024 % c == 0
        assert 16384 % v == 0 and v % c == 0
        assert chosen.predicted_words > 0

    def test_planned_config_beats_max_replication_when_p_near_n(self):
        """When P approaches N the tuned c sits below P^(1/3)."""
        chosen = plan_request(PlanRequest("lu", 16384, 4096,
                                          impls=("conflux",))).chosen
        assert chosen.params["c"] < 16  # 4096^(1/3) = 16

    def test_trace_with_awkward_n(self):
        res = trace_lu("conflux", 9728, 27)
        assert res.mean_recv_words > 0
