"""Tests for the experiment harness and figure generators."""


import pytest

from repro.analysis import (
    estimate_time,
    feasible,
    fig8a_comm_volume,
    fig8b_weak_scaling,
    fig8c_comm_reduction,
    fig1_lu_heatmap,
    format_table,
    lower_bound_ratios,
    max_replication,
    memory_feasibility,
    table1_routine_costs,
    table2_model_validation,
    trace_cholesky,
    trace_lu,
    weak_scaling_n,
)


class TestHarness:
    def test_max_replication_cube_root(self):
        # 1024^(1/3) ~ 10.07; neither 10 nor 9 divides 1024 -> c = 8.
        assert max_replication(1024, 16384) == 8

    def test_max_replication_divides(self):
        c = max_replication(1024, 16384)
        assert 1024 % c == 0

    def test_max_replication_memory_capped(self):
        # Huge N: replication limited by node memory.
        c = max_replication(64, 2 ** 18, node_mem_words=2 ** 30)
        assert c * (2 ** 18) ** 2 / 64 <= 2 ** 30

    def test_feasible(self):
        assert feasible(16384, 4)
        assert not feasible(2 ** 19, 4)  # 2^38 words > 32 GiB/rank * 4

    def test_trace_lu_dispatch(self):
        res = trace_lu("conflux", 4096, 64)
        assert res.name == "conflux"
        assert res.mean_recv_words > 0

    def test_trace_unknown_name(self):
        with pytest.raises(KeyError):
            trace_lu("scalapack++", 4096, 64)

    def test_trace_cholesky_dispatch(self):
        res = trace_cholesky("capital", 4096, 64)
        assert res.name == "capital"

    def test_estimate_time_fields(self):
        timed = estimate_time(trace_lu("conflux", 4096, 64))
        assert timed.time_s > 0
        assert 0 < timed.peak_fraction < 1

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [3, float("nan")]],
                           title="T")
        assert "T" in out and "a" in out and "2.5" in out and "-" in out

    @pytest.mark.parametrize("headers, row", [(["a", "b"], [1]),
                                              (["a"], [1, 2])])
    def test_format_table_rejects_a_ragged_row(self, headers, row):
        """A short row used to die with a bare IndexError, a long one
        silently lost its last cell."""
        with pytest.raises(ValueError, match=rf"row 1 has {len(row)} cells "
                                             rf"for {len(headers)} headers"):
            format_table(headers, [[0] * len(headers), row])


class TestMemoryFeasibility:
    def test_all_five_schedules_per_case(self):
        rows = memory_feasibility([(65536, 1024), (131072, 4096)])
        assert len(rows) == 10
        names = {r.schedule for r in rows}
        assert names == {"conflux", "confchox", "matmul25d", "mkl",
                         "mkl-chol"}

    def test_required_covers_model_with_bounded_overhead(self):
        for row in memory_feasibility([(65536, 1024)]):
            assert row.required_words >= row.model_words
            assert row.overhead < 2.0     # paper scale: transients small

    def test_paper_configs_fit_piz_daint(self):
        """The paper's evaluated corners fit the XC40 per-rank memory —
        including the transient working set, not just the model M."""
        rows = memory_feasibility([(65536, 1024), (65536, 4096),
                                   (131072, 4096)])
        assert all(r.fits_node for r in rows)

    def test_tiny_node_memory_flags_infeasible(self):
        rows = memory_feasibility([(65536, 1024)], node_mem_words=1e6)
        assert not any(r.fits_node for r in rows if r.schedule == "conflux")

    def test_required_matches_schedule_declaration(self):
        from repro.factorizations import ConfluxSchedule

        row = next(r for r in memory_feasibility([(65536, 1024)])
                   if r.schedule == "conflux")
        sched = ConfluxSchedule(65536, 1024, c=row.c)
        assert row.required_words == sched.required_words()
        assert row.model_words == sched.mem_words


class TestFigureGenerators:
    def test_fig8a_series_structure(self):
        series = fig8a_comm_volume(n=8192, p_sweep=(64, 256))
        assert set(series) == {"conflux", "mkl", "slate", "candmc"}
        for pts in series.values():
            assert len(pts) == 2
            for pt in pts:
                assert pt.measured_words > 0
                assert pt.model_words > 0

    def test_fig8a_conflux_always_least(self):
        series = fig8a_comm_volume(n=8192, p_sweep=(64, 256))
        for i in range(2):
            ours = series["conflux"][i].measured_words
            for other in ("mkl", "slate", "candmc"):
                assert ours < series[other][i].measured_words

    def test_fig8b_25d_flat(self):
        """Weak scaling: COnfLUX per-node volume roughly constant, 2D
        codes growing."""
        series = fig8b_weak_scaling(p_sweep=(8, 64, 512))
        ours = [pt.measured_words for pt in series["conflux"]]
        assert max(ours) / min(ours) < 1.6
        mkl = [pt.measured_words for pt in series["mkl"]]
        assert mkl[-1] > 1.5 * mkl[0]

    def test_weak_scaling_n(self):
        assert weak_scaling_n(8) == pytest.approx(3200 * 2, abs=512)
        assert weak_scaling_n(1) >= 512

    def test_fig8c_reductions_above_one(self):
        rows = fig8c_comm_reduction(p_sweep=(256,), n_sweep=(8192,),
                                    predicted_cells=((65536, 32768),))
        assert rows
        for row in rows:
            assert row["reduction"] > 1.0

    def test_fig8c_summit_prediction_near_2x(self):
        """Figure 8c: the paper predicts ~2.1x communication reduction
        for a full-machine Summit run (P = 262,144)."""
        rows = fig8c_comm_reduction(p_sweep=(), n_sweep=(),
                                    predicted_cells=((131072, 262144),))
        assert len(rows) == 1
        assert 1.5 < rows[0]["reduction"] < 2.5

    def test_fig8c_measured_reduction_matches_paper(self):
        """Paper: 'up to 1.42x communication reduction compared to the
        second-best implementation' at P = 1024 — ours lands close."""
        rows = fig8c_comm_reduction(p_sweep=(1024,), n_sweep=(16384,),
                                    predicted_cells=())
        assert 1.2 < rows[0]["reduction"] < 1.8

    def test_fig1_heatmap_cells(self):
        cells = fig1_lu_heatmap(n_sweep=(4096, 16384), p_sweep=(64, 256))
        assert len(cells) == 4
        for cell in cells:
            assert cell["status"] in ("ok", "no-memory", "below-3pct")
            if cell["status"] == "ok":
                assert cell["speedup"] > 0
                assert cell["second_best"] in ("mkl", "slate", "candmc")

    def test_fig1_infeasible_cells_flagged(self):
        cells = fig1_lu_heatmap(n_sweep=(2 ** 19,), p_sweep=(4,))
        assert cells[0]["status"] == "no-memory"


class TestTables:
    def test_table1_structure(self):
        rows = table1_routine_costs(n=16384, p=1024)
        routines = [r["routine"] for r in rows]
        assert routines == ["pivoting", "A00", "A10/A01", "A11"]
        a10 = rows[2]
        # Cholesky and LU communicate the same for the panels (Table 1).
        assert a10["lu_comm"] == a10["chol_comm"]
        a11 = rows[3]
        # ... but Cholesky computes half in the trailing update.
        assert a11["chol_comp"] == pytest.approx(a11["lu_comp"] / 2)

    def test_table2_validation_errors(self):
        rows = table2_model_validation(cases=((8192, 256),))
        by_name = {r["name"]: r for r in rows}
        # Our models match traced volumes within +-3% for ours + 2D.
        for name in ("conflux", "confchox", "mkl", "slate", "mkl-chol"):
            assert abs(by_name[name]["error_pct"]) <= 3.0
        # The author models for CANDMC/CAPITAL are cruder (the paper saw
        # 30-40% overapproximation; our trace is within ~25%).
        for name in ("candmc", "capital"):
            assert abs(by_name[name]["error_pct"]) <= 40.0

    def test_lower_bound_ratios(self):
        rows = lower_bound_ratios(cases=((8192, 256),))
        for row in rows:
            assert row["ratio"] >= 1.0
            assert row["ratio"] < 5.0
