"""Unit tests for the alpha-beta-gamma performance model."""


import pytest

from repro.machine import PIZ_DAINT_XC40, MachineParams, PerfModel
from repro.machine.stats import CommStats, StepRecord


def make_log(records):
    stats = CommStats(1)
    for rec in records:
        stats.steps.append(rec)
    return stats.steps


class TestMachineParams:
    def test_piz_daint_peak(self):
        # One socket: 18 cores x 2.1 GHz x 16 flops = 604.8 GF/s.
        assert PIZ_DAINT_XC40.peak_flops == pytest.approx(604.8e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineParams(peak_flops=0, bandwidth_bytes=1, latency_s=0)
        with pytest.raises(ValueError):
            MachineParams(peak_flops=1, bandwidth_bytes=1, latency_s=0,
                          overlap=1.0)

    def test_blas_efficiency_monotone_saturating(self):
        p = PIZ_DAINT_XC40
        effs = [p.blas_efficiency(2.0 ** k) for k in range(10, 34, 4)]
        assert all(b >= a for a, b in zip(effs, effs[1:]))
        assert effs[-1] <= p.blas_eff_max
        assert p.blas_efficiency(2.0 ** 40) == pytest.approx(
            p.blas_eff_max, rel=1e-4)

    def test_blas_efficiency_small_workset(self):
        p = PIZ_DAINT_XC40
        assert p.blas_efficiency(0) < 0.01
        assert p.blas_efficiency(1024) < 0.01 * p.blas_eff_max


class TestPerfModel:
    def test_compute_bound_step(self):
        params = MachineParams(peak_flops=1e9, bandwidth_bytes=1e12,
                               latency_s=0.0, blas_eff_max=1.0,
                               blas_halfsat_words=1.0, overlap=0.0)
        model = PerfModel(params)
        log = make_log([StepRecord("s", flops_max=1e9, flops_total=1e9)])
        out = model.evaluate(log, nranks=1, local_words=1e12)
        assert out.total_s == pytest.approx(1.0, rel=1e-6)
        assert out.peak_fraction == pytest.approx(1.0, rel=1e-6)

    def test_bandwidth_bound_step(self):
        params = MachineParams(peak_flops=1e18, bandwidth_bytes=8e9,
                               latency_s=0.0, overlap=0.0)
        model = PerfModel(params)
        log = make_log([StepRecord("s", recv_words_max=1e9)])
        out = model.evaluate(log, nranks=1, local_words=1e9)
        assert out.total_s == pytest.approx(1.0, rel=1e-6)

    def test_latency_adds(self):
        params = MachineParams(peak_flops=1e18, bandwidth_bytes=1e18,
                               latency_s=1e-3, overlap=0.0)
        model = PerfModel(params)
        log = make_log([StepRecord("s", msgs_max=10.0)] * 5)
        out = model.evaluate(log, nranks=1, local_words=1e9)
        assert out.total_s == pytest.approx(0.05, rel=1e-6)

    def test_overlap_hides_bandwidth(self):
        base = dict(peak_flops=1e9, bandwidth_bytes=8e9, latency_s=0.0,
                    blas_eff_max=1.0, blas_halfsat_words=1.0)
        log = make_log([StepRecord("s", flops_max=1.0, flops_total=1.0,
                                   recv_words_max=1e9)])
        t_no = PerfModel(MachineParams(overlap=0.0, **base)).evaluate(
            log, 1, 1e12).total_s
        t_half = PerfModel(MachineParams(overlap=0.5, **base)).evaluate(
            log, 1, 1e12).total_s
        assert t_half == pytest.approx(t_no / 2, rel=1e-6)

    def test_peak_fraction_in_unit_interval(self):
        model = PerfModel()
        log = make_log([StepRecord("s", flops_max=1e12, flops_total=1e12,
                                   recv_words_max=1e6, msgs_max=10)])
        out = model.evaluate(log, nranks=4, local_words=2.0 ** 27)
        assert 0 < out.peak_fraction < 1

    def test_empty_log_rejected(self):
        """A result traced with steps='none' (the closed-form sweep
        default) has no per-step maxima; silently timing it would
        return nonsense, so the model refuses."""
        model = PerfModel()
        with pytest.raises(ValueError, match="empty step log"):
            model.evaluate(make_log([]), nranks=1, local_words=1.0)

    def test_columnar_log_matches_records(self):
        """The trace flushes whole columns, the machine appends one
        record per superstep: the same steps written either way time
        identically."""
        from repro.factorizations import ConfluxSchedule

        model = PerfModel()
        col = ConfluxSchedule(96, 12, v=12, c=3).trace_stats(
            steps="columnar")
        a = model.evaluate(col.steps, 12, 96 * 96 / 12)
        b = model.evaluate(make_log(tuple(col.steps)), 12, 96 * 96 / 12)
        assert a == b

    def test_nranks_validation(self):
        model = PerfModel()
        with pytest.raises(ValueError):
            model.evaluate(make_log([]), nranks=0, local_words=1.0)

    def test_closed_form_consistent_with_step(self):
        model = PerfModel()
        t = model.time_closed_form(1e12, 1e6, 100.0, 2.0 ** 27)
        log = make_log([StepRecord("s", flops_max=1e12, flops_total=1e12,
                                   recv_words_max=1e6, msgs_max=100.0)])
        out = model.evaluate(log, nranks=1, local_words=2.0 ** 27)
        assert t == pytest.approx(out.total_s, rel=1e-9)

    def test_small_local_domain_hurts_efficiency(self):
        """The paper's latency-bound regime: N^2/P < 2^27 degrades peak."""
        model = PerfModel()
        rec = StepRecord("s", flops_max=1e10, flops_total=1e10)
        t_big = model.evaluate(make_log([rec]), 1, 2.0 ** 30).total_s
        t_small = model.evaluate(make_log([rec]), 1, 2.0 ** 20).total_s
        assert t_small > 5 * t_big
