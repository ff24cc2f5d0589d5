"""Unit tests for the CI perf gate (scripts/check_bench_regression.py).

The gate protects two invariants — accounting-checksum stability and
sweep time vs the committed baseline, calibration-normalized — and has
so far shipped untested.  These tests stub the expensive ``run()`` with
canned snapshots and point ``BASELINE`` at a temp file, exercising each
verdict path: clean pass, checksum drift, slowdown past the threshold,
and the calibration normalization that lets a uniformly slower machine
pass while a real code regression fails.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def cbr():
    """The checker module, loaded from scripts/ (not on sys.path)."""
    sys.path.insert(0, str(SCRIPTS))
    try:
        spec = importlib.util.spec_from_file_location(
            "check_bench_regression", SCRIPTS / "check_bench_regression.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


def snapshot(sweep_s: float, checksum: float = 1000.0,
             calib_s: float | None = 0.1) -> dict:
    engine = {"sweep_s": sweep_s, "checksum": checksum}
    if calib_s is not None:
        engine["calib_s"] = calib_s
    return {"engine": engine}


@pytest.fixture
def gate(cbr, tmp_path, monkeypatch):
    """Run the gate against a committed baseline and a stubbed fresh
    run; returns main()'s exit code."""

    def _gate(baseline: dict, fresh: dict, argv: list | None = None) -> int:
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(baseline))
        monkeypatch.setattr(cbr, "BASELINE", path)
        monkeypatch.setattr(cbr, "run", lambda parallel=None: fresh)
        return cbr.main(argv or [])

    return _gate


class TestVerdicts:
    def test_clean_baseline_passes(self, gate, capsys):
        assert gate(snapshot(1.0), snapshot(1.0)) == 0
        assert "OK" in capsys.readouterr().out

    def test_checksum_drift_fails(self, gate, capsys):
        code = gate(snapshot(1.0, checksum=1000.0),
                    snapshot(1.0, checksum=1000.5))
        assert code == 1
        assert "checksum drifted" in capsys.readouterr().err

    def test_checksum_float_noise_tolerated(self, gate):
        base = 1428582192.0
        assert gate(snapshot(1.0, checksum=base),
                    snapshot(1.0, checksum=base * (1 + 1e-12))) == 0

    def test_slowdown_past_threshold_fails(self, gate, capsys):
        code = gate(snapshot(1.0), snapshot(1.0 * cbr_slowdown()))
        assert code == 1
        assert "slowed" in capsys.readouterr().err

    def test_slowdown_within_threshold_passes(self, gate):
        assert gate(snapshot(1.0), snapshot(1.2)) == 0

    def test_sub_noise_floor_slowdown_passes(self, gate, cbr):
        """A sub-second sweep can miss the relative threshold on timer
        noise alone; the absolute NOISE_FLOOR_S guard keeps the gate
        quiet until whole fractions of a second move."""
        base, fresh = 0.08, 0.12        # 1.5x relative, 0.04s absolute
        assert fresh > cbr.MAX_SLOWDOWN * base
        assert gate(snapshot(base), snapshot(fresh)) == 0

    def test_absolute_regression_on_fast_sweep_fails(self, gate, capsys):
        """A real closed-form-path regression costs whole seconds and
        still fails, noise floor notwithstanding."""
        assert gate(snapshot(0.08), snapshot(1.0)) == 1
        assert "slowed" in capsys.readouterr().err

    def test_both_failures_reported(self, gate, capsys):
        code = gate(snapshot(1.0, checksum=1.0),
                    snapshot(2.0, checksum=2.0))
        assert code == 1
        err = capsys.readouterr().err
        assert "checksum drifted" in err and "slowed" in err

    def test_pool_checksum_divergence_fails(self, gate, capsys):
        """The pool path must reproduce the serial checksum exactly."""
        fresh = snapshot(1.0)
        fresh["parallel"] = {"checksum": 999.0,
                             "checksum_matches_serial": False}
        assert gate(snapshot(1.0), fresh) == 1
        assert "process-pool checksum" in capsys.readouterr().err

    def test_pool_checksum_match_passes(self, gate):
        fresh = snapshot(1.0)
        fresh["parallel"] = {"checksum": 1000.0,
                             "checksum_matches_serial": True}
        assert gate(snapshot(1.0), fresh) == 0

    def test_planner_checksum_pinned(self, gate, capsys):
        """The chosen-plan checksum is gated against the committed one
        exactly like the sweep checksum: drift fails, equal passes."""
        base, fresh = snapshot(1.0), snapshot(1.0)
        base["planner"] = {"chosen_checksum": 2000.0}
        fresh["planner"] = {"chosen_checksum": 2000.0}
        assert gate(base, fresh) == 0
        fresh["planner"] = {"chosen_checksum": 2000.5}
        assert gate(base, fresh) == 1
        assert "planner checksum drifted" in capsys.readouterr().err

    def test_old_snapshot_without_accounting_block_passes(self, gate):
        assert gate(snapshot(1.0), snapshot(1.0)) == 0


def cbr_slowdown() -> float:
    """A ratio safely past MAX_SLOWDOWN (1.25): 1.30."""
    return 1.30


class TestCalibrationNormalization:
    def test_uniformly_slower_machine_passes(self, gate):
        """Sweep 2x slower but probe 2x slower too (a slower CI
        runner): normalized times are equal — no failure."""
        assert gate(snapshot(1.0, calib_s=0.1),
                    snapshot(2.0, calib_s=0.2)) == 0

    def test_code_regression_on_same_machine_fails(self, gate):
        """Sweep 2x slower at the same probe speed: a real regression."""
        assert gate(snapshot(1.0, calib_s=0.1),
                    snapshot(2.0, calib_s=0.1)) == 1

    def test_missing_calibration_falls_back_to_wall_clock(self, gate,
                                                          capsys):
        """Old baselines without calib_s compare raw seconds: the fresh
        probe cannot normalize anything, so a slowdown fails in wall
        clock (and the failure message carries the raw-seconds unit)."""
        assert gate(snapshot(1.0, calib_s=None),
                    snapshot(1.2, calib_s=0.1)) == 0
        code = gate(snapshot(1.0, calib_s=None),
                    snapshot(cbr_slowdown(), calib_s=0.1))
        assert code == 1
        assert "sweep/calib" not in capsys.readouterr().err

    def test_normalized_unit_printed_on_failure(self, gate, capsys):
        code = gate(snapshot(1.0, calib_s=0.1),
                    snapshot(cbr_slowdown(), calib_s=0.1))
        assert code == 1
        assert "sweep/calib" in capsys.readouterr().err


class TestUpdateMode:
    def test_update_rewrites_baseline(self, gate, cbr, tmp_path, capsys):
        fresh = snapshot(3.0, checksum=42.0)
        assert gate(snapshot(1.0), fresh, argv=["--update"]) == 0
        written = json.loads((tmp_path / "BENCH_engine.json").read_text())
        assert written == fresh
        assert "baseline updated" in capsys.readouterr().out

    def test_update_then_gate_is_clean(self, cbr, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(snapshot(1.0)))
        monkeypatch.setattr(cbr, "BASELINE", path)
        fresh = snapshot(9.9, checksum=7.0)
        monkeypatch.setattr(cbr, "run", lambda parallel=None: fresh)
        assert cbr.main(["--update"]) == 0
        assert cbr.main([]) == 0


class TestObsGate:
    """The telemetry-cost gate: spans enabled must stay within the 2%
    budget (or the noise floor) and never perturb the checksum."""

    def _obs(self, **overrides) -> dict:
        block = {"disabled_s": 1.0, "enabled_s": 1.01,
                 "overhead_s": 0.01, "checksum": 1000.0,
                 "checksum_matches_disabled": True, "overhead_ok": True}
        block.update(overrides)
        return block

    def test_within_budget_passes(self, gate):
        fresh = snapshot(1.0)
        fresh["obs"] = self._obs()
        assert gate(snapshot(1.0), fresh) == 0

    def test_overhead_past_budget_fails(self, gate, capsys):
        fresh = snapshot(1.0)
        fresh["obs"] = self._obs(enabled_s=1.5, overhead_s=0.5,
                                 overhead_ok=False)
        assert gate(snapshot(1.0), fresh) == 1
        assert "span overhead" in capsys.readouterr().err

    def test_checksum_perturbation_fails(self, gate, capsys):
        fresh = snapshot(1.0)
        fresh["obs"] = self._obs(checksum=999.0,
                                 checksum_matches_disabled=False)
        assert gate(snapshot(1.0), fresh) == 1
        assert "perturbed the accounting" in capsys.readouterr().err

    def test_old_snapshot_without_obs_block_passes(self, gate):
        assert gate(snapshot(1.0), snapshot(1.0)) == 0


class TestFabricGate:
    """The distributed-executor gate: the fabric checksum must equal
    serial bit-for-bit and a resumed run must recompute nothing."""

    def _fab(self, **overrides) -> dict:
        block = {"checksum": 1000.0, "checksum_matches_serial": True,
                 "resume_recomputed": 0, "resume_checksum_matches": True}
        block.update(overrides)
        return block

    def test_clean_fabric_block_passes(self, gate):
        fresh = snapshot(1.0)
        fresh["fabric"] = self._fab()
        assert gate(snapshot(1.0), fresh) == 0

    def test_checksum_divergence_fails(self, gate, capsys):
        fresh = snapshot(1.0)
        fresh["fabric"] = self._fab(checksum=999.0,
                                    checksum_matches_serial=False)
        assert gate(snapshot(1.0), fresh) == 1
        assert "fabric checksum" in capsys.readouterr().err

    def test_resume_recompute_fails(self, gate, capsys):
        fresh = snapshot(1.0)
        fresh["fabric"] = self._fab(resume_recomputed=2)
        assert gate(snapshot(1.0), fresh) == 1
        assert "resume recomputed" in capsys.readouterr().err

    def test_resume_checksum_divergence_fails(self, gate, capsys):
        fresh = snapshot(1.0)
        fresh["fabric"] = self._fab(resume_checksum_matches=False)
        assert gate(snapshot(1.0), fresh) == 1
        assert "resume checksum diverged" in capsys.readouterr().err

    def test_old_snapshot_without_fabric_block_passes(self, gate):
        assert gate(snapshot(1.0), snapshot(1.0)) == 0


class TestAtlasGate:
    """The atlas serving-parity gate: served plans must be bit-identical
    to live planning on lattice points."""

    def test_served_matches_live_passes(self, gate):
        fresh = snapshot(1.0)
        fresh["atlas"] = {"served_matches_live": True}
        assert gate(snapshot(1.0), fresh) == 0

    def test_served_mismatch_fails(self, gate, capsys):
        fresh = snapshot(1.0)
        fresh["atlas"] = {"served_matches_live": False}
        assert gate(snapshot(1.0), fresh) == 1
        assert "atlas-served plans differ" in capsys.readouterr().err

    def test_old_snapshot_without_atlas_block_passes(self, gate):
        assert gate(snapshot(1.0), snapshot(1.0)) == 0
