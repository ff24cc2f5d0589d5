"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tel():
    """A fresh telemetry installed as the process default (restored
    afterwards), so instrumented library code records here."""
    fresh = obs.Telemetry()
    previous = obs.set_default_telemetry(fresh)
    try:
        yield fresh
    finally:
        obs.set_default_telemetry(previous)


@pytest.fixture
def well_conditioned(rng) -> np.ndarray:
    """A 64x64 diagonally dominant matrix (safe for pivot-free paths)."""
    n = 64
    return rng.standard_normal((n, n)) + n * np.eye(n)


@pytest.fixture
def spd_matrix(rng) -> np.ndarray:
    """A 64x64 symmetric positive-definite matrix."""
    n = 64
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def residual(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius residual ||a - b|| / ||a||."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-300))
