"""Tests for the solves that pair with the factorizations
(repro.api.pdgetrs, repro.api.pdpotrs) on the native 2.5D views and the
2D baselines: the right answer for one right-hand side or several, the
pivot permutation applied, and no word moved."""

import numpy as np
import pytest

from repro.api import pdgetrf, pdgetrs, pdpotrf, pdpotrs
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, ProcessorGrid2D

#: ``impl -> keywords`` of the factorization each solve reads.
LU = {"conflux": {"v": 8, "c": 2}, "scalapack": {"nb": 16}, "auto": {}}
CHOLESKY = {"confchox": {"v": 8, "c": 2}, "scalapack": {"nb": 16},
            "auto": {}}


def factor(fact, a, impl, keywords):
    """``(machine, result)``: ``fact`` run with ``impl`` on ``a``,
    scattered block-cyclic on a 2 x 2 grid of a fresh 8-rank machine."""
    n = len(a)
    machine = Machine(8)
    BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2)).scatter_from(
        machine, "A", a)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16, prows=2, pcols=2)
    return machine, fact(machine, "A", desc, impl=impl, **keywords[impl])


def dominant(rng, n):
    return rng.standard_normal((n, n)) + n * np.eye(n)


def spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def totals(machine):
    stats = machine.stats
    return (stats.total_recv_words, stats.recv_msgs.sum(), stats.total_flops,
            machine.words_per_rank().tolist())


class TestLUSolve:
    def test_single_rhs(self, rng):
        a = dominant(rng, 64)
        x = rng.standard_normal(64)
        _, res = factor(pdgetrf, a, "conflux", LU)
        assert pdgetrs(res, a @ x).shape == (64,)
        assert np.allclose(pdgetrs(res, a @ x), x, atol=1e-8)

    def test_multiple_rhs(self, rng):
        a = dominant(rng, 64)
        x = rng.standard_normal((64, 5))
        _, res = factor(pdgetrf, a, "conflux", LU)
        assert np.allclose(pdgetrs(res, a @ x), x, atol=1e-8)

    def test_works_on_2d_baseline_result(self, rng):
        a = dominant(rng, 64)
        x = rng.standard_normal(64)
        _, res = factor(pdgetrf, a, "scalapack", LU)
        assert np.allclose(pdgetrs(res, a @ x), x, atol=1e-8)

    def test_works_on_a_planned_result(self, rng):
        a = dominant(rng, 64)
        x = rng.standard_normal(64)
        _, res = factor(pdgetrf, a, "auto", LU)
        assert res.plan is not None
        assert np.allclose(pdgetrs(res, a @ x), x, atol=1e-8)

    @pytest.mark.parametrize("impl", ["conflux", "scalapack"])
    def test_pivot_permutation_applied(self, rng, impl):
        """Rows in reverse order put a tiny entry on every diagonal, so
        both schedules pivot and the solve must undo the interchanges."""
        a = dominant(rng, 64)[::-1].copy()
        x = rng.standard_normal(64)
        _, res = factor(pdgetrf, a, impl, LU)
        assert not np.array_equal(res.perm, np.arange(64))
        assert np.allclose(pdgetrs(res, a @ x), x, atol=1e-8)

    @pytest.mark.parametrize("impl", ["conflux", "scalapack"])
    def test_solve_moves_no_words(self, rng, impl):
        a = dominant(rng, 64)
        machine, res = factor(pdgetrf, a, impl, LU)
        before = totals(machine)
        pdgetrs(res, a @ rng.standard_normal((64, 3)))
        assert totals(machine) == before

    def test_factors_left_as_they_were(self, rng):
        a = dominant(rng, 64)
        _, res = factor(pdgetrf, a, "conflux", LU)
        lower, upper = res.lower.copy(), res.upper.copy()
        perm = res.perm.copy()
        b = a @ rng.standard_normal(64)
        first = pdgetrs(res, b)
        assert np.array_equal(pdgetrs(res, b), first)
        assert np.array_equal(res.lower, lower)
        assert np.array_equal(res.upper, upper)
        assert np.array_equal(res.perm, perm)


class TestCholeskySolve:
    def test_single_rhs(self, rng):
        a = spd(rng, 64)
        x = rng.standard_normal(64)
        _, res = factor(pdpotrf, a, "confchox", CHOLESKY)
        assert pdpotrs(res, a @ x).shape == (64,)
        assert np.allclose(pdpotrs(res, a @ x), x, atol=1e-7)

    def test_multiple_rhs(self, rng):
        a = spd(rng, 64)
        x = rng.standard_normal((64, 3))
        _, res = factor(pdpotrf, a, "confchox", CHOLESKY)
        assert np.allclose(pdpotrs(res, a @ x), x, atol=1e-7)

    def test_works_on_2d_baseline_result(self, rng):
        a = spd(rng, 64)
        x = rng.standard_normal(64)
        _, res = factor(pdpotrf, a, "scalapack", CHOLESKY)
        assert np.allclose(pdpotrs(res, a @ x), x, atol=1e-7)

    def test_works_on_a_planned_result(self, rng):
        a = spd(rng, 64)
        x = rng.standard_normal(64)
        _, res = factor(pdpotrf, a, "auto", CHOLESKY)
        assert res.plan is not None
        assert np.allclose(pdpotrs(res, a @ x), x, atol=1e-7)

    def test_lu_result_rejected(self, rng):
        a = dominant(rng, 64)
        _, res = factor(pdgetrf, a, "conflux", LU)
        with pytest.raises(ValueError):
            pdpotrs(res, a @ np.ones(64))

    @pytest.mark.parametrize("impl", ["confchox", "scalapack"])
    def test_solve_moves_no_words(self, rng, impl):
        a = spd(rng, 64)
        machine, res = factor(pdpotrf, a, impl, CHOLESKY)
        before = totals(machine)
        pdpotrs(res, a @ rng.standard_normal((64, 3)))
        assert totals(machine) == before

    def test_factor_left_as_it_was(self, rng):
        a = spd(rng, 64)
        _, res = factor(pdpotrf, a, "confchox", CHOLESKY)
        lower = res.lower.copy()
        b = a @ rng.standard_normal(64)
        first = pdpotrs(res, b)
        assert np.array_equal(pdpotrs(res, b), first)
        assert np.array_equal(res.lower, lower)
        assert res.perm is None
