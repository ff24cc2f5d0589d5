"""Tests for the ScaLAPACK-compatible API (repro.api)."""

import numpy as np
import pytest

from repro.analysis import harness
from repro.api import pdgemm, pdgetrf, pdgetrs, pdpotrf, pdpotrs
from repro.engine import machine_for
from repro.engine.backends import DistributedBackend
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    confchox_cholesky,
    conflux_lu,
    matmul_25d,
)
from repro.factorizations.baselines import (
    scalapack_cholesky,
    scalapack_lu,
    slate_cholesky,
    slate_lu,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule
from repro.factorizations.common import run_impl
from repro.factorizations.registry import build, implementation, labels
from repro.kernels.blas import KernelError
from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
from repro.machine import Machine, ProcessorGrid2D
from repro.machine.exceptions import MemoryBudgetExceeded
from repro.planner import planner_labels


def setup_machine(rng, n=64, mb=16, spd=False):
    machine = Machine(4)
    desc = ScaLAPACKDescriptor(m=n, n=n, mb=mb, nb=mb, prows=2, pcols=2)
    layout = BlockCyclicLayout(n, n, mb, mb, ProcessorGrid2D(2, 2))
    if spd:
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
    else:
        a = rng.standard_normal((n, n)) + n * np.eye(n)
    layout.scatter_from(machine, "A", a)
    return machine, desc, layout, a


class TestPdgetrf:
    def test_factorization_correct(self, rng):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, v=8)
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-12

    def test_factors_written_back_in_caller_layout(self, rng):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, v=8)
        packed = res.gather()
        expected = np.tril(res.lower, -1) + res.upper
        assert np.allclose(packed, expected)

    def test_reshuffle_cost_is_low_order(self, rng):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, v=8)
        # COSTA reshuffles move at most ~2 matrix copies in total.
        assert res.reshuffle_words <= 2 * desc.n * desc.n

    def test_same_tile_size_reshuffle_free(self, rng):
        machine, desc, _, a = setup_machine(rng, mb=8)
        res = pdgetrf(machine, "A", desc, v=8)
        assert res.reshuffle_words == 0

    def test_with_replication(self, rng):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, v=8, c=2)
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-12

    def test_non_square_rejected(self, rng):
        machine = Machine(4)
        desc = ScaLAPACKDescriptor(m=32, n=64, mb=16, nb=16,
                                   prows=2, pcols=2)
        with pytest.raises(ValueError):
            pdgetrf(machine, "A", desc)

    def test_solve_roundtrip(self, rng):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, v=8)
        x = rng.standard_normal(desc.n)
        assert np.allclose(pdgetrs(res, a @ x), x, atol=1e-8)


#: The seven one-call functions, each with its table row and small
#: parameters.
ONE_CALL = [
    (conflux_lu, "lu", "conflux", {"v": 8, "c": 2}),
    (confchox_cholesky, "cholesky", "confchox", {"v": 8, "c": 2}),
    (matmul_25d, "gemm", "25d", {"s": 8, "c": 2}),
    (scalapack_lu, "lu", "mkl", {"nb": 16}),
    (slate_lu, "lu", "slate", {"nb": 16}),
    (scalapack_cholesky, "cholesky", "mkl-chol", {"nb": 16}),
    (slate_cholesky, "cholesky", "slate-chol", {"nb": 16}),
]


class TestOneCall:
    """A one-call function is its implementation-table row run on a
    fresh, unbounded :class:`DistributedBackend` — the execution a pd*
    call makes, so it reports counted words, not a formula."""

    @pytest.mark.parametrize("fn,op,label,params", ONE_CALL,
                             ids=[row[0].__name__ for row in ONE_CALL])
    def test_runs_its_row_on_the_distributed_backend(self, fn, op, label,
                                                     params):
        n, p = 64, 8
        one = fn(n, p, rng=np.random.default_rng(3), **params)
        ref = DistributedBackend().run(build(op, label, n, p, **params),
                                       rng=np.random.default_rng(3))
        assert one.params == ref.params
        for field in ("recv_words", "recv_msgs", "flops"):
            assert np.array_equal(getattr(one.comm, field),
                                  getattr(ref.comm, field)), field
        for field in ("lower", "upper", "perm"):
            mine, theirs = getattr(one, field), getattr(ref, field)
            assert (mine is None and theirs is None
                    or np.array_equal(mine, theirs)), field

    def test_conflux_lu_pivots_as_pdgetrf(self, rng):
        """On a general (non-dominant) matrix the tournament's pivots
        are the ones ``pdgetrf(impl="conflux")`` picks."""
        n, p = 64, 8
        a = rng.standard_normal((n, n))
        machine = Machine(p)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=8, nb=8, prows=2, pcols=4)
        BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(2, 4)).scatter_from(
            machine, "A", a)
        pd = pdgetrf(machine, "A", desc, impl="conflux", v=8, c=2)
        one = conflux_lu(n, p, v=8, c=2, a=a)
        assert np.array_equal(one.perm, pd.perm)
        assert np.any(one.perm != np.arange(n))


class TestBaselineRouting:
    """impl="scalapack" runs the 2D baselines through the same
    DistributedBackend path as the 2.5D schedules, so their counted
    volumes are directly comparable."""

    def test_pdgetrf_scalapack_correct(self, rng):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, nb=16, impl="scalapack")
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-12

    def test_pdgetrf_scalapack_counted_matches_trace(self, rng):
        """The counted factorization volume sits at the analytic 2D
        trace at leading order — below it (the trace over-counts, see
        the parity suite; a 2x2 descriptor grid sees the broadcast-root
        idealization at full strength) but within a bounded factor."""
        n = 64
        machine = Machine(4)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16, prows=2, pcols=2)
        layout = BlockCyclicLayout(n, n, 16, 16, ProcessorGrid2D(2, 2))
        layout.scatter_from(machine, "A", rng.standard_normal((n, n)))
        res = pdgetrf(machine, "A", desc, nb=16, impl="scalapack")
        [trace] = harness.trace(
            ScalapackLUSchedule(n, 4, nb=16, panel_rebroadcast=False))
        assert res.factorization_words <= trace.comm.total_recv_words
        assert res.factorization_words >= 0.5 * trace.comm.total_recv_words

    def test_pdpotrf_scalapack_correct(self, rng):
        machine, desc, _, a = setup_machine(rng, spd=True)
        res = pdpotrf(machine, "A", desc, nb=16, impl="scalapack")
        err = np.linalg.norm(a - res.lower @ res.lower.T)
        assert err / np.linalg.norm(a) < 1e-12

    def test_replication_rejected_for_2d(self, rng):
        machine, desc, _, _ = setup_machine(rng)
        with pytest.raises(ValueError):
            pdgetrf(machine, "A", desc, nb=16, c=2, impl="scalapack")
        with pytest.raises(ValueError):
            pdpotrf(machine, "A", desc, nb=16, c=2, impl="scalapack")

    def test_unknown_impl_rejected(self, rng):
        machine, desc, _, _ = setup_machine(rng)
        with pytest.raises(ValueError):
            pdgetrf(machine, "A", desc, impl="magma")


class TestDistributedSolves:
    """pdgetrs/pdpotrs on the ScaLAPACK distributed views: two local
    triangular solves on the factors, one right-hand side or several."""

    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_pdgetrs_on_scalapack_view(self, rng, nrhs):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, nb=16, impl="scalapack")
        x = rng.standard_normal(desc.n if nrhs is None else (desc.n, nrhs))
        assert np.allclose(pdgetrs(res, a @ x), x, atol=1e-8)

    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_pdpotrs_on_scalapack_view(self, rng, nrhs):
        machine, desc, _, a = setup_machine(rng, spd=True)
        res = pdpotrf(machine, "A", desc, nb=16, impl="scalapack")
        x = rng.standard_normal(desc.n if nrhs is None else (desc.n, nrhs))
        assert np.allclose(pdpotrs(res, a @ x), x, atol=1e-7)

    def test_rhs_size_checked(self, rng):
        machine, desc, _, _ = setup_machine(rng)
        lu = pdgetrf(machine, "A", desc, v=8)
        machine, desc, _, _ = setup_machine(rng, spd=True)
        chol = pdpotrf(machine, "A", desc, v=8)
        for solve, res in ((pdgetrs, lu), (pdpotrs, chol)):
            with pytest.raises(ValueError):
                solve(res, np.zeros(desc.n // 2))

    def test_other_factorization_rejected(self, rng):
        machine, desc, _, _ = setup_machine(rng)
        lu = pdgetrf(machine, "A", desc, v=8)
        machine, desc, _, a = setup_machine(rng, spd=True)
        chol = pdpotrf(machine, "A", desc, v=8)
        for solve, res in ((pdgetrs, chol), (pdpotrs, lu)):
            with pytest.raises(ValueError):
                solve(res, a)


class TestPdgemm:
    def test_product_correct(self, rng):
        machine, desc, layout, a = setup_machine(rng)
        b = rng.standard_normal((desc.n, desc.n))
        layout.scatter_from(machine, "B", b)
        res = pdgemm(machine, "A", desc, "B", desc)
        assert np.allclose(res.lower, a @ b)

    def test_product_written_back_in_caller_layout(self, rng):
        machine, desc, layout, a = setup_machine(rng)
        b = rng.standard_normal((desc.n, desc.n))
        layout.scatter_from(machine, "B", b)
        res = pdgemm(machine, "A", desc, "B", desc)
        assert np.allclose(res.gather(), a @ b)

    def test_with_replication(self, rng):
        machine, desc, layout, a = setup_machine(rng)
        b = rng.standard_normal((desc.n, desc.n))
        layout.scatter_from(machine, "B", b)
        res = pdgemm(machine, "A", desc, "B", desc, s=8, c=2)
        assert np.allclose(res.lower, a @ b)

    def test_counted_volume_matches_trace_at_leading_order(self, rng):
        from repro.factorizations import Matmul25DSchedule

        machine, desc, layout, a = setup_machine(rng)
        b = rng.standard_normal((desc.n, desc.n))
        layout.scatter_from(machine, "B", b)
        res = pdgemm(machine, "A", desc, "B", desc, s=8, c=2)
        [trace] = harness.trace(
            Matmul25DSchedule(desc.n, 4, s=8, c=2))
        assert res.factorization_words <= trace.comm.total_recv_words
        assert res.factorization_words == pytest.approx(
            trace.comm.total_recv_words, rel=0.55)

    def test_size_mismatch_rejected(self, rng):
        machine = Machine(4)
        d1 = ScaLAPACKDescriptor(m=64, n=64, mb=16, nb=16, prows=2, pcols=2)
        d2 = ScaLAPACKDescriptor(m=32, n=32, mb=16, nb=16, prows=2, pcols=2)
        with pytest.raises(ValueError):
            pdgemm(machine, "A", d1, "B", d2)


class TestPdpotrf:
    def test_factorization_correct(self, rng):
        machine, desc, _, a = setup_machine(rng, spd=True)
        res = pdpotrf(machine, "S" if False else "A", desc, v=8)
        err = np.linalg.norm(a - res.lower @ res.lower.T)
        assert err / np.linalg.norm(a) < 1e-12

    def test_solve_roundtrip(self, rng):
        machine, desc, _, a = setup_machine(rng, spd=True)
        res = pdpotrf(machine, "A", desc, v=8)
        x = rng.standard_normal(desc.n)
        assert np.allclose(pdpotrs(res, a @ x), x, atol=1e-7)

    def test_perm_is_none(self, rng):
        machine, desc, _, a = setup_machine(rng, spd=True)
        res = pdpotrf(machine, "A", desc, v=8)
        assert res.perm is None


class TestPlanKwarg:
    """plan= runs a caller-supplied Plan/PlannedConfig without
    re-planning, and PDResult carries it (satellites 1 and 3)."""

    def test_pdgetrf_with_plan_object(self, rng):
        from repro.planner import plan_lu

        machine, desc, _, a = setup_machine(rng)
        plan = plan_lu(desc.n, 4)
        res = pdgetrf(machine, "A", desc, plan=plan)
        assert res.plan is plan
        chosen = plan.chosen
        assert res.params == {"impl": chosen.impl, **chosen.params}
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-12

    def test_pdgetrf_with_bare_planned_config(self, rng):
        from repro.planner import plan_lu

        machine, desc, _, a = setup_machine(rng)
        config = plan_lu(desc.n, 4).chosen
        res = pdgetrf(machine, "A", desc, plan=config)
        assert res.plan is config
        assert res.params == {"impl": config.impl, **config.params}

    def test_plan_overrides_explicit_parameters(self, rng):
        from repro.planner import plan_lu

        machine, desc, _, a = setup_machine(rng)
        plan = plan_lu(desc.n, 4)
        res = pdgetrf(machine, "A", desc, v=32, c=1, plan=plan)
        assert res.params == {"impl": plan.chosen.impl,
                              **plan.chosen.params}

    def test_pdpotrf_with_plan(self, rng):
        from repro.planner import plan_cholesky

        machine, desc, _, a = setup_machine(rng, spd=True)
        plan = plan_cholesky(desc.n, 4)
        res = pdpotrf(machine, "A", desc, plan=plan)
        assert res.plan is plan
        err = np.linalg.norm(a - res.lower @ res.lower.T)
        assert err / np.linalg.norm(a) < 1e-12

    def test_pdgemm_with_plan(self, rng):
        from repro.planner import plan_gemm

        machine, desc, layout, a = setup_machine(rng)
        b = rng.standard_normal((desc.n, desc.n))
        layout.scatter_from(machine, "B", b)
        plan = plan_gemm(desc.n, 4)
        res = pdgemm(machine, "A", desc, "B", desc, plan=plan)
        assert res.plan is plan
        assert res.params == {"impl": "25d", **plan.chosen.params}
        assert np.allclose(res.lower, a @ b)

    def test_wrong_plan_type_rejected(self, rng):
        machine, desc, _, a = setup_machine(rng)
        with pytest.raises(TypeError, match="Plan or PlannedConfig"):
            pdgetrf(machine, "A", desc, plan={"impl": "conflux"})

    def test_explicit_call_has_no_plan(self, rng):
        machine, desc, _, a = setup_machine(rng)
        assert pdgetrf(machine, "A", desc, v=8).plan is None


class TestAutoUsesService:
    @pytest.fixture
    def service(self):
        """A fresh default service for the test, the previous one
        restored after."""
        from repro.planner import PlanService, set_default_service

        service = PlanService()
        previous = set_default_service(service)
        yield service
        set_default_service(previous)

    def test_default_service_consulted_and_plan_attached(self, rng, service):
        from repro.planner import Plan

        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, impl="auto")
        assert isinstance(res.plan, Plan)
        assert service.stats.served == 1
        assert res.params["impl"] == res.plan.chosen.impl

    def test_repeat_auto_hits_lru(self, rng, service):
        machine, desc, _, a = setup_machine(rng)
        pdgetrf(machine, "A", desc, impl="auto")
        pdgetrf(machine, "A", desc, impl="auto", out_name="A:lu2")
        assert service.stats.lru_hits == 1
        assert service.stats.live_plans == 1


class TestNbKwarg:
    """nb= is the 2D baselines' panel width; the 2.5D tile size v= is
    rejected there, never silently ignored."""

    def test_nb_runs_and_recorded(self, rng):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, nb=8, impl="scalapack")
        assert res.params == {"impl": "scalapack", "nb": 8}
        assert res.v == 8

    def test_v_rejected_naming_nb(self, rng):
        machine, desc, _, a = setup_machine(rng)
        with pytest.raises(ValueError, match="nb="):
            pdgetrf(machine, "A", desc, v=8, impl="scalapack")
        machine, desc, _, a = setup_machine(rng, spd=True)
        with pytest.raises(ValueError, match="nb="):
            pdpotrf(machine, "A", desc, v=8, impl="scalapack")

    def test_conflicting_nb_and_v_rejected(self, rng):
        machine, desc, _, a = setup_machine(rng)
        with pytest.raises(ValueError, match="nb="):
            pdgetrf(machine, "A", desc, v=16, nb=8, impl="scalapack")

    @pytest.mark.parametrize("pd,impl,kwargs,foreign", [
        (pdgetrf, "conflux", dict(v=8, c=1, nb=32), "nb=32"),
        (pdgetrf, "conflux", dict(nb=8), "nb=8"),
        (pdpotrf, "confchox", dict(v=8, nb=32), "nb=32"),
        (pdgetrf, "scalapack", dict(nb=8, c=2), "c=2"),
        (pdpotrf, "scalapack", dict(v=8), "v=8"),
    ])
    def test_foreign_kwarg_rejected_for_every_impl(self, rng, pd, impl,
                                                   kwargs, foreign):
        """An explicit keyword the impl does not take is rejected in
        both directions — the 2.5D impls used to drop ``nb``."""
        machine, desc, _, _ = setup_machine(rng, spd=pd is pdpotrf)
        with pytest.raises(ValueError, match=foreign):
            pd(machine, "A", desc, impl=impl, **kwargs)

    def test_pdpotrf_nb(self, rng):
        machine, desc, _, a = setup_machine(rng, spd=True)
        res = pdpotrf(machine, "A", desc, nb=8, impl="scalapack")
        assert res.params == {"impl": "scalapack", "nb": 8}
        err = np.linalg.norm(a - res.lower @ res.lower.T)
        assert err / np.linalg.norm(a) < 1e-12


class TestNativeCopyLifecycle:
    """The transient native-layout copies every pd* call preps and
    writes back must be freed before the call returns — chained calls
    on an enforcing machine must not accumulate dead copies."""

    def _scatter(self, rng, machine, desc, n):
        layout = BlockCyclicLayout(n, n, desc.mb, desc.mb,
                                   ProcessorGrid2D(desc.prows, desc.pcols))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        layout.scatter_from(machine, "A", a)
        return a

    def test_no_native_keys_survive_call(self, rng):
        machine, desc, _, _ = setup_machine(rng)
        pdgetrf(machine, "A", desc, v=16)
        leftovers = [key for rank in range(machine.nranks)
                     for key in machine.store(rank).keys()
                     if isinstance(key, tuple) and ":native" in key[0]]
        assert leftovers == []

    def test_chained_pdgetrf_fits_enforced_budget(self, rng):
        """Regression: the written-back native factors used to stay
        resident, so a second factorization on a machine sized for one
        blew the budget.  Steady state per rank is the operand, the
        previous packed factors and the pivot map (3 N^2/P on 4
        ranks); the budget below is exactly the second call's
        pre-flight reserve on top of that steady state — any leaked
        copy, input or output, overflows it."""
        n = 64
        schedule = ConfluxSchedule(n, 4, v=16, c=1)
        per_rank = n * n / 4
        required = schedule.required_words()
        machine = machine_for(schedule,
                              slack=(required + 6 * per_rank) / required)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=16, nb=16,
                                   prows=2, pcols=2)
        a = self._scatter(rng, machine, desc, n)
        first = pdgetrf(machine, "A", desc, v=16, out_name="F1")
        second = pdgetrf(machine, "A", desc, v=16, out_name="F2")
        for res in (first, second):
            err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
            assert err / np.linalg.norm(a) < 1e-12


def work_keys(machine):
    """Store keys under any schedule-private ``work_name``."""
    return [key for store in machine.stores for key in store.keys()
            if isinstance(key, tuple) and isinstance(key[0], tuple)
            and key[0][0] == "work"]


class TestWorkingSetLifetime:
    """Everything a schedule keeps under a ``work_name`` — its tiles,
    the ``c`` partial-sum replicas, SUMMA's operand replicas and
    reduced chunks — belongs to the ``pd*`` call that ran it and is
    freed before the call returns.  Regression: it all stayed resident,
    so an enforcing machine accepted a call once and refused the
    identical second one at its own pre-flight gate."""

    CALLS = {
        "conflux": (pdgetrf, dict(impl="conflux", v=8, c=2)),
        "scalapack-lu": (pdgetrf, dict(impl="scalapack", nb=8)),
        "confchox": (pdpotrf, dict(impl="confchox", v=8, c=2)),
        "scalapack-chol": (pdpotrf, dict(impl="scalapack", nb=8)),
        "25d": (pdgemm, dict(impl="25d", s=8, c=2)),
    }

    @pytest.mark.parametrize("label", CALLS)
    def test_call_leaves_operands_and_output_only(self, rng, label):
        pd, kw = self.CALLS[label]
        machine, desc, layout, _ = setup_machine(rng, spd=True)
        operands = [("A", desc)]
        if pd is pdgemm:
            layout.scatter_from(machine, "B", rng.standard_normal((64, 64)))
            operands.append(("B", desc))
        args = [arg for operand in operands for arg in operand]
        for out_name in ("R1", "R2"):       # the second call adds one output
            operands.append((out_name, desc))
            pd(machine, *args, out_name=out_name, **kw)
            assert work_keys(machine) == []
            assert np.array_equal(machine.words_per_rank(),
                                  len(operands) * layout.words_per_rank())

    def test_repeated_call_fits_the_budget_the_first_one_fit(self):
        n, p = 128, 16
        required = ConfchoxSchedule(n, p, v=8, c=2).required_words()
        machine = Machine(p, mem_words=required + 5 * n * n / p,
                          enforce_memory=True)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=8, nb=8, prows=4, pcols=4)
        g = np.random.default_rng(7).standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(4, 4)).scatter_from(
            machine, "X", a)
        for _ in range(3):
            res = pdpotrf(machine, "X", desc, impl="confchox", v=8, c=2)
            assert np.allclose(res.lower @ res.lower.T, a)
            assert machine.peak_words_per_rank().max() <= machine.mem_words

    @pytest.mark.parametrize("pd, schedule", [(pdpotrf, ConfchoxSchedule),
                                              (pdgetrf, ConfluxSchedule)],
                             ids=["pdpotrf", "pdgetrf"])
    def test_failing_call_frees_what_it_allocated(self, pd, schedule):
        """Regression: the free ran on success only.  A call refused by
        its kernel mid-run (an indefinite matrix for Cholesky, a
        singular one for LU) left its partial sums, transients and
        prepped input resident, and the next — valid — call on the same
        enforcing machine was refused at its own gate."""
        n, p = 64, 8
        machine = Machine(
            p, mem_words=(schedule(n, p, v=8, c=2).required_words()
                          + 5 * n * n / p), enforce_memory=True)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=8, nb=8, prows=2, pcols=4)
        layout = BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(2, 4))
        g = np.random.default_rng(11).standard_normal((n, n))
        good = g @ g.T + n * np.eye(n)
        bad = g + g.T                       # symmetric, indefinite
        if pd is pdgetrf:
            bad = g.copy()
            bad[:, 40:] = 0.0               # exactly singular from step 5
        layout.scatter_from(machine, "X", bad)
        layout.scatter_from(machine, "G", good)
        before = machine.words_per_rank()
        with pytest.raises(KernelError):
            pd(machine, "X", desc, v=8, c=2)
        assert work_keys(machine) == []
        assert np.array_equal(machine.words_per_rank(), before)
        assert np.array_equal(layout.gather_to(machine, "X"), bad)
        res = pd(machine, "G", desc, v=8, c=2)
        product = (res.lower @ res.lower.T if pd is pdpotrf
                   else (res.lower @ res.upper)[np.argsort(res.perm)])
        assert np.allclose(product, good)

    def test_no_tile_of_another_width_is_left_behind(self, rng):
        machine, desc, layout, a = setup_machine(rng)
        for v in (8, 16):
            res = pdgetrf(machine, "A", desc, v=v, c=2, out_name="F")
            assert np.allclose(a[res.perm], res.lower @ res.upper)
            assert work_keys(machine) == []
        assert np.array_equal(machine.words_per_rank(),
                              2 * layout.words_per_rank())

    def test_bare_backend_run_keeps_its_final_tiles(self, rng):
        """The free is the api layer's: a schedule run directly through
        the backend returns with its owned tiles in place."""
        from repro.engine import DistributedBackend

        machine = Machine(4)
        DistributedBackend(machine).run(
            ScalapackLUSchedule(64, 4, nb=8, panel_rebroadcast=False))
        assert len(work_keys(machine)) == 64
        assert machine.words_per_rank().sum() == 64 * 64


def _tile_params(op, label):
    """Small-problem parameters of an implementation table row."""
    width = implementation(op, label).params[0]
    return {width: 4 if width == "v" else 8}


#: Every LU/Cholesky row of the implementation table with numerics
#: (CANDMC and CAPITAL are trace-only).
NUMERIC = [(op, label) for op in ("lu", "cholesky") for label in labels(op)
           if build(op, label, 32, 4, **_tile_params(op, label))
           .supports_distributed]


class TestNonFiniteInput:
    """NaN or infinite input is refused with a ``ValueError`` naming its
    first entry (row-major), before any factor is formed — Cholesky's
    too, ahead of the symmetry check.  Regression: LU turned it into
    non-finite factors without an error, Cholesky called it "not
    symmetric"."""

    N = 32

    def bad_matrix(self, op, value):
        g = np.random.default_rng(5).standard_normal((self.N, self.N))
        a = (g @ g.T if op == "cholesky" else g) + self.N * np.eye(self.N)
        a[20, 3] = a[9, 5] = value          # lower: Cholesky reads it
        return a

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("op,label", NUMERIC)
    def test_one_call_and_distributed_views_refuse(self, op, label, value):
        a = self.bad_matrix(op, value)
        schedule = build(op, label, self.N, 4, **_tile_params(op, label))
        match = rf"input entry \(9, 5\) is {value}"
        with pytest.raises(ValueError, match=match):
            run_impl(op, label, self.N, 4, a=a, **_tile_params(op, label))
        machine = Machine(4)
        with pytest.raises(ValueError, match=match):
            DistributedBackend(machine).run(schedule, a=a)
        assert work_keys(machine) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("op,impl", [(op, impl)
                                         for op in ("lu", "cholesky")
                                         for impl in planner_labels(op)])
    def test_pd_call_refuses_the_tiles_it_adopts(self, op, impl, value):
        machine = Machine(4)
        desc = ScaLAPACKDescriptor(m=self.N, n=self.N, mb=8, nb=8,
                                   prows=2, pcols=2)
        layout = BlockCyclicLayout(self.N, self.N, 8, 8,
                                   ProcessorGrid2D(2, 2))
        layout.scatter_from(machine, "A", self.bad_matrix(op, value))
        pd = pdgetrf if op == "lu" else pdpotrf
        with pytest.raises(ValueError, match=rf"input entry \(9, 5\)"):
            pd(machine, "A", desc, impl=impl, **_tile_params(op, impl))
        # Nothing is left behind but the caller's operand.
        assert work_keys(machine) == []
        assert np.array_equal(machine.words_per_rank(),
                              layout.words_per_rank())


class TestGateMatchesPeak:
    """The pre-flight gate reserves what ``call_memory`` states: on top
    of the resident operand (1 u = n^2/P) the native copy — 2 u on the
    layer-0 ranks at ``c = 2`` — plus ``required_words()``; the run
    must then fit, and one word less is refused before a word moves.
    Regression (perf/README finding a): the prepped native input used
    to stay alive through writeback, so a machine sized
    ``required_words() + 4 n^2/P`` passed the gate and overflowed by
    256 words writing the factors back."""

    N, P = 512, 16

    def _machine(self, copies, slack=0):
        n, p = self.N, self.P
        required = ConfchoxSchedule(n, p, v=16, c=2).required_words()
        machine = Machine(p, mem_words=required + copies * n * n / p + slack,
                          enforce_memory=True)
        desc = ScaLAPACKDescriptor(m=n, n=n, mb=32, nb=32, prows=4, pcols=4)
        g = np.random.default_rng(7).standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        BlockCyclicLayout(n, n, 32, 32, ProcessorGrid2D(4, 4)).scatter_from(
            machine, "X", a)
        return machine, desc, a

    def test_passes_at_four_copies(self):
        machine, desc, a = self._machine(4)
        res = pdpotrf(machine, "X", desc, impl="confchox", v=16, c=2)
        err = np.linalg.norm(a - res.lower @ res.lower.T)
        assert err / np.linalg.norm(a) < 1e-12
        assert machine.peak_words_per_rank().max() <= machine.mem_words

    def test_passes_at_three_copies(self):
        machine, desc, a = self._machine(3)
        res = pdpotrf(machine, "X", desc, impl="confchox", v=16, c=2)
        err = np.linalg.norm(a - res.lower @ res.lower.T)
        assert err / np.linalg.norm(a) < 1e-12
        assert machine.peak_words_per_rank().max() <= machine.mem_words

    def test_still_rejected_up_front_one_word_under_three_copies(self):
        machine, desc, _ = self._machine(3, slack=-1)
        unit = self.N * self.N / self.P
        before = machine.stats.total_recv_words
        with pytest.raises(MemoryBudgetExceeded) as exc_info:
            pdpotrf(machine, "X", desc, impl="confchox", v=16, c=2)
        exc = exc_info.value
        assert exc.step == "<feasibility>"
        assert machine.stats.total_recv_words == before
        # The refusal says which call, which phase and how it adds up.
        op, out_name, need = exc.key
        assert (op, out_name, need.phase) == ("cholesky", "X:chol", "backend")
        assert (need.held, need.native) == (unit, 2 * unit)
        assert need.required == machine.mem_words + 1 - 3 * unit
        assert exc.needed_words == need.words == machine.mem_words + 1
        assert exc.rank < self.P // 2       # layer 0 holds the native copy


class TestOperandNamesAreTheCallers:
    """Schedules keep their working tiles under ``work_name(...)``
    store names, so an operand may be called anything — including the
    ``"A"``/``"B"``/``"C"``/``"P"`` the schedules used to claim
    (perf/README finding d)."""

    def test_operand_named_A_survives_scalapack_cholesky(self, rng):
        machine, desc, layout, a = setup_machine(rng, spd=True)
        res = pdpotrf(machine, "A", desc, impl="scalapack", nb=16)
        assert np.array_equal(layout.gather_to(machine, "A"), a)
        assert np.allclose(res.lower @ res.lower.T, a)

    def test_operand_named_A_survives_scalapack_lu(self, rng):
        machine, desc, layout, a = setup_machine(rng)
        pdgetrf(machine, "A", desc, impl="scalapack", nb=16)
        assert np.array_equal(layout.gather_to(machine, "A"), a)

    def test_two_successive_pdgemm_calls_on_one_machine(self, rng):
        machine, desc, layout, a = setup_machine(rng)
        b = rng.standard_normal((64, 64))
        layout.scatter_from(machine, "B", b)
        first = pdgemm(machine, "A", desc, "B", desc, out_name="C")
        second = pdgemm(machine, "A", desc, "B", desc, out_name="C2")
        assert np.allclose(first.lower, a @ b)
        assert np.allclose(second.lower, a @ b)
        assert np.array_equal(layout.gather_to(machine, "A"), a)
        assert np.array_equal(layout.gather_to(machine, "B"), b)
        assert np.allclose(layout.gather_to(machine, "C"), a @ b)

    def test_operand_named_P_survives_conflux(self, rng):
        machine, desc, layout, a = setup_machine(rng)
        layout.scatter_from(machine, "P", a)
        res = pdgetrf(machine, "P", desc, v=16)
        assert np.array_equal(layout.gather_to(machine, "P"), a)
        assert np.allclose(a[res.perm], res.lower @ res.upper)


#: Every tag a schedule or ``distops`` helper keeps (or, ``Ap`` /
#: ``Bp``, kept) per-step transients under.  As bare strings their
#: ``(tag, t, bi)`` keys were the ``block_key`` of an operand of that
#: name.
TRANSIENT_TAGS = ("cr", "rr", "a00", "piv", "a10", "a01", "tp", "fan", "l00",
                  "swap", "elim", "prb", "d", "ct", "Ap", "Bp", "Cr",
                  "l", "u", "rt", "strips")


class TestOperandsNamedAfterTransients:
    """Per-step transients live under ``work_name(tag)`` too: each
    ``pd*`` x impl factors an operand named after any of their tags and
    leaves the caller's tiles untouched.  8 x 8 tiles, panel width 8,
    so every step index is also a tile index."""

    N = 32

    def scattered(self, names, matrices):
        machine = Machine(4)
        desc = ScaLAPACKDescriptor(m=self.N, n=self.N, mb=8, nb=8,
                                   prows=2, pcols=2)
        layout = BlockCyclicLayout(self.N, self.N, 8, 8,
                                   ProcessorGrid2D(2, 2))
        for name, a in zip(names, matrices):
            layout.scatter_from(machine, name, a)
        return machine, desc, layout

    @pytest.mark.parametrize("tag", TRANSIENT_TAGS)
    @pytest.mark.parametrize("kw", [dict(impl="conflux", v=8, c=2),
                                    dict(impl="scalapack", nb=8)],
                             ids=["conflux", "scalapack"])
    def test_pdgetrf(self, rng, kw, tag):
        a = rng.standard_normal((self.N, self.N))    # general: rows swap
        machine, desc, layout = self.scattered([tag], [a])
        res = pdgetrf(machine, tag, desc, **kw)
        assert np.allclose(a[res.perm], res.lower @ res.upper,
                           rtol=0, atol=1e-10)
        assert np.array_equal(layout.gather_to(machine, tag), a)

    @pytest.mark.parametrize("tag", TRANSIENT_TAGS)
    @pytest.mark.parametrize("kw", [dict(impl="confchox", v=8, c=2),
                                    dict(impl="scalapack", nb=8)],
                             ids=["confchox", "scalapack"])
    def test_pdpotrf(self, rng, kw, tag):
        g = rng.standard_normal((self.N, self.N))
        a = g @ g.T + self.N * np.eye(self.N)
        machine, desc, layout = self.scattered([tag], [a])
        res = pdpotrf(machine, tag, desc, **kw)
        assert np.allclose(a, res.lower @ res.lower.T, rtol=0, atol=1e-10)
        assert np.array_equal(layout.gather_to(machine, tag), a)

    @pytest.mark.parametrize("tags", zip(TRANSIENT_TAGS,
                                         TRANSIENT_TAGS[1:] + ("cr",)),
                             ids=TRANSIENT_TAGS)
    def test_pdgemm(self, rng, tags):
        a, b = rng.standard_normal((2, self.N, self.N))
        machine, desc, layout = self.scattered(tags, [a, b])
        res = pdgemm(machine, tags[0], desc, tags[1], desc, s=8, c=2)
        assert np.allclose(res.lower, a @ b, rtol=0, atol=1e-10)
        assert np.array_equal(layout.gather_to(machine, tags[0]), a)
        assert np.array_equal(layout.gather_to(machine, tags[1]), b)


class TestParamsRecorded:
    """PDResult.params records what the call actually ran with,
    uniformly across entry points."""

    def test_conflux(self, rng):
        machine, desc, _, a = setup_machine(rng)
        res = pdgetrf(machine, "A", desc, v=8, c=2)
        assert res.params == {"impl": "conflux", "v": 8, "c": 2}

    def test_confchox(self, rng):
        machine, desc, _, a = setup_machine(rng, spd=True)
        res = pdpotrf(machine, "A", desc, v=8)
        assert res.params == {"impl": "confchox", "v": 8, "c": 1}

    def test_25d(self, rng):
        machine, desc, layout, a = setup_machine(rng)
        layout.scatter_from(machine, "B",
                            rng.standard_normal((desc.n, desc.n)))
        res = pdgemm(machine, "A", desc, "B", desc, s=8, c=2)
        assert res.params == {"impl": "25d", "s": 8, "c": 2}
