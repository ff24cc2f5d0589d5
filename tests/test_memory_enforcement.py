"""Memory-enforced distributed execution: the paper's M-words budget as
a checked, tested invariant — for every schedule in the engine.

The lower bounds of conf_sc_KwasniewskiKBZS21 are parameterized by the
per-processor memory ``M``; this suite pins the runtime side of that
model parameter.  Every schedule declares a closed-form
``required_words`` (model memory plus transient working set) and the
suite asserts, for all five schedules:

* the distributed run completes under ``Machine(...,
  enforce_memory=True)`` at the declared budget, numerically intact;
* the observed per-rank ``peak_words`` stay at or below the budget on
  *every* rank — transients included, since the stores track the
  high-water mark on every ``put``;
* a budget shaved below the actual working set raises
  ``MemoryBudgetExceeded`` deterministically, at a stable
  (rank, step, key), so an overflow is attributable;
* peak-memory parity, mirroring the volume-parity suite
  (``test_engine_parity.py``): the declared bound must sit at or above
  the measured peak (the analytic side over-counts, never under-) and
  within ``REQUIRED_TIGHTNESS`` of it, and the measured peak must stay
  within ``MODEL_FACTOR`` of the model memory ``mem_words`` — the
  replication footprint the paper's bounds are stated in.

All runs are seeded and deterministic, so the reference runs (one
unbounded, one budget-enforced, one aborted per schedule) are computed
once and shared across the parametrized tests.
"""

import functools

import numpy as np
import pytest

from repro.engine import DistributedBackend, machine_for
from repro.engine.backends import MemoryReport
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    Matmul25DSchedule,
)
from repro.factorizations.baselines.scalapack_chol import (
    ScalapackCholeskySchedule,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule
from repro.machine import Machine, MemoryBudgetExceeded, MemoryLimitError

#: The declared bound may exceed the measured peak by at most this
#: factor (the analytic transients are upper bounds; a looser formula
#: would make budget enforcement vacuous).
REQUIRED_TIGHTNESS = 2.5

#: The measured peak may exceed the model memory ``mem_words`` (the
#: paper's ``M``: ``c N^2/P`` for 2.5D, ``3 c N^2/P`` for SUMMA,
#: ``N^2/P`` for the 2D baselines) by at most this factor: transients
#: and tile-granularity ceilings, bounded.  At these test scales the
#: ceilings bite hardest; the overhead shrinks toward 1 as N/P grows
#: (the examples' paper-scale sweep shows ~1.0-1.4).
MODEL_FACTOR = 2.5


def _seeded(seed=12345):
    return np.random.default_rng(seed)


def _dominant(n, rng):
    return rng.standard_normal((n, n)) + n * np.eye(n)


def _spd(n, rng):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


# name -> (schedule factory, input factory): all five engine schedules.
CASES = {
    "conflux": (lambda: ConfluxSchedule(64, 8, v=8, c=2),
                lambda rng: _dominant(64, rng)),
    "confchox": (lambda: ConfchoxSchedule(64, 8, v=8, c=2),
                 lambda rng: _spd(64, rng)),
    "matmul25d": (lambda: Matmul25DSchedule(32, 8, s=8, c=2),
                  lambda rng: (rng.standard_normal((32, 32)),
                               rng.standard_normal((32, 32)))),
    "scalapack-lu": (
        lambda: ScalapackLUSchedule(64, 4, nb=8, panel_rebroadcast=False),
        lambda rng: rng.standard_normal((64, 64))),  # generic: pivoting on
    "scalapack-chol": (lambda: ScalapackCholeskySchedule(64, 4, nb=8),
                       lambda rng: _spd(64, rng)),
}

IDS = list(CASES)


def run_enforced(name: str, budget: float | None = None) -> tuple:
    """One distributed run on a budget-enforced machine; returns
    (result, memory report, schedule)."""
    make_sched, make_input = CASES[name]
    sched = make_sched()
    machine = (machine_for(sched) if budget is None
               else Machine(sched.nranks, mem_words=budget,
                            enforce_memory=True))
    backend = DistributedBackend(machine)
    result = backend.run(sched, a=make_input(_seeded()))
    return result, backend.memory_report(), sched


# The reference runs are deterministic (fixed seed, fixed config), so
# each is executed once per case and shared across tests.

@functools.lru_cache(maxsize=None)
def enforced_reference(name: str) -> tuple:
    """The budget-enforced run at the declared budget (cached)."""
    return run_enforced(name)


@functools.lru_cache(maxsize=None)
def observed_peak(name: str) -> float:
    """Max per-rank peak of an unbounded reference run (cached)."""
    make_sched, make_input = CASES[name]
    backend = DistributedBackend()
    backend.run(make_sched(), a=make_input(_seeded()))
    return backend.memory_report().max_peak_words


def failure_site(name: str) -> tuple:
    """Run one word below the observed peak; returns the violation's
    (rank, step, key, needed_words, exception)."""
    with pytest.raises(MemoryBudgetExceeded) as exc_info:
        run_enforced(name, budget=observed_peak(name) - 1)
    e = exc_info.value
    return (e.rank, e.step, e.key, e.needed_words, e)


@functools.lru_cache(maxsize=None)
def first_failure(name: str) -> tuple:
    return failure_site(name)


class TestBudgetedRunsSucceed:
    """(a) every schedule runs green at its declared budget."""

    @pytest.mark.parametrize("name", IDS)
    def test_completes_within_declared_budget(self, name):
        result, report, sched = enforced_reference(name)
        assert report.enforced
        assert report.within_budget
        assert result.comm.total_recv_words > 0

    @pytest.mark.parametrize("name", IDS)
    def test_numerics_survive_enforcement(self, name):
        """Budget checking must not alter the factors/product."""
        result, _, _ = enforced_reference(name)
        a = CASES[name][1](_seeded())
        if name == "matmul25d":
            assert np.allclose(result.lower, a[0] @ a[1])
        elif "chol" in name or name == "confchox":
            err = np.linalg.norm(a - result.lower @ result.lower.T)
            assert err / np.linalg.norm(a) < 1e-11
        else:
            err = np.linalg.norm(a[result.perm]
                                 - result.lower @ result.upper)
            assert err / np.linalg.norm(a) < 1e-11


class TestPeakWithinBudget:
    """(b) observed peak_words <= budget on every rank, transients
    included."""

    @pytest.mark.parametrize("name", IDS)
    def test_every_rank_peak_at_or_below_budget(self, name):
        _, report, _ = enforced_reference(name)
        over = np.where(report.peak_words > report.budget_words)[0]
        assert over.size == 0, f"ranks over budget: {over}"

    @pytest.mark.parametrize("name", IDS)
    def test_step_peaks_cover_every_step(self, name):
        """Per-step transient budgeting: one peak per superstep, each at
        or below the run-wide high-water mark."""
        _, report, sched = enforced_reference(name)
        assert len(report.step_peaks) == sched.steps()
        labels = [label for label, _ in report.step_peaks]
        assert labels == [sched.step_label(t) for t in range(sched.steps())]
        assert all(p <= report.max_peak_words for _, p in report.step_peaks)
        # The hottest step's transient peak is the run-wide peak unless
        # initial placement dominates (it never does here: every
        # schedule's working set grows past its at-rest layout).
        assert report.peak_step()[1] == report.max_peak_words


class TestUndersizedBudgetRaises:
    """(c) one word below the working set -> a deterministic, located
    MemoryBudgetExceeded."""

    @pytest.mark.parametrize("name", IDS)
    def test_raises_with_context(self, name):
        rank, step, key, needed, exc = first_failure(name)
        assert 0 <= rank < CASES[name][0]().nranks
        assert key is not None
        assert exc.capacity_words == observed_peak(name) - 1
        assert needed > exc.capacity_words
        # Structured context also renders readably.
        assert f"rank {rank}" in str(exc)
        # The budget violation is also the legacy memory error, so
        # pre-existing catch sites keep working.
        assert isinstance(exc, MemoryLimitError)

    @pytest.mark.parametrize("name", IDS)
    def test_failure_is_deterministic(self, name):
        """Same config, same seed -> the overflow happens at the same
        (rank, step, key) every time: a fresh run reproduces the cached
        reference failure exactly."""
        assert failure_site(name)[:4] == first_failure(name)[:4]

    @pytest.mark.parametrize("name", IDS)
    def test_report_available_after_abort(self, name):
        """The memory report of an aborted run shows how far it got."""
        peak = observed_peak(name)
        make_sched, make_input = CASES[name]
        sched = make_sched()
        machine = Machine(sched.nranks, mem_words=peak - 1,
                          enforce_memory=True)
        backend = DistributedBackend(machine)
        with pytest.raises(MemoryBudgetExceeded):
            backend.run(sched, a=make_input(_seeded()))
        report = backend.memory_report()
        assert report.enforced
        assert report.max_peak_words <= peak - 1


class TestPeakMemoryParity:
    """(d) trace-declared vs distributed-measured peak memory agree
    within documented tolerance, mirroring the volume-parity suite."""

    @pytest.mark.parametrize("name", IDS)
    def test_required_words_bounds_peak_tightly(self, name):
        peak = observed_peak(name)
        required = CASES[name][0]().required_words()
        assert peak <= required, "declared bound under-counts the peak"
        assert required <= REQUIRED_TIGHTNESS * peak, \
            f"declared bound too loose: {required} vs peak {peak}"

    @pytest.mark.parametrize("name", IDS)
    def test_peak_tracks_model_memory(self, name):
        """The measured peak sits at the paper's model memory M up to
        the documented transient/ceiling factor."""
        peak = observed_peak(name)
        model = CASES[name][0]().mem_words
        assert model <= peak <= MODEL_FACTOR * model


class TestMachineFor:
    def test_machine_is_budgeted_and_enforcing(self):
        sched = ConfluxSchedule(64, 8, v=8, c=2)
        machine = machine_for(sched)
        assert machine.enforces_memory
        assert machine.mem_words == sched.required_words()
        assert machine.nranks == sched.nranks

    def test_slack_scales_budget(self):
        sched = ConfluxSchedule(64, 8, v=8, c=2)
        machine = machine_for(sched, slack=2.0)
        assert machine.mem_words == 2.0 * sched.required_words()
        with pytest.raises(ValueError):
            machine_for(sched, slack=0.0)

    def test_backend_enforce_memory_flag(self):
        """DistributedBackend(enforce_memory=True) auto-sizes its fresh
        machine to the schedule's declared budget."""
        sched = ConfluxSchedule(64, 8, v=8, c=2)
        backend = DistributedBackend(enforce_memory=True)
        backend.run(sched, a=_dominant(64, _seeded()))
        report = backend.memory_report()
        assert report.enforced
        assert report.budget_words == sched.required_words()
        assert report.within_budget

    def test_explicit_machine_with_enforce_flag_rejected(self):
        """An explicit machine carries its own enforcement policy;
        combining it with enforce_memory=True would silently not
        enforce, so it is an error."""
        with pytest.raises(ValueError, match="not both"):
            DistributedBackend(Machine(8), enforce_memory=True)

    def test_unbounded_report_reads_unenforced(self):
        sched = ConfluxSchedule(32, 4, v=8, c=1)
        backend = DistributedBackend()
        backend.run(sched, a=_dominant(32, _seeded()))
        report = backend.memory_report()
        assert not report.enforced
        assert np.isnan(report.utilization)
        assert "unbounded" in report.summary()

    def test_report_before_any_run_rejected(self):
        with pytest.raises(RuntimeError):
            DistributedBackend().memory_report()


class TestMemoryReport:
    def test_summary_names_hottest_step(self):
        _, report, _ = enforced_reference("conflux")
        label, peak = report.peak_step()
        assert label in report.summary()
        assert isinstance(report, MemoryReport)
        assert 0 < report.utilization <= 1.0

    def test_resident_words_at_rest_below_peak(self):
        _, report, _ = enforced_reference("conflux")
        assert (report.resident_words <= report.peak_words).all()


class TestApiFeasibilityGate:
    """api.py rejects infeasible (N, P, c) configs up front on a
    budget-enforced machine — before any reshuffle word moves."""

    def _desc(self, n, grid_p):
        from repro.layouts import ScaLAPACKDescriptor
        return ScaLAPACKDescriptor(m=n, n=n, mb=8, nb=8,
                                   prows=grid_p[0], pcols=grid_p[1])

    def test_pdgetrf_rejects_undersized_machine(self):
        from repro import api

        small = Machine(4, mem_words=64, enforce_memory=True)
        desc = self._desc(64, (2, 2))
        with pytest.raises(MemoryBudgetExceeded) as exc_info:
            api.pdgetrf(small, "A", desc, v=8, c=1)
        assert exc_info.value.step == "<feasibility>"
        assert 0 <= exc_info.value.rank < 4
        assert small.stats.total_recv_words == 0       # nothing moved

    def test_resident_caller_tiles_count_against_budget(self):
        """The gate reserves per rank on top of what is already
        resident: a machine sized to required_words alone cannot also
        hold the caller's distributed matrix and the api's layout
        copies, and is rejected up front rather than aborting
        mid-run."""
        from repro import api
        from repro.layouts import BlockCyclicLayout
        from repro.machine import ProcessorGrid2D

        n, p = 64, 8
        required = ConfluxSchedule(n, p, v=8, c=1).required_words()
        machine = Machine(p, mem_words=required, enforce_memory=True)
        lay = BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(2, 2))
        lay.scatter_from(machine, "A", _dominant(n, _seeded()))
        with pytest.raises(MemoryBudgetExceeded) as exc_info:
            api.pdgetrf(machine, "A", self._desc(n, (2, 2)), v=8, c=1)
        exc = exc_info.value
        assert exc.step == "<feasibility>"
        assert machine.stores[exc.rank].words > 0      # the loaded rank

    def test_pdgetrf_completes_on_enforcing_machine_with_headroom(self):
        """The api success path under enforcement: a budget the gate
        accepts really is enough — the factorization and both
        reshuffles complete within it."""
        from repro import api
        from repro.layouts import BlockCyclicLayout
        from repro.machine import ProcessorGrid2D

        n, p = 64, 4
        # What the gate reserves: the schedule's declaration plus the
        # native copy of the operand, on top of the caller's resident
        # matrix (N^2/P per rank each here).
        required = ScalapackLUSchedule(n, p, nb=8).required_words()
        budget = required + 2 * (n * n / p)
        machine = Machine(p, mem_words=budget, enforce_memory=True)
        lay = BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(2, 2))
        a = _dominant(n, _seeded())
        lay.scatter_from(machine, "A", a)
        res = api.pdgetrf(machine, "A", self._desc(n, (2, 2)), nb=8, c=1,
                          impl="scalapack")
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-11
        assert (machine.peak_words_per_rank() <= budget).all()

    def test_pdgemm_rejects_undersized_machine(self):
        from repro import api

        small = Machine(4, mem_words=64, enforce_memory=True)
        desc = self._desc(32, (2, 2))
        with pytest.raises(MemoryBudgetExceeded):
            api.pdgemm(small, "A", desc, "B", desc, c=1)

    def test_pdpotrf_rejects_undersized_machine(self):
        from repro import api

        small = Machine(4, mem_words=64, enforce_memory=True)
        desc = self._desc(32, (2, 2))
        with pytest.raises(MemoryBudgetExceeded):
            api.pdpotrf(small, "A", desc, v=8, c=1)

    #: Every explicit (op, impl, c) at n = 128 on 16 ranks, 4x4 caller
    #: grid: c = 4 puts a 4 n^2/P native copy on each layer-0 rank.
    N, P = 128, 16
    CALLS = [("lu", "conflux", dict(v=16, c=1)),
             ("lu", "conflux", dict(v=8, c=2)),
             ("lu", "conflux", dict(v=8, c=4)),
             ("lu", "scalapack", dict(nb=16)),
             ("cholesky", "confchox", dict(v=16, c=1)),
             ("cholesky", "confchox", dict(v=8, c=2)),
             ("cholesky", "confchox", dict(v=8, c=4)),
             ("cholesky", "scalapack", dict(nb=16)),
             ("gemm", "25d", dict(s=16, c=1)),
             ("gemm", "25d", dict(s=16, c=2)),
             ("gemm", "25d", dict(s=8, c=4))]

    def _loaded(self, op, mem_words):
        """An enforcing machine holding the call's operand(s)."""
        from repro.layouts import BlockCyclicLayout, ScaLAPACKDescriptor
        from repro.machine import ProcessorGrid2D

        n = self.N
        machine = Machine(self.P, mem_words=mem_words, enforce_memory=True)
        lay = BlockCyclicLayout(n, n, 32, 32, ProcessorGrid2D(4, 4))
        make = _spd if op == "cholesky" else _dominant
        for name in ("A", "B")[:1 + (op == "gemm")]:
            lay.scatter_from(machine, name, make(n, _seeded()))
        return machine, ScaLAPACKDescriptor(m=n, n=n, mb=32, nb=32,
                                            prows=4, pcols=4)

    @staticmethod
    def _call(machine, desc, op, impl, kw):
        from repro import api

        if op == "gemm":
            return api.pdgemm(machine, "A", desc, "B", desc, impl=impl, **kw)
        entry = api.pdgetrf if op == "lu" else api.pdpotrf
        return entry(machine, "A", desc, impl=impl, **kw)

    @pytest.mark.parametrize("op,impl,kw", CALLS,
                             ids=[f"{c[1]}-c{c[2].get('c', 1)}"
                                  for c in CALLS])
    def test_runs_at_the_stated_need_refused_one_word_under(self, op, impl,
                                                            kw):
        """``call_memory`` is the boundary: at its value the call
        completes within the budget, one word under it no word moves."""
        from repro.factorizations import build
        from repro.planner.core import call_memory, native_layout

        sched = build(op, impl, self.N, self.P, **kw)
        arity = 1 + (op == "gemm")
        need = call_memory(sched, native_layout(op, sched),
                           arity * self.N * self.N / self.P, arity)
        machine, desc = self._loaded(op, need.words)
        self._call(machine, desc, op, impl, kw)
        assert machine.peak_words_per_rank().max() <= need.words
        machine, desc = self._loaded(op, need.words - 1)
        with pytest.raises(MemoryBudgetExceeded) as exc_info:
            self._call(machine, desc, op, impl, kw)
        exc = exc_info.value
        assert exc.step == "<feasibility>"
        assert machine.stats.total_recv_words == 0
        assert exc.key[0] == op and exc.key[2] == need
        assert (exc.needed_words, exc.capacity_words) == (need.words,
                                                          need.words - 1)

    @pytest.mark.parametrize("op,impl,kw,arity", [
        ("lu", "conflux", dict(v=8, c=4), 1),
        ("gemm", "25d", dict(s=8, c=4), 2)])
    def test_depth_four_is_refused_not_killed_mid_run(self, op, impl, kw,
                                                      arity):
        """Regression: ``required_words()`` plus a constant ``2 +
        arity`` copies of ``N^2/P`` (over the resident operands)
        admitted these two and the machine killed them in their first
        superstep, 17 408 / 32 768 words in — the native copy of a
        depth-4 schedule is ``4 N^2/P`` on layer 0."""
        from repro.factorizations import build

        required = build(op, impl, self.N, self.P, **kw).required_words()
        unit = self.N * self.N / self.P
        machine, desc = self._loaded(op,
                                     required + (2 + 2 * arity) * unit)
        with pytest.raises(MemoryBudgetExceeded) as exc_info:
            self._call(machine, desc, op, impl, kw)
        exc = exc_info.value
        assert exc.step == "<feasibility>"
        assert machine.stats.total_recv_words == 0
        need = exc.key[2]
        assert need.phase == "backend" and need.required == required
        assert (need.held, need.native) == (arity * unit, arity * 4 * unit)
        assert exc.rank < self.P // 4                  # a layer-0 rank

    def test_unenforced_machine_not_gated(self):
        """The pre-flight check keys on enforcement, not on mem_words:
        declaring a small model M without enforcement stays runnable
        (the documented baseline-over-budget use case)."""
        from repro import api
        from repro.layouts import BlockCyclicLayout
        from repro.machine import ProcessorGrid2D

        n, p = 32, 4
        machine = Machine(p, mem_words=64, enforce_memory=False)
        desc = self._desc(n, (2, 2))
        lay = BlockCyclicLayout(n, n, 8, 8, ProcessorGrid2D(2, 2))
        a = _dominant(n, _seeded())
        lay.scatter_from(machine, "A", a)
        res = api.pdgetrf(machine, "A", desc, v=8, c=1)
        assert res.perm is not None
