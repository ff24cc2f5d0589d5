"""Tests for the execution engine (repro.engine)."""

import types

import numpy as np
import pytest

from oracle import assert_matches_oracle, lapack_lu
from repro.analysis import harness
from repro.engine import DenseBackend, DistributedBackend
from repro.engine.accounting import TermBatch
from repro.factorizations import (
    ConfchoxSchedule,
    ConfluxSchedule,
    Matmul25DSchedule,
)
from repro.factorizations.baselines.scalapack_lu import ScalapackLUSchedule
from repro.machine import Machine
from repro.machine.grid import ProcessorGrid3D
from repro.machine.stats import STEP_FIELDS


def _evaluate(grid, nsteps, accounting):
    """Evaluate an ad-hoc accounting callable: a batch of one."""
    batch = TermBatch()
    batch.add(types.SimpleNamespace(
        grid=grid, steps=lambda: nsteps, accounting=accounting,
        step_label=lambda t: f"t={t}"))
    return batch.evaluate("columnar")[0]


class TestStepAccounting:
    def test_uniform_and_full_paths_agree(self):
        """A rank-uniform term (no rank factors) equals the same term
        forced down the rank-dependent path via a trivial rank constant
        — both in the totals and in the per-step log fold."""
        grid = ProcessorGrid3D(2, 2, 2)
        results = []
        for expand in (False, True):
            def accounting(a, expand=expand):
                rc = np.ones(a.nranks) if expand else None
                a.add_recv(3.0, step=a.affine(1, 1), rank_const=rc,
                           msgs=2.0)
                a.add_flops(1.0, step=a.affine(1, 1),
                            rank_const=np.asarray(a.pi + 1, dtype=float))

            results.append(_evaluate(grid, 6, accounting))
        u, f = results
        assert np.array_equal(u.recv_words, f.recv_words)
        assert np.array_equal(u.recv_msgs, f.recv_msgs)
        assert np.array_equal(u.flops, f.flops)
        for ru, rf in zip(u.steps, f.steps):
            assert ru.recv_words_max == rf.recv_words_max
            assert ru.recv_words_total == rf.recv_words_total
            assert ru.msgs_max == rf.msgs_max

    def test_full_after_uniform_transition(self):
        """A uniform term followed by a rank-dependent term on the
        *same* counter must fold into one per-step aggregate (max =
        rank-dependent max + uniform shift)."""
        grid = ProcessorGrid3D(2, 2, 1)

        def accounting(a):
            a.add_recv(5.0, msgs=2.0)                    # uniform
            a.add_recv(7.0, gate=("j",), msgs=3.0)       # gated, same key

        stats = _evaluate(grid, 4, accounting)
        # Every rank: 4 steps x 5 words uniform; the step-t panel
        # column (2 of 4 ranks per step) adds 7.
        on_col = 4 * 5.0 + 2 * 7.0      # each rank is q_col every 2nd t
        assert np.array_equal(stats.recv_words, np.full(4, on_col))
        assert np.array_equal(stats.recv_msgs,
                              np.full(4, 4 * 2.0 + 2 * 3.0))
        for rec in stats.steps:
            assert rec.recv_words_max == 5.0 + 7.0
            assert rec.recv_words_total == 4 * 5.0 + 2 * 7.0
            assert rec.msgs_max == 2.0 + 3.0

    def test_step_labels(self):
        [res] = harness.trace(Matmul25DSchedule(64, 8, c=2))
        labels = [r.label for r in res.step_log]
        assert labels[-1] == "reduce"
        assert labels[0] == "summa-0"

    def test_closed_form_matches_chunked(self):
        """The acceptance property at engine level: the evaluator's
        counters equal the chunked dense oracle's on a real schedule."""
        assert_matches_oracle(ConfluxSchedule(128, 16, v=16, c=4))

    def test_closed_form_step_log_matches_chunked(self):
        """Step logs derive analytically: per-step maxima bitwise equal
        to the oracle's columns, totals to rounding."""
        assert_matches_oracle(ConfluxSchedule(64, 8, v=8, c=2))


class TestBackends:
    def test_trace_equals_dense_counters(self, rng):
        """Trace and dense backends run the same accounting."""
        [t] = harness.trace(ConfluxSchedule(64, 8, v=8, c=2))
        e = DenseBackend().run(ConfluxSchedule(64, 8, v=8, c=2), rng=rng)
        assert np.allclose(t.comm.recv_words, e.comm.recv_words)
        assert np.allclose(t.comm.flops, e.comm.flops)

    def test_trace_of_several_is_each_alone(self):
        """``harness.trace`` reduces its schedules in one batch: each
        result, step log included, is bit-identical to tracing that
        schedule on its own, and results come back in order."""
        scheds = [ConfluxSchedule(64, 8, v=8, c=2),
                  Matmul25DSchedule(64, 8, c=2),
                  ScalapackLUSchedule(64, 4, nb=16)]
        together = harness.trace(*scheds)
        assert [r.name for r in together] == [s.name for s in scheds]
        for res, sched in zip(together, scheds):
            [alone] = harness.trace(sched)
            assert (res.n, res.nranks, res.mem_words, res.params) == (
                alone.n, alone.nranks, alone.mem_words, alone.params)
            for field in ("recv_words", "flops"):
                assert np.array_equal(getattr(res.comm, field),
                                      getattr(alone.comm, field)), field
            for field in STEP_FIELDS:
                assert np.array_equal(res.step_log.column(field),
                                      alone.step_log.column(field)), field

    def test_trace_without_steps_keeps_the_counters(self):
        sched = ConfluxSchedule(64, 8, v=8, c=2)
        [full] = harness.trace(sched)
        [bare] = harness.trace(sched, steps="none")
        assert len(full.step_log) == sched.steps()
        assert len(bare.step_log) == 0
        for field in ("recv_words", "flops"):
            assert np.array_equal(getattr(full.comm, field),
                                  getattr(bare.comm, field)), field

    def test_distributed_requires_support(self):
        """All shipped schedules are distributed-capable now, so the
        guard is exercised with a minimal trace-only schedule."""
        class TraceOnly(ScalapackLUSchedule):
            supports_distributed = False

        sched = TraceOnly(64, 4, nb=16)
        with pytest.raises(NotImplementedError):
            DistributedBackend().run(sched)

    def test_distributed_rank_mismatch(self):
        sched = ConfluxSchedule(32, 4, v=8, c=1)
        with pytest.raises(ValueError):
            DistributedBackend(Machine(8)).run(sched)

    def test_distributed_counts_on_the_machine(self, rng):
        """The machine's own stats accumulate the schedule's traffic."""
        machine = Machine(4)
        sched = ConfluxSchedule(32, 4, v=8, c=1)
        a = rng.standard_normal((32, 32)) + 32 * np.eye(32)
        res = DistributedBackend(machine).run(sched, a=a)
        assert res.comm.total_recv_words > 0
        assert machine.stats.total_recv_words == pytest.approx(
            res.comm.total_recv_words)

    def test_distributed_lu_factors_correct(self, rng):
        n = 64
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        res = DistributedBackend().run(ConfluxSchedule(n, 8, v=8, c=2), a=a)
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-12
        assert sorted(res.perm.tolist()) == list(range(n))

    def test_distributed_lu_general_matrix(self, rng):
        """Tournament pivoting keeps non-dominant inputs stable."""
        n = 64
        a = rng.standard_normal((n, n))
        res = DistributedBackend().run(ConfluxSchedule(n, 8, v=8, c=2), a=a)
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-10

    def test_distributed_cholesky_factors_correct(self, rng):
        n = 64
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        res = DistributedBackend().run(ConfchoxSchedule(n, 8, v=8, c=2), a=a)
        err = np.linalg.norm(a - res.lower @ res.lower.T)
        assert err / np.linalg.norm(a) < 1e-12
        assert np.allclose(np.triu(res.lower, 1), 0.0)

    def test_distributed_matches_lapack_factors(self, rng):
        """On a dominant input the tournament picks partial pivoting's
        rows, and the factors are LAPACK's to rounding."""
        n = 64
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        dist = DistributedBackend().run(ConfluxSchedule(n, 8, v=8, c=2),
                                        a=a.copy())
        perm, lower, upper = lapack_lu(a)
        assert np.array_equal(dist.perm, perm)
        assert np.abs(dist.lower - lower).max() <= 1e-10
        assert np.abs(dist.upper - upper).max() <= 1e-10

    def test_single_rank_distributed_no_communication(self, rng):
        a = rng.standard_normal((16, 16)) + 16 * np.eye(16)
        res = DistributedBackend().run(ConfluxSchedule(16, 1, v=4, c=1), a=a)
        assert res.comm.total_recv_words == 0
        err = np.linalg.norm(a[res.perm] - res.lower @ res.upper)
        assert err / np.linalg.norm(a) < 1e-12
