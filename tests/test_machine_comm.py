"""Unit tests for the simulated machine (stores + communicator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    CommunicationError,
    Machine,
    MemoryLimitError,
    RankError,
    RankStore,
)


class TestRankStore:
    def test_put_get_roundtrip(self):
        s = RankStore(0)
        s.put("a", np.arange(6).reshape(2, 3))
        assert np.array_equal(s.get("a"), np.arange(6).reshape(2, 3))

    def test_word_counting(self):
        s = RankStore(0)
        s.put("a", np.zeros((4, 4)))
        assert s.words == 16
        s.put("a", np.zeros(4))  # replace shrinks
        assert s.words == 4
        s.pop("a")
        assert s.words == 0

    def test_peak_tracking(self):
        s = RankStore(0)
        s.put("a", np.zeros(10))
        s.pop("a")
        s.put("b", np.zeros(3))
        assert s.peak_words == 10

    def test_capacity_enforced(self):
        s = RankStore(0, capacity_words=10)
        s.put("a", np.zeros(8))
        with pytest.raises(MemoryLimitError):
            s.put("b", np.zeros(4))
        # Replacing within budget is fine.
        s.put("a", np.zeros(10))

    def test_missing_key(self):
        s = RankStore(0)
        with pytest.raises(CommunicationError):
            s.get("nope")

    def test_discard_is_idempotent(self):
        s = RankStore(0)
        s.put("a", np.zeros(2))
        s.discard("a")
        s.discard("a")
        assert "a" not in s


class TestMachineP2P:
    def test_send_moves_data_and_counts(self):
        m = Machine(2)
        m.store(0).put("x", np.ones((3, 3)))
        m.send(0, 1, "x")
        assert np.array_equal(m.store(1).get("x"), np.ones((3, 3)))
        assert m.stats.recv_words[1] == 9

    def test_send_is_a_copy(self):
        m = Machine(2)
        m.store(0).put("x", np.ones(4))
        m.send(0, 1, "x")
        m.store(1).get("x")[0] = 99
        assert m.store(0).get("x")[0] == 1

    def test_local_send_free(self):
        m = Machine(2)
        m.store(0).put("x", np.ones(4))
        m.send(0, 0, "x", dest_key="y")
        assert m.stats.total_recv_words == 0
        assert "y" in m.store(0)

    def test_bad_rank(self):
        m = Machine(2)
        with pytest.raises(RankError):
            m.store(5)


class TestMachineCollectives:
    def test_bcast_delivers_everywhere(self):
        m = Machine(4)
        m.store(1).put("k", np.full((2, 2), 7.0))
        m.bcast(1, [0, 1, 2, 3], "k")
        for r in range(4):
            assert np.array_equal(m.store(r).get("k"), np.full((2, 2), 7.0))
        # Each non-root received 4 words; the root received nothing.
        assert m.stats.recv_words[1] == 0
        assert all(m.stats.recv_words[r] == 4 for r in (0, 2, 3))

    def test_bcast_receivers_share_one_read_only_copy(self):
        """Receivers share one copy taken at the broadcast: none may
        write it, and writing the root's block afterwards — here a view
        of a panel, as the 2D baselines broadcast their diagonal tile —
        does not reach them.  The root keeps its own block."""
        m = Machine(4)
        panel = np.arange(16.0).reshape(4, 4)
        m.store(2).put("k", panel[:2, :2])
        m.bcast(2, [0, 1, 2, 3], "k")
        got = [m.store(r).get("k") for r in (0, 1, 3)]
        assert got[0] is got[1] is got[2]
        assert not got[0].flags.writeable
        with pytest.raises(ValueError):
            got[0][0, 0] = -1.0
        assert np.shares_memory(m.store(2).get("k"), panel)
        panel[:2, :2] = -5.0
        assert np.array_equal(got[0], [[0.0, 1.0], [4.0, 5.0]])
        # Each receiver is charged (and holds) the block's words.
        assert m.words_per_rank().tolist() == [4.0, 4.0, 4.0, 4.0]

    def test_bcast_root_not_in_group(self):
        m = Machine(3)
        m.store(0).put("k", np.ones(1))
        with pytest.raises(CommunicationError):
            m.bcast(0, [1, 2], "k")

    def test_reduce_sums(self):
        m = Machine(3)
        for r in range(3):
            m.store(r).put("k", np.full(4, float(r + 1)))
        out = m.reduce(0, [0, 1, 2], "k")
        assert np.array_equal(out, np.full(4, 6.0))
        # Root receives (g-1)*n = 8 words.
        assert m.stats.recv_words[0] == 8

    def test_reduce_max(self):
        m = Machine(2)
        m.store(0).put("k", np.array([1.0, 9.0]))
        m.store(1).put("k", np.array([5.0, 2.0]))
        out = m.reduce(0, [0, 1], "k", op="max")
        assert np.array_equal(out, np.array([5.0, 9.0]))

    def test_reduce_shape_mismatch(self):
        m = Machine(2)
        m.store(0).put("k", np.zeros(2))
        m.store(1).put("k", np.zeros(3))
        with pytest.raises(CommunicationError):
            m.reduce(0, [0, 1], "k")

    def test_allreduce(self):
        m = Machine(3)
        for r in range(3):
            m.store(r).put("k", np.full(2, 1.0))
        m.allreduce([0, 1, 2], "k")
        for r in range(3):
            assert np.array_equal(m.store(r).get("k"), np.full(2, 3.0))

    def test_reduce_scatter(self):
        m = Machine(2)
        for r in range(2):
            m.store(r).put(("p", 0), np.full(3, float(r + 1)))
            m.store(r).put(("p", 1), np.full(3, float(10 * (r + 1))))
        m.reduce_scatter([0, 1], [("p", 0), ("p", 1)])
        assert np.array_equal(m.store(0).get(("p", 0)), np.full(3, 3.0))
        assert np.array_equal(m.store(1).get(("p", 1)), np.full(3, 30.0))
        # Each rank received one remote partial: 3 words.
        assert m.stats.recv_words[0] == 3
        assert m.stats.recv_words[1] == 3
        # Foreign partials dropped.
        assert ("p", 1) not in m.store(0)

    def test_reduce_scatter_max_op(self):
        """reduce_scatter shares reduce's operator set ("sum"/"max")."""
        m = Machine(2)
        for r in range(2):
            m.store(r).put(("p", 0), np.array([float(r), 5.0 - r]))
            m.store(r).put(("p", 1), np.array([2.0 * r, 1.0]))
        m.reduce_scatter([0, 1], [("p", 0), ("p", 1)], op="max")
        assert np.array_equal(m.store(0).get(("p", 0)), np.array([1.0, 5.0]))
        assert np.array_equal(m.store(1).get(("p", 1)), np.array([2.0, 1.0]))

    def test_reduce_scatter_unknown_op(self):
        m = Machine(2)
        for r in range(2):
            m.store(r).put(("p", 0), np.ones(2))
            m.store(r).put(("p", 1), np.ones(2))
        with pytest.raises(CommunicationError):
            m.reduce_scatter([0, 1], [("p", 0), ("p", 1)], op="min")

    def test_reduce_unknown_op(self):
        m = Machine(2)
        for r in range(2):
            m.store(r).put("x", np.ones(2))
        with pytest.raises(CommunicationError):
            m.reduce(0, [0, 1], "x", op="prod")

    def test_group_validation(self):
        m = Machine(3)
        m.store(0).put("k", np.ones(1))
        with pytest.raises(CommunicationError):
            m.bcast(0, [0, 0, 1], "k")
        with pytest.raises(CommunicationError):
            m.reduce_scatter([0, 1], ["k"])

    def test_memory_enforcement_through_comm(self):
        m = Machine(2, mem_words=4, enforce_memory=True)
        m.store(0).put("x", np.ones(3))
        m.store(1).put("y", np.ones(3))
        # Receiving 3 more words would exceed rank 1's capacity of 4.
        with pytest.raises(MemoryLimitError):
            m.send(0, 1, "x")

    def test_memory_not_enforced_by_default(self):
        m = Machine(2, mem_words=4)
        m.store(0).put("x", np.ones(100))  # over "M" but not enforced
        assert m.mem_words == 4

    def test_compute_attribution(self):
        m = Machine(2)
        m.compute(1, 1000)
        assert m.stats.flops[1] == 1000
        assert m.stats.flops[0] == 0


class TestMachineSupersteps:
    def test_begin_step_propagates_label_to_stores(self):
        m = Machine(2)
        m.begin_step("k=0")
        assert all(s.step == "k=0" for s in m.stores)
        rec = m.end_step()
        assert rec.label == "k=0"
        assert all(s.step is None for s in m.stores)

    def test_step_peak_restarts_per_step(self):
        m = Machine(1)
        m.store(0).put("resident", np.ones(5))
        m.begin_step("a")
        m.store(0).put("t", np.ones(10))
        m.store(0).discard("t")
        m.end_step()
        m.begin_step("b")
        assert m.store(0).step_peak_words == 5   # restarted at-rest
        m.end_step()
        assert m.store(0).peak_words == 15       # run-wide kept

    def test_peak_and_resident_views(self):
        m = Machine(2)
        m.store(0).put("x", np.ones(7))
        m.store(0).discard("x")
        m.store(1).put("y", np.ones(3))
        assert np.array_equal(m.peak_words_per_rank(), [7.0, 3.0])
        assert np.array_equal(m.words_per_rank(), [0.0, 3.0])

    def test_enforces_memory_property(self):
        assert not Machine(2).enforces_memory
        assert not Machine(2, mem_words=4).enforces_memory
        assert Machine(2, mem_words=4, enforce_memory=True).enforces_memory

    def test_budget_violation_carries_step_label(self):
        from repro.machine import MemoryBudgetExceeded

        m = Machine(2, mem_words=4, enforce_memory=True)
        m.store(0).put("x", np.ones(3))
        m.store(1).put("pad", np.ones(2))
        m.begin_step("panel-7")
        with pytest.raises(MemoryBudgetExceeded) as exc_info:
            m.send(0, 1, "x", dest_key="b")
        assert exc_info.value.rank == 1
        assert exc_info.value.step == "panel-7"
        assert exc_info.value.key == "b"


def per_rank_bcast_charge(machine, root, group, words, count):
    """``Machine.charge_bcast``'s counting as a per-rank loop (kept here
    only): each receiver records ``count * words`` in ``count``
    messages."""
    for r in group:
        if r != root:
            machine.stats.record_recv(r, count * words, msgs=count)


@given(st.integers(1, 9).flatmap(lambda p: st.tuples(
           st.just(p), st.permutations(range(p)), st.integers(1, p),
           st.integers(0, 2))),
       st.integers(0, 300), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_broadcast_counting_equals_the_per_rank_loop(case, words, count):
    nranks, ranks, size, at = case
    group = list(ranks[:size])
    root = group[at % size]
    got, want = Machine(nranks), Machine(nranks)
    for m in (got, want):
        m.stats.record_recv(0, 0.5)          # counters already running
    got.charge_bcast(root, group, words, count)
    per_rank_bcast_charge(want, root, group, words, count)
    for field in ("recv_words", "recv_msgs"):
        assert np.array_equal(getattr(got.stats, field),
                              getattr(want.stats, field)), field
