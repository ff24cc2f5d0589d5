"""Property-based tests (hypothesis) for RankStore accounting.

The store is the paper's private fast memory of ``M`` words; its word
accounting feeds both the memory-enforcement invariant
(``tests/test_memory_enforcement.py``) and the engine's memory reports,
so it must be exact under arbitrary ``put``/``pop``/``discard``
interleavings:

* ``words`` always equals the summed size of the live blocks;
* ``peak_words`` is monotone non-decreasing and an upper bound on
  ``words`` (run-wide), ``step_peak_words`` likewise within a step;
* under an enforced capacity, ``words`` never exceeds it — a rejected
  ``put``/``reserve`` leaves the store exactly as it was.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import MemoryBudgetExceeded, RankStore

#: One random store operation: (op, key, block words).
_ops = st.lists(
    st.tuples(st.sampled_from(["put", "pop", "discard", "reserve"]),
              st.integers(0, 5),          # key space small: forces replaces
              st.integers(0, 40)),        # block size in words
    min_size=0, max_size=60)


def _apply(store: RankStore, ops, live: dict) -> None:
    """Mirror the op sequence into the store and a model dict."""
    for op, key, size in ops:
        if op == "put":
            try:
                store.put(key, np.zeros(size))
                live[key] = size
            except MemoryBudgetExceeded:
                pass                       # rejected: model unchanged
        elif op == "pop" and key in live:
            store.pop(key)
            del live[key]
        elif op == "discard":
            store.discard(key)
            live.pop(key, None)
        elif op == "reserve":
            try:
                store.reserve(size)
            except MemoryBudgetExceeded:
                pass                       # never mutates either way


class TestAccountingExactness:
    @given(ops=_ops)
    @settings(max_examples=100, deadline=None)
    def test_words_equals_sum_of_live_blocks(self, ops):
        store = RankStore(0)
        live: dict[int, int] = {}
        _apply(store, ops, live)
        assert store.words == sum(live.values())
        assert len(store) == len(live)
        assert {k: v.size for k, v in store.items()} == live

    @given(ops=_ops)
    @settings(max_examples=100, deadline=None)
    def test_peak_monotone_and_bounds_words(self, ops):
        store = RankStore(0)
        live: dict[int, int] = {}
        peaks = []
        for step in range(0, len(ops), 10):
            _apply(store, ops[step:step + 10], live)
            peaks.append(store.peak_words)
            assert store.peak_words >= store.words
        assert peaks == sorted(peaks)      # monotone non-decreasing

    @given(ops=_ops)
    @settings(max_examples=100, deadline=None)
    def test_pop_returns_what_put_stored(self, ops):
        store = RankStore(0)
        live: dict[int, int] = {}
        _apply(store, ops, live)
        for key, size in list(live.items()):
            assert store.pop(key).size == size
        assert store.words == 0


class TestEnforcedCapacity:
    @given(ops=_ops, capacity=st.integers(1, 120))
    @settings(max_examples=100, deadline=None)
    def test_capacity_never_exceeded(self, ops, capacity):
        store = RankStore(3, capacity_words=capacity)
        live: dict[int, int] = {}
        _apply(store, ops, live)
        assert store.words <= capacity
        assert store.peak_words <= capacity
        assert store.words == sum(live.values())

    @given(size=st.integers(1, 50), capacity=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_rejected_put_leaves_store_intact(self, size, capacity):
        store = RankStore(1, capacity_words=capacity)
        store.put("base", np.zeros(min(size, capacity)))
        before = (store.words, store.peak_words, set(store.keys()))
        overflow = capacity - store.words + 1
        with pytest.raises(MemoryBudgetExceeded) as exc_info:
            store.put("big", np.zeros(store.words + overflow))
        assert (store.words, store.peak_words, set(store.keys())) == before
        assert exc_info.value.rank == 1
        assert exc_info.value.key == "big"

    @given(capacity=st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_replace_accounts_delta_not_sum(self, capacity):
        """Replacing a block under the same key charges only the size
        delta: a full-capacity block may be replaced in place."""
        store = RankStore(0, capacity_words=capacity)
        store.put("a", np.zeros(capacity))
        store.put("a", np.zeros(capacity))   # same size: fits
        assert store.words == capacity
        with pytest.raises(MemoryBudgetExceeded):
            store.put("a", np.zeros(capacity + 1))
        assert store.get("a").size == capacity


class TestStepPeaks:
    @given(sizes=st.lists(st.integers(0, 30), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_step_peak_resets_to_resident(self, sizes):
        store = RankStore(0)
        for i, size in enumerate(sizes):
            store.put(("t", i), np.zeros(size))
            store.pop(("t", i))
        resident = store.words
        store.begin_step("s")
        assert store.step_peak_words == resident
        store.put("x", np.zeros(7))
        assert store.step_peak_words == resident + 7
        assert store.end_step() == resident + 7
        assert store.step is None

    def test_step_label_attached_to_violation(self):
        store = RankStore(2, capacity_words=10)
        store.begin_step("k=3")
        with pytest.raises(MemoryBudgetExceeded) as exc_info:
            store.put("blk", np.zeros(11))
        assert exc_info.value.step == "k=3"
        assert "k=3" in str(exc_info.value)

    def test_reserve_checks_without_storing(self):
        store = RankStore(0, capacity_words=10)
        store.reserve(10)                   # fits: no-op
        assert store.words == 0
        store.put("a", np.zeros(4))
        with pytest.raises(MemoryBudgetExceeded):
            store.reserve(7)
        store.reserve(6)
        with pytest.raises(ValueError):
            store.reserve(-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("capacity", [10, math.inf],
                             ids=["bounded", "unbounded"])
    def test_non_finite_words_are_refused(self, bad, capacity):
        """A nan compares false against the budget, so without the
        refusal a nan reservation or staged message would clear the
        M-words gate (and an inf one pass an unbounded store)."""
        store = RankStore(0, capacity_words=capacity)
        store.put("a", np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            store.reserve(bad)
        with pytest.raises(ValueError, match="finite"):
            store.stage(bad, "msg")
        assert (store.words, store.peak_words, store.step_peak_words) == \
            (4, 4, 4)


class TestOneCallRegistration:
    """``put_many`` is the ``put`` loop in one call: the same blocks,
    words and high-water marks, and on overflow the same refusal with
    the items before it stored."""

    @given(resident=st.lists(st.tuples(st.integers(0, 5),
                                       st.integers(0, 20)), max_size=6),
           items=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 20)),
                          max_size=20),
           capacity=st.one_of(st.none(), st.integers(1, 150)))
    @settings(max_examples=300, deadline=None)
    def test_put_many_equals_the_put_loop(self, resident, items, capacity):
        stores, errors = [], []
        blocks = [(key, np.zeros(size)) for key, size in items]
        for register in ("loop", "once"):
            store = RankStore(3, math.inf if capacity is None else capacity)
            try:
                for key, size in resident:   # replaced keys included
                    store.put(key, np.zeros(size))
            except MemoryBudgetExceeded:
                return                       # the set-up alone overflows
            store.begin_step("register")
            err = None
            try:
                if register == "loop":
                    for key, block in blocks:
                        store.put(key, block)
                else:
                    store.put_many(blocks)
            except MemoryBudgetExceeded as exc:
                err = (exc.rank, exc.step, exc.key, exc.needed_words)
            stores.append(store)
            errors.append(err)
        loop, once = stores
        assert errors[0] == errors[1]
        assert (once.words, once.peak_words, once.step_peak_words) == (
            loop.words, loop.peak_words, loop.step_peak_words)
        assert list(once.keys()) == list(loop.keys())
        for key, block in once.items():
            theirs = loop.get(key)
            # Registered blocks are stored as given, not copied.
            assert block.size == theirs.size
            assert (block is theirs) == any(block is b for _, b in blocks)


class TestMultiKeyDiscard:
    def test_discard_drops_every_resident_key_and_ignores_the_rest(self):
        store = RankStore(0)
        for key, size in (("a", 3), ("b", 4), ("c", 5)):
            store.put(key, np.zeros(size))
        store.discard("a", "missing", "c")
        assert list(store.keys()) == ["b"] and store.words == 4
        store.discard()
        assert store.words == 4
