"""Test oracle for the cost-term evaluator: the naive dense
``(steps x P)`` interpretation of a schedule's :class:`CostTerm` stream.

Every term's ``step * gate * own * const`` product is materialized per
(step, rank) and summed — O(steps x P) work the evaluator in ``src/``
never does.  The conventions are the ones the bit-for-bit contract was
pinned against: per-rank totals accumulate in base space with each
``coeff`` applied once, in emission order; per-step maxima/totals
aggregate the rank-dependent terms first and fold the rank-uniform
columns in afterwards.  Steps are walked in fixed slabs purely to bound
memory.
"""

import numpy as np

from repro.engine.accounting import StepAccounting
from repro.machine.stats import STEP_FIELDS, CommStats

_SLAB = 128
_KEYS = ("flops", "recv", "rmsgs")
TOTAL_FIELDS = ("recv_words", "recv_msgs", "flops")


def _rank_factor(acct, term, t):
    """``gate * own * const`` as a dense ``(len(t), P)`` matrix."""
    fac = np.ones((t.size, acct.nranks))
    for atom in term.gate:
        axis = atom.lstrip("!")
        hit = acct._axis_coords(axis)[None, :] == \
            (t % acct._axis_dim(axis))[:, None]
        fac = fac * (~hit if atom.startswith("!") else hit)
    for axis in term.own:
        # Tiles j in (t, nsteps) with j = a (mod m), counted directly.
        m, a = acct._axis_dim(axis), acct._axis_coords(axis)[None, :]
        fac = fac * ((acct.nsteps - 1 - a) // m - (t[:, None] - a) // m)
    if term.rank_const is not None:
        fac = fac * term.rank_const[None, :]
    return fac


def oracle_stats(schedule) -> CommStats:
    """Dense reference totals plus a columnar step log."""
    acct = StepAccounting(schedule.grid, schedule.steps())
    terms = acct._collect(schedule.accounting)
    T, P = acct.nsteps, acct.nranks
    stats = CommStats(P, steps="columnar")
    base_tot = np.zeros((len(terms), P))
    msgs_tot = np.zeros((len(terms), P))
    for s0 in range(0, T, _SLAB):
        t = np.arange(s0, min(T, s0 + _SLAB), dtype=np.int64)
        s1 = s0 + t.size
        dense = {k: np.zeros((t.size, P)) for k in _KEYS}
        uni = {k: np.zeros(t.size) for k in _KEYS}
        for i, term in enumerate(terms):
            base = term.step.values(s0, s1)
            into, col = uni, (slice(None),)
            if not term.uniform:
                into, col = dense, (slice(None), None)
                base = base[col] * _rank_factor(acct, term, t)
            words = term.coeff * base
            base_tot[i] += base.sum(axis=0)
            into[term.counter] += words
            if term.msgs_step is not None:
                mbase = np.where(words > 0,
                                 term.msgs_step.values(s0, s1)[col], 0.0)
                msgs_tot[i] += mbase.sum(axis=0)
                if term.counter == "recv":
                    into["rmsgs"] += term.msgs_coeff * mbase
        cols = {}
        for key, field in zip(_KEYS, STEP_FIELDS[::2]):
            cols[field] = dense[key].max(axis=1) + uni[key]
            cols[field.replace("_max", "_total")] = \
                dense[key].sum(axis=1) + uni[key] * P
        stats.steps.extend(schedule.step_label, s0, t.size, **cols)
    arrays = {"recv": (stats.recv_words, stats.recv_msgs),
              "flops": (stats.flops, None)}
    for i, term in enumerate(terms):
        words_arr, msgs_arr = arrays[term.counter]
        words_arr += term.coeff * base_tot[i]
        if term.msgs_step is not None:
            msgs_arr += term.msgs_coeff * msgs_tot[i]
    return stats


def assert_matches_oracle(schedule) -> None:
    """The evaluator's whole contract against the oracle: words/msgs
    totals exact and flops to 1e-12; per-step maxima bitwise, per-step
    totals to 1e-12."""
    want = oracle_stats(schedule)
    got = schedule.trace_stats(steps="columnar")
    name = type(schedule).__name__
    for field in TOTAL_FIELDS[:-1]:
        assert np.array_equal(getattr(got, field), getattr(want, field)), \
            f"{name}.{field}: evaluator != oracle"
    np.testing.assert_allclose(got.flops, want.flops, rtol=1e-12)
    assert got.mean_recv_words == want.mean_recv_words
    assert len(got.steps) == len(want.steps)
    for field in STEP_FIELDS:
        a, b = got.steps.column(field), want.steps.column(field)
        if field.endswith("_max"):
            assert np.array_equal(a, b), f"{name} step {field}"
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0,
                                       err_msg=f"{name} step {field}")
