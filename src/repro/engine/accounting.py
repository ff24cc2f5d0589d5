"""Cost-term IR for trace accounting and its closed-form evaluator.

A schedule's :meth:`~repro.engine.schedule.Schedule.accounting` *emits*
:class:`CostTerm` objects through the :class:`StepAccounting` builder,
and :class:`TermBatch` reduces them — a small declarative IR in place
of raw ``(steps, ranks)`` matrices, whose O(steps x P) array work per
term would dominate paper-scale ``(impl, N, P)`` sweeps.

A term's per-(step, rank) value factorizes as::

    words(t, r) = coeff * step(t) * gate(t, r) * own(t, r) * const(r)

* ``coeff`` — one float scalar, applied exactly once per term;
* ``step(t)`` — an integer-valued step profile (:class:`StepFn`):
  affine ``c0 + c1 t`` (constant when ``c1 = 0``) up to an explicit
  tail of per-step values (e.g. the tournament's butterfly-exchange
  counts, ragged only in their last ``Pr`` steps; a full explicit
  column is the tail from step 0), restricted to a half-open step range
  (how ``(n11 > 0)``-style phase gates are expressed);
* ``gate(t, r)`` — a conjunction of cyclic coordinate masks
  ``coord_axis == t mod dim`` (or their negations): the
  "panel column of step t" / "pivot layer of step t" predicates;
* ``own(t, r)`` — up to two cyclic-ownership factors counting the
  rank's block-cyclic tiles in ``[t+1, nsteps)`` along a grid axis
  (``tiles_owned``); and
* ``const(r)`` — an optional per-rank constant vector (e.g. the
  step-independent ``laswp`` tile counts).

Message counts ride along per term: where the term's words are
positive, ``msgs(t) = msgs_coeff * msgs_step(t)`` messages are charged
("messages follow words").

There is **one evaluator**, :meth:`TermBatch.evaluate`, and one
reduction per term, :meth:`StepAccounting._term_total`: each term's sum
over steps reduces analytically per rank.  Rank-uniform affine terms
are an O(1) integer arithmetic series (their message counts the same
series over the integer interval where the words profile is positive);
gated/owned terms go through residue-class moment contractions built on
the decomposition ``own(a, t) = q(t) + beta(a, t mod m)`` (full
remaining cycles plus a periodic partial-cycle window; double-ownership
products expand into moments and one ``beta_i M0 beta_j^T`` bilinear).
Results live in grid space ``(layers, rows, cols)``, size 1 on the axes
a term does not name: a gated/owned term costs ``O(L + tail + cells)``
(``L`` the lcm of its axis dims, the affine head's moments in closed
form per class mod ``L``, one more class per explicit tail step;
``cells`` those of its axes), its messages the same (the msgs profile's
head classes where the words head is positive, then the steps after
them), a two-axis product ``O(steps + cells)``, plus one ``P``-long add
into its counter; never an ``O(steps x P)`` allocation.  A negated gate
is the complement of the gated reduction, so a term needs at most two.
:class:`TermBatch` shares one memo (class bases ``(n, sum t, sum t^2)``
per range and period, moments, step keys) across the candidates of one
grid shape and step count.  A requested step log derives
analytically from per-residue-class value columns in the same pass.
What the kernels cannot reduce is refused, not routed elsewhere:
words/msgs sums that could cross ``2^52`` raise :class:`OverflowError`
(flops, with no exactness contract, are never refused), a gated or
message-carrying two-axis ownership product raises
:class:`NotImplementedError`, and a fractional profile under a negated
gate (whose complement would not be exact) :class:`ValueError` at
emission.

The naive dense ``(steps x P)`` interpretation of the IR lives in
``tests/oracle.py`` as the test oracle.  Evaluator and oracle agree
**bit-for-bit** on the communication counters (received words and
messages): every words/msgs profile is integer-valued, both
accumulate those integers exactly (float64 sums of integers below 2^53
are associativity-free), and the single float ``coeff`` multiplies the
identical integer total in the identical term order.  Flop terms may
carry non-integer step columns (the 2D panel-LU count), which the same
kernels reduce as they are; agreement is to float rounding there, and
the parity suite pins both.  Affine flop moments are exact integers
rounded once: past ``2^53`` they do not drift as step-order sums do.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from ..machine.grid import ProcessorGrid2D, ProcessorGrid3D
from ..machine.stats import STEP_FIELDS, CommStats

__all__ = ["StepAccounting", "StepFn", "CostTerm", "TermBatch",
           "butterfly_pair_exchanges"]


def butterfly_pair_exchanges(m: np.ndarray | int) -> np.ndarray:
    """One-way block transfers of an XOR-butterfly with ``m`` participants.

    Round ``r`` pairs participant ``i`` with ``i ^ 2^r``; an exchange
    happens only when both endpoints exist (``i ^ 2^r < m``), and each
    exchange moves one candidate block *each way*, so round ``r``
    contributes ``2 * #{i < m - 2^r : bit_r(i) = 0}`` transfers.  For a
    power-of-two ``m`` the total is the classic ``m * log2(m)``; for
    ragged ``m`` — the late factorization steps where fewer panel ranks
    still hold active rows — it is strictly smaller, which is what the
    exact tournament accounting of the 2.5D schedules charges
    (vectorized: a table over ``0 .. max(m)``, indexed by ``m``).
    """
    m_arr = np.maximum(np.asarray(m, dtype=np.int64), 0)
    table = np.zeros(int(m_arr.max(initial=0)) + 1, dtype=np.int64)
    q = 1
    while q < table.size - 1:
        rem = np.maximum(np.arange(table.size) - q, 0)
        # i < rem with bit log2(q) clear: full 2q-periods contribute q
        # values each, the tail contributes min(q, rem mod 2q).
        table += 2 * ((rem // (2 * q)) * q + np.minimum(q, rem % (2 * q)))
        q *= 2
    return table[m_arr.ravel()].reshape(m_arr.shape)


#: Magnitude bound under which float64 sums of integers are exact; a
#: words/msgs term that could cross it is refused (OverflowError).
_EXACT_GUARD = 2.0 ** 52

#: Grid-axis letters: pi ('i'), pj ('j'), pk ('k').
_AXES = "ijk"
#: The axes of ``StepAccounting.shape``: ranks flatten (pk, pi, pj)
#: row-major, as ``ProcessorGrid3D.rank`` numbers them.
_GRID_ORDER = "kij"

#: Shared flattened coordinate vectors per grid shape.  Candidate grids
#: re-use a handful of shapes across hundreds of configs; the meshgrid
#: was a measurable slice of per-config setup cost.  Entries are
#: read-only views handed to every StepAccounting with that shape.
_COORD_CACHE: dict[tuple[int, int, int],
                   tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _grid_coords(rows: int, cols: int,
                 layers: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (rows, cols, layers)
    hit = _COORD_CACHE.get(key)
    if hit is None:
        pk, pi, pj = np.meshgrid(
            np.arange(layers), np.arange(rows), np.arange(cols),
            indexing="ij")
        hit = (pi.reshape(-1), pj.reshape(-1), pk.reshape(-1))
        for arr in hit:
            arr.setflags(write=False)
        if len(_COORD_CACHE) >= 256:     # bound a pathological sweep
            _COORD_CACHE.clear()
        _COORD_CACHE[key] = hit
    return hit


@functools.cache
def _check_axes(gate: tuple[str, ...], own: tuple[str, ...]) -> None:
    """Validate a term's gate atoms and ownership axes (each distinct
    pair once: a refused pair raises, and is not cached)."""
    seen_axes = set()
    for atom in gate:
        axis = atom.lstrip("!")
        if axis not in _AXES or len(atom) - len(axis) > 1:
            raise ValueError(f"bad gate atom {atom!r}")
        if axis in seen_axes:
            raise ValueError(f"duplicate gate axis {axis!r}")
        seen_axes.add(axis)
    if len(set(own)) != len(own) or not set(own) <= set(_AXES):
        raise ValueError(f"bad ownership axes {own!r}")


@dataclasses.dataclass(frozen=True)
class StepFn:
    """A per-step base profile on ``[lo, hi)`` (zero elsewhere).

    Affine — ``c0 + c1 * t`` — before ``start``; from ``start`` to the
    last step, the explicit ``column`` when there is one
    (``column[t - start]``).  A full explicit column is the
    ``start = 0`` case; a profile that is affine but for its last few
    steps (the tournament's ragged participant counts) keeps only
    those as its tail.  Words/msgs profiles are integer-valued
    (validated at emission), which is what makes the evaluator's sums
    exact; flop profiles may be fractional (``exact``, derived once at
    construction, is False then).
    """

    c0: float = 0.0
    c1: float = 0.0
    column: np.ndarray | None = None
    lo: int = 0
    hi: int = 0
    start: int = 0
    #: True when every value is an integer (exact summation).
    exact: bool = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        exact = float(self.c0).is_integer() and float(self.c1).is_integer()
        if self.column is not None:
            exact = exact and bool(
                np.all(self.column == np.floor(self.column)))
        object.__setattr__(self, "exact", exact)

    def values(self, t0: int, t1: int) -> np.ndarray:
        """Profile values for steps ``[t0, t1)`` as a float column."""
        t = np.arange(t0, t1, dtype=np.float64)
        vals = self.c0 + self.c1 * t
        if self.column is not None:
            s = min(max(t0, self.start), t1)
            vals[s - t0:] = self.column[s - self.start:t1 - self.start]
        live = (t >= self.lo) & (t < self.hi)
        return np.where(live, vals, 0.0)


@dataclasses.dataclass(frozen=True)
class CostTerm:
    """One declarative accounting contribution (see module docstring).

    ``gate`` is a tuple of axis atoms — ``"j"`` for
    ``coord_j == t mod cols``, ``"!j"`` for its negation; ``own`` names
    the axes carrying a cyclic tiles-owned factor over ``[t+1, nsteps)``;
    ``rank_const`` is an optional per-rank constant vector.  ``msgs``
    terms (``msgs_coeff`` / ``msgs_step``) charge messages wherever the
    term's words are positive; flop terms carry none.
    """

    counter: str                      # "recv" | "flops"
    coeff: float
    step: StepFn
    gate: tuple[str, ...] = ()
    own: tuple[str, ...] = ()
    rank_const: np.ndarray | None = None
    msgs_coeff: float = 0.0
    msgs_step: StepFn | None = None

    @property
    def uniform(self) -> bool:
        """Rank-independent (no gate, no ownership, no constants)."""
        return not self.gate and not self.own and self.rank_const is None


class StepAccounting:
    """Term builder and per-term reduction kernels of one schedule.

    A schedule's ``accounting(acct)`` runs exactly once per evaluation:
    it declares terms via :meth:`add_recv` / :meth:`add_flops` and
    profile constructors :meth:`const` / :meth:`affine` /
    :meth:`column`.  :class:`TermBatch` collects the emitted terms and
    reduces them through the kernels below into a
    :class:`~repro.machine.stats.CommStats`.
    """

    def __init__(self, grid: ProcessorGrid3D | ProcessorGrid2D,
                 nsteps: int) -> None:
        if isinstance(grid, ProcessorGrid2D):
            grid = ProcessorGrid3D(grid.rows, grid.cols, 1)
        self.grid = grid
        self.nsteps = int(nsteps)
        # Flattening (pk, pi, pj) row-major matches ProcessorGrid3D.rank.
        self.pi, self.pj, self.pk = _grid_coords(
            grid.rows, grid.cols, grid.layers)
        self.nranks = grid.size
        #: Grid space of the per-term totals, axes in ``_GRID_ORDER``.
        self.shape = (grid.layers, grid.rows, grid.cols)
        self._dims = {"i": grid.rows, "j": grid.cols, "k": grid.layers}
        self._terms: list[CostTerm] = []
        # One affine StepFn per distinct (c0, c1, lo, hi).
        self._affine: dict[tuple, StepFn] = {}
        # What the reduction kernels share across terms (step keys,
        # profile values, class bases and moments, per-axis residues):
        # a function of the grid shape and nsteps alone, so TermBatch
        # hands one dict to each (shape, nsteps) group of a pass.
        self._memo: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Axis helpers
    # ------------------------------------------------------------------
    def _axis_dim(self, axis: str) -> int:
        return self._dims[axis]

    def _axis_coords(self, axis: str) -> np.ndarray:
        return {"i": self.pi, "j": self.pj, "k": self.pk}[axis]

    def _to_grid(self, arr: np.ndarray, axes: Sequence[str]) -> np.ndarray:
        """``arr``, indexed by the coordinates along ``axes`` in that
        order (flat or not), as an array broadcastable to :attr:`shape`:
        axes moved into grid order, size 1 on every axis not named."""
        order = sorted(range(len(axes)),
                       key=lambda n: _GRID_ORDER.index(axes[n]))
        return arr.reshape([self._dims[a] for a in axes]).transpose(
            order).reshape([self._dims[a] if a in axes else 1
                            for a in _GRID_ORDER])

    def _memoised(self, key: tuple, build: Callable, *args):
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build(*args)
        return hit

    def _values(self, step: StepFn, t0: int, t1: int) -> np.ndarray:
        # A column is keyed by identity: its term outlives the memo.
        return self._memoised(("values", id(step.column), step.c0, step.c1,
                               step.lo, step.hi, t0, t1), step.values, t0, t1)

    def _residues(self, rkey: tuple[tuple[int, int], ...]) -> np.ndarray:
        """The residue entries ``r`` a term's moments are taken over:
        the ranges of ``rkey`` concatenated — ``(0, period)`` for an
        affine head's classes, ``(t0, t1)`` for single steps.  Memo
        keys name ``rkey`` itself, so arrays of one length holding
        different residues never share buckets."""
        return self._memoised(("r", rkey), lambda: np.concatenate(
            [np.arange(a, b, dtype=np.int64) for a, b in rkey]))

    def _own_axis(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Residues ``a`` mod ``m`` and ``C_tot(a)``, the tiles of
        ``[0, nsteps)`` each owns."""
        def build():
            res = np.arange(m)
            return res, np.maximum(0, (self.nsteps - res + m - 1) // m)
        return self._memoised(("own", m), build)

    # ------------------------------------------------------------------
    # Profile constructors
    # ------------------------------------------------------------------
    def const(self, lo: int = 0, hi: int | None = None) -> StepFn:
        """The unit profile: 1 on ``[lo, hi)`` (default: every step)."""
        return self.affine(1.0, 0.0, lo=lo, hi=hi)

    def affine(self, c0: float, c1: float = 0.0, lo: int = 0,
               hi: int | None = None) -> StepFn:
        """``c0 + c1 * t`` on ``[lo, hi)``; coefficients must be
        integers (the exactness contract of the words counters).  One
        profile per distinct ``(c0, c1, lo, hi)``: emission asks for the
        same few again and again."""
        key = (c0, c1, lo, hi)
        step = self._affine.get(key)
        if step is None:
            if not (float(c0).is_integer() and float(c1).is_integer()):
                raise ValueError(
                    f"affine profile needs integer coefficients, got "
                    f"({c0}, {c1}); fold fractions into the term coeff")
            step = self._affine[key] = StepFn(
                c0=float(c0), c1=float(c1), lo=int(lo),
                hi=self.nsteps if hi is None else int(hi))
        return step

    def tail(self, c0: float, c1: float, values: np.ndarray, lo: int = 0,
             hi: int | None = None) -> StepFn:
        """The affine ``c0 + c1 * t`` (integer coefficients, as for
        :meth:`affine`) up to the last ``len(values)`` steps, which take
        ``values``: a profile whose explicit part is only its tail, so
        reducing it costs the tail's length, not ``nsteps``."""
        col = np.asarray(values, dtype=np.float64)
        if col.ndim != 1 or col.size > self.nsteps:
            raise ValueError(f"tail needs at most {self.nsteps} values, "
                             f"got shape {col.shape}")
        start = self.nsteps - col.size
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise ValueError(f"non-finite profile value {col[bad[0]]} at "
                             f"step {start + int(bad[0])}")
        head = self.affine(c0, c1)
        return StepFn(c0=head.c0, c1=head.c1, column=col, start=start,
                      lo=int(lo), hi=self.nsteps if hi is None else int(hi))

    def column(self, values: np.ndarray, lo: int = 0,
               hi: int | None = None) -> StepFn:
        """An explicit column of all ``nsteps`` steps' values (finite;
        integers for words and msgs): the :meth:`tail` with no head."""
        shape = np.shape(values)
        if shape != (self.nsteps,):
            raise ValueError(f"column needs shape ({self.nsteps},), "
                             f"got {shape}")
        return self.tail(0, 0, values, lo=lo, hi=hi)

    def tiles_owned_static(self, axis: str) -> np.ndarray:
        """Per-rank count of cyclic tiles in ``[0, nsteps)`` owned along
        ``axis`` — a step-independent rank constant."""
        m = self._axis_dim(axis)
        coords = self._axis_coords(axis)
        return np.maximum(
            0, (self.nsteps - coords + m - 1) // m).astype(np.float64)

    # ------------------------------------------------------------------
    # Term emission
    # ------------------------------------------------------------------
    def _add(self, counter: str, coeff: float, step: StepFn | None,
             gate: Sequence[str], own: Sequence[str],
             rank_const: np.ndarray | None, msgs_coeff: float,
             msgs_step: StepFn | None) -> None:
        if not math.isfinite(coeff):
            raise ValueError(f"non-finite coeff {coeff}")
        if counter != "flops" and coeff < 0:
            raise ValueError(f"negative {counter} coeff {coeff}")
        if not (math.isfinite(msgs_coeff) and msgs_coeff >= 0):
            raise ValueError(f"non-finite or negative msgs {msgs_coeff}")
        step = step if step is not None else self.const()
        if counter != "flops" and not step.exact:
            raise ValueError(
                "words profiles must be integer-valued (the exactness "
                "contract); scale the column and move the fraction into "
                "coeff")
        if msgs_step is not None and not msgs_step.exact:
            raise ValueError("msgs profiles must be integer-valued")
        gate = tuple(gate)
        own = tuple(own)
        _check_axes(gate, own)
        if not step.exact and any(a.startswith("!") for a in gate):
            raise ValueError(
                f"negated gate {gate} on a fractional profile: a negated "
                f"gate reduces as the complement of the gated sum, exact "
                f"on integer profiles only")
        if rank_const is not None:
            rank_const = np.asarray(rank_const, dtype=np.float64)
            if rank_const.shape != (self.nranks,):
                raise ValueError(
                    f"rank_const needs shape ({self.nranks},)")
            if np.any(rank_const < 0):
                raise ValueError("rank_const must be non-negative")
        if counter == "flops":
            msgs_coeff, msgs_step = 0.0, None
        elif msgs_coeff > 0 and msgs_step is None:
            msgs_step = self.const(lo=step.lo, hi=step.hi)
        self._terms.append(CostTerm(
            counter=counter, coeff=float(coeff), step=step, gate=gate,
            own=own, rank_const=rank_const, msgs_coeff=float(msgs_coeff),
            msgs_step=msgs_step))

    def add_recv(self, coeff: float, step: StepFn | None = None,
                 gate: Sequence[str] = (), own: Sequence[str] = (),
                 rank_const: np.ndarray | None = None,
                 msgs: float = 1.0,
                 msgs_step: StepFn | None = None) -> None:
        """Received words ``coeff * step * gate * own * rank_const``,
        plus ``msgs * msgs_step`` messages wherever words are
        positive."""
        self._add("recv", coeff, step, gate, own, rank_const, msgs,
                  msgs_step)

    def add_flops(self, coeff: float, step: StepFn | None = None,
                  gate: Sequence[str] = (), own: Sequence[str] = (),
                  rank_const: np.ndarray | None = None) -> None:
        self._add("flops", coeff, step, gate, own, rank_const, 0.0, None)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _collect(self, accounting: Callable[["StepAccounting"], None],
                 ) -> list[CostTerm]:
        self._terms = []
        accounting(self)
        terms, self._terms = self._terms, []
        return terms

    def _reduce(self, terms: list[CostTerm],
                into: dict[str, tuple[np.ndarray, np.ndarray | None]],
                ) -> None:
        """Add each term's ``coeff * total`` (and messages) into the
        ``(words, msgs | None)`` arrays ``into`` maps its counter to,
        through :attr:`shape` views (the memo is the caller's)."""
        views = {counter: [None if a is None else a.reshape(self.shape)
                           for a in arrays]
                 for counter, arrays in into.items()}
        for term in terms:
            if term.counter not in views:
                continue
            words, msgs = views[term.counter]
            words += term.coeff * self._term_total(term, msgs=False)
            if msgs is not None and term.msgs_step is not None:
                msgs += term.msgs_coeff * self._term_total(term, msgs=True)

    # ------------------------------------------------------------------
    # Per-term reduction
    # ------------------------------------------------------------------
    @staticmethod
    def _affine_series(step: StepFn, lo: int, hi: int) -> int:
        """Exact ``sum_{t=lo}^{hi-1} (c0 + c1 t)`` in integer math."""
        length = max(0, hi - lo)
        t_sum = (lo + hi - 1) * length // 2
        return int(step.c0) * length + int(step.c1) * t_sum

    @staticmethod
    def _positive_range(step: StepFn, lo: int, hi: int) -> tuple[int, int]:
        """Integer interval ``[s0, s1) <= [lo, hi)`` where the affine
        profile ``c0 + c1 t`` is positive: keeps uniform affine message
        counts O(1) (summing the masked column instead costs
        ``plan_grid`` +14 % op_p50_s, slower in 10 of 10 pairs)."""
        c0, c1 = int(step.c0), int(step.c1)
        if c1 > 0:
            lo = max(lo, -c0 // c1 + 1)
        elif c1 < 0:
            hi = min(hi, (c0 - 1) // -c1 + 1 if c0 > 0 else 0)
        elif c0 <= 0:
            hi = lo
        return lo, max(lo, hi)

    @staticmethod
    def _class_dtype(step: StepFn, lo: int, hi: int, period: int) -> type:
        """int64 while every intermediate of :meth:`_class_basis` and
        :meth:`_basis_moments` is under ``2^62``, Python ints
        (``object``) past it."""
        big = (4 * hi + abs(int(step.c0)) + abs(int(step.c1)) * hi) * hi * \
            ((hi - lo) // period + 1)
        return np.int64 if big < 2 ** 62 else object

    @staticmethod
    def _class_basis(lo: int, hi: int, period: int, dtype: type,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n, sum t, sum t^2)`` over each class ``t = r (mod period)``
        of ``[lo, hi)``: exact integers of ``dtype``, whatever the
        profile."""
        r = np.arange(period, dtype=dtype)
        first = lo + (r - lo) % period
        n = (hi - first + period - 1) // period
        s1 = n * first + period * (n * (n - 1) // 2)
        s2 = (n * first * first + period * first * (n * (n - 1))
              + period * period * ((n - 1) * n * (2 * n - 1) // 6))
        return n, s1, s2

    @staticmethod
    def _basis_moments(step: StepFn, basis: tuple,
                       ) -> tuple[np.ndarray, np.ndarray]:
        """``(sum w, sum w t)`` per class for ``w = c0 + c1 t`` from its
        class basis: exact integers, rounded once to float."""
        c0, c1 = int(step.c0), int(step.c1)
        n, s1, s2 = basis
        return ((c0 * n + c1 * s1).astype(np.float64),
                (c0 * s1 + c1 * s2).astype(np.float64))

    def _moments(self, step: StepFn, lo: int, hi: int, period: int,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """``(sum w, sum w t)`` over each class ``t = r (mod period)`` of
        ``[lo, hi)`` for ``w = c0 + c1 t``: arithmetic progressions, so
        closed forms in exact integers (:meth:`_class_basis`, then
        :meth:`_basis_moments`), memoised: the basis per
        ``(lo, hi, period, dtype)``, the moments per profile.
        ``period < hi - lo``: no class is empty."""
        def build():
            dtype = self._class_dtype(step, lo, hi, period)
            basis = self._memoised(("basis", lo, hi, period, dtype),
                                   self._class_basis, lo, hi, period, dtype)
            return self._basis_moments(step, basis)
        return self._memoised(("moments", step.c0, step.c1, lo, hi, period),
                              build)

    @staticmethod
    def _check_exact(term: CostTerm, bound: float) -> None:
        """Refuse a words/msgs term whose integer sums could reach
        ``bound`` past float64 exactness.  Flop terms carry no such
        contract (fractional profiles; moments ~ ``N (N/v)^2`` pass
        ``2^52`` at N = 262144) and match the oracle to rounding."""
        if term.counter != "flops" and bound >= _EXACT_GUARD:
            raise OverflowError(
                f"{term.counter} term (coeff={term.coeff}, "
                f"gate={term.gate}, own={term.own}): step moments up to "
                f"{bound:.3g} cross 2^52, float64 integer sums are no "
                f"longer exact")

    def _term_total(self, term: CostTerm, msgs: bool) -> np.ndarray | float:
        """One term's per-rank sum over steps of its base product — the
        only reduction of a cost term, never through a dense
        ``(steps, dim)`` intermediate — in grid space: broadcastable to
        :attr:`shape`, size 1 on every axis the term does not name.

        For ``msgs`` the base becomes ``mu(t) = msgs_step(t) [step(t) >
        0]``, ownership factors and rank constants replaced by their
        positivity indicators.

        Ownership sums collapse analytically: with ``m`` the axis size
        and ``a`` a residue, ``own(a, t) = C_tot(a) - c_le(a, t)`` where
        ``C_tot(a) = ceil((nsteps - a) / m)`` and
        ``c_le(a, t) = floor(t / m) - [t mod m < a] + 1`` counts the
        multiples of ``m`` plus ``a`` at or below ``t``.  Contracted
        with the weight moments ``sum w``, ``sum w t`` of residue classes
        mod ``L`` (the lcm of the term's axis dims), every gated/owned sum
        is closed-form in ``O(L + cells)`` (the cells of the term's axes)
        for an affine head on at most one ownership axis, its explicit
        steps joining as one class each in the same reduction; the
        two-axis product takes one class per step.  ``mu`` is affine —
        the msgs profile's head — where the words head is positive,
        before the msgs profile's tail and, owned, before ``nsteps - m``
        (every residue owns a tile there, the indicator is 1): those
        classes plus the steps after them.  A head shorter than one
        period enters as its own steps.  A negated gate ``!x`` is the
        complement of the reduction gated on ``x`` (every step hits
        exactly one coordinate along ``x``): at most two reductions per
        term, the second without the ownership axis's gate when that
        axis is negated.
        """
        step = term.step
        lo, hi = max(0, step.lo), min(self.nsteps, step.hi)
        if hi <= lo or (msgs and term.coeff <= 0):
            return 0.0
        if term.uniform and step.column is None and \
                (not msgs or term.msgs_step.column is None):
            if msgs:
                lo, hi = self._positive_range(step, lo, hi)
                step = term.msgs_step
                lo, hi = max(lo, step.lo), min(hi, step.hi)
            series = self._affine_series(step, lo, hi)
            self._check_exact(term, abs(series))
            return float(series)
        if len(term.own) > 1 and (len(term.own) != 2 or term.gate or msgs):
            raise NotImplementedError(
                f"{term.counter} term with ownership {term.own}, "
                f"gate {term.gate}: only an ungated, message-free "
                f"two-axis ownership product has a closed form")
        # The two-axis product reduces one class per step.
        period = None if len(term.own) > 1 else math.lcm(
            *(self._dims[a.lstrip("!")] for a in term.gate + term.own))
        # The affine head [lo, split) and the explicit tail [split, hi).
        split = hi if step.column is None else min(hi, max(lo, step.start))
        tail = step.column[split - step.start:hi - step.start] \
            if split < hi else None
        if not msgs:
            entries = self._entries(step, lo, split, period,
                                    [((split, hi), tail)], len(term.own) == 1)
        else:
            ms = term.msgs_step
            p0, p1 = self._positive_range(step, lo, split)
            a = max(p0, ms.lo)
            b = min(p1, ms.hi, hi if ms.column is None else ms.start)
            if term.own:
                b = min(b, self.nsteps - self._dims[term.own[0]])
            b = max(a, b)
            p1 = max(b, min(p1, ms.hi))
            steps = [((b, p1), self._values(ms, b, p1))] if p1 > b else []
            if split < hi:
                steps.append(((split, hi),
                              self._values(ms, split, hi) * (tail > 0)))
            entries = self._entries(ms, a, b, period, steps, False)
        if entries is None:                 # mu is 0 at every step
            return 0.0
        rkey, M0, M1, amax = entries
        # |sum_t w| at most; only the ownership kernels also form the
        # moment sum_t w * t, a factor ``hi`` above it.
        bound = amax * (hi - lo)
        if term.uniform:
            self._check_exact(term, bound)
            return float(M0.sum())
        if len(term.own) > 1:
            # An ungated two-axis ownership product (the trailing-update
            # flops) splits over own = q + beta, beta periodic in t.
            qcap_i = self.nsteps // self._dims[term.own[0]] + 1
            qcap_j = self.nsteps // self._dims[term.own[1]] + 1
            self._check_exact(term, bound * qcap_i * qcap_j)
            total = self._own_pair_reduce(M0, self._residues(rkey),
                                          term.own[0], term.own[1])
            if term.rank_const is not None:
                total = total * term.rank_const.reshape(self.shape)
            return total
        self._check_exact(term, bound * max(hi, 1) if term.own else bound)
        pos = [a for a in term.gate if not a.startswith("!")]
        neg = [a[1:] for a in term.gate if a.startswith("!")]
        own_ax = term.own[0] if term.own else None
        total = self._residue_reduce(rkey, M0, M1, pos + neg, own_ax, msgs)
        if own_ax in neg:
            neg.remove(own_ax)
            total = self._residue_reduce(
                rkey, M0, M1, pos + neg, own_ax, msgs) - total
        for axis in neg:
            total = total.sum(axis=_GRID_ORDER.index(axis),
                              keepdims=True) - total
        if term.rank_const is not None:
            rc = term.rank_const.reshape(self.shape)
            total = total * ((rc > 0) if msgs else rc)
        return total

    def _entries(self, head: StepFn, a: int, b: int, period: int | None,
                 steps: list[tuple[tuple[int, int], np.ndarray]],
                 moment1: bool) -> tuple | None:
        """One pass's weights as :meth:`_residue_reduce` entries: the
        affine ``head`` on ``[a, b)`` as its classes mod ``period`` (its
        own steps when ``period`` is None or not below ``b - a``), then
        the explicit ``((t0, t1), w)`` parts, in step order.  Returns
        ``(rkey, M0, M1, amax)`` — ``M1 = sum w t`` only for ``moment1``,
        ``amax`` the largest ``|w|`` — or None when nothing is left."""
        parts = []
        amax = 0.0
        if b > a:
            # An affine profile peaks in magnitude at an endpoint.
            amax = max(abs(head.c0 + head.c1 * a),
                       abs(head.c0 + head.c1 * (b - 1)))
            if period is not None and period < b - a:
                parts.append(((0, period), *self._moments(head, a, b, period)))
            else:
                steps = [((a, b), self._values(head, a, b))] + steps
        for (t0, t1), w in steps:
            if t1 > t0:
                parts.append(((t0, t1), w, None))
                amax = max(amax, float(np.abs(w).max()))
        if not parts:
            return None
        rkey: list[tuple[int, int]] = []
        for (t0, t1), _, _ in parts:        # adjacent ranges merge
            if rkey and rkey[-1][1] == t0:
                t0 = rkey.pop()[0]
            rkey.append((t0, t1))
        M1 = None
        if moment1:
            M1 = _cat([m1 if m1 is not None else w * self._residues((rng,))
                       for rng, w, m1 in parts])
        return tuple(rkey), _cat([w for _, w, _ in parts]), M1, amax

    def _residue_reduce(self, rkey: tuple, M0: np.ndarray,
                        M1: np.ndarray | None, pos_axes: list[str],
                        own_ax: str | None, msgs: bool) -> np.ndarray | float:
        """``sum_t w(t) [coord_x = t mod m_x for x in pos_axes] *
        own(own_ax)`` in grid space (ownership becomes its positivity
        indicator for ``msgs``) from the moments ``M0 = sum w`` and
        ``M1 = sum w t`` of the entries ``r`` of :meth:`_residues`
        ``(rkey)``: classes mod a multiple of every ``m``, single steps,
        or both (only ``r mod m`` is read; ``msgs`` is steps alone)."""
        if own_ax is None and not pos_axes:
            return float(M0.sum())
        dims = [self._dims[a] for a in pos_axes]
        nkeys = math.prod(dims)
        # Each class's bucket, row-major over pos_axes (one bucket if none).
        key = self._memoised(("key", *pos_axes, rkey),
                             lambda: np.ravel_multi_index(
                                 [self._residues(rkey) % m
                                  for m in dims or [1]], dims or [1]))
        S0 = np.bincount(key, weights=M0, minlength=nkeys)
        if own_ax is None:
            return self._to_grid(S0, pos_axes)
        r = self._residues(rkey)
        m_o = self._dims[own_ax]
        res, c_tot = self._own_axis(m_o)
        if own_ax in pos_axes:
            # The gate pins the own-axis residue, so per bucket the
            # ownership collapses to c_tot(a) - ((t - a)/m + 1).
            stride = 1
            for m in dims[pos_axes.index(own_ax) + 1:]:
                stride *= m
            a_key = (np.arange(nkeys, dtype=np.int64) // stride) % m_o
            if msgs:
                sub = self._own_tail(M0, r, key, nkeys, own_ax, a_key)
                C = np.where(c_tot[a_key] > 0, S0 - sub, 0.0)
            else:
                S1 = np.bincount(key, weights=M1, minlength=nkeys)
                C = c_tot[a_key] * S0 - ((S1 - a_key * S0) / m_o + S0)
            return self._to_grid(C, pos_axes)
        if msgs:
            sub = self._own_tail(M0, r, key, nkeys, own_ax)
            C = np.where((c_tot > 0)[None, :], S0[:, None] - sub, 0.0)
        else:
            # C = pre(a) + S0 (c_tot - 1) - Q: Q = sum w floor(t / m),
            # pre(a) = sum of w over t mod m < a (exact integers).
            S1 = np.bincount(key, weights=M1, minlength=nkeys)
            joint = np.bincount(key * m_o + r % m_o, weights=M0,
                                minlength=nkeys * m_o).reshape(nkeys, m_o)
            Q = (S1 - joint @ res) / m_o
            C = np.zeros_like(joint)
            np.cumsum(joint[:, :-1], axis=1, out=C[:, 1:])
            C += S0[:, None] * (c_tot - 1) - Q[:, None]
        return self._to_grid(C, pos_axes + [own_ax])

    def _own_tail(self, w: np.ndarray, t: np.ndarray, key: np.ndarray,
                  nkeys: int, own_ax: str,
                  a_key: np.ndarray | None = None) -> np.ndarray:
        """Ownership-indicator complement: ``sum_{t >= L_a} w`` per
        (bucket, residue), where ``L_a`` is the last step owned by
        residue ``a`` — ``own(a, t) > 0`` iff ``t < L_a``, and ``L_a``
        lands within ``m`` steps of the end, so only the trailing slice
        of the step range contributes.  Residue 0 owns a step of any
        non-empty run, so some ``L_a`` is valid."""
        m_o = self._dims[own_ax]
        res, c_tot = self._own_axis(m_o)
        valid = c_tot > 0
        L = res + m_o * (c_tot - 1)
        i0 = int(np.searchsorted(t, int(L[valid].min())))
        tt, wt, kt = t[i0:], w[i0:], key[i0:]
        if a_key is not None:
            ok = (tt >= L[a_key][kt]) & valid[a_key][kt]
            return np.bincount(kt[ok], weights=wt[ok], minlength=nkeys)
        mask = (tt[:, None] >= L[None, :]) & valid[None, :]
        # Per (bucket, residue) in step order, as np.add.at would.
        return np.bincount((kt[:, None] * m_o + res).ravel(),
                           weights=(wt[:, None] * mask).ravel(),
                           minlength=nkeys * m_o).reshape(nkeys, m_o)

    def _own_window(self, axis: str) -> np.ndarray:
        """The periodic part of the ownership count as an ``(m, m)``
        0/1 matrix ``beta[a, r]``: whether residue ``a`` falls in the
        partial-cycle window at any step ``t`` with ``t mod m == r``.
        ``own(a, t) = (nsteps - 1 - t) // m + beta[a, t mod m]`` — both
        operands of the window comparison depend on ``t`` only through
        its residue, so one matrix covers every step."""
        m = self._dims[axis]
        res = self._own_axis(m)[0]
        return self._memoised(("window", m), lambda: (
            ((res[:, None] - res[None, :] - 1) % m)
            < ((self.nsteps - 1 - res[None, :]) % m)).astype(np.float64))

    def _own_pair_reduce(self, w: np.ndarray, t: np.ndarray, ax_i: str,
                         ax_j: str) -> np.ndarray:
        """``sum_t w(t) own_i(a, t) own_j(b, t)`` for every residue pair,
        in grid space.

        Expanding both factors as ``q + beta`` (full cycles plus the
        periodic window of :meth:`_own_window`) splits the sum into a
        scalar ``sum w q_i q_j``, two per-residue marginals against the
        ``w q`` moments, and a bilinear ``beta_i @ M0 @ beta_j^T`` over
        the joint residue-class weight counts ``M0`` (exact integers on
        a words profile under the caller's guard)."""
        m_i, m_j = self._dims[ax_i], self._dims[ax_j]
        rem = self.nsteps - 1 - t
        q_i = (rem // m_i).astype(np.float64)
        q_j = (rem // m_j).astype(np.float64)
        r_i, r_j = t % m_i, t % m_j
        beta_i, beta_j = self._own_window(ax_i), self._own_window(ax_j)
        cross = float((w * q_i * q_j).sum())
        marg_i = beta_i @ np.bincount(r_i, weights=w * q_j, minlength=m_i)
        marg_j = beta_j @ np.bincount(r_j, weights=w * q_i, minlength=m_j)
        joint = np.bincount(r_i * m_j + r_j, weights=w,
                            minlength=m_i * m_j).reshape(m_i, m_j)
        pair = cross + marg_i[:, None] + marg_j[None, :] + \
            beta_i @ joint @ beta_j.T
        return self._to_grid(pair, [ax_i, ax_j])

    # ------------------------------------------------------------------
    # Analytic step columns
    # ------------------------------------------------------------------
    def _rc_axis(self, rank_const: np.ndarray) -> tuple[str, np.ndarray]:
        """Express a rank constant as a function of one grid axis's
        coordinate, returning ``(axis, per-coordinate values)``."""
        for axis in _AXES:
            vals = np.zeros(self._axis_dim(axis))
            vals[self._axis_coords(axis)] = rank_const
            if np.array_equal(vals[self._axis_coords(axis)], rank_const):
                return axis, vals
        raise NotImplementedError(
            "analytic step columns need axis-functional rank constants")

    def _analytic_steps(self, terms: list[CostTerm], stats: CommStats,
                        step_label: Callable[[int], str]) -> None:
        """Emit the per-step log of ``terms`` into ``stats.steps``.

        Along each grid axis the ranks split into a handful of residue
        classes — gate hit/miss x inside/outside the cyclic ownership
        window x rank-constant level — and every rank of a class
        combination carries the *identical* per-step value column.
        Each class column repeats the dense oracle's float operations
        element for element, so per-step **maxima are bitwise equal**
        to it; per-step totals multiply analytic class counts instead
        of summing ranks and agree to float rounding.
        """
        T, P = self.nsteps, self.nranks
        if T == 0:
            return
        t = np.arange(T, dtype=np.int64)
        nonuni = [tm for tm in terms if not tm.uniform]
        # Rank-uniform columns fold in after aggregation (the order the
        # dense oracle aggregates in).
        uni: dict[str, np.ndarray] = {}
        for term in terms:
            if not term.uniform:
                continue
            words = term.coeff * term.step.values(0, T)
            uni[term.counter] = uni.get(term.counter, 0.0) + words
            if term.msgs_step is not None:
                mbase = term.msgs_step.values(0, T)
                uni["rmsgs"] = uni.get("rmsgs", 0.0) + \
                    term.msgs_coeff * np.where(words > 0, mbase, 0.0)
        # Map rank constants onto axes; collect the axes any term uses.
        rc_map: dict[int, tuple[str, int]] = {}
        axis_funcs: dict[str, list[np.ndarray]] = {a: [] for a in _AXES}
        for ti, term in enumerate(nonuni):
            if term.rank_const is None:
                continue
            axis, vals = self._rc_axis(term.rank_const)
            rc_map[ti] = (axis, len(axis_funcs[axis]))
            axis_funcs[axis].append(vals)
        gate_axes = {a.lstrip("!") for tm in nonuni for a in tm.gate}
        own_axes = {a for tm in nonuni for a in tm.own}
        used = [a for a in _AXES
                if a in gate_axes or a in own_axes or axis_funcs[a]]
        info = {a: self._axis_classes(
            a, t, a in gate_axes, a in own_axes, axis_funcs[a])
            for a in used}
        bases = [tm.step.values(0, T) for tm in nonuni]
        mbases = [tm.msgs_step.values(0, T) if tm.msgs_step is not None
                  else None for tm in nonuni]
        need = {tm.counter for tm in nonuni}
        if any(tm.msgs_step is not None for tm in nonuni):
            need.add("rmsgs")
        # Per-step maxima: max over existing class combinations of the
        # combination's (shared) value column.
        vmax = {c: np.full(T, -np.inf) for c in need}
        for combo in itertools.product(
                *(info[a]["classes"] for a in used)):
            cls = dict(zip(used, combo))
            exists = np.ones(T, dtype=bool)
            for c in combo:
                exists = exists & c["exists"]
            if not exists.any():
                continue
            bufs: dict[str, np.ndarray] = {}
            for ti, term in enumerate(nonuni):
                if any((cls[a.lstrip("!")]["gate"] is True)
                       == a.startswith("!") for a in term.gate):
                    continue        # gate factor is 0 for this class
                fac: np.ndarray | float = 1.0
                for axis in term.own:
                    fac = fac * cls[axis]["own"]
                if ti in rc_map:
                    axis, fi = rc_map[ti]
                    fac = fac * float(cls[axis]["rc"][fi])
                words = term.coeff * (bases[ti] * fac)
                prev = bufs.get(term.counter)
                bufs[term.counter] = words if prev is None \
                    else prev + words
                if term.msgs_step is not None:
                    mm = term.msgs_coeff * np.where(
                        words > 0, mbases[ti], 0.0)
                    prev = bufs.get("rmsgs")
                    bufs["rmsgs"] = mm if prev is None else prev + mm
            for c in need:
                col = bufs.get(c, 0.0)
                vmax[c] = np.maximum(
                    vmax[c], np.where(exists, col, -np.inf))
        # Per-step totals: analytic rank counts per term (to rounding).
        tot = {c: np.zeros(T) for c in need}
        for ti, term in enumerate(nonuni):
            rc = rc_map.get(ti)
            rcv = (rc[0], axis_funcs[rc[0]][rc[1]]) if rc else None
            tot[term.counter] += term.coeff * bases[ti] * \
                self._sum_factor(term, info, T, rcv, msgs=False)
            if term.msgs_step is not None:
                pos = (term.coeff > 0) & (bases[ti] > 0)
                tot["rmsgs"] += term.msgs_coeff * mbases[ti] * pos * \
                    self._sum_factor(term, info, T, rcv, msgs=True)
        zeros = np.zeros(T)

        def series(key: str) -> tuple[np.ndarray, np.ndarray]:
            u = np.broadcast_to(np.asarray(uni.get(key, zeros)), (T,))
            if key in vmax:
                return vmax[key] + u, tot[key] + u * P
            return u, u * P

        recv_max, recv_tot = series("recv")
        flops_max, flops_tot = series("flops")
        msgs_max, msgs_tot = series("rmsgs")
        cols = dict(zip(STEP_FIELDS, (
            flops_max, flops_tot, recv_max, recv_tot, msgs_max, msgs_tot)))
        stats.steps.extend(step_label, 0, T, **cols)

    def _axis_classes(self, axis: str, t: np.ndarray, gate_used: bool,
                      own_used: bool, funcs: list[np.ndarray]) -> dict:
        """One axis's residue classes and per-step data.

        A residue class fixes: whether the residue is the step's gate
        target; whether it falls in the step's cyclic ownership window
        (``own = q + 1`` inside, ``q`` outside — the gate residue is
        *never* inside, since the window starts at ``t + 1``); and the
        level set of the axis's rank-constant functions.  Every class
        carries its per-step existence mask; empty classes are dropped.
        """
        T = t.size
        m = self._axis_dim(axis)
        gres = t % m
        q = B = None
        if own_used:
            rem = self.nsteps - 1 - t
            q = rem // m
            s = rem % m
            res = np.arange(m, dtype=np.int64)
            B = ((res[None, :] - t[:, None] - 1) % m) < s[:, None]
        if funcs:
            uniq, labels = np.unique(
                np.stack(funcs, axis=1), axis=0, return_inverse=True)
            nclass = uniq.shape[0]
        else:
            uniq, labels, nclass = None, np.zeros(m, dtype=np.int64), 1
        classes = []
        for g in (True, False) if gate_used else (None,):
            for wb in (True, False) if own_used else (None,):
                if g is True and wb is True:
                    continue
                for cid in range(nclass):
                    col = labels == cid
                    if g is True:
                        exists = col[gres]
                    elif own_used:
                        memb = (B if wb else ~B) & col[None, :]
                        cnt = memb.sum(axis=1)
                        if gate_used:
                            cnt = cnt - np.take_along_axis(
                                memb, gres[:, None], 1)[:, 0]
                        exists = cnt > 0
                    else:
                        n_in = int(col.sum())
                        cnt = np.full(T, n_in, dtype=np.int64)
                        if gate_used:
                            cnt = cnt - col[gres]
                        exists = cnt > 0
                    if not exists.any():
                        continue
                    classes.append(dict(
                        exists=exists, gate=g,
                        own=(None if not own_used else
                             (q + (1 if wb else 0)).astype(np.float64)),
                        rc=(None if uniq is None else uniq[cid])))
        return dict(m=m, gres=gres, q=q, B=B, classes=classes)

    def _sum_factor(self, term: CostTerm, info: dict, T: int,
                    rc: tuple[str, np.ndarray] | None,
                    msgs: bool) -> np.ndarray:
        """``sum_r fac_r(t)`` as an analytic column: the grid is a full
        coordinate product, so the rank sum factorizes into per-axis
        residue sums (``msgs`` swaps every factor for its positivity
        indicator, counting ranks instead of words)."""
        axes = list(dict.fromkeys(
            [a.lstrip("!") for a in term.gate] + list(term.own)
            + ([rc[0]] if rc else [])))
        F = np.full(T, float(self.nranks))
        for axis in axes:
            d = info[axis]
            m, gres = d["m"], d["gres"]
            R = np.ones(m)
            if rc is not None and rc[0] == axis:
                R = (rc[1] > 0).astype(np.float64) if msgs else rc[1]
            O = None
            if axis in term.own:
                O = (d["q"][:, None] + d["B"]).astype(np.float64)
                if msgs:
                    O = (O > 0).astype(np.float64)
            if O is None:
                a_all = np.full(T, float(R.sum()))
                a_pin = R[gres]
            else:
                a_all = O @ R
                a_pin = np.take_along_axis(O, gres[:, None], 1)[:, 0] \
                    * R[gres]
            atom = next((a for a in term.gate if a.lstrip("!") == axis),
                        None)
            if atom is None:
                A = a_all
            elif atom.startswith("!"):
                A = a_all - a_pin
            else:
                A = a_pin
            F = F * (A / m)
        return F


class TermBatch:
    """The cost-term evaluator over a collection of schedules (a single
    trace is a batch of one).

    The planner and the sweep harness score whole grids of candidate
    configs: :meth:`add` collects each candidate's emitted
    :class:`CostTerm` stream, :meth:`evaluate` reduces every term
    through :meth:`StepAccounting._term_total` (:meth:`recv_words`:
    only what the planner ranks by).  A pass visits the candidates
    grouped by ``(shape, nsteps)`` (a stable sort; results stay in
    :meth:`add` order) and each group shares one memo, emptied when the
    group changes and after the pass: the two LU and two Cholesky
    flavours of a sweep case each share a grid and a step count.  Every
    memo entry is a function of its key, shape and ``nsteps``, and each
    candidate is reduced in term emission order, so its
    :class:`~repro.machine.stats.CommStats` do not depend on what else
    shares the batch (the parity suite pins this, and the totals against
    the dense oracle, over randomized grids of all five schedules).
    """

    def __init__(self) -> None:
        # (accounting, its terms, the schedule's step_label) per candidate.
        self._entries: list[tuple] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, schedule) -> int:
        """Collect one candidate's cost terms; returns its batch index."""
        acct = StepAccounting(schedule.grid, schedule.steps())
        self._entries.append((acct, acct._collect(schedule.accounting),
                              schedule.step_label))
        return len(self._entries) - 1

    def _pass(self, reduce: Callable[[int, StepAccounting, list, Callable],
                                     None]) -> None:
        """``reduce(k, acct, terms, step_label)`` for every candidate,
        grouped by ``(shape, nsteps)``, one shared memo per group."""
        def group(k: int) -> tuple:
            acct = self._entries[k][0]
            return acct.shape, acct.nsteps

        memo: dict[tuple, object] = {}
        last = None
        try:
            for k in sorted(range(len(self._entries)), key=group):
                if group(k) != last:
                    memo.clear()
                    last = group(k)
                self._entries[k][0]._memo = memo
                reduce(k, *self._entries[k])
        finally:
            memo.clear()

    def evaluate(self, steps: str = "none") -> list[CommStats]:
        """One :class:`CommStats` per added candidate, in :meth:`add`
        order, with the ``steps`` flavour of step log (derived
        analytically from the same terms)."""
        out: list[CommStats] = [None] * len(self._entries)

        def reduce(k, acct, terms, label):
            stats = out[k] = CommStats(acct.nranks, steps=steps)
            acct._reduce(terms, {
                "recv": (stats.recv_words, stats.recv_msgs),
                "flops": (stats.flops, None)})
            if steps != "none":
                acct._analytic_steps(terms, stats, label)

        self._pass(reduce)
        return out

    def recv_words(self) -> list[np.ndarray]:
        """Per-rank received words per candidate, from its ``"recv"``
        terms' words alone — bitwise ``evaluate()[k].recv_words``."""
        out = [np.zeros(acct.nranks) for acct, _, _ in self._entries]
        self._pass(lambda k, acct, terms, _: acct._reduce(
            terms, {"recv": (out[k], None)}))
        return out
