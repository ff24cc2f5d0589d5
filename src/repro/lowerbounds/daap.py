"""Disjoint Access Array Programs (DAAP) — Section 2.2 of the paper.

An input program is a collection of statements, each enclosed in a loop
nest::

    for psi_1 in D_1, ..., for psi_l in D_l:
        S:  A_0[phi_0(psi)] <- f(A_1[phi_1(psi)], ..., A_m[phi_m(psi)])

Key notions captured here:

* the *iteration vector* ``psi = [psi_1, ..., psi_l]``;
* *access function vectors* ``phi_j`` mapping iteration variables to array
  subscripts — represented by the tuple of subscript expressions, of which
  only the set of distinct iteration variables matters for the bounds
  (the *access dimension* ``dim(A_j(phi_j))``, e.g. ``A[k, k]`` has
  dimension 1);
* the *disjoint access property*: within one statement no two access
  function vectors may address the same vertex, which holds when the
  (array, subscript-pattern) pairs are pairwise distinct;
* the *iteration domain* of each statement, whose point count is the
  vertex count ``|V_S|`` Lemma 1 / Lemma 9 turn into bounds, and whose
  points are the compute vertices of the program's cDAG
  (:func:`repro.pebbles.builders.program_cdag`).

The representation is deliberately symbolic-but-minimal: subscripts are
strings over iteration-variable names (affine or not — the method "does
not require loop nests to be affine"), and what the optimization in
:mod:`repro.lowerbounds.intensity` consumes is just, per access, the tuple
of distinct iteration variables appearing in it.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

__all__ = ["ArrayAccess", "Statement", "Program", "DAAPError",
           "lu_program", "cholesky_program", "matmul_program"]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_AFFINE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)?([+-]?[0-9]+)?")


class DAAPError(ValueError):
    """Malformed DAAP program."""


def _value(expr: str, env: Mapping[str, int]) -> int:
    """The value in ``env`` of ``expr``: an integer, or a name ± an integer."""
    m = _AFFINE.fullmatch(str(expr).replace(" ", ""))
    name = m and m.group(1)
    if not (m and m.group(0)) or name not in (None, *env):
        raise DAAPError(f"{expr!r} is not an integer or n or an enclosing "
                        "loop variable ± an integer")
    return (env[name] if name else 0) + int(m.group(2) or 0)


@dataclasses.dataclass(frozen=True)
class ArrayAccess:
    """One array access ``array[subscripts]``.

    ``subscripts`` are expression strings over iteration-variable names,
    e.g. ``("i", "k")`` for ``A[i, k]`` or ``("k", "k")`` for ``A[k, k]``.
    """

    array: str
    subscripts: tuple[str, ...]

    def variables_in(self, loop_vars: Sequence[str]) -> tuple[str, ...]:
        """Distinct iteration variables appearing in the subscripts, in
        loop-nest order.  Their count is the access dimension."""
        found = []
        loop_set = set(loop_vars)
        for expr in self.subscripts:
            for token in _IDENT.findall(expr):
                if token in loop_set and token not in found:
                    found.append(token)
        return tuple(v for v in loop_vars if v in found)

    def per_dimension_variables(self, loop_vars: Sequence[str]
                                ) -> tuple[tuple[str, ...], ...]:
        """For each subscript dimension, the loop variables it uses —
        the signature of the offset-collision check."""
        loop_set = set(loop_vars)
        out = []
        for expr in self.subscripts:
            found = tuple(v for v in loop_vars
                          if v in set(_IDENT.findall(expr)) & loop_set)
            out.append(found)
        return tuple(out)

    def element(self, env: Mapping[str, int]) -> tuple:
        """``(array, *subscripts)`` at the iteration vector ``env``; each
        subscript must be an integer or a loop variable ± an integer."""
        return (self.array, *(_value(e, env) for e in self.subscripts))


@dataclasses.dataclass(frozen=True)
class Statement:
    """One DAAP statement with its loop nest.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"S2"``.
    loop_vars:
        Iteration variables of the enclosing nest, outermost first.
    output:
        The written access ``A_0[phi_0]``.
    inputs:
        The read accesses ``A_1[phi_1], ..., A_m[phi_m]``.
    domain:
        The iteration domain: one half-open ``(lo, hi)`` pair per loop
        variable, ``lo <= psi_t < hi``.  Each bound is an integer, ``n``
        (the problem size) ± an integer, or an outer loop variable ± an
        integer, e.g. ``(("0", "n"), ("k+1", "n"))`` for ``k < i < n``.
    min_unique_inputs:
        The paper's ``u`` (Lemma 6): every compute vertex has at least
        ``u`` direct predecessors that are out-degree-one graph inputs.
        For update statements like ``A[i,k] /= A[k,k]`` the previous
        version of the output element itself is such a predecessor, so
        ``u >= 1``.
    """

    name: str
    loop_vars: tuple[str, ...]
    output: ArrayAccess
    inputs: tuple[ArrayAccess, ...]
    domain: tuple[tuple[str, str], ...]
    min_unique_inputs: int = 0

    def __post_init__(self) -> None:
        if not self.loop_vars:
            raise DAAPError(f"{self.name}: empty loop nest")
        if len(set(self.loop_vars)) != len(self.loop_vars):
            raise DAAPError(f"{self.name}: duplicate loop variables")
        if len(self.domain) != self.depth:
            raise DAAPError(f"{self.name}: {len(self.domain)} domain ranges "
                            f"for {self.depth} loop variables")
        for t, (lo, hi) in enumerate(self.domain):
            scope = dict.fromkeys(("n", *self.loop_vars[:t]), 0)
            for bound in (lo, hi):
                _value(bound, scope)  # raises on a name out of scope
        for acc in (self.output, *self.inputs):
            if not acc.variables_in(self.loop_vars):
                raise DAAPError(
                    f"{self.name}: access {acc.array}{list(acc.subscripts)} "
                    "uses no iteration variable")
        # Disjoint access property: within one statement, two *input*
        # accesses may not address the same vertex, so their
        # (array, pattern) identities must be pairwise distinct.  An input
        # matching the output pattern is fine — it reads the *previous
        # version* of the element (a different cDAG vertex).
        seen: set[tuple] = set()
        for acc in self.inputs:
            key = (acc.array, acc.subscripts)
            if key in seen:
                raise DAAPError(
                    f"{self.name}: disjoint access property violated for "
                    f"{acc.array}{list(acc.subscripts)}")
            seen.add(key)
        # Offset-collision check: two *different* accesses to the same
        # array whose subscripts use identical loop variables in every
        # dimension differ only by constants — across iterations they hit
        # the same vertex (e.g. the 5-point stencil's B[t-1,i,j] vs
        # B[t-1,i-1,j]), so the program is not a DAAP and the
        # no-reuse/intensity arguments would produce *invalid* bounds.
        # The check is syntactic and conservative.
        for a in range(len(self.inputs)):
            for b in range(a + 1, len(self.inputs)):
                accA, accB = self.inputs[a], self.inputs[b]
                if accA.array != accB.array:
                    continue
                sigA = accA.per_dimension_variables(self.loop_vars)
                sigB = accB.per_dimension_variables(self.loop_vars)
                if sigA == sigB:
                    raise DAAPError(
                        f"{self.name}: accesses "
                        f"{accA.array}{list(accA.subscripts)} and "
                        f"{accB.array}{list(accB.subscripts)} differ only "
                        "by constant offsets — overlapping ranges violate "
                        "the disjoint access property (not a DAAP; see "
                        "the paper's polyhedral-model comparison for "
                        "stencil-shaped programs)")

    @property
    def depth(self) -> int:
        """Loop-nest depth ``l``."""
        return len(self.loop_vars)

    def points(self, n: int) -> Iterator[tuple[int, ...]]:
        """The iteration vectors of the domain at problem size ``n``, in
        execution (lexicographic) order."""
        def nest(point: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if len(point) == self.depth:
                yield point
                return
            env = dict(zip(self.loop_vars, point), n=n)
            lo, hi = self.domain[len(point)]
            for v in range(_value(lo, env), _value(hi, env)):
                yield from nest(point + (v,))
        return nest(())

    def num_vertices(self, n: float) -> float:
        """``|V_S|``, the domain's point count at problem size ``n``: the
        polynomial of degree ``<= depth`` through the exact counts at
        ``n = 1 .. depth + 1`` (Newton's forward differences), checked at
        ``depth + 2``; :class:`DAAPError` if the count is no such polynomial.
        """
        counts = [sum(1 for _ in self.points(size))
                  for size in range(1, self.depth + 3)]
        diffs = []
        while counts:
            diffs.append(counts[0])
            counts = [b - a for a, b in zip(counts, counts[1:])]
        if diffs.pop():
            raise DAAPError(f"{self.name}: the point count of {self.domain} "
                            f"is not a polynomial of degree <= {self.depth}")
        x, total, binomial = Fraction(n) - 1, Fraction(0), Fraction(1)
        for k, diff in enumerate(diffs):
            total += diff * binomial          # diff * C(n - 1, k)
            binomial = binomial * (x - k) / (k + 1)
        return float(total)

    def input_variable_groups(self) -> tuple[tuple[str, ...], ...]:
        """For each input access, the distinct iteration variables used.

        This is what the intensity optimization consumes: the access size
        ``|A_j(D)|`` is the product of ``|D_t|`` over these variables
        (Lemma 5).
        """
        return tuple(acc.variables_in(self.loop_vars) for acc in self.inputs)

    def trivially_no_reuse(self) -> bool:
        """True when every input has full access dimension ``l`` —
        then each compute vertex needs ``m`` fresh inputs and
        ``rho = 1/m`` (Section 3)."""
        return all(len(g) == self.depth for g in self.input_variable_groups())


@dataclasses.dataclass(frozen=True)
class Program:
    """A sequence of statements plus the data-reuse relationships between
    them (input overlap: shared read arrays; output overlap:
    producer-consumer pairs)."""

    name: str
    statements: tuple[Statement, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.statements]
        if len(set(names)) != len(names):
            raise DAAPError(f"{self.name}: duplicate statement names")


# ---------------------------------------------------------------------------
# The three kernels analyzed in the paper, as DAAP programs.
# ---------------------------------------------------------------------------

def lu_program() -> Program:
    """In-place LU factorization without pivoting (Figure 3).

    ``S1: A[i,k] /= A[k,k]`` over ``k < i < N`` and
    ``S2: A[i,j] -= A[i,k] * A[k,j]`` over ``k < i, j < N``.
    """
    s1 = Statement(
        name="S1",
        loop_vars=("k", "i"),
        output=ArrayAccess("A", ("i", "k")),
        inputs=(ArrayAccess("A", ("i", "k")), ArrayAccess("A", ("k", "k"))),
        domain=(("0", "n"), ("k+1", "n")),
        min_unique_inputs=1,  # previous version of A[i,k], out-degree 1
    )
    s2 = Statement(
        name="S2",
        loop_vars=("k", "i", "j"),
        output=ArrayAccess("A", ("i", "j")),
        inputs=(ArrayAccess("A", ("i", "j")), ArrayAccess("A", ("i", "k")),
                ArrayAccess("A", ("k", "j"))),
        domain=(("0", "n"), ("k+1", "n"), ("k+1", "n")),
    )
    return Program("lu", (s1, s2))


def cholesky_program() -> Program:
    """Cholesky factorization (Listing 1): sqrt / column scale / update."""
    s1 = Statement(
        name="S1",
        loop_vars=("k",),
        output=ArrayAccess("L", ("k", "k")),
        inputs=(ArrayAccess("L", ("k", "k")),),
        domain=(("0", "n"),),
        min_unique_inputs=1,
    )
    s2 = Statement(
        name="S2",
        loop_vars=("k", "i"),
        output=ArrayAccess("L", ("i", "k")),
        inputs=(ArrayAccess("L", ("i", "k")), ArrayAccess("L", ("k", "k"))),
        domain=(("0", "n"), ("k+1", "n")),
        min_unique_inputs=1,
    )
    s3 = Statement(
        name="S3",
        loop_vars=("k", "i", "j"),
        output=ArrayAccess("L", ("i", "j")),
        inputs=(ArrayAccess("L", ("i", "j")), ArrayAccess("L", ("i", "k")),
                ArrayAccess("L", ("j", "k"))),
        domain=(("0", "n"), ("k+1", "n"), ("k+1", "i+1")),  # j = k+1:i
    )
    return Program("cholesky", (s1, s2, s3))


def matmul_program() -> Program:
    """Classic ``C[i,j] += A[i,k] * B[k,j]`` (the SC19 MMM kernel), used as
    a cross-check of the framework against the known 2n^3/sqrt(M) bound.

    The accumulator read ``C[i,j]`` (previous version) is part of the
    dominator, exactly as in the LU/Cholesky Schur statements — dropping
    it would change the bound from ``2n^3/sqrt(M)`` to ``n^3/M``.
    """
    s1 = Statement(
        name="S1",
        loop_vars=("i", "j", "k"),
        output=ArrayAccess("C", ("i", "j")),
        inputs=(ArrayAccess("C", ("i", "j")), ArrayAccess("A", ("i", "k")),
                ArrayAccess("B", ("k", "j"))),
        domain=(("0", "n"),) * 3,
    )
    return Program("matmul", (s1,))
