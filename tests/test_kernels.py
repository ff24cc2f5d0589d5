"""Unit tests for the local kernels (repro.kernels)."""

import timeit

import numpy as np
import pytest
import scipy.linalg

from repro.kernels import (
    KernelError,
    SingularMatrixError,
    gemm,
    gemm_acc,
    gemm_flops,
    getrf,
    getrf_flops,
    pivots_to_permutation,
    potrf,
    potrf_flops,
    trsm,
    trsm_flops,
)
from repro.kernels.blas import gemm_acc_many


class TestGemm:
    def test_product(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        out, fl = gemm(a, b)
        assert np.allclose(out, a @ b)
        assert fl == gemm_flops(3, 5, 4) == 120

    def test_accumulate(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3))
        out, _ = gemm(a, b, c, alpha=2.0, beta=-1.0)
        assert np.allclose(out, 2 * a @ b - c)

    def test_shape_mismatch(self):
        with pytest.raises(KernelError):
            gemm(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(KernelError):
            gemm(np.zeros((2, 3)), np.zeros((3, 2)), c=np.zeros((3, 3)))

    def test_rejects_1d(self):
        with pytest.raises(KernelError):
            gemm(np.zeros(3), np.zeros((3, 2)))


class TestGemmAcc:
    """``C += A @ B`` into ``c`` itself, whatever views the operands
    are and whatever order ``c`` is stored in."""

    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    def test_accumulates_in_place(self, rng, order):
        block = rng.standard_normal((6, 9))
        a = block[:, 2:6]                       # a column strip: a view
        b = rng.standard_normal((7, 5))[1:5]    # a row strip
        start = rng.standard_normal((6, 5))
        c = {"C": start.copy(), "F": np.asfortranarray(start),
             "strided": np.zeros((6, 10))[:, ::2]}[order]
        c[...] = start
        held, kept = c, block.copy()
        fl = gemm_acc(c, a, b)
        assert c is held and np.allclose(c, start + a @ b)
        assert fl == gemm_flops(6, 5, 4)
        assert np.array_equal(block, kept)

    def test_matches_product_then_add_bitwise(self, rng):
        a, b = rng.standard_normal((48, 16)), rng.standard_normal((16, 24))
        c = rng.standard_normal((48, 24))
        want = c + a @ b
        gemm_acc(c, a, b)
        assert np.array_equal(c, want)

    def test_empty_inner_dimension_adds_nothing(self):
        c = np.ones((3, 2))
        assert gemm_acc(c, np.zeros((3, 0)), np.zeros((0, 2))) == 0.0
        assert np.array_equal(c, np.ones((3, 2)))

    def test_refuses_what_it_cannot_write(self, rng):
        a, b = np.ones((3, 4)), np.ones((4, 2))
        frozen = np.zeros((3, 2))
        frozen.flags.writeable = False
        for c in (frozen, np.zeros((2, 3)), np.zeros((3, 2), dtype=np.float32),
                  [[0.0, 0.0]] * 3):
            with pytest.raises(KernelError):
                gemm_acc(c, a, b)
        assert not frozen.any()
        with pytest.raises(KernelError):
            gemm_acc(np.zeros((3, 2)), a, np.ones((3, 2)))


class TestGemmAccMany:
    """``C -= A @ B`` (``alpha = -1``) into a run of rows of a panel:
    the 2.5D trailing update's product."""

    @staticmethod
    def _operands(rng):
        panel = rng.standard_normal((40, 24))
        a, b = rng.standard_normal((31, 8)), rng.standard_normal((8, 24))
        return panel, a, b, panel[9:] - a @ b

    def test_row_run_of_a_c_ordered_panel_in_place(self, rng):
        panel, a, b, want = self._operands(rng)
        top = panel[:9].copy()
        c = panel[9:]
        assert c.flags.c_contiguous
        gemm_acc_many([(c, a, b)], -1.0)
        assert np.shares_memory(c, panel)
        assert np.array_equal(panel[9:], want)
        assert np.array_equal(panel[:9], top)

    def test_fortran_ordered_c_gives_the_same_bits(self, rng):
        panel, a, b, want = self._operands(rng)
        c = np.asfortranarray(panel[9:])
        gemm_acc_many([(c, a, b)], -1.0)
        assert np.array_equal(c, want)

    def test_strided_c_takes_the_numpy_path(self, rng, monkeypatch):
        panel, a, b, want = self._operands(rng)
        c = np.zeros((31, 48))[:, ::2]
        c[...] = panel[9:]

        class NoBlas:
            class blas:
                @staticmethod
                def dgemm(*args, **kwargs):
                    raise AssertionError("a strided C reached dgemm")

        monkeypatch.setattr("repro.kernels.blas._lapack", lambda: NoBlas)
        gemm_acc_many([(c, a, b)], -1.0)
        assert np.array_equal(c, want)

    def test_checks_every_product_before_writing_any(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        frozen = np.zeros((3, 2))
        frozen.flags.writeable = False
        for bad in [(frozen, a, b), (np.zeros((2, 3)), a, b),
                    (np.zeros((3, 2)), a, a), (np.zeros(6), a, b),
                    (np.zeros((3, 2), dtype=np.float32), a, b)]:
            c = np.ones((3, 2))
            with pytest.raises(KernelError):
                gemm_acc_many([(c, a, b), bad], -1.0)
            assert np.array_equal(c, np.ones((3, 2)))


class TestTrsm:
    def test_left_lower(self, rng):
        tri = np.tril(rng.standard_normal((4, 4))) + 4 * np.eye(4)
        rhs = rng.standard_normal((4, 3))
        x, fl = trsm(tri, rhs, side="left", lower=True)
        assert np.allclose(tri @ x, rhs)
        assert fl == trsm_flops(4, 3)

    def test_right_upper(self, rng):
        tri = np.triu(rng.standard_normal((4, 4))) + 4 * np.eye(4)
        rhs = rng.standard_normal((5, 4))
        x, _ = trsm(tri, rhs, side="right", lower=False)
        assert np.allclose(x @ tri, rhs)

    def test_unit_diagonal(self, rng):
        tri = np.tril(rng.standard_normal((4, 4)), -1) + np.eye(4)
        rhs = rng.standard_normal((4, 2))
        x, _ = trsm(tri, rhs, side="left", lower=True, unit_diagonal=True)
        assert np.allclose(tri @ x, rhs)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("unit", [True, False])
    def test_bit_identical_to_lapack(self, rng, lower, unit):
        """trsm is SciPy's solve_triangular, however the module gets
        hold of it: the same bits for both sides."""
        tri = rng.standard_normal((16, 16)) + 16 * np.eye(16)
        tri = np.tril(tri) if lower else np.triu(tri)
        rhs = rng.standard_normal((16, 5))
        x, _ = trsm(tri, rhs, side="left", lower=lower, unit_diagonal=unit)
        assert np.array_equal(x, scipy.linalg.solve_triangular(
            tri, rhs, lower=lower, unit_diagonal=unit))
        x, _ = trsm(tri, rhs.T, side="right", lower=lower,
                    unit_diagonal=unit)
        assert np.array_equal(x, scipy.linalg.solve_triangular(
            tri.T, rhs, lower=not lower, unit_diagonal=unit).T)

    def test_empty_rhs(self):
        """No right-hand sides (an empty 1D chunk): nothing to solve,
        and ``dtrtrs`` is not asked."""
        assert trsm(np.eye(3), np.zeros((3, 0)))[0].shape == (3, 0)
        assert trsm(np.eye(3), np.zeros((0, 3)),
                    side="right")[0].shape == (0, 3)

    def test_singular_detected(self):
        tri = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(SingularMatrixError):
            trsm(tri, np.ones((3, 1)))

    def test_bad_side(self):
        with pytest.raises(KernelError):
            trsm(np.eye(2), np.ones((2, 2)), side="top")

    def test_shape_checks(self):
        with pytest.raises(KernelError):
            trsm(np.eye(3), np.ones((4, 2)), side="left")
        with pytest.raises(KernelError):
            trsm(np.ones((2, 3)), np.ones((3, 2)))


def getrf_by_elimination(a: np.ndarray, tolerant: bool = False):
    """The right-looking elimination loop ``getrf(pivot=True)`` ran
    before it called LAPACK, kept as its oracle: first-largest pivot
    per column; an exactly zero pivot raises, or with ``tolerant``
    leaves its column uneliminated."""
    a = np.array(a, dtype=np.float64)
    m, n = a.shape
    piv = np.arange(min(m, n))
    for k in range(min(m, n)):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            if not tolerant:
                raise SingularMatrixError(f"zero pivot at column {k}")
            continue
        piv[k] = p
        if p != k:
            a[[k, p], :] = a[[p, k], :]
        a[k + 1:, k] /= a[k, k]
        if k + 1 < n:
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a, piv


class TestGetrfAgainstElimination:
    """LAPACK-backed ``getrf`` against the loop it replaced."""

    SHAPES = [(16, 16), (40, 8), (128, 16), (9, 1), (3, 7), (1, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_panels(self, shape, seed):
        a = np.random.default_rng(seed).standard_normal(shape)
        lu, piv, fl = getrf(a)
        want_lu, want_piv = getrf_by_elimination(a)
        assert np.array_equal(piv, want_piv)
        assert np.allclose(lu, want_lu, rtol=1e-12, atol=1e-12)
        assert fl == getrf_flops(*shape)

    @pytest.mark.parametrize("shape", [(12, 4), (40, 8), (6, 6), (3, 7)])
    @pytest.mark.parametrize("col", [0, 2])
    def test_all_zero_column(self, rng, shape, col):
        a = rng.standard_normal(shape)
        a[:, col] = 0.0
        lu, piv, _ = getrf(a, tolerant=True)
        want_lu, want_piv = getrf_by_elimination(a, tolerant=True)
        assert np.array_equal(piv, want_piv)
        assert np.allclose(lu, want_lu, rtol=1e-12, atol=1e-12)
        with pytest.raises(SingularMatrixError):
            getrf(a)
        with pytest.raises(SingularMatrixError):
            getrf_by_elimination(a)

    def test_dominant_rows_are_picked_identically(self, rng):
        """A tournament block: a few rows dwarf the rest."""
        a = rng.standard_normal((64, 8))
        a[rng.choice(64, size=8, replace=False)] *= 1e3
        assert np.array_equal(getrf(a)[1], getrf_by_elimination(a)[1])

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_empty_panels(self, shape):
        lu, piv, _ = getrf(np.zeros(shape))
        assert lu.shape == shape and piv.size == 0


class TestGetrf:
    def test_factorization(self, rng):
        a = rng.standard_normal((6, 6))
        lu, piv, fl = getrf(a)
        l = np.tril(lu, -1) + np.eye(6)
        u = np.triu(lu)
        perm = pivots_to_permutation(piv, 6)
        assert np.allclose(a[perm], l @ u)
        assert fl == getrf_flops(6, 6)

    def test_rectangular_panel(self, rng):
        a = rng.standard_normal((8, 3))
        lu, piv, _ = getrf(a)
        l = np.tril(lu[:, :3], -1) + np.vstack(
            [np.eye(3), np.zeros((5, 3))])
        l = np.tril(lu, -1)
        np.fill_diagonal(l, 1.0)
        u = np.triu(lu[:3])
        perm = pivots_to_permutation(piv, 8)
        assert np.allclose(a[perm], l @ u)

    def test_pivot_picks_largest(self):
        a = np.array([[1.0, 0.0], [10.0, 1.0]])
        _, piv, _ = getrf(a)
        assert piv[0] == 1

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            getrf(np.zeros((3, 3)))

    def test_matches_scipy(self, rng):
        a = rng.standard_normal((7, 7))
        lu, piv, _ = getrf(a)
        lu_sp, piv_sp = scipy.linalg.lu_factor(a)
        assert np.allclose(lu, lu_sp)
        assert np.array_equal(piv, piv_sp)


class TestPotrf:
    def test_factorization(self, spd_matrix):
        l, fl = potrf(spd_matrix)
        assert np.allclose(l @ l.T, spd_matrix)
        assert np.allclose(np.triu(l, 1), 0)
        assert fl == potrf_flops(64)

    def test_not_spd_raises(self):
        with pytest.raises(KernelError, match="not positive definite"):
            potrf(-np.eye(3))

    def test_nonsquare_rejected(self):
        with pytest.raises(KernelError):
            potrf(np.zeros((2, 3)))


class TestPivotsToPermutation:
    def test_applies_swaps_in_order(self, rng):
        a = rng.standard_normal((6, 4))
        piv = np.array([3, 1, 5, 4, 4, 5])
        swapped = a.copy()
        for i, p in enumerate(piv):
            swapped[[i, p]] = swapped[[p, i]]
        assert np.array_equal(a[pivots_to_permutation(piv, 6)], swapped)

    def test_reorders_rows_as_getrf_pivoted(self, rng):
        a = rng.standard_normal((7, 4))
        lu, piv, _ = getrf(a)
        lower = np.tril(lu, -1) + np.eye(7, 4)
        assert np.allclose(a[pivots_to_permutation(piv, 7)],
                           lower @ np.triu(lu[:4]))


class TestFlopFormulas:
    def test_lu_leading_term(self):
        n = 1000
        assert getrf_flops(n, n) == pytest.approx(2 * n ** 3 / 3, rel=0.01)

    def test_cholesky_leading_term(self):
        n = 1000
        assert potrf_flops(n) == pytest.approx(n ** 3 / 3, rel=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gemm_flops(-1, 2, 3)
        with pytest.raises(ValueError):
            trsm_flops(2, -3)

    def test_getrf_symmetric_in_orientation(self):
        # LAPACK count depends only on {m, n} extents for m>=n vs n>=m.
        assert getrf_flops(10, 4) == getrf_flops(4, 10)

    FORMULAS = [(gemm_flops, 3), (trsm_flops, 2),
                (getrf_flops, 2), (potrf_flops, 1)]

    @pytest.mark.parametrize("formula,arity", FORMULAS)
    @pytest.mark.parametrize("scalar", [int, float, np.int64, np.float64])
    def test_negative_scalar_rejected_for_every_scalar_type(
            self, formula, arity, scalar):
        """The scalar fast path of the validation is still a check."""
        for bad in range(arity):
            args = [scalar(-2) if i == bad else scalar(4)
                    for i in range(arity)]
            with pytest.raises(ValueError, match="non-negative"):
                formula(*args)
        assert formula(*[scalar(4)] * arity) >= 0

    @pytest.mark.parametrize("formula,arity", FORMULAS)
    def test_array_with_one_negative_entry_rejected(self, formula, arity):
        good = np.arange(1.0, 9.0)
        bad = good.copy()
        bad[5] = -1.0
        for pos in range(arity):
            args = [bad if i == pos else good for i in range(arity)]
            with pytest.raises(ValueError, match="non-negative"):
                formula(*args)
        assert np.all(formula(*[good] * arity) >= 0)


class TestTileGemmOverhead:
    def test_validated_gemm_within_4x_of_raw_on_a_16x16_tile(self):
        """The kernel wrapper (shape checks + flop count) must stay a
        small multiple of the arithmetic it wraps on the tile size the
        executed schedules use (``kernels.gemm_tile_overhead_x`` in
        perf/, 11-12x before the scalar flop-count fast path)."""
        rng = np.random.default_rng(0)
        a, b, c = (rng.standard_normal((16, 16)) for _ in range(3))

        def best(fn):
            return min(timeit.repeat(fn, number=2000, repeat=7))

        for _ in range(3):           # ride out a noisy neighbour
            ratio = best(lambda: gemm(a, b, c)) / best(lambda: c + a @ b)
            if ratio < 4.0:
                break
        assert ratio < 4.0
