"""Tests for the X-partition intensity optimization (Section 3).

These verify the paper's closed forms: the Schur statements of LU and
Cholesky have chi(X) = (X/3)^{3/2}, X_0 = 3M and rho = sqrt(M)/2; the
panel statements have rho = 1 (out-degree-one cap, Lemma 6).
"""

import math
import warnings

import numpy as np
import pytest

from repro.lowerbounds import (
    cholesky_program,
    derive_cholesky_bound,
    derive_lu_bound,
    derive_matmul_bound,
    intensity,
    lemma6_intensity_cap,
    lu_program,
    matmul_program,
    max_subcomputation,
    minimize_rho,
    statement_intensity,
)

from oracle import statement

MATMUL = [("i", "j"), ("i", "k"), ("k", "j")]
PANEL = [("k", "i"), ("k",)]
GEMV = [("i",), ("i", "j"), ("j",)]


class TestMaxSubcomputation:
    def test_matmul_closed_form(self):
        """max IJK s.t. IJ + IK + KJ <= X  ->  chi = (X/3)^{3/2}."""
        for x in (300.0, 3000.0, 30000.0):
            sol = max_subcomputation(
                ("i", "j", "k"),
                [("i", "j"), ("i", "k"), ("k", "j")], x)
            assert sol.chi == pytest.approx((x / 3) ** 1.5, rel=1e-6)
            # Balanced optimum: all domains equal sqrt(X/3).
            for d in sol.domain_sizes.values():
                assert d == pytest.approx(math.sqrt(x / 3), rel=1e-5)

    def test_boundary_optimum_lu_s1(self):
        """max IK s.t. IK + K <= X has its optimum on the K=1 face."""
        x = 1000.0
        sol = max_subcomputation(("k", "i"), [("k", "i"), ("k",)], x)
        assert sol.chi == pytest.approx(x - 1, rel=1e-9)
        assert sol.domain_sizes["k"] == pytest.approx(1.0, abs=1e-9)

    def test_single_variable(self):
        sol = max_subcomputation(("k",), [("k",)], 50.0)
        assert sol.chi == pytest.approx(50.0, rel=1e-9)

    def test_dominator_never_exceeds_x(self):
        for x in (10.0, 100.0, 5000.0):
            sol = max_subcomputation(
                ("i", "j", "k"),
                [("i", "j"), ("i", "k"), ("k", "j")], x)
            assert sum(sol.access_sizes) <= x * (1 + 1e-9)

    def test_weights_shrink_chi(self):
        x = 3000.0
        groups = [("i", "j"), ("i", "k"), ("k", "j")]
        plain = max_subcomputation(("i", "j", "k"), groups, x).chi
        weighted = max_subcomputation(("i", "j", "k"), groups, x,
                                      weights=[2.0, 2.0, 2.0]).chi
        assert weighted < plain
        # Doubling all weights is like halving X: chi scales by 2^{-3/2}.
        assert weighted == pytest.approx(plain / 2 ** 1.5, rel=1e-5)

    def test_rejects_uncovered_variable(self):
        with pytest.raises(ValueError):
            max_subcomputation(("i", "j"), [("i",)], 100.0)

    def test_rejects_tiny_x(self):
        with pytest.raises(ValueError):
            max_subcomputation(("i",), [("i",)], 0.5)

    def test_rejects_empty_groups(self):
        with pytest.raises(ValueError):
            max_subcomputation(("i",), [], 10.0)
        with pytest.raises(ValueError):
            max_subcomputation(("i",), [()], 10.0)

    @pytest.mark.parametrize("x, weights", [
        (math.nan, None), (math.inf, None), (100.0, [math.nan]),
        (100.0, [math.inf])])
    def test_rejects_non_finite(self, x, weights):
        with pytest.raises(ValueError):
            max_subcomputation(("i",), [("i",)], x, weights)

    def test_domains_at_least_one(self):
        sol = max_subcomputation(("i", "j", "k"),
                                 [("i", "j"), ("i", "k"), ("k", "j")], 12.0)
        for d in sol.domain_sizes.values():
            assert d >= 1.0 - 1e-9


class TestMinimizeRho:
    """X_0 is the root of phi = 1/s - X/(X - M), s the certified marginal."""

    def test_schur_statement_x0_is_3m(self):
        """d/dX [(X/3)^{3/2}/(X-M)] = 0  ->  X_0 = 3M, rho = sqrt(M)/2."""
        m = 256.0
        rho, x0, solution = minimize_rho(("i", "j", "k"), MATMUL, m)
        assert x0 == pytest.approx(3 * m, rel=1e-12)
        assert rho == pytest.approx(math.sqrt(m) / 2, rel=1e-12)
        assert solution.chi == pytest.approx(m ** 1.5, rel=1e-12)

    def test_asymptotic_statement_detected(self):
        """chi(X) = X - 1 gives rho -> 1 as X -> inf (no interior min)."""
        rho, x0, _ = minimize_rho(("k", "i"), PANEL, 64.0)
        assert math.isinf(x0)
        assert rho == 1.0

    @pytest.mark.parametrize("mem", [0.0, math.nan, math.inf])
    def test_invalid_memory(self, mem):
        with pytest.raises(ValueError):
            minimize_rho(("i",), [("i",)], mem)

    @pytest.mark.parametrize("m", [16.0, 256.0, 4096.0, 65536.0])
    def test_gemv_closed_form(self, m):
        """chi = (sqrt(X + 1) - 1)^2, so X_0 = M^2 + 2M, rho = M/(M + 1):
        s varies with X, so the root comes from the bracketed search."""
        rho, x0, _ = minimize_rho(("i", "j"), GEMV, m)
        assert x0 == pytest.approx(m * m + 2 * m, rel=1e-9)
        assert rho == pytest.approx(m / (m + 1), rel=1e-9)

    def test_panel_limit_is_exact(self):
        """On groups (k,i),(k) the face k = 1 gives chi = (X - w_2)/w_1
        past the ceiling, so rho's limit is 1/w_1, exactly."""
        rng = np.random.default_rng(36)
        for _ in range(20):
            w = rng.uniform(0.5, 4.0, 2)
            m = 2.0 ** rng.uniform(4, 24)
            rho, x0, _ = minimize_rho(("k", "i"), PANEL, m, w)
            assert math.isinf(x0)
            assert rho == 1.0 / w[0], (w, m)

    def test_gemv_past_the_ceiling_stays_conservative(self):
        """X_0 = M^2 + 2M lies past the ceiling M(1 + 1e6): the value at
        the ceiling is kept, never a limit below the true minimum."""
        m = 2.0 ** 20
        rho, x0, _ = minimize_rho(("i", "j"), GEMV, m)
        assert math.isinf(x0)
        assert rho >= m / (m + 1)

    def test_ridge_at_the_ceiling_stays_conservative(self):
        """The flat ridge of test_flat_ridge_optimum at the ceiling: the
        solve pins k (its accesses contain i's), so the face rule gives
        the limit 1/w_1 exactly."""
        rho, x0, _ = minimize_rho(("k", "i"), PANEL, 1.55e6, [3.3, 0.78])
        assert math.isinf(x0)
        assert rho == 1.0 / 3.3

    @pytest.mark.parametrize("derive, solves", [
        (derive_lu_bound, 3), (derive_cholesky_bound, 3),
        (derive_matmul_bound, 2)])
    def test_certified_solve_count(self, monkeypatch, derive, solves):
        """A ceiling solve per statement and one fixed-point step per
        Schur statement (Brent's walk to the ceiling took 57, 57, 15)."""
        calls = []
        solve = intensity._solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(intensity, "_solve", counted)
        derive(4096, 2.0 ** 16)
        assert len(calls) <= solves


def _random_programs(seed: int, count: int, nvars: int = 3,
                     decades: float = 12):
    """Seeded X-partition programs: 1-``nvars`` variables, 1-4 accesses
    over random non-empty groups (duplicate groups and identical columns
    included), random weights, and X from the trivial size to
    ``10**decades`` times it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        loop_vars = ("a", "b", "c", "d", "e")[:int(rng.integers(1, nvars + 1))]
        full = 2 ** len(loop_vars) - 1
        bits = rng.integers(1, full + 1, size=int(rng.integers(1, 5)))
        bits[0] |= full & ~int(np.bitwise_or.reduce(bits))
        groups = [tuple(v for t, v in enumerate(loop_vars) if b >> t & 1)
                  for b in bits]
        weights = rng.uniform(0.5, 4.0, len(groups))
        yield loop_vars, groups, weights, weights.sum() * 10 ** rng.uniform(0, decades)


def _grid_best(loop_vars, groups, weights, x, points=200):
    """Largest ``sum(log d)`` over a dense grid of all but the last
    log-domain in ``[0, log X]``; the last one is as large as the budget
    allows, in closed form (the access terms are linear in it)."""
    masks = np.array([[v in g for v in loop_vars] for g in groups], float)
    free = len(loop_vars) - 1
    axis = np.linspace(0.0, math.log(x), points)
    y = np.array(np.meshgrid(*[axis] * free, indexing="ij")).reshape(
        free, points ** free).T
    terms = weights * np.exp(y @ masks[:, :-1].T)
    last = masks[:, -1] > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        y_last = np.log((x - terms[:, ~last].sum(axis=1))
                        / terms[:, last].sum(axis=1))
    feasible = y_last >= 0.0
    return float(np.max(y.sum(axis=1)[feasible] + y_last[feasible]))


class TestCertifiedSolve:
    """One exact solve per X (column dominance, then Newton with an
    active set), returned only with its KKT certificate: the program is
    convex, so that point is the optimum."""

    @staticmethod
    def _stub_steps(monkeypatch, step):
        """Replace the Newton step: ``step(jac, rhs)`` gives the step in
        the free variables and the level's log."""
        monkeypatch.setattr(np.linalg, "lstsq", lambda jac, rhs, *args: (
            step(jac, rhs), None, len(rhs), np.ones(len(rhs))))

    def test_unspent_budget_raises(self, monkeypatch):
        """With no step taken, the balanced start (i = j = sqrt(X/3) on
        the GEMV groups) never spends the budget."""
        self._stub_steps(monkeypatch, lambda jac, rhs: np.zeros_like(rhs))
        with pytest.raises(ArithmeticError, match="not certified"):
            max_subcomputation(("i", "j"), GEMV, 1e9)

    def test_unequal_free_marginals_raise(self, monkeypatch):
        """Steps that only rescale the free variables spend the budget
        but keep the start's proportions, where the weights 1, 1, 4 give
        k a larger marginal than i."""
        def rescale(jac, rhs):
            spend = rhs[-1] / np.sum(jac[-1, :-1])
            return np.append(np.full(len(rhs) - 1, spend), 0.0)

        self._stub_steps(monkeypatch, rescale)
        with pytest.raises(ArithmeticError, match="not certified"):
            max_subcomputation(("i", "j", "k"), MATMUL, 3000.0, [1.0, 1.0, 4.0])

    def test_random_programs_certified_and_optimal(self):
        """No program ends more than 1e-9 nats short of the grid's best
        (seeds 0-4, 5 000 programs: the worst is 1.1e-14)."""
        for loop_vars, groups, weights, x in _random_programs(2024, 150):
            sol = max_subcomputation(loop_vars, groups, x, weights)
            assert sum(sol.access_sizes) <= x * (1 + 1e-12)
            assert _grid_best(loop_vars, groups, weights, x) \
                <= math.log(sol.chi) + 1e-9, (loop_vars, groups, weights, x)

    @staticmethod
    def _assert_kkt(loop_vars, groups, weights, x):
        """The KKT conditions, recomputed from the returned domain sizes:
        the budget is spent, the free variables (d > 1) share the
        returned marginal and no pinned one (d = 1) has a smaller one."""
        sol = max_subcomputation(loop_vars, groups, x, weights)
        d = np.array([sol.domain_sizes[v] for v in loop_vars])
        masks = np.array([[v in g for v in loop_vars] for g in groups])
        terms = weights * np.prod(np.where(masks, d, 1.0), axis=1) / x
        s = masks.T @ terms / np.sum(terms)
        case = (loop_vars, groups, weights, x)
        assert np.all(d >= 1.0), case
        assert abs(np.sum(terms) - 1.0) <= 1e-12, case
        assert np.all(abs(s[d > 1.0] - sol.marginal)
                      <= 1e-12 * sol.marginal), case
        assert np.all(s >= sol.marginal * (1 - 1e-12)), case

    def test_random_programs_meet_kkt(self):
        """2 000 programs of 1-4 variables meet the KKT conditions."""
        for case in _random_programs(40, 2000, 4):
            self._assert_kkt(*case)

    #: Programs whose Newton systems go singular on the way: terms the
    #: optimum needs start below eps of the budget at these X.
    TINY_TERMS = [
        ([("c", "e"), ("b", "d"), ("d", "e"), ("a", "b", "c", "d"),
          ("b", "d", "e"), ("a", "e")],
         [0.0235715, 51.9199, 7.65314, 0.869055, 0.243123, 2.00134],
         5.67184e40),
        ([("b", "d", "e"), ("a", "b", "e"), ("a", "b", "c", "e"), ("c", "d"),
          ("a", "b", "d")],
         [47.4521, 48.5156, 19.8808, 0.659647, 0.239564], 5.50417e73),
        ([("b", "c", "e"), ("a", "d", "e"), ("a", "b", "e"), ("b", "c", "e"),
          ("b", "c", "d"), ("a", "c", "e")],
         [6.63057, 4.94961, 0.486788, 0.0662806, 10.7352, 25.2627],
         3.89495e99),
    ]

    def test_any_scale_meets_kkt(self):
        """Five variables, X up to 1e150 times the trivial size: the three
        programs above and 1 000 seeded ones are all certified, meet the
        KKT conditions, and overflow nothing (chi past the float range
        is inf)."""
        cases = [(("a", "b", "c", "d", "e"), groups, np.array(w), x)
                 for groups, w, x in self.TINY_TERMS]
        cases += _random_programs(150, 1000, 5, decades=150)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for case in cases:
                self._assert_kkt(*case)

    #: One-group programs an absolute 2^-44 certificate refused: from
    #: log X ~ 256 on it is one ulp of log X.  Program 861 of
    #: ``_random_programs(150, 2000, 5, decades=300)`` and 7984 of
    #: ``_random_programs(150, 8000, 5, decades=150)``.
    ONE_GROUP = [
        (("a", "b", "c"), [("a", "b", "c")], 1.6501143121914617e+134,
         [3.5998994053320903]),
        (("a", "b"), [("a", "b")], 1.557993076291668e+115,
         [3.184849345224689]),
    ]

    @pytest.mark.parametrize("loop_vars, groups, x, weights", ONE_GROUP)
    def test_one_group_optimum_at_any_scale(self, loop_vars, groups, x,
                                            weights):
        """With one access the optimum is any point spending the
        budget: chi = X / w."""
        sol = max_subcomputation(loop_vars, groups, x, weights)
        assert sol.chi == pytest.approx(x / weights[0], rel=1e-12)

    def test_no_refusal_up_to_1e300(self):
        """2 000 seeded five-variable programs up to 1e300 times the
        trivial size are all certified (seed 0 lost one to a certificate
        not scaled by |log X|)."""
        for loop_vars, groups, weights, x in _random_programs(0, 2000, 5,
                                                              decades=300):
            max_subcomputation(loop_vars, groups, x, weights)

    def test_duplicate_groups_regression(self):
        """A log-sum-exp form of the constraint returned chi 7.4x too low
        on these groups.  The optimum pins a = 1, so b = (X - 1)/2 and
        c = (X - 1)/4."""
        x = 1.69e12
        sol = max_subcomputation(("a", "b", "c"),
                                 [("a", "c"), ("a", "c"), ("a",), ("b",)], x)
        assert sol.chi == pytest.approx((x - 1) ** 2 / 8, rel=1e-9)
        assert sol.domain_sizes["a"] == pytest.approx(1.0, abs=1e-9)

    def test_flat_ridge_optimum(self):
        """The optimum pins b = 1, chi = (X - 0.78)/3.3: b's accesses
        contain a's.  A 1e-6 marginal tolerance once certified a stop
        at a ~ b ~ 6.85e5, 3.45e-7 nats short."""
        x = 1.55e12
        sol = max_subcomputation(("a", "b"), [("a", "b"), ("b",)], x,
                                 [3.3, 0.78])
        assert math.log(sol.chi) >= math.log((x - 0.78) / 3.3) - 1e-9

    def test_zero_start_regression(self):
        """A zero start once made the solve return y = 0: LU S1 rho
        3.9e-9 and a bound of 5.1e11 here."""
        bound = derive_lu_bound(64, 256.0)
        assert bound.intensity("S1").rho == 1.0
        assert bound.parallel_bound == pytest.approx(12684.0, rel=1e-9)


class TestLemma6:
    def test_cap_values(self):
        assert lemma6_intensity_cap(0) == math.inf
        assert lemma6_intensity_cap(1) == 1.0
        assert lemma6_intensity_cap(2) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lemma6_intensity_cap(-1)


class TestStatementIntensity:
    @pytest.mark.parametrize("m", [64.0, 1024.0, 2.0 ** 16])
    def test_lu_s2_intensity(self, m):
        res = statement_intensity(statement(lu_program(), "S2"), m)
        assert res.rho == pytest.approx(math.sqrt(m) / 2, rel=1e-9)
        assert res.x0 == pytest.approx(3 * m, rel=1e-9)
        assert res.limited_by == "x-partition"

    def test_lu_s1_intensity_capped_at_one(self):
        res = statement_intensity(statement(lu_program(), "S1"), 1024.0)
        assert res.rho == 1.0
        assert res.limited_by == "out-degree-one"

    def test_cholesky_statements(self):
        m = 1024.0
        prog = cholesky_program()
        assert statement_intensity(statement(prog, "S1"), m).rho == 1.0
        assert statement_intensity(statement(prog, "S2"), m).rho == 1.0
        s3 = statement_intensity(statement(prog, "S3"), m)
        assert s3.rho == pytest.approx(math.sqrt(m) / 2, rel=1e-9)

    def test_matmul_intensity(self):
        m = 4096.0
        res = statement_intensity(statement(matmul_program(), "S1"), m)
        assert res.rho == pytest.approx(math.sqrt(m) / 2, rel=1e-9)

    def test_solution_attached_for_interior_optimum(self):
        res = statement_intensity(statement(lu_program(), "S2"), 256.0)
        assert res.solution is not None
        # At X_0 = 3M the three access sets are each of size M.
        for size in res.solution.access_sizes:
            assert size == pytest.approx(256.0, rel=1e-9)

    def test_intensity_grows_with_memory(self):
        s2 = statement(lu_program(), "S2")
        rhos = [statement_intensity(s2, m).rho for m in (64, 256, 1024)]
        assert rhos[0] < rhos[1] < rhos[2]
