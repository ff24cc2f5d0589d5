"""Unit tests for the DAAP program representation (Section 2.2)."""

import pytest

from repro.lowerbounds import (
    ArrayAccess,
    DAAPError,
    Program,
    Statement,
    cholesky_program,
    lu_program,
    matmul_program,
)

from oracle import statement


class TestArrayAccess:
    def test_access_dimension_distinct_vars(self):
        acc = ArrayAccess("A", ("i", "k"))
        assert len(acc.variables_in(("k", "i"))) == 2

    def test_access_dimension_repeated_var(self):
        # A[k, k] has dimension 1 (the paper's S1 example).
        acc = ArrayAccess("A", ("k", "k"))
        assert len(acc.variables_in(("k", "i"))) == 1

    def test_variables_in_loop_order(self):
        acc = ArrayAccess("A", ("j", "i"))
        assert acc.variables_in(("i", "j", "k")) == ("i", "j")

    def test_affine_expressions(self):
        # Non-trivial subscripts still resolve their variables.
        acc = ArrayAccess("A", ("i+1", "2*k"))
        assert acc.variables_in(("k", "i")) == ("k", "i")

    def test_unknown_vars_ignored(self):
        acc = ArrayAccess("A", ("q",))
        assert acc.variables_in(("i", "j")) == ()


class TestStatement:
    def make(self, **kw):
        defaults = dict(
            name="S",
            loop_vars=("i", "j"),
            output=ArrayAccess("C", ("i", "j")),
            inputs=(ArrayAccess("A", ("i",)), ArrayAccess("B", ("j",))),
            domain=(("0", "n"), ("0", "n")),
        )
        defaults.update(kw)
        return Statement(**defaults)

    def test_depth(self):
        assert self.make().depth == 2

    def test_input_variable_groups(self):
        s = self.make()
        assert s.input_variable_groups() == (("i",), ("j",))

    def test_duplicate_loop_vars_rejected(self):
        with pytest.raises(DAAPError):
            self.make(loop_vars=("i", "i"))

    def test_disjoint_access_violation(self):
        with pytest.raises(DAAPError):
            self.make(inputs=(ArrayAccess("A", ("i",)),
                              ArrayAccess("A", ("i",))))

    def test_output_pattern_as_input_allowed(self):
        # Reading the previous version of the output element is legal.
        s = self.make(inputs=(ArrayAccess("C", ("i", "j")),
                              ArrayAccess("A", ("i",))))
        assert s.depth == 2

    def test_access_without_variables_rejected(self):
        with pytest.raises(DAAPError):
            self.make(inputs=(ArrayAccess("A", ("0",)),))

    def test_domain_counts_its_points(self):
        s = self.make(domain=(("1", "n"), ("i", "n+2")))
        assert list(s.points(2)) == [(1, 1), (1, 2), (1, 3)]
        assert s.num_vertices(2) == 3
        assert s.num_vertices(40) == sum(42 - i for i in range(1, 40))

    @pytest.mark.parametrize("domain", [
        (("0", "n"),),                      # one range for two loops
        (("0", "j"), ("0", "n")),           # bound names an inner variable
        (("0", "n"), ("0", "m")),           # bound names an unknown size
        (("0", "n"), ("0", "2*i")),         # not name +- integer
    ])
    def test_malformed_domain_rejected(self, domain):
        with pytest.raises(DAAPError):
            self.make(domain=domain)

    def test_non_polynomial_count_rejected(self):
        """``0 <= j < i - 2`` counts max(0, i - 2) points per i: not a
        polynomial in n from n = 1."""
        s = self.make(domain=(("0", "n"), ("0", "i-2")))
        with pytest.raises(DAAPError):
            s.num_vertices(10)

    def test_trivially_no_reuse(self):
        s = self.make(inputs=(ArrayAccess("A", ("i", "j")),
                              ArrayAccess("B", ("j", "i"))))
        assert s.trivially_no_reuse()
        assert not self.make().trivially_no_reuse()


class TestPrograms:
    def test_lu_statement_structure(self):
        prog = lu_program()
        s1, s2 = prog.statements
        assert s1.depth == 2 and s2.depth == 3
        # S1's pivot access A[k,k] has access dimension 1.
        assert len(s1.inputs[1].variables_in(s1.loop_vars)) == 1
        assert s1.min_unique_inputs == 1

    def test_lu_vertex_counts(self):
        prog = lu_program()
        n = 10
        assert statement(prog, "S1").num_vertices(n) == 45   # n(n-1)/2
        assert statement(prog, "S2").num_vertices(n) == 285  # (n-1)n(2n-1)/6
        # Cross-check against the explicit sums over k < i, j < N.
        s1_sum = sum(n - k - 1 for k in range(n))
        s2_sum = sum((n - k - 1) ** 2 for k in range(n))
        assert statement(prog, "S1").num_vertices(n) == s1_sum
        assert statement(prog, "S2").num_vertices(n) == s2_sum

    def test_cholesky_vertex_counts(self):
        prog = cholesky_program()
        n = 10
        assert statement(prog, "S1").num_vertices(n) == n
        assert statement(prog, "S2").num_vertices(n) == n * (n - 1) / 2
        # k < j <= i < N: Listing 1's "for j = k+1:i" is inclusive.
        s3_sum = sum(i - k for k in range(n) for i in range(k + 1, n))
        assert statement(prog, "S3").num_vertices(n) == s3_sum == 165

    def test_matmul_includes_accumulator(self):
        prog = matmul_program()
        arrays = [a.array for a in prog.statements[0].inputs]
        assert "C" in arrays

    def test_duplicate_statement_names_rejected(self):
        s = statement(lu_program(), "S1")
        with pytest.raises(DAAPError):
            Program("bad", (s, s))

    def test_unknown_statement(self):
        with pytest.raises(KeyError):
            statement(lu_program(), "S9")
