"""Unit tests for cDAGs and the cDAGs of the DAAP programs."""

import hashlib

import pytest

from repro.lowerbounds import (
    ArrayAccess,
    DAAPError,
    Program,
    Statement,
    cholesky_program,
    gemv_program,
    ldlt_program,
    lu_program,
    matmul_program,
    syrk_program,
    trsm_program,
)
from repro.pebbles import CDag, CDagError, program_cdag

from oracle import statement

PROGRAMS = [lu_program, cholesky_program, matmul_program, trsm_program,
            syrk_program, ldlt_program, gemv_program]

#: sha256 of the sorted vertex and edge lists for n = 2..8, recorded from
#: the hand-written LU, Cholesky and matmul builders ``program_cdag``
#: replaced.
FINGERPRINTS = [
    (lu_program,
     "a655e698a52e3e4d2d123d5d7e0d03d0b33da770c57e35788d4d8cd5c999ee61"),
    (cholesky_program,
     "1069b048b9b181d7e3c10e0e23127e67d223947d2661757db7b16391d5d937a8"),
    (matmul_program,
     "ec5393bef5d4bfe80a8b6ce640bcea43f704d83e7bba01b9c0550ef9c0070510"),
]


class TestCDag:
    def test_add_edge_creates_vertices(self):
        g = CDag()
        g.add_edge("a", "b")
        assert "a" in g and "b" in g
        assert g.preds("b") == {"a"} and len(g) == 2

    def test_self_loop_rejected(self):
        g = CDag()
        with pytest.raises(CDagError):
            g.add_edge("a", "a")

    def test_inputs_outputs(self):
        g = CDag()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.inputs() == {"a"}
        assert g.outputs() == {"c"}
        assert g.compute_vertices() == {"b", "c"}

    def test_marked_outputs(self):
        g = CDag()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.mark_output("b")
        assert g.outputs() == {"b", "c"}
        with pytest.raises(CDagError):
            g.mark_output("d")

    def test_duplicate_edge_idempotent(self):
        g = CDag()
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        assert g.preds("b") == {"a"} and len(g) == 2

    def test_topological_order(self):
        g = CDag()
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        g.add_edge("b", "d")
        g.add_edge("c", "d")
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert pos["a"] < pos["b"] < pos["d"]
        assert pos["a"] < pos["c"] < pos["d"]

    def test_cycle_detected(self):
        g = CDag()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        with pytest.raises(CDagError):
            g.topological_order()

    def test_unknown_vertex_queries(self):
        g = CDag()
        with pytest.raises(CDagError):
            g.preds("missing")


class TestLUCDag:
    def test_vertex_count(self):
        """|V| = N^2 inputs + |V_S1| + |V_S2| (exact Schur count)."""
        for n in (2, 3, 4, 6):
            g = program_cdag(lu_program(), n)
            s1 = n * (n - 1) // 2
            s2 = sum((n - k - 1) ** 2 for k in range(n))
            assert g.num_vertices == n * n + s1 + s2

    def test_inputs_are_version_zero(self):
        g = program_cdag(lu_program(), 4)
        assert g.inputs() == {("A", i, j, 0) for i in range(4)
                              for j in range(4)}

    def test_outputs_are_final_factors(self):
        g = program_cdag(lu_program(), 3)
        outs = g.outputs()
        # U diagonal corner A[2,2] final version (2 updates) is an output.
        assert ("A", 2, 2, 2) in outs

    def test_s2_vertex_dependencies(self):
        g = program_cdag(lu_program(), 4)
        # A[2,3] after step-0 update depends on A[2,3]v0, L A[2,0], U A[0,3].
        v = ("A", 2, 3, 1)
        assert g.preds(v) == {("A", 2, 3, 0), ("A", 2, 0, 1), ("A", 0, 3, 0)}

    def test_s1_vertex_dependencies(self):
        g = program_cdag(lu_program(), 4)
        # L entry A[3,1] (final at version 2): previous version + pivot.
        v = ("A", 3, 1, 2)
        assert g.preds(v) == {("A", 3, 1, 1), ("A", 1, 1, 1)}

    def test_acyclic(self):
        program_cdag(lu_program(), 5).topological_order()

    def test_n1_trivial(self):
        """At n = 1 no LU statement has an instance: no compute vertex."""
        g = program_cdag(lu_program(), 1)
        assert g.compute_vertices() == set()

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            program_cdag(lu_program(), 0)


class TestCholeskyCDag:
    def test_vertex_count(self):
        # Listing 1's S3 loop is "for j = k+1:i" (inclusive), so each
        # (k, i) pair contributes i - k update vertices.
        for n in (2, 3, 5):
            g = program_cdag(cholesky_program(), n)
            inputs = n * (n + 1) // 2
            s1 = n
            s2 = n * (n - 1) // 2
            s3 = sum(i - k for k in range(n) for i in range(k + 1, n))
            assert g.num_vertices == inputs + s1 + s2 + s3

    def test_only_lower_triangle(self):
        g = program_cdag(cholesky_program(), 4)
        for v in g.inputs() | g.compute_vertices():
            _, i, j, _ = v
            assert i >= j

    def test_diagonal_sqrt_chain(self):
        g = program_cdag(cholesky_program(), 3)
        # L[1,1]: one Schur update (k=0) then the sqrt -> version 2 final.
        assert ("L", 1, 1, 2) in g
        assert g.preds(("L", 1, 1, 2)) == {("L", 1, 1, 1)}

    def test_s2_depends_on_final_diagonal(self):
        g = program_cdag(cholesky_program(), 3)
        v = ("L", 2, 0, 1)  # L[2,0] final: divide by sqrt'd L[0,0]
        assert g.preds(v) == {("L", 2, 0, 0), ("L", 0, 0, 1)}

    def test_acyclic(self):
        program_cdag(cholesky_program(), 6).topological_order()


class TestMatmulCDag:
    def test_vertex_count_with_c_input(self):
        n = 3
        g = program_cdag(matmul_program(), n)
        # A, B inputs (2n^2) + C versions 0..n (n^2 * (n+1)).
        assert g.num_vertices == 2 * n * n + n * n * (n + 1)

    def test_accumulation_chain(self):
        g = program_cdag(matmul_program(), 2)
        v = ("C", 0, 1, 2)
        assert g.preds(v) == {("C", 0, 1, 1), ("A", 0, 1, 0), ("B", 1, 1, 0)}

    def test_outputs_are_final_c(self):
        n = 3
        g = program_cdag(matmul_program(), n)
        assert g.outputs() == {("C", i, j, n) for i in range(n)
                               for j in range(n)}


def fingerprint(program):
    digest = hashlib.sha256()
    for n in range(2, 9):
        g = program_cdag(program, n)
        vertices = sorted(g.inputs() | g.compute_vertices())
        edges = sorted((u, v) for v in vertices for u in g.preds(v))
        digest.update(repr((n, vertices, edges)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("make", PROGRAMS, ids=lambda f: f.__name__)
class TestProgramCDag:
    """One iteration domain per statement: its point count is ``|V_S|``
    and its points are the compute vertices of the program's cDAG."""

    def test_num_vertices_counts_the_domain(self, make):
        for stmt in make().statements:
            for n in range(1, 17):
                assert stmt.num_vertices(n) == sum(1 for _ in stmt.points(n))

    def test_compute_vertices_are_the_domain_points(self, make):
        program = make()
        for n in range(1, 13):
            g = program_cdag(program, n)
            g.topological_order()  # acyclic
            assert len(g.compute_vertices()) == sum(
                s.num_vertices(n) for s in program.statements)

    def test_outputs_are_the_final_versions(self, make):
        """Every element written ends as an output, read later or not."""
        for n in range(1, 7):
            g = program_cdag(make(), n)
            last = {}
            for v in g.compute_vertices():
                last[v[:-1]] = max(last.get(v[:-1], 0), v[-1])
            assert g.outputs() == {(*key, k) for key, k in last.items()}


@pytest.mark.parametrize("make, digest", FINGERPRINTS,
                         ids=["lu", "cholesky", "matmul"])
def test_paper_kernels_match_their_hand_built_cdags(make, digest):
    assert fingerprint(make()) == digest


def test_statements_must_share_the_outermost_loop():
    s1 = statement(lu_program(), "S1")
    other = Statement("T", ("i",), ArrayAccess("x", ("i",)),
                      (ArrayAccess("x", ("i",)),), (("0", "n"),))
    with pytest.raises(DAAPError):
        program_cdag(Program("mixed", (s1, other)), 3)
