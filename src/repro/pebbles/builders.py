"""The cDAG of a DAAP program (Figure 3 and Listing 1 of the paper).

Vertex naming: ``(array, *subscripts, version)`` where ``version`` counts
how many writes have been applied to the element.  Version 0 vertices are
the graph inputs (initial values), matching the paper's "multiple versions
(vertices) of element A[3,1]" illustration.  ``program_cdag(lu_program(),
n)`` is Figure 3's LU, ``cholesky_program()`` Listing 1's Cholesky and
``matmul_program()`` ``C += A @ B`` with full accumulation chains.
"""

from __future__ import annotations

from ..lowerbounds.daap import DAAPError, Program
from .cdag import CDag

__all__ = ["program_cdag"]


def program_cdag(program: Program, n: int) -> CDag:
    """The cDAG of ``program`` at problem size ``n``.

    The statements share their outermost loop variable; at each of its
    values they run in program order, each over its domain in loop order.
    Every statement instance is one compute vertex: a new version of the
    element it writes, whose predecessors are the current versions of the
    elements it reads.  The compute vertices are therefore exactly the
    domain points, ``sum(s.num_vertices(n) for s in
    program.statements)`` of them.  The final
    version of every element written is an output.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if len({s.loop_vars[0] for s in program.statements}) != 1:
        raise DAAPError(
            f"{program.name}: statements share no outermost loop variable")
    steps: dict[int, list] = {}
    for stmt in program.statements:
        for point in stmt.points(n):
            steps.setdefault(point[0], []).append((stmt, point))
    g = CDag()
    version: dict[tuple, int] = {}
    for outer in sorted(steps):
        for stmt, point in steps[outer]:
            env = dict(zip(stmt.loop_vars, point), n=n)
            reads = [(*key, version.get(key, 0)) for key in
                     (acc.element(env) for acc in stmt.inputs)]
            out = stmt.output.element(env)
            version[out] = version.get(out, 0) + 1
            v = (*out, version[out])
            g.add_vertex(v)
            for u in reads:
                g.add_edge(u, v)
    for key, last in version.items():
        g.mark_output((*key, last))
    return g
