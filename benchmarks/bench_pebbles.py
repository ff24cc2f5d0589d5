"""The two pebble-game benches (~22 s; `make bench-paper` runs them, tier-1
does not collect ``bench_*.py``).  ``repro.pebbles`` is imported by
nothing under ``src/repro``, so these are not rows of
``repro.analysis.reporting.FIGURES``; run with ``-s`` to see the tables.
"""

from repro.analysis import format_table
from repro.lowerbounds import (
    derive_cholesky_bound,
    derive_lu_bound,
    derive_matmul_bound,
)
from repro.pebbles import (
    cholesky_cdag,
    lu_cdag,
    matmul_cdag,
    run_blocked_matmul,
    run_greedy,
)


def test_pebbling_respects_bounds():
    """Section 6: greedy red-blue pebblings of toy cDAGs never beat the
    derived sequential bounds."""
    costs = {
        "lu": run_greedy(lu_cdag(8), 16).io_cost,
        "cholesky": run_greedy(cholesky_cdag(8), 16).io_cost,
        "matmul": run_greedy(matmul_cdag(6), 16).io_cost,
    }
    bounds = {
        "lu": derive_lu_bound(8, 16).sequential_bound,
        "cholesky": derive_cholesky_bound(
            8, 16).per_statement["S3"].io_lower_bound,
        "matmul": derive_matmul_bound(6, 16).sequential_bound,
    }
    print("\n" + format_table(
        ["kernel", "greedy Q", "lower bound", "ratio"],
        [[k, costs[k], bounds[k], costs[k] / bounds[k]] for k in costs],
        title="Red-blue pebbling (toy cDAGs) vs sequential bounds"))
    for k in costs:
        assert costs[k] >= bounds[k]


def test_schedule_quality():
    """Section 12: X-partitioning "provides powerful hints for obtaining
    parallel schedules" — the X-partition-guided blocked matmul schedule
    vs a Belady-greedy baseline vs the derived lower bound."""
    rows = []
    for n, m in [(8, 27), (12, 48), (16, 80), (20, 121)]:
        blocked = run_blocked_matmul(n, m).io_cost
        greedy = run_greedy(matmul_cdag(n), m).io_cost
        bound = derive_matmul_bound(n, m).sequential_bound
        rows.append([n, m, bound, blocked, greedy,
                     blocked / bound, greedy / bound])
    print("\n" + format_table(
        ["n", "M", "lower bound", "blocked Q", "greedy Q",
         "blocked/bound", "greedy/bound"],
        rows, title="Sequential matmul pebbling: X-partition-guided "
                    "blocking vs Belady greedy"))
    for n, m, bound, blocked, greedy, rb, rg in rows:
        assert blocked >= bound          # validity
        assert blocked < greedy          # the hint helps
        assert rb < 2.5                  # near the bound's constant
    # The greedy gap widens with scale; blocking stays tight.
    assert rows[-1][6] > rows[0][6]
