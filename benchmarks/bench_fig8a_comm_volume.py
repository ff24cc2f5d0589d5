"""Figure 8a: communication volume per node for varying P, N = 16384.

Regenerates the measured series (traced volumes) and the model lines for
every LU implementation.  Expected shape (paper): COnfLUX lowest from
P = 64 up, by a factor that grows with P; MKL and SLATE nearly equal
(slight SLATE advantage); CANDMC highest at these scales despite being
asymptotically optimal.

Below P = 64 the trace puts COnfLUX *above* the 2D codes: its panels
travel twice (the 1D scatter of the reduced panel, then the fan-out to
the trailing matrix), and at replication depth ``c <= 2`` those
``O(N^2/P)`` terms lead the ``N^3/(P sqrt(M))`` one.  At P = 4 the sweep
policy gives ``c = 2`` on a 1 x 2 layer grid: 3.76 GB/node against
SLATE's 2.16 (1.74x); at P = 16, ``c = 2`` on 2 x 4: 1.345 against
1.218 (1.10x).  ``SMALL_P_RATIO`` asserts exactly that.
"""

import pytest

from repro.analysis import fig8a_comm_volume, format_table

P_SWEEP = (4, 16, 64, 256, 1024)
N = 16384
#: P -> ceiling on COnfLUX / best other implementation where the trace
#: has COnfLUX behind (measured 1.74 and 1.10, see the module docstring).
SMALL_P_RATIO = {4: 1.8, 16: 1.15}


@pytest.mark.benchmark(group="fig8")
def test_fig8a_comm_volume(benchmark, save_result):
    series = benchmark.pedantic(
        fig8a_comm_volume, kwargs=dict(n=N, p_sweep=P_SWEEP),
        iterations=1, rounds=1)
    rows = []
    for name, pts in series.items():
        for pt in pts:
            rows.append([name, pt.nranks,
                         pt.measured_bytes_per_node / 1e9,
                         pt.model_bytes_per_node / 1e9])
    table = format_table(
        ["implementation", "ranks", "measured GB/node", "model GB/node"],
        rows, title=f"Figure 8a: LU communication volume per node, N={N}")
    save_result("fig8a_comm_volume", table)

    # Shape assertions (the paper's qualitative claims): from P = 64 up
    # COnfLUX is strictly lowest and the gap widens with P; below, it
    # trails the 2D codes by the traced factors of SMALL_P_RATIO.
    by_name = {name: [pt.measured_words for pt in pts]
               for name, pts in series.items()}
    for i, p in enumerate(P_SWEEP):
        best_other = min(v[i] for k, v in by_name.items() if k != "conflux")
        if p >= 64:
            assert by_name["conflux"][i] < best_other
        else:
            assert best_other < by_name["conflux"][i] \
                < SMALL_P_RATIO[p] * best_other
        assert by_name["slate"][i] <= by_name["mkl"][i]
    # The reduction grows with P.
    last = len(P_SWEEP) - 1
    assert by_name["mkl"][last] / by_name["conflux"][last] > \
        by_name["mkl"][2] / by_name["conflux"][2] * 0.99
