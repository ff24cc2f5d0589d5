"""Machine-speed probe for the end-to-end timings.

This sandbox is a 2-vCPU VM whose host slows every CPU-bound process by
1.3–1.6x for seconds to minutes at a time (perf/README.md, "Noise").
Raw walls therefore move by more than any bound the benchmark could
fix, between two runs of the same code.  The same remedy as
``scripts/bench_smoke.py``'s ``calibrate()``: a fixed workload that
touches none of the program's code is timed next to every operation,
and the operation's wall is divided by how much slower than the
reference that probe ran.  Reported seconds are thus seconds *at
reference speed*; the raw walls and the speed factor are printed beside
them.
"""

from __future__ import annotations

import time

import numpy as np

#: Median wall of :func:`calibrate` between operations on the quiet
#: reference sandbox (the machine perf/README.md's numbers come from).
REFERENCE_S = 0.0185

_A = np.random.default_rng(0).standard_normal((64, 64))
_BIG = np.zeros(1 << 19)                # 4 MiB


def calibrate() -> float:
    """Wall of ~20 ms of work shaped like the program's: an interpreter
    loop, small matmuls with temporaries, and large-array copies."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120000):
        acc += i * i
    for _ in range(500):
        (_A @ _A + _A).sum()
    for _ in range(20):
        _BIG.copy()
    return time.perf_counter() - t0


def slowdown() -> float:
    """How many times slower than the reference the machine runs right
    now (1.0 = reference speed)."""
    return calibrate() / REFERENCE_S
