"""repro — reproduction of "On the Parallel I/O Optimality of Linear
Algebra Kernels: Near-Optimal Matrix Factorizations" (SC 2021).

Public surface, by paper section:

* :mod:`repro.lowerbounds` — DAAP programs, X-partition intensity
  optimization, inter-statement reuse, and the LU/Cholesky/matmul I/O
  lower bounds (Sections 2-6).
* :mod:`repro.pebbles` — cDAGs, the sequential red-blue pebble game and
  the X-partition-guided blocked matmul schedule (Sections 2.3, 12).
* :mod:`repro.factorizations` — COnfLUX and COnfCHOX (Section 7) plus
  the evaluation's baselines (MKL/ScaLAPACK 2D, SLATE, CANDMC, CAPITAL).
* :mod:`repro.machine` — the counting distributed-machine substrate and
  the alpha-beta-gamma performance model (substitutes the Piz Daint
  testbed; see ARCHITECTURE.md, "Substitutions").
* :mod:`repro.layouts` — block-cyclic layouts, ScaLAPACK descriptors,
  COSTA-style redistribution (Section 8).
* :mod:`repro.kernels` — node-local BLAS/LAPACK with flop accounting.
* :mod:`repro.models` — the analytic cost models of Table 2.
* :mod:`repro.planner` — auto-tuned schedule selection under a memory
  budget (``pdgetrf(..., impl="auto")`` routes through it).
* :mod:`repro.runtime` — parallel sweep executors and the
  content-addressed result cache.
* :mod:`repro.analysis` — the experiment harness regenerating every
  figure and table of Sections 9-10, and ``reporting.FIGURES``: every
  claim of the paper with its generator (``python -m repro figures``).

Quick start::

    import numpy as np
    import repro

    # Factorize on 8 simulated ranks with replication depth 2.
    a = np.random.default_rng(0).standard_normal((256, 256))
    result = repro.conflux_lu(256, nranks=8, v=16, c=2, a=a)
    product = result.lower @ result.upper  # == a[result.perm]

    # The LU lower bound derived from its DAAP program (Sections 3-6).
    q = repro.derive_lu_bound(16384, mem_words=2**21, p=1024).parallel_bound
"""

from .api import pdgetrf, pdgetrs, pdpotrf, pdpotrs
from .factorizations import confchox_cholesky, conflux_lu
from .lowerbounds import (
    derive_cholesky_bound,
    derive_lu_bound,
    derive_matmul_bound,
)
from .machine import PIZ_DAINT_XC40, Machine, MachineParams, PerfModel
from .planner import Plan, PlanRequest, plan_request

__version__ = "1.0.0"

__all__ = [
    "conflux_lu", "confchox_cholesky",
    "pdgetrf", "pdpotrf", "pdgetrs", "pdpotrs",
    "derive_lu_bound", "derive_cholesky_bound", "derive_matmul_bound",
    "Machine", "MachineParams", "PerfModel", "PIZ_DAINT_XC40",
    "Plan", "PlanRequest", "plan_request",
    "__version__",
]
