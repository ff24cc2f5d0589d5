"""Import discipline: SciPy loads with the first numeric kernel call.

A sweep worker (pool child or ``python -m repro.runtime.fabric``), the
planner and the plan service only evaluate closed forms; SciPy's load
time was most of their cold start.  ARCHITECTURE.md, "Import
discipline", states the rule these tests hold the tree to.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stages = {}
import repro
stages["import repro"] = scipy_loaded()
import repro.runtime.fabric
stages["import repro.runtime.fabric"] = scipy_loaded()
import repro.analysis.harness
stages["import repro.analysis.harness"] = scipy_loaded()
from repro.runtime.executor import SweepTask, run_task
results = run_task(SweepTask("case", "all", 2048, 64))
stages["run_task(case)"] = scipy_loaded()
import numpy as np
from repro.kernels import blas
blas.trsm(np.eye(2), np.ones((2, 2)))
stages["blas.trsm"] = scipy_loaded()
print(json.dumps({"stages": stages, "traced": len(results)}))
"""


def test_scipy_absent_until_first_numeric_kernel():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    report = json.loads(out.stdout.splitlines()[-1])
    stages = report["stages"]
    assert report["traced"] > 0
    for stage in ("import repro", "import repro.runtime.fabric",
                  "import repro.analysis.harness", "run_task(case)"):
        assert stages[stage] == [], f"{stage} loaded {stages[stage][:5]}"
    # The probe can see SciPy: the first solve loads it.
    assert "scipy.linalg" in stages["blas.trsm"]
