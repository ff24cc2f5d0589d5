"""Smoke tests: every example script must run cleanly end to end."""

import os
import pathlib
import re
import runpy
import subprocess
import sys
import textwrap

import numpy as np

import repro

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_readme_python_runs_as_written(tmp_path):
    """README's ```python blocks, joined in order into one script (the
    later blocks use the first block's names), run in a scratch
    directory, so what they write (``.atlas-smoke``, cache dirs) lands
    there."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    script = tmp_path / "readme.py"
    script.write_text("\n".join(blocks))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


def test_package_quick_start_runs_as_written():
    """The ``Quick start::`` block of the ``repro`` docstring runs, and
    its factors multiply back to the pivoted input."""
    block = repro.__doc__.split("Quick start::\n", 1)[1]
    names: dict = {}
    exec(textwrap.dedent(block), names)
    assert np.allclose(names["product"], names["a"][names["result"].perm])
    assert names["q"] > 0


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "COnfLUX" in out and "residual" in out
        # Residuals printed in scientific notation near machine eps.
        assert "e-1" in out

    def test_lower_bound_pipeline(self, capsys):
        out = run_example("lower_bound_pipeline.py", capsys)
        assert "rho_S2" in out
        assert "Red-blue pebbling" in out

    def test_dft_workload(self, capsys):
        out = run_example("dft_workload.py", capsys)
        assert "overlap matrix" in out
        assert "reduction" in out

    def test_custom_kernel_bound(self, capsys):
        out = run_example("custom_kernel_bound.py", capsys)
        assert "Custom kernel" in out
        assert "rejected as expected" in out

    def test_exascale_projection(self, capsys):
        out = run_example("exascale_projection.py", capsys)
        assert "262144" in out

    def test_memory_budget_sweep(self, capsys):
        out = run_example("memory_budget_sweep.py", capsys)
        assert "Memory feasibility" in out
        assert "Enforced COnfLUX" in out
        assert "caught as expected" in out
