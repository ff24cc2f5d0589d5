"""Smoke test of the benchmark itself (collected by the tier-1 run).

Every workload runs once at ``--quick`` scale, untraced and traced, in
this process; the assertions are about names, units, counts and
verification plumbing — never about a timing.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys

import pytest

from perf import run, workloads
from perf.workloads import END_TO_END, LAYER_METRICS, NAME_RE, WORKLOADS

UNIT_RE = r"^[A-Za-z0-9_/%.-]{1,16}$"


@pytest.fixture(scope="module")
def results():
    return {name: {trace: run.measure(name, seed=3, seconds=0.0,
                                      trace=bool(trace), quick=True)
                   for trace in (0, 1)}
            for name in WORKLOADS}


def test_registry_within_contract_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(LAYER_METRICS) <= 128
    names = [*WORKLOADS, *END_TO_END, *LAYER_METRICS]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    assert END_TO_END["setup_s"].unit == "s"
    assert END_TO_END["setup_s"].better == "lower"
    assert all(0 < m.bound <= 0.25 for m in END_TO_END.values())
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in WORKLOADS.values())
    for metric in LAYER_METRICS.values():
        assert metric.on and set(metric.on) <= set(WORKLOADS), metric.name


def test_manifest_and_readme_are_derived_from_the_registry():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert manifest == workloads.benchmark_manifest()
    assert manifest["paths"] == ["perf"]
    readme = (run.PERF / "README.md").read_text()
    block = readme.split(run.README_BEGIN)[1].split(run.README_END)[0]
    assert block == workloads.readme_tables()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_registered_metric_is_emitted(results, name):
    for trace, registry in ((0, END_TO_END), (1, LAYER_METRICS)):
        result = results[name][trace]
        assert result["failures"] == []
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2
        assert set(result["metrics"]) == set(registry)
        for key, entry in result["metrics"].items():
            assert math.isfinite(entry["value"]), key
            assert entry["unit"] == registry[key].unit
            assert re.match(UNIT_RE, entry["unit"]), key
    for key, entry in results[name][0]["metrics"].items():
        assert entry["value"] > 0, key          # end-to-end: never 0
    layer = results[name][1]["metrics"]
    for key, metric in LAYER_METRICS.items():
        if name not in metric.on:               # off this workload's path
            assert layer[key]["value"] == 0.0, key


def test_exec_workloads_never_touch_planner_or_runtime_probes(results):
    for name in workloads.EXEC:
        layer = results[name][1]["metrics"]
        for key, metric in LAYER_METRICS.items():
            if metric.layer.startswith(("planner", "runtime")):
                assert layer[key]["value"] == 0.0, (name, key)


def test_a_failing_operation_is_counted_not_fatal():
    class Flaky:
        name, batch = "flaky", 1

        def prepare(self, i):
            return i

        def run(self, i):
            if i == 1:
                raise RuntimeError("boom")
            return i

        def check(self, i, result):
            return ["wrong answer"] if i == 2 else []

        def cleanup(self, i):
            pass

    loop = run.OpLoop(Flaky(), probe=lambda: 1.0)
    walls = loop.until(Flaky().run, seconds=0.0, min_ops=4)
    assert (loop.attempted, loop.failed, len(walls)) == (4, 2, 2)
    assert "flaky op 1" in loop.failures[0] and "boom" in loop.failures[0]
    assert loop.failures[1] == "flaky op 2: wrong answer"


def test_command_line_contract():
    proc = subprocess.run(
        [sys.executable, str(run.PERF / "run.py"), "--workload",
         "sweep_closed", "--seed", "5", "--seconds", "0", "--trace", "0",
         "--quick"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(END_TO_END)
    assert all(set(entry) == {"value", "unit"}
               for entry in last["metrics"].values())
