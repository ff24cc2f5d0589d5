"""Import discipline: SciPy loads with the first numeric kernel call,
the paper's Table-2 models stay out of everything but the figures,
schedules are built only through the implementation table, the trace
evaluator has one reduction and one step-log shape, the planner reduces
received words only and never walks a whole candidate product, the
executed 2D views have no tile-at-a-time helper to fall back on, the
SUMMA rounds copy and send nothing per piece, the memory a pd* call
needs is stated in one function, the pebble games, the plan service,
the atlas and the sweep fabric are imported only where listed here,
the entry points only tests reached stay gone, and what ARCHITECTURE.md
and README.md name exists.

A sweep worker (pool child or ``python -m repro.runtime.fabric``), the
planner and the plan service only evaluate closed forms; SciPy's load
time was most of their cold start.  ARCHITECTURE.md, "Import
discipline", states the rules these tests hold the tree to.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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


def _imports_models(path: pathlib.Path) -> bool:
    """Whether ``path`` imports ``repro.models`` (whose ``__init__``
    loads ``costmodels``) or anything below it, absolutely or
    relatively."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(part in ("models", "costmodels")
               for name in names for part in name.split(".")):
            return True
    return False


def _importers(*roots: str) -> set[str]:
    return {str(path.relative_to(ROOT))
            for root in roots for path in (ROOT / root).rglob("*.py")
            if _imports_models(path)}


def test_costmodels_feed_only_figures_and_ablations():
    """``models.costmodels`` restates the schedules as the paper's
    Table-2 formulas, for comparison plots.  Planning, accounting and
    execution must never read it: their numbers come from the cost-term
    IR alone."""
    assert _importers("src/repro") == {
        "src/repro/models/__init__.py",
        "src/repro/analysis/figures.py",
        "src/repro/analysis/ablations.py",
    }
    assert _importers("benchmarks", "examples", "scripts", "perf") == set()


def _schedule_calls(path: pathlib.Path) -> list[int]:
    """Line numbers where ``path`` calls a name ending in ``Schedule``
    (``ConfluxSchedule(...)``, ``mod.ScalapackLUSchedule(...)``)."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None)
                 or getattr(node.func, "attr", "")).endswith("Schedule")]


def test_schedules_are_built_only_through_the_table():
    """Which schedule class (with which pinned arguments) a label *is*
    is stated once, in ``factorizations/registry.py``; the harness, the
    planner and the pd* layer look it up via ``build``."""
    offenders = {
        str(path.relative_to(ROOT)): lines
        for path in (SRC / "repro").rglob("*.py")
        if "factorizations" not in path.parts
        and (lines := _schedule_calls(path))}
    assert offenders == {}


def test_one_reduction_and_no_duck_typed_forks():
    """The only ``hasattr(`` calls the tree ever had chose between
    step-log shapes; there is one shape now.  And a cost term has one
    reduction, ``StepAccounting._term_total``: the names of the dense
    fallback, its fast twin and the cross-config pre-pass stay gone."""
    offenders = {
        str(path.relative_to(ROOT)): lines
        for path in (SRC / "repro").rglob("*.py")
        if (lines := [node.lineno
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "hasattr"])}
    assert offenders == {}
    accounting = ast.parse(
        (SRC / "repro" / "engine" / "accounting.py").read_text())
    defined = {node.name for node in ast.walk(accounting)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_term_total" in defined
    assert not defined & {"_closed_sum", "_fast_sum",
                          "_reduce_uniform_affine"}


def _users_of(gone: set[str]) -> dict[str, list[str]]:
    """Files under ``src/repro`` that define, reference, take as a
    parameter, pass as a keyword or import any identifier in ``gone``."""
    offenders = {}
    for path in (SRC / "repro").rglob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            names.update(
                getattr(node, field, None)
                for field in ("name", "id", "attr", "arg"))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        if names & gone:
            offenders[str(path.relative_to(ROOT))] = sorted(names & gone)
    return offenders


def test_the_tile_at_a_time_helpers_stay_gone():
    """The 2D baselines work on ``local_panels`` slabs.  The helpers of
    the per-tile idiom — a broadcast per tile copy, a row swap per tile
    column, the ``(tile, owner)`` iterators and per-tile communicators —
    are neither defined nor referenced anywhere in the package."""
    assert _users_of({"bcast_copy", "swap_rows_2d", "col_owners",
                      "grid_row_ranks", "grid_col_ranks"}) == {}


def _calls(node: ast.AST, name: str) -> list[ast.Call]:
    """Calls under ``node`` of a function or method called ``name``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and name in (getattr(call.func, "id", None),
                         getattr(call.func, "attr", None))]


def _functions(path: pathlib.Path) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def test_the_planner_reduces_and_scores_only_what_it_ranks_by():
    """The planner ranks by received words: it reads them through
    ``TermBatch.recv_words()``, never the full ``evaluate()``; and the
    joint search enumerates best first, never the whole
    ``itertools.product`` (whose cap parameter stays gone)."""
    offenders = {
        str(path.relative_to(ROOT)): sorted({call.lineno for call in calls})
        for path in (SRC / "repro" / "planner").glob("*.py")
        if (calls := [call for name in ("evaluate", "product")
                      for call in _calls(ast.parse(path.read_text()), name)])}
    assert offenders == {}
    assert _users_of({"max_assignments"}) == {}
    core = _functions(SRC / "repro" / "planner" / "core.py")
    assert len(_calls(core["plan_batch"], "recv_words")) == 1


def test_the_memory_of_a_pd_call_is_stated_once():
    """``planner/core.call_memory`` is the one place a schedule's
    ``required_words()`` meets layout copies: the per-op copy counts
    and ``_run_pd``'s three workload flags stay gone, the planner and
    the pd* layer read ``required_words()`` nowhere else, the gate has
    one call site (the top of ``_run_pd``) and ``run_workload``
    reshuffles and gates nothing itself."""
    assert _users_of({"gate_copies", "auto_copies", "preflight",
                      "native_names", "keep_native"}) == {}
    api = _functions(SRC / "repro" / "api.py")
    readers = {
        f"{path.relative_to(SRC)}:{name}"
        for path in [SRC / "repro" / "api.py",
                     *(SRC / "repro" / "planner").glob("*.py")]
        for name, fn in _functions(path).items()
        if _calls(fn, "required_words")}
    assert readers == {"repro/planner/core.py:call_memory"}
    callers = {
        f"{path.relative_to(SRC)}:{name}"
        for path in (SRC / "repro").rglob("*.py")
        for name, fn in _functions(path).items()
        if _calls(fn, "call_memory")}
    assert callers == {"repro/planner/core.py:_gate",
                       "repro/planner/workload.py:_frontier",
                       "repro/api.py:_check_memory_feasible"}
    gates = [name for name, fn in api.items()
             if _calls(fn, "_check_memory_feasible")]
    assert gates == ["_run_pd"]
    assert len(_calls(api["_run_pd"], "_check_memory_feasible")) == 1
    for inner in ("redistribute", "_reshuffle", "_check_memory_feasible"):
        assert _calls(api["run_workload"], inner) == []
    # The probe sees a reshuffle where there is one.
    assert _calls(api["_reshuffle"], "redistribute")


def _imported(path: pathlib.Path) -> set[str]:
    """Absolute names of everything ``path`` imports, at module level
    or lazily: each module, and each ``from`` name under its module."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def _importers_of(module: str) -> set[str]:
    """Files under ``src/repro``, outside ``module`` itself, that import
    ``module`` or anything below it."""
    own = SRC.joinpath(*module.split("."))
    return {str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            if path != own.with_suffix(".py") and own not in path.parents
            and any(name == module or name.startswith(module + ".")
                    for name in _imported(path))}


def test_leaf_subsystems_are_imported_only_where_listed():
    """The pebble games are a self-contained illustration; the plan
    service, the atlas and the sweep fabric are reached through their
    package ``__init__`` (and the edges below).  A new importer is a
    new dependency on a subsystem the rest of the tree runs without:
    list it here, on purpose."""
    assert _importers_of("repro.pebbles") == set()
    assert _importers_of("repro.planner.service") == {
        "repro/planner/__init__.py", "repro/api.py"}
    assert _importers_of("repro.planner.atlas") == {
        "repro/planner/__init__.py", "repro/planner/service.py"}
    assert _importers_of("repro.runtime.fabric") == {
        "repro/runtime/__init__.py"}
    # The probe resolves relative imports: the planner is widely used.
    assert "repro/api.py" in _importers_of("repro.planner")


def _defined(path: pathlib.Path, cls: str | None = None) -> set[str]:
    """Names of the functions and classes defined at the top of
    ``path``, or directly in its class ``cls``."""
    body = ast.parse(path.read_text()).body
    if cls is not None:
        body = next(node.body for node in body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
    return {node.name for node in body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_one_way_to_trace_factorize_and_be_served():
    """A trace is ``harness.trace``, a one-call function is dense-only,
    a plan is served by ``PlanService.plan`` alone, and no ``executor=``
    hook survives that only tests set: no function in the
    factorizations or the engine takes ``execute``, the planner has no
    ``async def``, the knobs below are gone from their signatures, and
    the surfaces that had a second way hold exactly what is listed
    here — a new entry is a new way, added on purpose."""
    from repro.analysis.harness import memory_feasibility
    from repro.factorizations.baselines import scalapack_lu
    from repro.planner import PlanAtlas, PlanService

    takes_execute = [
        f"{path.relative_to(SRC)}:{node.name}"
        for package in ("factorizations", "engine")
        for path in (SRC / "repro" / package).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "execute" in {arg.arg for arg in (*node.args.posonlyargs,
                                              *node.args.args,
                                              *node.args.kwonlyargs)}]
    assert takes_execute == []
    asyncs = [f"{path.relative_to(SRC)}:{node.name}"
              for path in (SRC / "repro" / "planner").rglob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.AsyncFunctionDef)]
    assert asyncs == []
    for fn, knob in ((PlanService, "snap"), (memory_feasibility, "executor"),
                     (PlanAtlas.build, "executor"),
                     (scalapack_lu, "panel_rebroadcast")):
        assert knob not in inspect.signature(fn).parameters, (fn, knob)
    one_call = {node.name
                for path in (SRC / "repro" / "factorizations").rglob("*.py")
                for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef)
                and _calls(node, "run_impl")}
    assert one_call == {"conflux_lu", "confchox_cholesky", "matmul_25d",
                        "scalapack_lu", "slate_lu", "scalapack_cholesky",
                        "slate_cholesky"}
    assert _defined(SRC / "repro" / "engine" / "backends.py") == {
        "machine_for", "MemoryReport", "_result_cls", "DenseBackend",
        "DistributedBackend", "_snapshot", "_apply_delta"}
    assert _defined(SRC / "repro" / "planner" / "service.py",
                    "PlanService") == {
        "__init__", "_remember", "_lookup", "_serve", "plan",
        "plan_workload", "cache_clear", "__len__"}
    assert _defined(SRC / "repro" / "planner" / "atlas.py", "PlanAtlas") == {
        "__init__", "_token", "_manifest_token", "get", "manifest",
        "snap_candidates", "build"}
    assert _defined(SRC / "repro" / "runtime" / "executor.py") == {
        "SweepTask", "run_task", "_TracedResult", "_run_task_traced",
        "default_workers", "SerialExecutor", "ProcessPoolSweepExecutor"}


def test_every_repro_import_resolves():
    """Every ``from repro… import name`` under ``src/``, ``tests/``,
    ``scripts/`` and ``examples/`` — lazy ones included — names a
    module or an attribute that exists, so a deleted entry point is
    imported nowhere, not only where tier-1 happens to run it."""
    unresolved = []
    for root in ("src", "tests", "scripts", "examples"):
        for path in (ROOT / root).rglob("*.py"):
            package = list(path.relative_to(SRC).with_suffix("").parts[:-1]) \
                if root == "src" else []
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom):
                    continue
                base = package[:len(package) - node.level + 1] \
                    if node.level else []
                module = ".".join(base + ([node.module] if node.module
                                          else []))
                if module.split(".")[0] != "repro":
                    continue
                mod = importlib.import_module(module)
                for alias in node.names:
                    submodule = hasattr(mod, "__path__") and \
                        importlib.util.find_spec(f"{module}.{alias.name}")
                    if not hasattr(mod, alias.name) and not submodule:
                        unresolved.append(
                            f"{path.relative_to(ROOT)}:{node.lineno} "
                            f"{module}.{alias.name}")
    assert unresolved == []


def _copying_calls(node: ast.AST) -> list[str]:
    """``x.copy()``, ``np.array(...)`` and ``x.bcast(...)`` calls under
    ``node``, as ``"<name>@<line>"``."""
    found = []
    for call in ast.walk(node):
        if not isinstance(call, ast.Call) or \
                not isinstance(call.func, ast.Attribute):
            continue
        func = call.func
        if func.attr in ("copy", "bcast") or (
                func.attr == "array" and getattr(func.value, "id", "") == "np"):
            found.append(f"{func.attr}@{call.lineno}")
    return found


def test_summa_rounds_share_panels_and_replicas():
    """A SUMMA round charges its strip pieces and lets every rank read
    one panel: ``dist_step`` (and the ``_panel`` it builds them with)
    holds no ``.copy()``, no ``np.array(`` and no ``.bcast(``.  Nor
    does ``dist_init`` inside its per-layer loop — replicas are views;
    slicing dense operands into blocks, before it, may copy."""
    tree = ast.parse(
        (SRC / "repro" / "factorizations" / "matmul25d.py").read_text())
    methods = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert _copying_calls(methods["dist_step"]) == []
    assert _copying_calls(methods["_panel"]) == []
    layer_loops = [node for node in ast.walk(methods["dist_init"])
                   if isinstance(node, ast.For)
                   and ast.unparse(node.iter) == "range(c)"]
    assert len(layer_loops) == 1
    assert _copying_calls(layer_loops[0]) == []
    # The probe sees what it looks for: the block slicing does copy.
    assert _copying_calls(methods["dist_init"])


def test_every_accepted_label_is_a_table_row():
    from repro import api
    from repro.analysis import harness
    from repro.factorizations.registry import IMPLS, labels
    from repro.planner import core

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert set(core._SEARCH) <= set(IMPLS)
    accepted = {
        "lu": {*harness.LU_IMPLEMENTATIONS, *core.planner_labels("lu"),
               *default(harness.trace_case, "lu_impls"),
               default(api.pdgetrf, "impl")},
        "cholesky": {*harness.CHOLESKY_IMPLEMENTATIONS,
                     *core.planner_labels("cholesky"),
                     *default(harness.trace_case, "chol_impls"),
                     default(api.pdpotrf, "impl")},
        "gemm": {*core.planner_labels("gemm"), default(api.pdgemm, "impl")},
    }
    for op, names in accepted.items():
        assert names <= set(labels(op)), (op, names - set(labels(op)))


def _doc_references(doc: str) -> tuple[list[str], list[str], list[str]]:
    """The references ``doc`` makes in backticks (and, for ``make``
    targets, in fenced code blocks): dotted ``repro.…`` names, repo
    paths under ``tests/``, ``scripts/`` and ``examples/``, and
    ``make`` targets."""
    text = (ROOT / doc).read_text()
    spans = re.findall(r"`([^`\n]+)`", text)
    fenced = [line for block in re.findall(r"```[^\n]*\n(.*?)```", text, re.S)
              for line in block.splitlines()]
    names = [m.group(0) for span in spans
             if (m := re.match(r"repro(\.\w+)+", span))]
    paths = [span.split()[0] for span in spans
             if re.match(r"(tests|scripts|examples)/", span)]
    targets = [m.group(1) for line in spans + fenced
               if (m := re.match(r"\s*make ([\w-]+)", line))]
    return names, paths, targets


@pytest.mark.parametrize("doc", ["ARCHITECTURE.md", "README.md"])
def test_doc_references_resolve(doc):
    """What the docs name exists: every backticked ``repro.…`` name
    imports (a module, or an attribute of the longest importable
    prefix), every ``tests/``/``scripts/``/``examples/`` path (and a
    ``::Name`` test node in it) is in the tree, and every ``make``
    target is a rule of the Makefile."""
    names, paths, targets = _doc_references(doc)
    assert names and paths and targets      # the probe sees references
    unresolved = []
    for name in names:
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                for attr in parts[cut:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                unresolved.append(name)
            break
        else:
            unresolved.append(name)
    missing = []
    for ref in paths:
        path, _, node = ref.partition("::")
        if not (ROOT / path).exists() or (node and not re.search(
                rf"^\s*(class|def) {re.escape(node)}\b",
                (ROOT / path).read_text(), re.M)):
            missing.append(ref)
    rules = set(re.findall(r"^([\w-]+):", (ROOT / "Makefile").read_text(),
                           re.M))
    assert (unresolved, missing, sorted(set(targets) - rules)) == ([], [], [])
