"""Import discipline: SciPy loads with the first numeric kernel call,
the paper's Table-2 models stay out of everything but the figures,
each kernel's lower bound is its DAAP derivation, schedules are built
only through the implementation table, the trace evaluator has one
reduction and one step-log shape, the planner reduces
received words only and never walks a whole candidate product, the
executed 2D views have no tile-at-a-time helper to fall back on, the
SUMMA rounds copy and send nothing per piece, the memory a pd* call
needs is stated in one function, the pebble games, the plan service,
the atlas and the sweep fabric are imported only where listed here,
the entry points only tests reached stay gone, the sequential
tournament serves the dense view only, every definition under ``src/``
is named outside the tests, every import there is used, every
third-party import is a package CI installs, and what ARCHITECTURE.md
and README.md name exists.

A sweep worker (pool child or ``python -m repro.runtime.fabric``), the
planner and the plan service only evaluate closed forms; SciPy's load
time was most of their cold start.  ARCHITECTURE.md, "Import
discipline", states the rules these tests hold the tree to.
"""

import ast
import collections
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
    assert _importers("examples", "scripts", "perf") == set()


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


#: The closed forms Section 6 prints.
CLOSED_FORMS = {"lu_io_lower_bound", "cholesky_io_lower_bound",
                "matmul_io_lower_bound"}


def test_each_kernel_keeps_one_bound():
    """Outside ``lowerbounds/`` the package divides by
    ``derive_*_bound(...).parallel_bound`` only: the printed closed forms
    are named nowhere but in the pipeline table's ``_DERIVE`` column,
    their reference column."""
    offenders = {}
    for path in (SRC / "repro").rglob("*.py"):
        if "lowerbounds" in path.parts:
            continue
        tree = ast.parse(path.read_text())
        table = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and [getattr(t, "id", None) for t in stmt.targets]
                 == ["_DERIVE"] for node in ast.walk(stmt)}
        lines = sorted(
            node.lineno for node in ast.walk(tree) if id(node) not in table
            and ({getattr(node, "id", None), getattr(node, "attr", None)}
                 | {alias.name for alias in getattr(node, "names", ())
                    if isinstance(node, ast.ImportFrom)}) & CLOSED_FORMS)
        if lines:
            offenders[str(path.relative_to(ROOT))] = lines
    assert offenders == {}


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
    """The pebble games back two artefacts of the registry, and
    ``repro.analysis`` does not import ``reporting``: the harness, the
    sweep workers and ``perf/`` run without them.  The plan service, the
    atlas and the sweep fabric are reached through their package
    ``__init__`` (and the edges below).  A new importer is a new
    dependency on a subsystem the rest of the tree runs without: list
    it here, on purpose."""
    assert _importers_of("repro.pebbles") == {"repro/analysis/reporting.py"}
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
    """A trace is ``harness.trace``, a one-call function is a
    distributed run (``run_impl`` calls ``DistributedBackend``, not
    ``DenseBackend``), a plan is served by ``PlanService.plan`` alone,
    and no ``executor=`` hook survives that only tests set: no function
    in the factorizations or the engine takes ``execute``, the planner
    has no ``async def``, the knobs below are gone from their
    signatures, and the surfaces that had a second way hold exactly
    what is listed here — a new entry is a new way, added on purpose."""
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
    run_impl = _functions(SRC / "repro" / "factorizations" / "common.py")[
        "run_impl"]
    assert _calls(run_impl, "DistributedBackend")
    assert not _calls(run_impl, "DenseBackend")
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


def test_the_dense_view_is_left_only_to_its_benchmark_reference():
    """``DenseBackend`` and the ``dense_*`` step views have one caller
    left, ``perf/``'s machine-free reference: under ``src/``,
    ``examples/`` and ``scripts/`` only the engine and the four
    schedules that reference times mention them.  Deleting the dense
    view shrinks this set to nothing."""
    mentions = re.compile(r"DenseBackend|dense_(init|step|finalize)")
    found = {path.relative_to(ROOT).as_posix()
             for root in ("src", "examples", "scripts")
             for path in (ROOT / root).rglob("*.py")
             if mentions.search(path.read_text())}
    assert found == {
        "src/repro/engine/__init__.py",
        "src/repro/engine/backends.py",
        "src/repro/engine/schedule.py",
        "src/repro/factorizations/conflux.py",
        "src/repro/factorizations/confchox.py",
        "src/repro/factorizations/matmul25d.py",
        "src/repro/factorizations/baselines/scalapack_chol.py",
    }


def test_the_sequential_tournament_is_dense_view_only():
    """``tournament_pivot`` and its ``TournamentResult`` serve one
    caller, ``ConfluxSchedule.dense_step``: the distributed tournament
    picks rows with ``_candidate_rows``.  Deleting the dense view
    shrinks this set to the module and its tests."""
    mentions = re.compile(r"tournament_pivot|TournamentResult")
    found = {path.relative_to(ROOT).as_posix()
             for root in ("src", "examples", "scripts", "perf")
             for path in (ROOT / root).rglob("*.py")
             if mentions.search(path.read_text())}
    assert found == {
        "src/repro/factorizations/__init__.py",
        "src/repro/factorizations/pivoting.py",
        "src/repro/factorizations/conflux.py",
    }
    conflux = _functions(SRC / "repro" / "factorizations" / "conflux.py")
    assert {name for name, fn in conflux.items()
            if mentions.search(ast.unparse(fn))} == {"dense_step"}


#: Definitions under ``src/repro`` that keep no caller outside tests, on
#: purpose: name (``Class.method`` for a method) -> why it stays.
UNCALLED = {
    "scalapack_cholesky": "a one-call row of the implementation table, "
                          "beside scalapack_lu",
    "slate_cholesky": "a one-call row of the implementation table, "
                      "beside slate_lu",
    "matmul_25d": "a one-call row of the implementation table, beside "
                  "conflux_lu and confchox_cholesky",
    "ServiceStats.hit_rate": "goes with the serving layer",
}


def _definitions(root: pathlib.Path
                 ) -> list[tuple[pathlib.Path, int, int, str]]:
    """``(path, first line, last line, name)`` of every non-dunder
    function, method and class under ``root/src/repro``; a method is
    named ``Class.method``."""
    found = []
    for path in (root / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {id(child): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for child in node.body}
        found += [(path, node.lineno, node.end_lineno, ".".join(filter(
                      None, (owner.get(id(node)), node.name))))
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not re.fullmatch(r"__\w+__", node.name)]
    return found


def _lines_outside_tests(root: pathlib.Path
                         ) -> dict[tuple[pathlib.Path, int], list[str]]:
    """The identifier-like words of every line under ``src/``,
    ``perf/``, ``scripts/`` and ``examples/`` of ``root`` — code,
    docstrings and comments alike — but the lines of an ``__all__``
    list and of a package ``__init__``'s imports."""
    lines = {}
    for top in ("src", "perf", "scripts", "examples"):
        for path in (root / top).rglob("*.py"):
            text = path.read_text()
            listed = {line for node in ast.walk(ast.parse(text))
                      if (isinstance(node, ast.Assign) and "__all__" in {
                          getattr(t, "id", None) for t in node.targets})
                      or (path.name == "__init__.py"
                          and isinstance(node, ast.ImportFrom))
                      for line in range(node.lineno, node.end_lineno + 1)}
            lines.update(((path, lineno), re.findall(r"\w+", line))
                         for lineno, line in enumerate(text.splitlines(), 1)
                         if lineno not in listed)
    return lines


def _uncalled(root: pathlib.Path, kept=()) -> dict[str, str]:
    """Name -> ``path:line`` of each definition under ``root/src/repro``
    that nothing outside ``root/tests`` names, but on its own ``def``
    line, in an ``__all__``, in an ``__init__`` re-export or in the
    body of another such definition.  A name in ``kept`` is reported
    too, but its body still counts as a caller."""
    defs = _definitions(root)
    lines = _lines_outside_tests(root)
    uses = collections.Counter(word for words in lines.values()
                               for word in words)
    for path, first, _, name in defs:
        word = name.rpartition(".")[2]
        uses[word] -= lines[path, first].count(word)
    uncalled: dict[str, str] = {}
    while dead := [(path, first, last, name)
                   for path, first, last, name in defs
                   if name not in uncalled
                   and uses[name.rpartition(".")[2]] <= 0]:
        for path, first, last, name in dead:
            uncalled[name] = f"{path.relative_to(root)}:{first}"
            if name not in kept:         # its callees lose a caller
                uses.subtract(word for line in range(first + 1, last + 1)
                              for word in lines.get((path, line), ()))
    return uncalled


def test_every_definition_is_used_outside_tests():
    """Each function, method and class under ``src/repro`` is named
    somewhere outside ``tests/`` other than on a line defining that
    name, in an ``__all__`` list, in a package ``__init__``'s
    re-exports or in the body of a definition that fails this test:
    code only tests call goes, or moves to ``tests/oracle.py``.
    ``UNCALLED`` lists the few kept on purpose."""
    uncalled = _uncalled(ROOT, UNCALLED)
    assert uncalled.keys() - UNCALLED.keys() == set(), uncalled
    assert UNCALLED.keys() <= uncalled.keys()   # no stale exception


def _unused_imports(root: pathlib.Path) -> list[str]:
    """``path:line name`` of every name a non-``__init__`` module under
    ``root/src/repro`` imports, at module level or lazily, and never
    reads (as a name, in a quoted annotation or in its ``__all__``)."""
    unused = []
    for path in (root / "src" / "repro").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        spelled = [getattr(node, field) for node in ast.walk(tree)
                   for field in ("annotation", "returns")
                   if getattr(node, field, None) is not None] + [
            node.value for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | {
            word for node in spelled for const in ast.walk(node)
            if isinstance(const, ast.Constant)
            and isinstance(const.value, str)
            for word in re.findall(r"\w+", const.value)}
        unused += [f"{path.relative_to(root)}:{node.lineno} {bound}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (bound := alias.asname or alias.name.split(".")[0])
                   not in read]
    return unused


def test_every_import_is_used():
    """Ruff's F401 without ruff: every name a module under ``src/``
    imports is read in that module.  Package ``__init__`` modules
    re-export and are exempt, as in ``ruff.toml``."""
    assert _unused_imports(ROOT) == []


def _tree(root: pathlib.Path, files: dict[str, str]) -> pathlib.Path:
    """``root`` holding ``files`` (relative path -> source)."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(inspect.cleandoc(text) + "\n")
    return root


class TestDefinitionGuard:
    """``_uncalled`` on small trees: what it reports and what it lets
    pass."""

    def test_flags_what_only_tests_call(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": """
                def used():
                    return 1

                def only_tested():
                    return 2
            """,
            "scripts/run.py": "from repro.mod import used\nused()",
            "tests/test_mod.py": "from repro.mod import only_tested",
        })
        assert _uncalled(root) == {"only_tested": "src/repro/mod.py:4"}

    def test_all_and_init_reexports_are_no_callers(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/__init__.py": """
                from .mod import (
                    exported,
                )
                __all__ = ["exported"]
            """,
            "src/repro/mod.py": """
                __all__ = ["exported"]

                def exported():
                    pass
            """,
        })
        assert _uncalled(root).keys() == {"exported"}

    def test_every_root_outside_tests_counts(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": """
                def probed():
                    pass

                def shown():
                    pass

                def scripted():
                    pass

                def internal():
                    pass

                def caller():
                    internal()
            """,
            "perf/probe.py": "probed()",
            "examples/demo.py": "shown()",
            "scripts/tool.py": "# runs scripted() and caller()",
        })
        assert _uncalled(root) == {}

    def test_callees_of_dead_code_are_dead(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": """
                def helper():
                    pass

                def dead():
                    helper()
            """,
        })
        assert _uncalled(root).keys() == {"dead", "helper"}
        assert _uncalled(root, kept={"dead"}).keys() == {"dead"}

    def test_methods_are_named_by_class(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": """
                class Box:
                    def open(self):
                        pass

                    def forgotten(self):
                        pass
            """,
            "examples/demo.py": "Box().open()",
        })
        assert _uncalled(root) == {"Box.forgotten": "src/repro/mod.py:5"}


class TestImportGuard:
    """``_unused_imports`` on small trees: ruff's F401, as ``ruff.toml``
    configures it."""

    def test_flags_a_stray_import(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": """
                import os
                from math import pi, tau

                def area(r):
                    return pi * r * r
            """,
        })
        assert _unused_imports(root) == ["src/repro/mod.py:1 os",
                                         "src/repro/mod.py:2 tau"]

    def test_flags_a_stray_lazy_import(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": """
                def load():
                    import json as js
                    return 1
            """,
        })
        assert _unused_imports(root) == ["src/repro/mod.py:2 js"]

    def test_quoted_annotations_and_all_are_reads(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/mod.py": """
                from __future__ import annotations
                from collections.abc import Sequence
                from math import pi
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from fractions import Fraction

                __all__ = ["pi"]

                def total(xs: "Sequence[Fraction]") -> float:
                    return sum(xs)
            """,
        })
        assert _unused_imports(root) == []

    def test_package_inits_re_export(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/__init__.py": "from math import pi",
            "src/repro/sub/__init__.py": "import os",
        })
        assert _unused_imports(root) == []


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


def _third_party(root: str) -> set[str]:
    """Top-level names of the absolute imports under ``root`` (lazy ones
    included) that are neither the standard library nor this repo's:
    ``repro``, ``perf`` and the modules beside the importing file."""
    found = set()
    for path in (ROOT / root).rglob("*.py"):
        local = {"repro", "perf"} | {p.stem for p in path.parent.glob("*.py")}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(top for name in names
                         if (top := name.split(".")[0]) not in local
                         and top not in sys.stdlib_module_names)
    return found


def _pip_installs() -> dict[str, set[str]]:
    """CI job -> the packages its ``pip install`` steps name."""
    jobs: dict[str, set[str]] = {}
    job = None
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for line in ci.splitlines():
        if m := re.match(r"  ([\w-]+):$", line):
            job = m.group(1)
        elif m := re.search(r"pip install (.+)$", line):
            jobs.setdefault(job, set()).update(m.group(1).split())
    return jobs


def test_third_party_imports_are_declared():
    """The library needs numpy and scipy and nothing else; tests,
    examples and scripts add only pytest and hypothesis, and CI's
    ``test`` and ``coverage`` jobs install every one of them, so no
    module fails to collect on a clean install."""
    declared = {"numpy", "scipy", "pytest", "hypothesis"}
    assert _third_party("src") == {"numpy", "scipy"}
    for root in ("tests", "examples", "scripts"):
        assert _third_party(root) <= declared, root
    installs = _pip_installs()
    for job in ("test", "coverage"):
        assert declared <= installs[job], job


def test_every_module_imports_without_networkx(tmp_path):
    """A clean install has no networkx: with a ``networkx`` that fails
    to import first on the path, every module under ``repro`` still
    imports."""
    (tmp_path / "networkx").mkdir()
    (tmp_path / "networkx" / "__init__.py").write_text(
        "raise ModuleNotFoundError('networkx is not installed')\n")
    probe = ("import importlib, pkgutil, repro\n"
             "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
             "    importlib.import_module(m.name)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path),
                                                       str(SRC)]))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                   capture_output=True, text=True, timeout=120)


def test_the_analysis_package_loads_no_pebble_game():
    """``repro.analysis`` (the harness and sweep workers' import) loads
    no ``repro.pebbles``; its ``reporting`` module, the one importer,
    does."""
    probe = ("import sys\n"
             "def pebbles(): return any(m.startswith('repro.pebbles') "
             "for m in sys.modules)\n"
             "import repro.analysis\n"
             "before = pebbles()\n"
             "import repro.analysis.reporting\n"
             "print(before, pebbles())\n")
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.stdout.split() == ["False", "True"]


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


def _defines(path: pathlib.Path, node: str) -> bool:
    """Whether ``path`` defines the test node ``A::B::…``: each part a
    ``class``/``def`` in the body of the part before it (the first at
    module level)."""
    scope = ast.parse(path.read_text()).body
    for part in node.split("::"):
        found = [n for n in scope if isinstance(
            n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and n.name == part]
        if not found:
            return False
        scope = found[0].body
    return True


@pytest.mark.parametrize(
    "doc", ["ARCHITECTURE.md", "README.md", ".claude/skills/verify/SKILL.md"])
def test_doc_references_resolve(doc):
    """What the docs name exists: every backticked ``repro.…`` name
    imports (a module, or an attribute of the longest importable
    prefix), every ``tests/``/``scripts/``/``examples/`` path (and a
    ``::Class::method`` test node in it, part by part) is in the tree,
    and every ``make`` target is a rule of the Makefile.  ROADMAP.md is
    not probed: it names files it proposes."""
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
        if not (ROOT / path).exists() or (
                node and not _defines(ROOT / path, node)):
            missing.append(ref)
    rules = set(re.findall(r"^([\w-]+):", (ROOT / "Makefile").read_text(),
                           re.M))
    assert (unresolved, missing, sorted(set(targets) - rules)) == ([], [], [])


def test_docs_state_the_present():
    """The docs describe HEAD, not its history: ARCHITECTURE.md stays a
    reference of at most 700 lines, no PR number appears in it, the
    README or the verify skill, and CHANGES.md is one line per PR
    (``PR <n> …``, at most 1 500 characters), in ascending order."""
    assert len((ROOT / "ARCHITECTURE.md").read_text().splitlines()) <= 700
    for doc in ("ARCHITECTURE.md", "README.md",
                ".claude/skills/verify/SKILL.md"):
        assert re.findall(r"\bPR \d+", (ROOT / doc).read_text()) == [], doc
    entries = [line for line in
               (ROOT / "CHANGES.md").read_text().splitlines() if line.strip()]
    assert entries
    numbers = []
    for line in entries:
        m = re.match(r"PR (\d+)\b", line)
        assert m and len(line) <= 1500, line[:80]
        numbers.append(int(m.group(1)))
    assert all(a < b for a, b in zip(numbers, numbers[1:])), numbers
