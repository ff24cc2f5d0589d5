# Repo entry points.  Tier-1 verification is `make test`.  CI
# (.github/workflows/ci.yml, which lists every step) gates on test,
# exec-smoke, the example smoke, bench-paper (every paper claim), the
# sweep_fanout run, profile-exec, lint, coverage, bench-check, atlas,
# plan and trace.

PY ?= python

# Line-coverage floor (percent) for `make coverage` / CI's coverage
# gate.  A conservative floor below the suite's measured coverage:
# ratchet it up when coverage improves, never lower it silently.
COV_FLOOR ?= 85

.PHONY: test lint coverage bench-check bench-paper plan atlas trace \
	cache-gc exec-smoke profile-exec

## Run the tier-1 test suite (what CI gates on).  The ten slowest
## tests are listed so that a slow path shows up in every CI log.
test:
	PYTHONPATH=src $(PY) -m pytest -x -q --durations=10

## The executed, verified path: one short run of each executed perf/
## workload (pd* calls on the simulated machine, residual <= 1e-10,
## peak <= the enforced budget on exec_chol25d), all three at full
## scale, where their counted words are pinned (1356704.0, 1087904.0
## and 15060992.0; quick scale pins none).  exec_bulk's 2D Cholesky and
## two matmuls drive the same blas wrappers and COSTA reshuffles with
## few large tiles (a full run takes about as long as a quick one with
## --seconds 2).  Exits non-zero when an operation fails its check.  CI
## runs this right after `make test`.
exec-smoke:
	$(PY) perf/run.py --workload exec_lu25d --seconds 1
	$(PY) perf/run.py --workload exec_chol25d --seconds 1
	$(PY) perf/run.py --workload exec_bulk --seconds 1

## cProfile top-25 (own time) of one operation of a perf/ workload,
## built as perf/run.py builds it.  WORKLOAD is any name in the ledger
## (default exec_lu25d: pdgetrf conflux, n=512, P=16, v=16, c=2), e.g.
## `make profile-exec WORKLOAD=sweep_closed`.  Where a performance PR
## starts; measure the result with perf/run.py.
WORKLOAD ?= exec_lu25d
profile-exec:
	$(PY) scripts/profile_exec.py --workload $(WORKLOAD)

## Coverage gate: the tier-1 suite under pytest-cov, failing below
## COV_FLOOR percent line coverage of src/repro.  Degrades to a notice
## on dev containers without pytest-cov — CI installs it, so the
## silent-skip path never gates a merge (same pattern as lint).
coverage:
	@if $(PY) -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src $(PY) -m pytest -q --cov=repro \
			--cov-report=term --cov-fail-under=$(COV_FLOOR); \
	else \
		echo "pytest-cov not installed; skipping coverage gate" \
		     "(CI runs it with --cov-fail-under=$(COV_FLOOR))"; \
	fi

## Static checks (configuration in ruff.toml).  The container image may
## not ship ruff; locally the target degrades to a notice instead of
## failing — CI installs ruff and runs it directly, so the silent-skip
## path never gates a merge.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples scripts; \
	elif $(PY) -c "import ruff" 2>/dev/null; then \
		$(PY) -m ruff check src tests examples scripts; \
	else \
		echo "ruff not installed; skipping lint (config committed in ruff.toml)"; \
	fi

## The ledger gate: four perf/ workloads at the scale where their
## checksums are pinned (~25 s).  Each run verifies every operation and
## exits non-zero when one fails: sweep_closed pins 78781741034.0 and
## the 12-point subset 1423773488.0 on the serial sweep; sweep_fanout
## pins the same two through a cold pool, a cold 2-worker fabric and a
## resume (so pool == fabric == resume == serial), every task computed
## exactly once and the resume recomputing none; plan_grid pins 156
## candidates, 130867515.140625 and joint <= independent; serve_mix
## checks every served plan == the live plan with zero live fallbacks.
## (sweep_fanout runs at full scale: --quick pins no checksum.)
bench-check:
	$(PY) perf/run.py --workload sweep_closed --seconds 1
	$(PY) perf/run.py --workload plan_grid --seconds 1
	$(PY) perf/run.py --workload serve_mix --quick --seconds 1
	$(PY) perf/run.py --workload sweep_fanout --seconds 1

## The paper's 19 figures and tables, printed from the FIGURES registry
## (repro.analysis.reporting) with their claims, the pebblings and the
## pivoting stability among them; the exit code is 1 when a claim is
## violated (~10 s; tier-1 holds the same claims and pins every cell in
## tests/test_paper_artefacts.py).  CI runs this in the `test` job on
## one Python.
bench-paper:
	PYTHONPATH=src $(PY) -m repro figures

## Print the planner's pick (schedule + parameters + predicted cost)
## for a smoke (N, P, M) grid; fails if planning breaks or blows the
## wall-time budget (the batched closed-form path plans the grid in
## well under a second — the budget catches O(steps x P) work sneaking
## back onto the scoring hot path).
PLAN_BUDGET_S ?= 20
plan:
	$(PY) scripts/plan_grid.py --budget-s $(PLAN_BUDGET_S)

## Build the smoke grid into a plan atlas under ATLAS_DIR (resumable,
## content-addressed — a code edit cold-starts it) and verify a
## PlanService serves every lattice point bit-identical to live
## planning.  CI runs this before `make plan`.
ATLAS_DIR ?= .atlas-smoke
atlas:
	$(PY) scripts/plan_grid.py --atlas $(ATLAS_DIR) --budget-s $(PLAN_BUDGET_S)

## Run every instrumented layer under repro.obs and export the span
## tree + superstep comm/memory timeline as Chrome-trace JSON (load
## TRACE_DIR/trace.json in chrome://tracing or ui.perfetto.dev) plus a
## flat metrics snapshot; fails if any span layer is missing.  CI
## archives the trace as a workflow artifact.
TRACE_DIR ?= .trace-smoke
trace:
	$(PY) scripts/trace_report.py --out $(TRACE_DIR)

## Prune stale cache entries (fingerprints from edited code, orphaned
## .tmp files; CACHE_GC_MAX_AGE_S additionally prunes current entries
## older than that).  Usage: make cache-gc CACHE_DIR=.atlas-smoke
CACHE_DIR ?= .atlas-smoke
CACHE_GC_MAX_AGE_S ?=
cache-gc:
	$(PY) scripts/cache_gc.py --cache $(CACHE_DIR) \
		$(if $(CACHE_GC_MAX_AGE_S),--max-age-s $(CACHE_GC_MAX_AGE_S))
