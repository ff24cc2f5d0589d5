"""The repo's benchmark: see perf/README.md and BENCHMARK.json."""
