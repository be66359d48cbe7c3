"""Tracked performance harness (``BENCH_perf.json``).

Microbenchmarks for the simulation kernel and network plus end-to-end
wall-clock runs of the B5 (single-group open-loop) and B10 (4-shard)
scenario shapes.  ``python benchmarks/perf/run_perf.py`` writes
``BENCH_perf.json`` at the repo root so the perf trajectory is tracked
across PRs; ``--check`` gates CI on ratios of costs measured in one run.
"""
