#!/usr/bin/env bash
# CI gate: repro.analysis static checks, tier-1 tests, plus quick perf
# smokes of the persistent similarity cache, the vectorized scoring
# kernel (score parity + speedup floor), and the online serving layer,
# so regressions in the scoring substrate or the query service surface
# without running the full benchmark harness.
#
# Usage: scripts/ci.sh [workers]   (lint --jobs; default: 2)

set -euo pipefail
cd "$(dirname "$0")/.."

WORKERS="${1:-2}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint: repro.analysis static checks (syntax + flow passes) =="
LINT_START=$SECONDS
python -m repro.analysis src/repro --format json --fail-on warning \
    --jobs "$WORKERS"
echo "lint wall-time: $((SECONDS - LINT_START))s"

echo
echo "== lint self-check: injected violations must fail the stage =="
python scripts/lint_selfcheck.py

echo
echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== perf smoke: persistent similarity cache =="
python -m pytest -x -q -s \
    "benchmarks/bench_table3_runtime.py::test_table3_persistent_cache_speedup" \
    --quick \
    --benchmark-disable

echo
echo "== kernel smoke: vectorized-vs-scalar parity + speedup =="
python -m pytest -x -q -s \
    "benchmarks/bench_kernel_speedup.py" \
    --quick \
    --benchmark-disable

echo
echo "== batch smoke: search_batch dedup parity + pruned top-k scan speedup =="
python -m pytest -x -q -s \
    "benchmarks/bench_batch_kernel.py" \
    --quick \
    --benchmark-disable

echo
echo "== index smoke: O(delta) updates + memmap cold start =="
python -m pytest -x -q -s \
    "benchmarks/bench_kernel_speedup.py::test_incremental_index_speedup" \
    --incremental --quick \
    --benchmark-disable

echo
echo "== serve perf smoke: throughput + latency percentiles =="
python -m pytest -x -q -s \
    "benchmarks/bench_serve_latency.py" \
    --quick \
    --benchmark-disable

echo
echo "== prefilter smoke: candidate reduction + recall gate =="
python -m pytest -x -q -s \
    "benchmarks/bench_lsh_serve.py" \
    --quick \
    --benchmark-disable

echo
echo "== union/join smoke: task kernels parity + speedup + served tasks =="
python -m pytest -x -q -s \
    "benchmarks/bench_union_join.py" \
    --quick \
    --benchmark-disable

echo
echo "== benchmark suite: the surfaces benchmarks/perf depends on =="
# Not collected by tier-1 (testpaths = tests); run here so a refactor
# that breaks the serving benchmark is caught before its paired runs.
python -m pytest benchmarks/perf -q

echo
echo "ci.sh: all checks passed"
