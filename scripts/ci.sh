#!/usr/bin/env bash
# CI gate: repro.analysis static checks, tier-1 tests, a leak check of
# the serving and cluster suites, plus quick perf
# smokes of the persistent similarity cache, the vectorized scoring
# kernel (score parity + speedup floor), and the online serving layer,
# so regressions in the scoring substrate or the query service surface
# without running the full benchmark harness.
#
# Every stage runs even when an earlier one fails; the script prints
# which stages failed and exits non-zero if any did.
#
# Usage: scripts/ci.sh [workers]   (lint --jobs; default: 2)

set -uo pipefail
cd "$(dirname "$0")/.."

WORKERS="${1:-2}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

FAILED=()

# stage TITLE COMMAND...: run one stage, remembering it if it fails.
stage() {
    local title="$1"
    shift
    echo
    echo "== $title =="
    if ! "$@"; then
        FAILED+=("$title")
    fi
}

lint() {
    local start=$SECONDS
    python -m repro.analysis src/repro --format json --fail-on warning \
        --jobs "$WORKERS" || return 1
    echo "lint wall-time: $((SECONDS - start))s"
}

stage "lint: repro.analysis static checks (syntax + flow passes)" lint

stage "lint self-check: injected violations must fail the stage" \
    python scripts/lint_selfcheck.py

stage "tier-1 test suite" python -m pytest -x -q

# Dev mode reports every socket, transport or task a node leaves behind
# when it stops; here each of those warnings fails the suite.
stage "leak check: serving and cluster suites, leaks as errors" \
    python -X dev -m pytest -q tests/test_serve_*.py tests/test_cluster_*.py \
    -W error::ResourceWarning \
    -W error::pytest.PytestUnraisableExceptionWarning

stage "perf smoke: persistent similarity cache" \
    python -m pytest -x -q -s \
    "benchmarks/bench_table3_runtime.py::test_table3_persistent_cache_speedup" \
    --quick \
    --benchmark-disable

stage "kernel smoke: vectorized-vs-scalar parity + speedup" \
    python -m pytest -x -q -s \
    "benchmarks/bench_kernel_speedup.py" \
    --quick \
    --benchmark-disable

stage "batch smoke: search_batch dedup parity + pruned top-k scan speedup" \
    python -m pytest -x -q -s \
    "benchmarks/bench_batch_kernel.py" \
    --quick \
    --benchmark-disable

stage "index smoke: O(delta) updates + memmap cold start" \
    python -m pytest -x -q -s \
    "benchmarks/bench_kernel_speedup.py::test_incremental_index_speedup" \
    --incremental --quick \
    --benchmark-disable

stage "serve perf smoke: throughput + latency percentiles" \
    python -m pytest -x -q -s \
    "benchmarks/bench_serve_latency.py" \
    --quick \
    --benchmark-disable

# The fail-over test only: the scaling sweep's floors need a fleet that
# runs in parallel, and the in-process harness shares one interpreter.
stage "cluster fail-over smoke: kill a worker mid-load, no non-200s" \
    python -m pytest -x -q -s \
    "benchmarks/bench_cluster.py::test_cluster_failover" \
    --quick \
    --benchmark-disable

stage "prefilter smoke: candidate reduction + recall gate" \
    python -m pytest -x -q -s \
    "benchmarks/bench_lsh_serve.py" \
    --quick \
    --benchmark-disable

stage "bound smoke: postings bound pass vs the dense reference" \
    python -m pytest -x -q -s \
    "benchmarks/bench_bound_scaling.py" \
    --quick \
    --benchmark-disable

stage "union/join smoke: task kernels parity + speedup + served tasks" \
    python -m pytest -x -q -s \
    "benchmarks/bench_union_join.py" \
    --quick \
    --benchmark-disable

# Not collected by tier-1 (testpaths = tests); run here so a refactor
# that breaks the serving benchmark is caught before its paired runs.
stage "benchmark suite: the surfaces benchmarks/perf depends on" \
    python -m pytest benchmarks/perf -q

echo
if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "ci.sh: ${#FAILED[@]} stage(s) failed:"
    for title in "${FAILED[@]}"; do
        echo "  - $title"
    done
    exit 1
fi
echo "ci.sh: all checks passed"
