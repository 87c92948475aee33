"""Shared fixtures for the benchmark harness.

One world and one WT2015-profile corpus back most experiments (as
WT2015 backs most of the paper's Section 7); the other corpora reuse
the same world, mirroring how all the paper's corpora share DBpedia.

Scale note: the paper's corpora hold 238k-1.7M tables on a 2TB server;
these benches default to a few thousand tables so the whole harness
runs on a laptop.  All reproduced claims are *relative* (speedups,
reduction percentages, method orderings), which are stable across
corpus scale (see Section 7.4's linear-scaling result, reproduced in
bench_sec74_scaling).
"""

from __future__ import annotations

import pytest

from repro import Thetis
from repro.baselines import BM25TableSearch
from repro.benchgen import (
    GITTABLES_PROFILE,
    WT2015_PROFILE,
    WT2019_PROFILE,
    build_benchmark,
)

#: Master seed for every benchmark corpus.
SEED = 17

#: Default corpus/query scale (override with care: runtimes grow ~linearly).
WT_TABLES = 2000
GIT_TABLES = 250
NUM_QUERY_PAIRS = 10

#: Reduced scale used by the --quick smoke run (scripts/ci.sh).
QUICK_WT_TABLES = 400
QUICK_GIT_TABLES = 80
QUICK_QUERY_PAIRS = 4


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true",
        help="shrink benchmark corpora for a CI smoke run",
    )
    parser.addoption(
        "--incremental", action="store_true",
        help="run the segmented-index incremental-update benchmarks "
             "(single-table add vs full recompile, memmap cold start)",
    )


def _scale(request):
    """(wt_tables, git_tables, query_pairs) for the selected mode."""
    if request.config.getoption("--quick"):
        return QUICK_WT_TABLES, QUICK_GIT_TABLES, QUICK_QUERY_PAIRS
    return WT_TABLES, GIT_TABLES, NUM_QUERY_PAIRS


@pytest.fixture(scope="session")
def wt_bench(request):
    """The primary WT2015-profile benchmark corpus."""
    wt_tables, _, query_pairs = _scale(request)
    return build_benchmark(
        WT2015_PROFILE,
        num_tables=wt_tables,
        num_query_pairs=query_pairs,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def wt_thetis(wt_bench):
    """Scalar Thetis over the primary corpus with trained embeddings."""
    system = Thetis(wt_bench.lake, wt_bench.graph, wt_bench.mapping,
                    engine_kind="scalar")
    system.train_embeddings(
        dimensions=32, epochs=3, walks_per_entity=10, walk_length=4, seed=0
    )
    return system


@pytest.fixture(scope="session")
def wt_ground_truths(wt_bench):
    """Graded ground truth for every query of the primary corpus."""
    return wt_bench.ground_truths()


@pytest.fixture(scope="session")
def wt_bm25(wt_bench):
    """BM25 index over the primary corpus."""
    return BM25TableSearch(wt_bench.lake)


@pytest.fixture(scope="session")
def wt2019_bench(request, wt_bench):
    """WT2019-profile corpus sharing the primary world (lower coverage)."""
    wt_tables, _, query_pairs = _scale(request)
    return build_benchmark(
        WT2019_PROFILE,
        num_tables=wt_tables,
        num_query_pairs=query_pairs,
        seed=SEED + 1,
        world=wt_bench.world,
    )


@pytest.fixture(scope="session")
def git_bench(request, wt_bench):
    """GitTables-profile corpus (large tables, label-linked at load)."""
    _, git_tables, query_pairs = _scale(request)
    return build_benchmark(
        GITTABLES_PROFILE,
        num_tables=git_tables,
        num_query_pairs=query_pairs,
        seed=SEED + 2,
        world=wt_bench.world,
    )


def print_header(title: str) -> None:
    """Uniform banner for bench output."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
