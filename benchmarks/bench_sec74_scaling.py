"""Section 7.4: runtime scales linearly with synthetic corpus size.

The paper expands WT2015 to 0.7M/1.2M/1.7M tables by row resampling
and observes linearly growing runtimes (the search-space reduction
percentage is stable across sizes).  This bench reproduces the
construction at laptop scale with three corpus sizes and checks the
linear trend.
"""

import time

import pytest

from benchmarks.conftest import print_header
from repro import Thetis
from repro.benchgen import expand_lake
from repro.lsh import RECOMMENDED_CONFIG

#: Synthetic corpus sizes (the paper uses 0.7M / 1.2M / 1.7M).
SIZES = (2000, 4000, 6000)


def test_sec74_scaling(wt_bench, benchmark):
    queries = list(wt_bench.queries.one_tuple.values())[:5]

    def run():
        print_header("Section 7.4 - runtime vs synthetic corpus size "
                      "(types, LSH (30,10))")
        rows = []
        for size in SIZES:
            lake, mapping = expand_lake(
                wt_bench.lake, wt_bench.mapping,
                num_new_tables=size - len(wt_bench.lake),
                seed=31,
            )
            thetis = Thetis(lake, wt_bench.graph, mapping,
                            engine_kind="scalar")
            prefilter = thetis.prefilter("types", RECOMMENDED_CONFIG)
            start = time.perf_counter()
            reductions = []
            for query in queries:
                candidates = prefilter.candidate_tables(query, votes=3)
                reductions.append(
                    prefilter.reduction(len(lake), candidates)
                )
                thetis.search(query, k=10, mode="prefilter",
                              lsh_config=RECOMMENDED_CONFIG, votes=3)
            elapsed = (time.perf_counter() - start) / len(queries)
            reduction = sum(reductions) / len(reductions)
            rows.append((size, elapsed, reduction))
            print(f"  {size:>6} tables   {elapsed:7.3f} s/query   "
                  f"reduction {reduction:6.1%}")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    (s1, t1, r1), (_, t2, _), (s3, t3, r3) = rows
    # Runtime grows with corpus size ...
    assert t3 > t1
    # ... sub-quadratically: ~linear growth means time ratio tracks the
    # size ratio within a generous factor.
    assert t3 / t1 < 3.0 * (s3 / s1)
    # Reduction percentage is broadly stable across sizes (paper's
    # explanation for the linear trend).
    assert abs(r1 - r3) < 0.25
