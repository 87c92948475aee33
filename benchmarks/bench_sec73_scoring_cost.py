"""Section 7.3 (text): per-table scoring cost and the mapping fraction.

The paper measures the average wall-clock cost of scoring one table
(2.2 ms / 8.6 ms for 1-/5-tuple queries on WT2015; 3.8 ms / 16.6 ms on
GitTables) and finds that 58-78 % of it is spent computing the
query-to-column mapping (the Hungarian step).  This bench reproduces
both measurements using the engine's built-in profile instrumentation.

With the persistent similarity cache, the profile distinguishes
``similarity_calls`` (every pairwise lookup — the work Algorithm 1
*demands*) from ``similarity_misses`` (the lookups that actually ran
``sigma`` — the work that was *paid*); the report prints both so the
cost statement stays accurate under caching.
"""

import pytest

from benchmarks.conftest import print_header
from repro import Thetis


def _profile(thetis, queries, method="types", cold=True):
    engine = thetis.engine(method)
    if cold:
        # Measure the per-table cost the paper measures: no amortization
        # from earlier benchmark runs against the same corpus.
        engine.invalidate_cache(include_similarities=True)
    engine.profile.reset()
    for query in queries:
        engine.search(query, k=10)
    return engine.profile


def _print_similarity_split(profile, indent="  "):
    print(
        f"{indent}similarity lookups {profile.similarity_calls:>9,}   "
        f"misses {profile.similarity_misses:>9,}   "
        f"cache hit rate {profile.similarity_hit_rate:5.1%}"
    )


def test_sec73_scoring_cost_wt(wt_bench, wt_thetis, benchmark):
    def run():
        print_header("Section 7.3 - per-table scoring cost (WT profile)")
        rows = {}
        for subset, queries in (
            ("1-tuple", list(wt_bench.queries.one_tuple.values())),
            ("5-tuple", list(wt_bench.queries.five_tuple.values())),
        ):
            for method in ("types", "embeddings"):
                profile = _profile(wt_thetis, queries, method)
                rows[(subset, method)] = (
                    profile.mean_table_seconds, profile.mapping_fraction
                )
                print(
                    f"  {subset:<8} {method:<11} "
                    f"{profile.mean_table_seconds * 1000:7.3f} ms/table   "
                    f"mapping fraction {profile.mapping_fraction:5.1%}"
                )
                _print_similarity_split(profile, indent="           ")
                assert profile.similarity_calls >= \
                    profile.similarity_misses
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for (subset, method), (mean_seconds, fraction) in rows.items():
        # The column mapping dominates per-table cost (paper: 58-78%).
        assert fraction > 0.3, (subset, method)
        assert mean_seconds < 0.05  # stays in the low-millisecond range
    # 5-tuple scoring costs more than 1-tuple scoring (paper: ~4x).
    assert rows[("5-tuple", "types")][0] > rows[("1-tuple", "types")][0]


def test_sec73_scoring_cost_gittables(git_bench, benchmark):
    thetis = Thetis(git_bench.lake, git_bench.graph, git_bench.mapping,
                    engine_kind="scalar")

    def run():
        print_header("Section 7.3 - per-table scoring cost (GitTables "
                      "profile, larger tables)")
        rows = {}
        for subset, queries in (
            ("1-tuple", list(git_bench.queries.one_tuple.values())),
            ("5-tuple", list(git_bench.queries.five_tuple.values())),
        ):
            profile = _profile(thetis, queries)
            rows[subset] = (profile.mean_table_seconds,
                            profile.mapping_fraction)
            print(
                f"  {subset:<8} types       "
                f"{profile.mean_table_seconds * 1000:7.3f} ms/table   "
                f"mapping fraction {profile.mapping_fraction:5.1%}"
            )
            _print_similarity_split(profile, indent="           ")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # Larger tables cost more per table than the WT profile's (paper:
    # 3.8 vs 2.2 ms) but remain in the millisecond range.
    assert rows["5-tuple"][0] > rows["1-tuple"][0]
    assert rows["1-tuple"][1] > 0.3
