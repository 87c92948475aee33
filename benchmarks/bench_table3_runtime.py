"""Table 3: search runtime per LSH configuration and vote threshold.

Regenerates the paper's Table 3: wall-clock runtime of semantic table
search without prefiltering (STST/STSE) and with each LSH configuration
at vote thresholds 1 and 3, on 1-tuple and 5-tuple queries.

Paper shape to reproduce:
* every type-LSH configuration is much faster than brute force (up to
  17x in the paper);
* embedding-LSH reduces less and is therefore slower than type-LSH;
* 3 votes is at least as fast as 1 vote;
* (30, 10) is the best or near-best configuration.

Beyond the paper's table, ``test_table3_persistent_cache_speedup``
measures the caching layer this repo adds on top: sequential search
with the seed's per-query similarity memo vs sequential search over the
persistent similarity cache at steady state.
"""

import time

import pytest

from benchmarks.conftest import print_header
from repro.lsh import LSHConfig

LSH_CONFIGS = (LSHConfig(32, 8), LSHConfig(128, 8), LSHConfig(30, 10))


def _mean_runtime(thetis, queries, method, config=None, votes=1):
    total = 0.0
    for query in queries:
        start = time.perf_counter()
        if config is None:
            thetis.search(query, k=10, method=method)
        else:
            thetis.search(query, k=10, method=method, mode="prefilter",
                          lsh_config=config, votes=votes)
        total += time.perf_counter() - start
    return total / len(queries)


def test_table3_runtime(wt_bench, wt_thetis, benchmark):
    def run():
        rows = {}
        for subset, queries in (
            ("1-tuple", list(wt_bench.queries.one_tuple.values())),
            ("5-tuple", list(wt_bench.queries.five_tuple.values())),
        ):
            row = {
                "STST": _mean_runtime(wt_thetis, queries, "types"),
                "STSE": _mean_runtime(wt_thetis, queries, "embeddings"),
            }
            for votes in (1, 3):
                for config in LSH_CONFIGS:
                    row[f"T{config} v{votes}"] = _mean_runtime(
                        wt_thetis, queries, "types", config, votes
                    )
                    row[f"E{config} v{votes}"] = _mean_runtime(
                        wt_thetis, queries, "embeddings", config, votes
                    )
            rows[subset] = row
        print_header("Table 3 - mean per-query runtime (seconds)")
        for subset, row in rows.items():
            print(f"  {subset} queries:")
            for name, seconds in row.items():
                print(f"    {name:<18} {seconds * 1000:8.1f} ms")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for subset, row in rows.items():
        brute_types = row["STST"]
        for config in LSH_CONFIGS:
            for votes in (1, 3):
                # Type-LSH prefiltering must beat brute force clearly.
                assert row[f"T{config} v{votes}"] < brute_types, (
                    f"{subset} T{config} v{votes} not faster"
                )
        # 3 votes filters at least as hard as 1 vote (allow 20% noise).
        assert row[f"T{LSHConfig(30, 10)} v3"] <= \
            1.2 * row[f"T{LSHConfig(30, 10)} v1"]

    # Speedup headline (paper: up to 17x with types).
    speedup = rows["5-tuple"]["STST"] / rows["5-tuple"][
        f"T{LSHConfig(30, 10)} v3"
    ]
    print(f"\n  headline speedup (types, (30,10), 3 votes, 5-tuple): "
          f"{speedup:.1f}x")
    assert speedup > 2.0


def test_table3_persistent_cache_speedup(wt_bench, wt_thetis, benchmark):
    """Sequential search: per-query memo vs the persistent warm cache.

    Uses the embeddings engine: cosine similarity is the expensive
    sigma (one numpy reduction per entity pair), so it is where the
    Section 7.3 similarity cost — and hence the cache's amortization —
    actually shows up in wall-clock time.
    """
    engine = wt_thetis.engine("embeddings")
    queries = (
        list(wt_bench.queries.one_tuple.values())
        + list(wt_bench.queries.five_tuple.values())
    )

    def phase_sequential_percall():
        # The seed engine's behavior: the similarity memo is dropped
        # before every query, so each query re-pays the full Section
        # 7.3 similarity cost.
        start = time.perf_counter()
        for query in queries:
            engine.similarity_cache.clear()
            engine.search(query, k=10)
        return time.perf_counter() - start

    def phase_sequential_persistent():
        start = time.perf_counter()
        for query in queries:
            engine.search(query, k=10)
        return time.perf_counter() - start

    def run():
        # Warm the table-view caches once so both phases measure
        # scoring cost, not grid construction.
        engine.search(queries[0], k=10)

        # Interleave the phases and keep the per-phase minimum: single
        # back-to-back timings on a shared box flip on scheduler noise,
        # while minima of alternating reps compare best-case to
        # best-case.  Phase A clears the cache per query (seed
        # behavior); phase B is the steady state of the persistent
        # cache, warmed by its own first pass.
        percall_times, persistent_times = [], []
        for _ in range(3):
            percall_times.append(phase_sequential_percall())
            # Phase A's per-query clears emptied the shared cache;
            # re-warm so phase B measures steady state.
            engine.similarity_cache.clear()
            engine.similarity_cache.reset_stats()
            engine.profile.reset()
            phase_sequential_persistent()
            persistent_times.append(phase_sequential_persistent())

        sequential_percall = min(percall_times)
        sequential_persistent = min(persistent_times)
        stats = engine.cache_stats()["similarity"]
        speedup = sequential_percall / sequential_persistent
        print_header("Table 3 extension - persistent similarity cache")
        print(f"  queries                          {len(queries)}")
        print(f"  sequential, per-query memo       "
              f"{sequential_percall * 1000:8.1f} ms")
        print(f"  sequential, persistent cache     "
              f"{sequential_persistent * 1000:8.1f} ms")
        print(f"  speedup                          {speedup:8.2f}x")
        print(f"  similarity cache                 {stats.format_row()}")
        print(f"  profile hit rate                 "
              f"{engine.profile.similarity_hit_rate:5.1%}")
        return speedup, stats.hit_rate

    speedup, hit_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    # The persistent cache must beat the seed's per-query-memo search.
    assert speedup > 1.0
    assert hit_rate > 0.5
