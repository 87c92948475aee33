"""How the exact top-k scan's bound pass grows with the lake.

``VectorizedTableSearchEngine._candidate_bounds`` bounds every table
from the segment's entity -> tables postings: each query entity's top-m
most similar entities are exact, every other table gets the
``(m + 1)``-th similarity as a ceiling.  The dense pass it replaced
(kept as the test-only reference ``tests.test_kernel_bounds.dense_bounds``)
gathered every nnz entity of the lake through every query entity, so it
grew as O(lanes x nnz).

This bench builds ``repro.benchgen`` WT2015 lakes of 2k, 5k and 20k
tables (400, 1k and 4k with ``--quick``) and reports the in-process
bound-pass milliseconds per fresh five-tuple query for both, over the
whole lake, similarity rows warm (the ``entity_fresh_5t`` stream of
``benchmarks/perf``, in process).  It gates

* both passes agree: postings bounds ``>=`` dense bounds, signals
  bit-equal;
* the postings pass takes <= 1.5 ms per query at 2k tables (full scale
  only);
* its growth from the smallest to the largest lake is below the dense
  pass's.

On the same lakes it records where the LSH prefilter (Section 6) stands
against the exact scan — the crossover the prefilter must beat to earn
its approximation.  Per lake size and for fresh one- and five-tuple
queries: the median prefilter read and exact read (``Thetis.search``,
``k=10``, disjoint query halves so neither finds rows the other
memoized), the shortlist's share of the lake, and the prefilter's
recall@10 against the exact ranking.  Nothing is gated on it.

The report is written to ``BENCH_bounds.json``.
"""

import json
import statistics
import time

import numpy as np

from benchmarks.bench_batch_kernel import SCAN_SEED, _fresh_five_tuple_queries
from benchmarks.conftest import SEED, print_header
from repro import Thetis
from repro.benchgen import QueryGenerator, WT2015_PROFILE, build_benchmark
from repro.eval.metrics import recall_at_k
from tests.test_kernel_bounds import dense_bounds

REPORT_PATH = "BENCH_bounds.json"
SIZES = (2000, 5000, 20000)
QUICK_SIZES = (400, 1000, 4000)
QUERIES = 48
ROUNDS = 3
MAX_POSTINGS_MS = 1.5
#: Fresh queries per timed half of the prefilter-vs-exact block, and
#: the cut-off both reads ask for.
CROSSOVER_QUERIES = 40
CROSSOVER_K = 10


def _per_query_ms(bound_pass, queries):
    """Best-of-``ROUNDS`` mean milliseconds of ``bound_pass`` per query."""
    best = np.inf
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for tuples in queries:
            bound_pass(tuples)
        best = min(best, (time.perf_counter() - start) / len(queries))
    return best * 1e3


def _fresh_one_tuple_queries(bench, count):
    """``count`` one-tuple queries, no tuple seen twice."""
    pool = QueryGenerator(bench.world, seed=SCAN_SEED).generate(2 * count)
    seen = set()
    kept = []
    for query in pool.one_tuple.values():
        if query.tuples[0] not in seen:
            seen.add(query.tuples[0])
            kept.append(query)
    return kept[:count]


def _timed_reads(thetis, queries, mode):
    """Per-query milliseconds of ``Thetis.search`` in ``mode``."""
    times = []
    for query in queries:
        start = time.perf_counter()
        thetis.search(query, k=CROSSOVER_K, mode=mode)
        times.append((time.perf_counter() - start) * 1e3)
    return times


def _crossover(bench, thetis, kind, queries):
    """One prefilter-vs-exact row: fresh ``queries`` split in halves.

    The last query warms both paths untimed.
    """
    for mode in ("prefilter", "exact"):
        thetis.search(queries[-1], k=CROSSOVER_K, mode=mode)
    half = (len(queries) - 1) // 2
    filtered, exact_only = queries[:half], queries[half:2 * half]
    prefilter_ms = _timed_reads(thetis, filtered, "prefilter")
    exact_ms = _timed_reads(thetis, exact_only, "exact")
    prefilter = thetis.prefilter()
    recalls, shares = [], []
    for query in filtered:
        approx = thetis.search(query, k=CROSSOVER_K, mode="prefilter")
        exact = thetis.search(query, k=CROSSOVER_K)
        gains = {tid: exact.score_of(tid) for tid in exact.table_ids()}
        recalls.append(recall_at_k(approx.table_ids(), gains, CROSSOVER_K))
        shares.append(
            len(prefilter.candidate_tables(query)) / len(bench.lake)
        )
    return {
        "tables": len(bench.lake),
        "queries": kind,
        "timed_per_mode": half,
        "prefilter_ms": statistics.median(prefilter_ms),
        "exact_ms": statistics.median(exact_ms),
        "shortlist_share": statistics.mean(shares),
        "recall_at_10": statistics.mean(recalls),
    }


def _measure(tables):
    bench = build_benchmark(
        WT2015_PROFILE, num_tables=tables, num_query_pairs=2, seed=SEED
    )
    five_tuple = _fresh_five_tuple_queries(
        bench, QUERIES + 2 * CROSSOVER_QUERIES + 1
    )
    queries = [
        list(dict.fromkeys(query.tuples)) for query in five_tuple[:QUERIES]
    ]
    with Thetis(bench.lake, bench.graph, bench.mapping,
                engine_kind="vectorized") as thetis:
        engine = thetis.engine("types")
        engine.prepare()
        engine.compact()
        index = engine.index()
        (segment,) = index.segments
        positions = index.layout().positions(
            None, linked_only=engine.drop_irrelevant
        )
        profile = engine.profile
        for tuples in queries:
            segment.lane_rows(tuples, profile)
            bounds, signals = engine._candidate_bounds(
                segment, tuples, positions, profile
            )
            dense, dense_signals = dense_bounds(
                engine, segment, tuples, positions
            )
            assert np.all(bounds >= dense)
            assert np.array_equal(signals, dense_signals)
        postings_ms = _per_query_ms(
            lambda tuples: engine._candidate_bounds(
                segment, tuples, positions, profile
            ),
            queries,
        )
        dense_ms = _per_query_ms(
            lambda tuples: dense_bounds(engine, segment, tuples, positions),
            queries,
        )
        thetis.prefilter()
        crossover = [
            _crossover(bench, thetis, "1-tuple", _fresh_one_tuple_queries(
                bench, 2 * CROSSOVER_QUERIES + 1
            )),
            _crossover(bench, thetis, "5-tuple", five_tuple[QUERIES:]),
        ]
        return crossover, {
            "tables": tables,
            "entities": segment.num_entities,
            "nnz": int(segment.nnz_gids.size),
            "postings": int(segment.postings().tables.size),
            "lanes_per_query": float(np.mean(
                [sum(len(t) for t in tuples) for tuples in queries]
            )),
            "postings_ms": postings_ms,
            "dense_ms": dense_ms,
        }


def test_bound_pass_scaling(request, benchmark):
    quick = request.config.getoption("--quick")
    sizes = QUICK_SIZES if quick else SIZES

    def run():
        return [_measure(tables) for tables in sizes]

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [row for _, row in measured]
    crossover = [entry for entries, _ in measured for entry in entries]
    first, last = rows[0], rows[-1]
    report = {
        "queries": QUERIES,
        "rows": rows,
        "postings_growth": last["postings_ms"] / first["postings_ms"],
        "dense_growth": last["dense_ms"] / first["dense_ms"],
        "prefilter_vs_exact": crossover,
    }

    print_header("Bound pass per fresh five-tuple query (whole lake, warm rows)")
    print(f"  {'tables':>7} {'entities':>8} {'nnz':>8} "
          f"{'postings ms':>12} {'dense ms':>9}")
    for row in rows:
        print(f"  {row['tables']:>7} {row['entities']:>8} {row['nnz']:>8} "
              f"{row['postings_ms']:>12.3f} {row['dense_ms']:>9.3f}")
    print(f"  growth {first['tables']} -> {last['tables']}: postings "
          f"{report['postings_growth']:.1f}x, dense "
          f"{report['dense_growth']:.1f}x")
    print_header(f"Prefilter vs exact read (k={CROSSOVER_K}, fresh queries, "
                 f"median ms)")
    print(f"  {'tables':>7} {'queries':>8} {'prefilter':>10} {'exact':>7} "
          f"{'ratio':>6} {'shortlist':>10} {'recall@10':>10}")
    for row in crossover:
        print(f"  {row['tables']:>7} {row['queries']:>8} "
              f"{row['prefilter_ms']:>10.2f} {row['exact_ms']:>7.2f} "
              f"{row['prefilter_ms'] / row['exact_ms']:>6.2f} "
              f"{row['shortlist_share']:>10.1%} {row['recall_at_10']:>10.3f}")
    with open(REPORT_PATH, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2)
    print(f"  report -> {REPORT_PATH}")

    if not quick:
        assert first["postings_ms"] <= MAX_POSTINGS_MS, first
    assert report["postings_growth"] < report["dense_growth"], report
