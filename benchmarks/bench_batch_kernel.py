"""``search_batch`` on the kernel: dedup fan-out, pruned top-k scan.

``VectorizedTableSearchEngine.search_batch`` answers identical queries
of a batch once, a k-limited job by one bound-ordered,
early-terminating scan, and a full-ranking job (``k=None``) by scoring
all its candidates.  Two benches:

``test_batch_dedup`` replays a batch of 8 mixed-width full-ranking
queries on a warm engine, once with 8 distinct queries and once with
only 2, and gates

* the rankings of one ``search_batch`` call at **exact** equality with
  the equivalent ``search`` loop (the contract is bit-identity, not a
  tolerance);
* the canonical-dedup fan-out: scoring 2 jobs is not slower than 8.

``test_exact_scan_speedup`` sends never-repeated five-tuple queries at
``k=10`` and gates the scan at >= 2x the full pass truncated to ``k``,
bit-identical rankings, and at most a quarter of the live tables
scored.  It prints both sides of that ratio (the full pass runs the
same verify kernel, so it speeds up too) and, from a cold engine
replaying the scan queries, the per-query split of the scan: the bound
pass, and the verify pass as relevance (selection gather,
``bincount``, column maxima), assignment and Eq. 2 tail.  The split
is recorded, not gated.

The reports fold into ``BENCH_kernel.json`` under the ``batch`` and
``scan`` keys (scripts/ci.sh runs this with ``--quick``).
"""

import time
from collections import defaultdict
from unittest import mock

import pytest

from benchmarks.bench_kernel_speedup import (
    REPORT_PATH,
    VectorizedTableSearchEngine,
    _build,
    _max_delta,
    _queries,
)
from benchmarks.conftest import print_header
from benchmarks.serve_loadgen import record
from repro.benchgen import QueryGenerator
from repro.core.kernel import BatchStats, PrefilterStats
from repro.core.kernel import engine as engine_module

BATCH_SIZE = 8
ROUNDS = 5
#: Full rankings: a k-limited repeat is a result-memo hit, which would
#: leave the dedup nothing to save.
K = None

SCAN_K = 10
SCAN_QUERIES = 24
SCAN_SEED = 23
REQUIRED_SCAN_SPEEDUP = 2.0
MAX_SCORED_SHARE = 0.25


def _batch_queries(bench):
    """8 distinct mixed-width queries (one-tuple and five-tuple)."""
    queries = _queries(bench)
    if len(queries) < BATCH_SIZE:
        pytest.skip(f"corpus provides only {len(queries)} queries")
    return queries[:BATCH_SIZE]


def _timed_batched(engine, queries, rounds, batch_stats=None):
    rankings = []
    start = time.perf_counter()
    for _ in range(rounds):
        rankings = engine.search_batch(
            queries, k=K, batch_stats=batch_stats
        )
    return rankings, (time.perf_counter() - start) / rounds


def test_batch_dedup(wt_bench, wt_thetis, benchmark):
    queries = _batch_queries(wt_bench)

    def run():
        engine = _build(VectorizedTableSearchEngine, wt_thetis, "types")
        # Warm: index compilation and the similarity-row memo are
        # steady-state costs of repeated full-ranking traffic, not
        # part of the comparison.
        engine.search_batch(queries, k=K)
        looped_rankings = [engine.search(query, k=K) for query in queries]
        stats = BatchStats()
        batched_rankings, batched_seconds = _timed_batched(
            engine, queries, ROUNDS, batch_stats=stats
        )
        # Dedup fan-out: 8 slots, 2 distinct queries -> 2 scored jobs.
        dedup_batch = [queries[index % 2] for index in range(BATCH_SIZE)]
        engine.search_batch(dedup_batch, k=K)
        _, dedup_seconds = _timed_batched(engine, dedup_batch, ROUNDS)
        return {
            "batch_size": BATCH_SIZE,
            "k": K,
            "rounds": ROUNDS,
            "batched_seconds_per_batch": batched_seconds,
            "dedup_seconds_per_batch": dedup_seconds,
            "dedup_speedup": batched_seconds / dedup_seconds,
            "queries_per_batched_pass":
                stats.as_dict()["queries_per_batched_pass"],
            "max_score_delta": _max_delta(
                looped_rankings, batched_rankings
            ),
            "bit_identical": all(
                [(s.score, s.table_id) for s in looped]
                == [(s.score, s.table_id) for s in batched]
                for looped, batched in zip(
                    looped_rankings, batched_rankings
                )
            ),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        f"search_batch dedup fan-out "
        f"({len(wt_bench.lake)} tables, batch size {BATCH_SIZE})"
    )
    print(f"  batched {report['batched_seconds_per_batch'] * 1e3:8.2f}"
          f" ms/batch")
    print(f"  dedup   {report['dedup_seconds_per_batch'] * 1e3:8.2f}"
          f" ms/batch   -> {report['dedup_speedup']:5.2f}x"
          f"  (2 distinct of {BATCH_SIZE})")
    print(f"  max score delta {report['max_score_delta']:.3e}")

    record(REPORT_PATH, "batch", report)

    # The contract is bit-identity, not a tolerance: a batched job is
    # the same arithmetic in the same order.
    assert report["bit_identical"], (
        f"batched ranking diverged (max delta "
        f"{report['max_score_delta']:.3e})"
    )
    # Dedup can only help: scoring 2 jobs must not be slower than 8.
    assert report["dedup_seconds_per_batch"] <= \
        report["batched_seconds_per_batch"] * 1.25


def _fresh_five_tuple_queries(bench, count):
    """``count`` five-tuple queries that repeat no tuple, ever.

    The generator samples tuples with replacement, so a query is kept
    only if its tuples are mutually distinct and unseen in every query
    kept before it — the ``entity_fresh_5t`` stream of
    ``benchmarks/perf``, in process.
    """
    pool = QueryGenerator(bench.world, seed=SCAN_SEED).generate(8 * count)
    seen = set()
    kept = []
    for query in pool.five_tuple.values():
        tuples = set(query.tuples)
        if len(tuples) == len(query.tuples) and not tuples & seen:
            seen |= tuples
            kept.append(query)
    if len(kept) < count:
        pytest.skip(f"pool provides only {len(kept)} fresh queries")
    return kept[:count]


def _timer(spent, stage, function):
    """``function``, adding its wall seconds to ``spent[stage]``."""
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start
    return timed


def _scan_split(engine, queries):
    """Per-query milliseconds of the scan's stages, on a cold engine.

    The bound pass is ``_lake_bounds``; the verify pass is
    ``_segment_tuples``, of which assignment is ``_assign_pairs``, the
    tail is ``weighted_distances``, and relevance is the rest.
    """
    spent = defaultdict(float)
    with mock.patch.object(
        engine_module, "_assign_pairs",
        _timer(spent, "assignment", engine_module._assign_pairs),
    ), mock.patch.object(
        engine_module, "weighted_distances",
        _timer(spent, "tail", engine_module.weighted_distances),
    ):
        for stage, name in (("bound", "_lake_bounds"),
                            ("verify", "_segment_tuples")):
            setattr(engine, name, _timer(spent, stage, getattr(engine, name)))
        for query in queries:
            engine.search_batch([query], k=SCAN_K)
    split = {stage: 1e3 * spent[stage] / len(queries)
             for stage in ("bound", "verify", "assignment", "tail")}
    split["relevance"] = (
        split["verify"] - split["assignment"] - split["tail"]
    )
    return split


def test_exact_scan_speedup(wt_bench, wt_thetis, benchmark):
    queries = _fresh_five_tuple_queries(wt_bench, 2 * SCAN_QUERIES)
    lake_ids = wt_bench.lake.table_ids()

    def run():
        engine = _build(VectorizedTableSearchEngine, wt_thetis, "types")
        engine.prepare()
        # Disjoint halves, so neither path finds a tuple the other one
        # memoized; the rankings compared below come from a third pass.
        scan_set, full_set = queries[:SCAN_QUERIES], queries[SCAN_QUERIES:]
        start = time.perf_counter()
        for query in scan_set:
            engine.search_batch([query], k=SCAN_K)
        scan_seconds = (time.perf_counter() - start) / SCAN_QUERIES
        start = time.perf_counter()
        for query in full_set:
            engine.search_batch([query], k=None)[0].top(SCAN_K)
        full_seconds = (time.perf_counter() - start) / SCAN_QUERIES
        # The whole lake as an explicit candidate list is the same scan
        # with its counters exposed (and no result memo in the way).
        stats = PrefilterStats()
        scanned = engine.search_batch(
            queries, k=SCAN_K, candidates=[lake_ids] * len(queries),
            stats=stats,
        )
        truncated = [
            ranking.top(SCAN_K)
            for ranking in engine.search_batch(queries, k=None)
        ]
        counters = stats.as_dict()
        split_engine = _build(VectorizedTableSearchEngine, wt_thetis, "types")
        split_engine.prepare()
        split = _scan_split(split_engine, scan_set)
        return {
            "k": SCAN_K,
            "queries": SCAN_QUERIES,
            "scan_seconds_per_query": scan_seconds,
            "full_seconds_per_query": full_seconds,
            "scan_speedup": full_seconds / scan_seconds,
            "scored_share": (
                counters["mean_shortlist"] * counters["scored_fraction"]
                / len(lake_ids)
            ),
            "early_termination_rate": counters["early_termination_rate"],
            "split_ms_per_query": split,
            "bit_identical": all(
                [(s.score, s.table_id) for s in got]
                == [(s.score, s.table_id) for s in want]
                for got, want in zip(scanned, truncated)
            ),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        f"Pruned top-{SCAN_K} scan vs full pass "
        f"({len(wt_bench.lake)} tables, fresh five-tuple queries)"
    )
    print(f"  full  {report['full_seconds_per_query'] * 1e3:8.2f} ms/query")
    print(f"  scan  {report['scan_seconds_per_query'] * 1e3:8.2f} ms/query"
          f"   -> {report['scan_speedup']:5.2f}x")
    print(f"  scored share {report['scored_share']:.3f} of live tables, "
          f"early termination {report['early_termination_rate']:.2f}")
    split = report["split_ms_per_query"]
    print(f"  scan split, ms/query: bound {split['bound']:.2f}, verify "
          f"{split['verify']:.2f} (relevance {split['relevance']:.2f}, "
          f"assignment {split['assignment']:.2f}, "
          f"tail {split['tail']:.2f})")

    record(REPORT_PATH, "scan", report)

    assert report["bit_identical"], "scan ranking diverged from full pass"
    assert report["scan_speedup"] >= REQUIRED_SCAN_SPEEDUP, (
        f"scan speedup {report['scan_speedup']:.2f}x < "
        f"{REQUIRED_SCAN_SPEEDUP}x at k={SCAN_K}"
    )
    assert report["scored_share"] <= MAX_SCORED_SHARE, (
        f"scan scored {report['scored_share']:.2f} of the lake "
        f"(> {MAX_SCORED_SHARE})"
    )
