"""Vectorized scoring kernel vs the scalar engine: speedup + parity.

Scores the Table 3 benchmark lake (the WT2015-profile corpus behind
Section 7.3) twice per similarity method — once with the scalar
per-cell engine, once with the vectorized kernel — on single-worker
brute-force search, and reports:

* the *cold* speedup: fresh engines, empty caches; the vectorized side
  pays its corpus-index compilation inside the measured window.  This
  is the Section 7.3 first-query cost the kernel attacks, and the
  headline assertion requires >= 5x;
* the *warm* speedup: the same engines re-running the same queries, so
  the scalar engine answers from its persistent similarity cache and
  the kernel from its row memo — the steady-state comparison;
* the max per-table score delta between the two engines across every
  query (must stay within the 1e-9 parity budget).

The report is folded into ``BENCH_kernel.json`` in the working
directory (scripts/ci.sh runs this with ``--quick``).
"""

import time

import pytest

from benchmarks.conftest import print_header
from benchmarks.serve_loadgen import record
from repro.core.kernel import VectorizedTableSearchEngine
from repro.core.search import TableSearchEngine

TOLERANCE = 1e-9
REQUIRED_COLD_SPEEDUP = 5.0

#: Segmented-index gates (--incremental): a single-table add must beat
#: a full recompile by this factor, and a memmap cold start must beat
#: compile-from-scratch by this factor.
REQUIRED_ADD_SPEEDUP = 20.0
REQUIRED_LOAD_SPEEDUP = 5.0

REPORT_PATH = "BENCH_kernel.json"


def _queries(bench):
    return (
        list(bench.queries.one_tuple.values())
        + list(bench.queries.five_tuple.values())
    )


def _build(engine_cls, thetis, method):
    """A fresh, cold engine sharing the corpus and sigma of ``thetis``."""
    reference = thetis.engine(method)
    return engine_cls(
        thetis.lake,
        thetis.mapping,
        reference.sigma,
        informativeness=thetis.informativeness,
        row_aggregation=thetis.row_aggregation,
        query_aggregation=thetis.query_aggregation,
    )


def _timed_search(engine, queries):
    """Full brute-force rankings for every query, plus wall seconds."""
    rankings = []
    start = time.perf_counter()
    for query in queries:
        rankings.append(engine.search(query, k=None))
    return rankings, time.perf_counter() - start


def _max_delta(scalar_rankings, vector_rankings):
    """Largest per-table score difference across all rankings."""
    worst = 0.0
    for a, b in zip(scalar_rankings, vector_rankings):
        scores_a = {s.table_id: s.score for s in a}
        scores_b = {s.table_id: s.score for s in b}
        for table_id in scores_a.keys() | scores_b.keys():
            delta = abs(
                scores_a.get(table_id, 0.0) - scores_b.get(table_id, 0.0)
            )
            worst = max(worst, delta)
    return worst


def test_kernel_speedup(wt_bench, wt_thetis, benchmark):
    queries = _queries(wt_bench)

    def run():
        report = {}
        for method in ("types", "embeddings"):
            scalar = _build(TableSearchEngine, wt_thetis, method)
            vector = _build(VectorizedTableSearchEngine, wt_thetis, method)
            scalar_rankings, scalar_cold = _timed_search(scalar, queries)
            vector_rankings, vector_cold = _timed_search(vector, queries)
            _, scalar_warm = _timed_search(scalar, queries)
            _, vector_warm = _timed_search(vector, queries)
            report[method] = {
                "scalar_cold_seconds": scalar_cold,
                "vectorized_cold_seconds": vector_cold,
                "scalar_warm_seconds": scalar_warm,
                "vectorized_warm_seconds": vector_warm,
                "cold_speedup": scalar_cold / vector_cold,
                "warm_speedup": scalar_warm / vector_warm,
                "max_score_delta": _max_delta(
                    scalar_rankings, vector_rankings
                ),
                "corpus_entities": vector.index().num_entities,
            }
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        f"Vectorized kernel vs scalar engine "
        f"({len(wt_bench.lake)} tables, {len(queries)} queries)"
    )
    for method, row in report.items():
        print(f"  {method}:")
        print(f"    scalar cold     {row['scalar_cold_seconds']:8.2f} s")
        print(f"    vectorized cold {row['vectorized_cold_seconds']:8.2f} s"
              f"   -> {row['cold_speedup']:6.1f}x")
        print(f"    scalar warm     {row['scalar_warm_seconds']:8.2f} s")
        print(f"    vectorized warm {row['vectorized_warm_seconds']:8.2f} s"
              f"   -> {row['warm_speedup']:6.1f}x")
        print(f"    max score delta {row['max_score_delta']:.3e}")

    for key, block in (("corpus_tables", len(wt_bench.lake)),
                       ("queries", len(queries)),
                       ("tolerance", TOLERANCE),
                       ("methods", report)):
        record(REPORT_PATH, key, block)

    for method, row in report.items():
        # Parity is the contract: the kernel is an optimization, not an
        # approximation.
        assert row["max_score_delta"] <= TOLERANCE, (
            f"{method}: parity broken ({row['max_score_delta']:.3e})"
        )
        # The headline claim: >= 5x on the cold brute-force pass, per
        # method, even with index compilation inside the window.
        assert row["cold_speedup"] >= REQUIRED_COLD_SPEEDUP, (
            f"{method}: cold speedup {row['cold_speedup']:.1f}x < "
            f"{REQUIRED_COLD_SPEEDUP}x"
        )
        # Warm steady state must never regress behind the scalar cache.
        assert row["warm_speedup"] >= 1.0, (
            f"{method}: warm regression {row['warm_speedup']:.2f}x"
        )


def test_incremental_index_speedup(wt_bench, wt_thetis, benchmark,
                                   tmp_path, request):
    """O(delta) updates and zero-copy cold start vs full recompiles.

    Three timings over the Table 3 corpus with the types sigma:

    * ``full_compile``: ``SegmentedCorpusIndex.compile`` over the whole
      lake — the cost every ``add_table`` paid before segmentation;
    * ``single_add``: mean ``with_table`` on the compiled index — one
      single-table segment append plus a tombstone (gate: >= 20x
      cheaper than the recompile);
    * ``memmap_load``: ``load_index`` of the persisted index — header
      validation plus memmap setup, no array materialization (gate:
      >= 5x cheaper than compile-from-scratch).

    Parity rides along: the loaded index must rank bit-identically to
    a freshly compiled one (type Jaccard is integer popcount work).
    """
    if not request.config.getoption("--incremental"):
        pytest.skip("segmented-index bench runs only with --incremental")
    from repro.core.kernel import (
        SegmentedCorpusIndex,
        load_index,
        save_index,
    )

    lake, mapping = wt_bench.lake, wt_bench.mapping
    sigma = wt_thetis.engine("types").sigma
    queries = _queries(wt_bench)
    add_samples = [lake.get(tid) for tid in lake.table_ids()[:8]]

    def run():
        start = time.perf_counter()
        index = SegmentedCorpusIndex.compile(lake, mapping, sigma)
        full_compile = time.perf_counter() - start

        start = time.perf_counter()
        for table in add_samples:
            index.with_table(table)
        single_add = (time.perf_counter() - start) / len(add_samples)

        index_dir = str(tmp_path / "bench-index")
        save_index(index, index_dir)
        start = time.perf_counter()
        loaded = load_index(index_dir, sigma, mapping)
        memmap_load = time.perf_counter() - start

        return {
            "corpus_tables": len(lake),
            "full_compile_seconds": full_compile,
            "single_add_seconds": single_add,
            "memmap_load_seconds": memmap_load,
            "add_speedup": full_compile / single_add,
            "load_speedup": full_compile / memmap_load,
        }, index, loaded

    report, index, loaded = benchmark.pedantic(run, rounds=1, iterations=1)

    # Parity: the persisted index serves the exact rankings of the
    # in-memory one (bit-exact for the integer type-Jaccard kernel).
    compiled_engine = _build(VectorizedTableSearchEngine, wt_thetis, "types")
    compiled_engine.adopt_index(index)
    loaded_engine = _build(VectorizedTableSearchEngine, wt_thetis, "types")
    loaded_engine.adopt_index(loaded)
    parity_queries = queries[:4]
    compiled_rankings = [
        compiled_engine.search(q, k=None) for q in parity_queries
    ]
    loaded_rankings = [
        loaded_engine.search(q, k=None) for q in parity_queries
    ]
    report["max_score_delta"] = _max_delta(compiled_rankings, loaded_rankings)

    print_header(
        f"Segmented index: incremental update + memmap cold start "
        f"({len(lake)} tables)"
    )
    print(f"  full compile    {report['full_compile_seconds'] * 1e3:9.2f} ms")
    print(f"  single add      {report['single_add_seconds'] * 1e3:9.2f} ms"
          f"   -> {report['add_speedup']:7.1f}x")
    print(f"  memmap load     {report['memmap_load_seconds'] * 1e3:9.2f} ms"
          f"   -> {report['load_speedup']:7.1f}x")
    print(f"  max score delta {report['max_score_delta']:.3e}")

    record(REPORT_PATH, "incremental", report)

    assert report["max_score_delta"] == 0.0, (
        f"persisted-index parity broken ({report['max_score_delta']:.3e})"
    )
    assert report["add_speedup"] >= REQUIRED_ADD_SPEEDUP, (
        f"single-table add only {report['add_speedup']:.1f}x faster than a "
        f"full recompile (< {REQUIRED_ADD_SPEEDUP}x)"
    )
    assert report["load_speedup"] >= REQUIRED_LOAD_SPEEDUP, (
        f"memmap cold start only {report['load_speedup']:.1f}x faster than "
        f"compile-from-scratch (< {REQUIRED_LOAD_SPEEDUP}x)"
    )
