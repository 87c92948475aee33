"""Vectorized union/join kernels vs scalar baselines: speedup + parity.

Two experiments over the Table 3 benchmark corpus:

* ``test_union_join_kernel_speedup`` — builds each scalar baseline and
  its vectorized counterpart, checks full-ranking parity, then times
  ranked retrieval (``k=10``, the serving shape) per query and through
  ``search_batch``.  Index build time is reported separately: both
  sides pay a one-time column-encoding pass, and folding it into the
  per-query window would only measure that shared constant.  Gates:

  - identical rankings with scores within 1e-9 for every variant;
  - union x {types, embeddings}: >= 5x sequential speedup — the
    scalar union baseline runs a pure-Python Hungarian assignment per
    table, which the kernel replaces with corpus-wide enumeration;
  - union x {types, embeddings}: the ``k=10`` scan (filter by a
    per-table bound, verify by the exact assignment, stop early) equals
    the full ranking truncated to ``k``, ids and scores bit for bit,
    and at full scale verifies at most ``MAX_UNION_VERIFIED_SHARE`` of
    the lake's tables per query (``--quick`` records the share only);
  - join x {containment, jaccard}: >= 1x batched speedup (a
    no-regression floor).  The scalar join baseline is already
    sublinear — a dict-postings probe touching only candidate
    columns, microseconds per query on entity-label value sets — so
    there is no per-table Python loop to vectorize away; the
    kernel's value for join is uniform task serving (shard
    restriction, batched lanes) at bit parity.  Measured speedups
    (~1.5x sequential, ~1.5-4.5x batched, growing with corpus size)
    are recorded honestly rather than gated at a bar the baseline's
    own efficiency makes unreachable.

* ``test_union_join_derive_speedup`` — the O(delta) mutation path:
  one table's ``without_table`` + ``with_table`` on each task's
  segmented index (a tombstone and a one-table segment) against a cold
  compile of the whole lake.  Gate: the derive pair is >= 20x cheaper
  than the compile (the bar the entity index's single add is held to),
  and the derived index ranks bit for bit like the cold one.

* ``test_union_join_segment_costs`` — records, without a time gate,
  the derive pair at the smallest and largest ``bench_bound_scaling``
  lake sizes, and the union / join read cost over one segment against
  seven (one big, three of four tables, three of one table, as a lake
  looks between compactions), checking the two rank alike.

* ``test_union_join_served_throughput`` — boots a real
  :class:`~repro.serve.server.ServerThread` and drives closed-loop
  load through ``POST /search`` with the ``task`` field set to
  ``union`` and ``join``, asserting served rankings match direct
  ``Thetis.search`` of the same task and recording throughput and
  latency percentiles.

Results land in ``BENCH_serve.json`` under ``"union_join"``
(scripts/ci.sh runs them all with ``--quick``).
"""

import time

from benchmarks.bench_bound_scaling import QUICK_SIZES, SIZES
from benchmarks.conftest import SEED, print_header
from benchmarks.serve_loadgen import (
    assert_parity,
    closed_loop,
    query_payloads,
    record,
    requests_for,
    summary,
)
from repro.baselines import JoinTableSearch, UnionTableSearch
from repro.benchgen import WT2015_PROFILE, build_benchmark
from repro.core.kernel import (
    PrefilterStats,
    SegmentedCorpusIndex,
    VectorizedJoinSearchEngine,
    VectorizedUnionSearchEngine,
)
from repro.serve import ServeConfig, ServerThread
from repro.system import Thetis

TOLERANCE = 1e-9
REQUIRED_UNION_SPEEDUP = 5.0
REQUIRED_JOIN_BATCH_SPEEDUP = 1.0
REQUIRED_DERIVE_SPEEDUP = 20.0
MAX_UNION_VERIFIED_SHARE = 0.25
DERIVE_SAMPLES = 8
K_SERVE = 10
REPS = 3

CONCURRENCY = 6
TOTAL_REQUESTS = 240
QUICK_TOTAL_REQUESTS = 60

REPORT_PATH = "BENCH_serve.json"


def _queries(bench):
    return (
        list(bench.queries.one_tuple.values())
        + list(bench.queries.five_tuple.values())
    )


def _best_of(fn, reps=REPS):
    """Min-of-reps wall time: robust against scheduler noise."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _max_delta(scalar_rankings, vector_rankings):
    """Largest per-table score difference, plus an order check."""
    worst = 0.0
    for scalar_set, vector_set in zip(scalar_rankings, vector_rankings):
        scalar_ids = [s.table_id for s in scalar_set]
        vector_ids = [s.table_id for s in vector_set]
        assert scalar_ids == vector_ids, (
            f"ranking order diverged: {vector_ids[:3]} vs {scalar_ids[:3]}"
        )
        for scalar_entry, vector_entry in zip(scalar_set, vector_set):
            worst = max(
                worst, abs(scalar_entry.score - vector_entry.score)
            )
    return worst


def _scan_report(vector, queries, full_rankings, tables):
    """Scan-vs-full bit equality and the share of the lake verified."""
    stats = PrefilterStats()
    bit_equal = all(
        [(s.table_id, s.score) for s in
         vector.search_batch([query], k=K_SERVE, stats=stats)[0]]
        == [(s.table_id, s.score) for s in full][:K_SERVE]
        for query, full in zip(queries, full_rankings)
    )
    summary = stats.as_dict()
    return {
        "scan_bit_equal": bit_equal,
        "scan_verified_share": (
            summary["scored_fraction"] * summary["mean_shortlist"] / tables
        ),
    }


def test_union_join_kernel_speedup(wt_bench, wt_thetis, benchmark, request):
    quick = request.config.getoption("--quick")
    queries = _queries(wt_bench)
    lake, graph, mapping = wt_bench.lake, wt_bench.graph, wt_bench.mapping
    store = wt_thetis.embeddings

    variants = [
        (
            "union_types",
            lambda: UnionTableSearch(lake, mapping, graph=graph),
            lambda: VectorizedUnionSearchEngine(lake, mapping, graph=graph),
            False,
        ),
        (
            "union_embeddings",
            lambda: UnionTableSearch(
                lake, mapping, store=store, column_encoder="embeddings"
            ),
            lambda: VectorizedUnionSearchEngine(
                lake, mapping, store=store, column_encoder="embeddings"
            ),
            False,
        ),
        (
            "join_containment",
            lambda: JoinTableSearch(lake),
            lambda: VectorizedJoinSearchEngine(lake, graph),
            True,
        ),
        (
            "join_jaccard",
            lambda: JoinTableSearch(lake, mode="jaccard"),
            lambda: VectorizedJoinSearchEngine(lake, graph, mode="jaccard"),
            True,
        ),
    ]

    def run():
        report = {}
        for name, make_scalar, make_vector, scalar_join in variants:
            # Build both indexes (one-time, shared encoding work) and
            # force the lazy paths so the timed windows are pure search.
            start = time.perf_counter()
            scalar = make_scalar()
            scalar.search(queries[0], graph) if scalar_join else None
            scalar_build = time.perf_counter() - start
            start = time.perf_counter()
            vector = make_vector()
            vector.prepare()
            vector_build = time.perf_counter() - start

            # Parity on full rankings: the kernels are optimizations,
            # not approximations.
            if scalar_join:
                scalar_rankings = [
                    scalar.search(q, graph, k=None) for q in queries
                ]
            else:
                scalar_rankings = [
                    scalar.search(q, k=None) for q in queries
                ]
            vector_rankings = [vector.search(q, k=None) for q in queries]
            delta = _max_delta(scalar_rankings, vector_rankings)

            # Ranked retrieval at k=10, the shape every served request
            # takes: scalar loop vs kernel loop vs one stacked batch.
            if scalar_join:
                scalar_seconds = _best_of(lambda: [
                    scalar.search(q, graph, k=K_SERVE) for q in queries
                ])
            else:
                scalar_seconds = _best_of(lambda: [
                    scalar.search(q, k=K_SERVE) for q in queries
                ])
            vector_seconds = _best_of(lambda: [
                vector.search(q, k=K_SERVE) for q in queries
            ])
            batch_seconds = _best_of(
                lambda: vector.search_batch(queries, k=K_SERVE)
            )
            report[name] = {
                "scalar_build_seconds": scalar_build,
                "vectorized_build_seconds": vector_build,
                "scalar_search_seconds": scalar_seconds,
                "vectorized_search_seconds": vector_seconds,
                "vectorized_batch_seconds": batch_seconds,
                "sequential_speedup": scalar_seconds / vector_seconds,
                "batch_speedup": scalar_seconds / batch_seconds,
                "max_score_delta": delta,
            }
            if not scalar_join:
                report[name].update(_scan_report(
                    vector, queries, vector_rankings, len(lake)
                ))
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        f"Union/join kernels vs scalar baselines "
        f"({len(wt_bench.lake)} tables, {len(queries)} queries, "
        f"k={K_SERVE})"
    )
    for name, row in report.items():
        print(f"  {name}:")
        print(f"    build (scalar/vec) "
              f"{row['scalar_build_seconds']:7.2f} / "
              f"{row['vectorized_build_seconds']:.2f} s")
        print(f"    scalar search   {row['scalar_search_seconds']*1e3:8.1f} ms")
        print(f"    vec search      {row['vectorized_search_seconds']*1e3:8.1f} ms"
              f"   -> {row['sequential_speedup']:6.1f}x")
        print(f"    vec batch       {row['vectorized_batch_seconds']*1e3:8.1f} ms"
              f"   -> {row['batch_speedup']:6.1f}x")
        print(f"    max score delta {row['max_score_delta']:.3e}")
        if "scan_verified_share" in row:
            print(f"    scan verified   {row['scan_verified_share']:8.3f}"
                  f" of the lake per query, bit-equal to the full "
                  f"ranking: {row['scan_bit_equal']}")

    record(REPORT_PATH, "union_join.kernel", {
        "corpus_tables": len(wt_bench.lake),
        "queries": len(queries),
        "k": K_SERVE,
        "tolerance": TOLERANCE,
        "required_union_speedup": REQUIRED_UNION_SPEEDUP,
        "required_join_batch_speedup": REQUIRED_JOIN_BATCH_SPEEDUP,
        "max_union_verified_share": MAX_UNION_VERIFIED_SHARE,
        "variants": report,
    })

    for name, row in report.items():
        assert row["max_score_delta"] <= TOLERANCE, (
            f"{name}: parity broken ({row['max_score_delta']:.3e})"
        )
        if name.startswith("union"):
            assert row["sequential_speedup"] >= REQUIRED_UNION_SPEEDUP, (
                f"{name}: speedup {row['sequential_speedup']:.1f}x < "
                f"{REQUIRED_UNION_SPEEDUP}x"
            )
            assert row["scan_bit_equal"], (
                f"{name}: the top-k scan diverged from the full ranking"
            )
            if not quick:
                assert (
                    row["scan_verified_share"] <= MAX_UNION_VERIFIED_SHARE
                ), (
                    f"{name}: the scan verified "
                    f"{row['scan_verified_share']:.3f} of the lake "
                    f"(> {MAX_UNION_VERIFIED_SHARE})"
                )
        else:
            assert row["batch_speedup"] >= REQUIRED_JOIN_BATCH_SPEEDUP, (
                f"{name}: batched speedup {row['batch_speedup']:.1f}x "
                f"regressed below "
                f"{REQUIRED_JOIN_BATCH_SPEEDUP}x"
            )


def _index_bytes(index):
    return sum(segment.nbytes() for segment in index.segments)


def _derive_pair_seconds(index, samples):
    """Per-sample cost of tombstoning a table and re-adding it."""

    def derive_all():
        derived = index
        for table in samples:
            derived = derived.without_table(table.table_id).with_table(table)
        return derived

    return _best_of(derive_all) / len(samples), derive_all()


def test_union_join_derive_speedup(wt_bench, wt_thetis, benchmark):
    queries = _queries(wt_bench)
    lake, graph, mapping = wt_bench.lake, wt_bench.graph, wt_bench.mapping
    store = wt_thetis.embeddings
    samples = list(lake)[:DERIVE_SAMPLES]

    variants = [
        (
            "union_types",
            lambda: VectorizedUnionSearchEngine(lake, mapping, graph=graph),
        ),
        (
            "union_embeddings",
            lambda: VectorizedUnionSearchEngine(
                lake, mapping, store=store, column_encoder="embeddings"
            ),
        ),
        ("join", lambda: VectorizedJoinSearchEngine(lake, graph)),
    ]

    def run():
        report = {}
        for name, make_engine in variants:
            cold = make_engine()
            compile_seconds = _best_of(cold.prepare, reps=1)
            compiled = cold.index()
            derive_seconds, derived = _derive_pair_seconds(compiled, samples)
            derived_engine = make_engine()
            derived_engine.adopt_index(derived)
            delta = _max_delta(
                [cold.search(q, k=None) for q in queries],
                [derived_engine.search(q, k=None) for q in queries],
            )
            report[name] = {
                "compile_seconds": compile_seconds,
                "derive_pair_seconds": derive_seconds,
                "derive_speedup": compile_seconds / derive_seconds,
                "index_bytes": _index_bytes(compiled),
                "max_score_delta": delta,
            }
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        f"Task-index derive vs cold compile ({len(lake)} tables, "
        f"one without_table + with_table per sample)"
    )
    for name, row in report.items():
        print(f"  {name}:")
        print(f"    cold compile    {row['compile_seconds']*1e3:8.1f} ms")
        print(f"    derive pair     {row['derive_pair_seconds']*1e3:8.2f} ms"
              f"   -> {row['derive_speedup']:6.1f}x")
        print(f"    index size      {row['index_bytes']/1e6:8.2f} MB")
        print(f"    max score delta {row['max_score_delta']:.3e}")

    record(REPORT_PATH, "union_join.derive", {
        "corpus_tables": len(lake),
        "required_derive_speedup": REQUIRED_DERIVE_SPEEDUP,
        "variants": report,
    })

    for name, row in report.items():
        assert row["max_score_delta"] == 0.0, (
            f"{name}: derived index diverged from the cold compile "
            f"({row['max_score_delta']:.3e})"
        )
        assert row["derive_speedup"] >= REQUIRED_DERIVE_SPEEDUP, (
            f"{name}: derive is only {row['derive_speedup']:.1f}x cheaper "
            f"than a cold compile (< {REQUIRED_DERIVE_SPEEDUP}x)"
        )


def _seven_segments(engine):
    """The engine's lake as one big segment, three of four tables and
    three of one table."""
    tables = list(engine.lake)
    chunks = [tables[:-15]] + [
        tables[start:start + 4] for start in range(-15, -3, 4)
    ] + [[table] for table in tables[-3:]]
    segments = [engine._compile_segment(chunk) for chunk in chunks]
    return SegmentedCorpusIndex(
        segments, [frozenset()] * len(segments),
        ordinals=engine.lake.ordinals,
        compile_segment=engine._compile_segment,
    )


def _read_ms(engine, queries):
    """Per-query ms of a ``k=10`` read, min over ``REPS`` passes."""
    engine.search_batch(queries[:4], k=K_SERVE)
    return _best_of(lambda: [
        engine.search(query, k=K_SERVE) for query in queries
    ]) / len(queries) * 1e3


def test_union_join_segment_costs(request, benchmark):
    quick = request.config.getoption("--quick")
    sizes = QUICK_SIZES if quick else SIZES
    sizes = (sizes[0], sizes[-1])

    def run():
        report = {}
        for tables in sizes:
            bench = build_benchmark(
                WT2015_PROFILE, num_tables=tables, num_query_pairs=8,
                seed=SEED,
            )
            queries = _queries(bench)
            samples = list(bench.lake)[:DERIVE_SAMPLES]
            engines = {
                "union": VectorizedUnionSearchEngine(
                    bench.lake, bench.mapping, graph=bench.graph
                ),
                "join": VectorizedJoinSearchEngine(bench.lake, bench.graph),
            }
            for name, engine in engines.items():
                engine.prepare()
                derive_seconds, _ = _derive_pair_seconds(
                    engine.index(), samples
                )
                one = _read_ms(engine, queries)
                whole = [engine.search(q, k=K_SERVE) for q in queries]
                engine.adopt_index(_seven_segments(engine))
                seven = _read_ms(engine, queries)
                assert [
                    [(s.table_id, s.score) for s in engine.search(q, k=K_SERVE)]
                    for q in queries
                ] == [[(s.table_id, s.score) for s in r] for r in whole]
                report[f"{name}_{tables}"] = {
                    "tables": tables,
                    "derive_pair_ms": derive_seconds * 1e3,
                    "read_ms_1_segment": one,
                    "read_ms_7_segments": seven,
                }
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Union/join segment costs (types, containment; k=10)")
    for name, row in report.items():
        print(f"  {name}: derive pair {row['derive_pair_ms']:6.2f} ms   "
              f"read {row['read_ms_1_segment']:6.3f} ms (1 segment)  "
              f"{row['read_ms_7_segments']:6.3f} ms (7 segments)")
    record(REPORT_PATH, "union_join.segments", report)


def test_union_join_served_throughput(wt_bench, benchmark, request):
    quick = request.config.getoption("--quick")
    total = QUICK_TOTAL_REQUESTS if quick else TOTAL_REQUESTS

    reference = Thetis(wt_bench.lake, wt_bench.graph, wt_bench.mapping)
    lake, mapping = reference.snapshot_inputs()
    served = Thetis(lake, wt_bench.graph, mapping)
    payloads = query_payloads(wt_bench, k=K_SERVE)

    handle = ServerThread(
        served,
        ServeConfig(port=0, max_batch_size=8),
    )
    handle.start().wait_ready(timeout=300)
    try:
        def run():
            reports = {}
            for task in ("union", "join"):
                assert_parity(handle.port, reference, payloads[:4],
                              task=task)
                reports[task] = summary(closed_loop(
                    handle.port, requests_for(payloads, task=task),
                    CONCURRENCY, total), "closed")
            return reports

        reports = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        handle.stop()
        reference.close()

    print_header(
        f"Served union/join throughput (closed loop, "
        f"concurrency={CONCURRENCY}, {total} requests per task)"
    )
    for task, report in reports.items():
        print(f"  {task}:")
        print(f"    throughput  {report['throughput_rps']:8.1f} req/s")
        print(f"    p50         {report['latency_ms']['p50']:8.1f} ms")
        print(f"    p95         {report['latency_ms']['p95']:8.1f} ms")
        print(f"    ok/sent     {report['ok']}/{report['sent']}")
        assert report["ok"] == total, (
            f"{task}: {report['errors']} errors, "
            f"{report['rejected_503']} rejects, "
            f"{report['timeouts_504']} timeouts"
        )

    record(REPORT_PATH, "union_join.served", {
        "concurrency": CONCURRENCY,
        "requests_per_task": total,
        "tasks": reports,
    })
