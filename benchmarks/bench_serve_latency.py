"""Serving-layer latency/throughput benchmark.

Boots a real :class:`~repro.serve.server.ServerThread` over the
WT2015-profile corpus and drives it closed-loop through the benchmark
load generator (``benchmarks.serve_loadgen``), reporting end-to-end
throughput and p50/p95/p99 latency through the full path (HTTP parse ->
admission -> micro-batch -> engine -> JSON response).  An open-loop run
at a modest arrival rate is included because it is the model that
exposes queueing delay.

Before measuring, the bench asserts the serving invariant: a response
from ``POST /search`` is bit-identical to a direct ``Thetis.search``
over the same corpus.

The report is folded into ``BENCH_serve.json`` in the working
directory (scripts/ci.sh runs this with ``--quick``).
"""

import json

from benchmarks.conftest import print_header
from benchmarks.perf.loadgen import Feed, Lane, drive
from benchmarks.perf.metrics import percentile
from benchmarks.perf.streams import Request
from benchmarks.serve_loadgen import (
    Background,
    assert_parity,
    closed_loop,
    describe,
    open_loop,
    query_payloads,
    record,
    requests_for,
    summary,
)
from repro import Thetis
from repro.serve import ServeConfig, ServerThread

#: Closed-loop request volume (full / --quick).
TOTAL_REQUESTS = 400
QUICK_TOTAL_REQUESTS = 80
CONCURRENCY = 8

#: Open-loop arrival schedule (full / --quick).
OPEN_RATE = 40.0
OPEN_DURATION = 4.0
QUICK_OPEN_DURATION = 1.0

#: Mutation-under-load cycles (add + remove each) and the concurrent
#: query connections kept running across them (full / --quick).
MUTATION_CYCLES = 15
QUICK_MUTATION_CYCLES = 5
MUTATION_QUERY_THREADS = 4

REPORT_PATH = "BENCH_serve.json"


def test_serve_latency(wt_bench, benchmark, request):
    quick = request.config.getoption("--quick")
    total = QUICK_TOTAL_REQUESTS if quick else TOTAL_REQUESTS
    open_duration = QUICK_OPEN_DURATION if quick else OPEN_DURATION

    # Vectorized on both sides: the server's micro-batches ride the
    # fused search_batch kernel, and the parity assert compares the
    # same engine kind bit for bit.
    reference = Thetis(wt_bench.lake, wt_bench.graph, wt_bench.mapping,
                       engine_kind="vectorized")
    lake, mapping = reference.snapshot_inputs()
    served = Thetis(lake, wt_bench.graph, mapping,
                    engine_kind="vectorized")
    payloads = query_payloads(wt_bench)
    searches = requests_for(payloads)
    prefilter_searches = requests_for(payloads, mode="prefilter")

    handle = ServerThread(
        served,
        ServeConfig(port=0, max_batch_size=8),
    )
    handle.start().wait_ready(timeout=300)
    try:
        assert_parity(handle.port, reference, payloads[:4])

        def run():
            return (
                closed_loop(handle.port, searches, CONCURRENCY, total),
                closed_loop(handle.port, prefilter_searches, CONCURRENCY,
                            total),
                open_loop(handle.port, searches, OPEN_RATE, open_duration),
            )

        windows = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        handle.stop(timeout=120)
    closed, closed_prefilter, opened = (
        summary(window, loop)
        for window, loop in zip(windows, ("closed", "closed", "open"))
    )

    print_header(
        f"Serving latency (closed loop, {CONCURRENCY} workers, "
        f"{total} requests)"
    )
    print(describe(closed))
    print_header(
        f"Serving latency (closed loop, mode=prefilter, "
        f"{CONCURRENCY} workers, {total} requests)"
    )
    print(describe(closed_prefilter))
    print_header(f"Serving latency (open loop, {OPEN_RATE:.0f} req/s)")
    print(describe(opened))

    for key, block in (("corpus_tables", len(wt_bench.lake)),
                       ("concurrency", CONCURRENCY),
                       ("closed", closed),
                       ("closed_prefilter", closed_prefilter),
                       ("open", opened)):
        record(REPORT_PATH, key, block)

    # The serving path must complete the whole closed-loop run without
    # shedding load (the queue bound is far above CONCURRENCY).
    assert closed["sent"] == total
    assert closed["ok"] == total, f"closed loop lost requests: {closed}"
    assert closed["throughput_rps"] > 0
    latency = closed["latency_ms"]
    assert latency["p50"] <= latency["p95"] <= latency["p99"]
    # The prefilter mode must sustain the same closed-loop volume.
    assert closed_prefilter["sent"] == total
    assert closed_prefilter["ok"] == total, (
        f"prefilter closed loop lost requests: {closed_prefilter}"
    )
    # Open loop may legitimately shed (503) under queueing, but the
    # server must keep answering.
    assert opened["ok"] > 0


# ----------------------------------------------------------------------
# Mutation under load
# ----------------------------------------------------------------------
def _upsert_payload(source_table, table_id):
    """A /tables body cloning an existing table under a fresh id."""
    return {
        "table": {
            "id": table_id,
            "attributes": list(source_table.attributes),
            "rows": [list(row) for row in source_table.rows],
            "metadata": dict(source_table.metadata),
        },
        "link": True,
    }


def test_serve_mutation_under_load(wt_bench, benchmark, request):
    """p50/p95 of add/remove table swaps while queries keep flowing.

    Exercises the O(delta) snapshot path end to end: the server runs
    the vectorized engine, each ``POST /tables`` / ``DELETE /tables``
    clones the current generation (sharing every unchanged segment),
    applies a one-segment delta, warms, and swaps — all while
    concurrent ``/search`` load keeps hitting whichever generation is
    current.  Reported into ``BENCH_serve.json`` under ``mutation``.
    """
    quick = request.config.getoption("--quick")
    cycles = QUICK_MUTATION_CYCLES if quick else MUTATION_CYCLES

    lake, mapping = Thetis(
        wt_bench.lake, wt_bench.graph, wt_bench.mapping
    ).snapshot_inputs()
    served = Thetis(
        lake, wt_bench.graph, mapping, engine_kind="vectorized"
    )
    searches = requests_for(query_payloads(wt_bench))
    source_table = wt_bench.lake.get(wt_bench.lake.table_ids()[0])
    writes = []
    for cycle in range(cycles):
        table_id = f"bench-mutation-{cycle}"
        writes.append(Request("add", "POST", "/tables", json.dumps(
            _upsert_payload(source_table, table_id)).encode("utf-8")))
        writes.append(Request("remove", "DELETE", f"/tables/{table_id}",
                              b""))

    handle = ServerThread(
        served,
        ServeConfig(port=0, max_batch_size=8),
    )
    handle.start().wait_ready(timeout=300)
    try:
        with Background(handle.port, searches,
                        MUTATION_QUERY_THREADS) as load:
            mutations = benchmark.pedantic(
                drive, args=(handle.port, [Lane(Feed(writes))]),
                rounds=1, iterations=1,
            )
    finally:
        handle.stop(timeout=120)

    def milliseconds(kind):
        return [s.latency_ms for s in mutations.samples
                if s.request.kind == kind]

    add_ms, remove_ms = milliseconds("add"), milliseconds("remove")
    queries = load.window.samples
    query_ms = [s.latency_ms for s in queries if s.status == 200]
    report = {
        "corpus_tables": len(wt_bench.lake),
        "cycles": cycles,
        "query_threads": MUTATION_QUERY_THREADS,
        "add_p50_ms": percentile(add_ms, 0.50),
        "add_p95_ms": percentile(add_ms, 0.95),
        "remove_p50_ms": percentile(remove_ms, 0.50),
        "remove_p95_ms": percentile(remove_ms, 0.95),
        "query_ok": len(query_ms),
        "query_errors": len(queries) - len(query_ms),
        "query_p50_ms": percentile(query_ms, 0.50),
        "query_p95_ms": percentile(query_ms, 0.95),
    }

    print_header(
        f"Mutation under load ({cycles} add/remove cycles, "
        f"{MUTATION_QUERY_THREADS} query threads)"
    )
    print(f"  add    p50 {report['add_p50_ms']:9.2f} ms   "
          f"p95 {report['add_p95_ms']:9.2f} ms")
    print(f"  remove p50 {report['remove_p50_ms']:9.2f} ms   "
          f"p95 {report['remove_p95_ms']:9.2f} ms")
    print(f"  /search during swaps: {report['query_ok']} ok, "
          f"{report['query_errors']} errors, "
          f"p50 {report['query_p50_ms']:.2f} ms, "
          f"p95 {report['query_p95_ms']:.2f} ms")

    record(REPORT_PATH, "mutation", report)

    # Every swap must land, and queries must keep succeeding across
    # them — the copy-and-swap contract under the segmented engine.
    failed = [(s.request.kind, s.status) for s in mutations.samples
              if s.status != 200]
    assert not failed, f"mutations failed: {failed}"
    assert len(add_ms) == cycles
    assert len(remove_ms) == cycles
    assert report["query_ok"] > 0, "no query completed during mutations"
