"""Serving-layer latency/throughput benchmark.

Boots a real :class:`~repro.serve.server.ServerThread` over the
WT2015-profile corpus and drives it with the closed-loop load
generator, reporting end-to-end throughput and p50/p95/p99 latency
through the full path (HTTP parse -> admission -> micro-batch ->
engine -> JSON response).  An open-loop run at a modest arrival rate
is included because it is the model that exposes queueing delay.

Before measuring, the bench asserts the serving invariant: a response
from ``POST /search`` is bit-identical to a direct ``Thetis.search``
over the same corpus.

The report is written to ``BENCH_serve.json`` in the working
directory (scripts/ci.sh runs this with ``--quick``).
"""

import http.client
import json
import threading
import time

from benchmarks.conftest import print_header
from benchmarks.serve_loadgen import LoadGenerator
from repro import Thetis
from repro.serve import ServeConfig, ServerThread
from repro.serve.metrics import percentile_of

#: Closed-loop request volume (full / --quick).
TOTAL_REQUESTS = 400
QUICK_TOTAL_REQUESTS = 80
CONCURRENCY = 8

#: Open-loop arrival schedule (full / --quick).
OPEN_RATE = 40.0
OPEN_DURATION = 4.0
QUICK_OPEN_DURATION = 1.0

#: Mutation-under-load cycles (add + remove each) and the concurrent
#: query threads kept running across them (full / --quick).
MUTATION_CYCLES = 15
QUICK_MUTATION_CYCLES = 5
MUTATION_QUERY_THREADS = 4

REPORT_PATH = "BENCH_serve.json"


def _query_payloads(bench, k=10):
    """Rotating /search payloads: all 1-tuple and 5-tuple queries."""
    payloads = []
    for queries in (bench.queries.one_tuple, bench.queries.five_tuple):
        for query in queries.values():
            payloads.append({
                "tuples": [list(t) for t in query.tuples],
                "k": k,
            })
    return payloads


def _assert_parity(port, reference, payloads):
    """POST /search must match direct Thetis.search bit-for-bit."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for payload in payloads[:4]:
            connection.request(
                "POST", "/search",
                body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 200, body
            from repro.core.query import Query
            query = Query(tuple(tuple(t) for t in payload["tuples"]))
            direct = reference.search(query, k=payload["k"])
            served = [(r["table_id"], r["score"]) for r in body["results"]]
            expected = [(s.table_id, s.score) for s in direct]
            assert served == expected, (
                f"served ranking diverged from direct search: "
                f"{served[:3]} vs {expected[:3]}"
            )
    finally:
        connection.close()


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
    payloads = _query_payloads(wt_bench)

    handle = ServerThread(
        served,
        ServeConfig(port=0, max_batch_size=8),
    )
    handle.start().wait_ready(timeout=300)
    try:
        _assert_parity(handle.port, reference, payloads)
        generator = LoadGenerator("127.0.0.1", handle.port, payloads,
                                  timeout=120)
        prefilter_payloads = [
            dict(payload, mode="prefilter") for payload in payloads
        ]
        prefilter_generator = LoadGenerator(
            "127.0.0.1", handle.port, prefilter_payloads, timeout=120
        )

        def run():
            closed = generator.run_closed(
                concurrency=CONCURRENCY, total_requests=total
            )
            closed_prefilter = prefilter_generator.run_closed(
                concurrency=CONCURRENCY, total_requests=total
            )
            open_loop = generator.run_open(
                rate=OPEN_RATE, duration=open_duration
            )
            return closed, closed_prefilter, open_loop

        closed, closed_prefilter, open_loop = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
    finally:
        handle.stop(timeout=120)

    print_header(
        f"Serving latency (closed loop, {CONCURRENCY} workers, "
        f"{total} requests)"
    )
    print(closed.format_report())
    print_header(
        f"Serving latency (closed loop, mode=prefilter, "
        f"{CONCURRENCY} workers, {total} requests)"
    )
    print(closed_prefilter.format_report())
    print_header(f"Serving latency (open loop, {OPEN_RATE:.0f} req/s)")
    print(open_loop.format_report())

    report = {
        "corpus_tables": len(wt_bench.lake),
        "concurrency": CONCURRENCY,
        "closed": closed.to_json(),
        "closed_prefilter": closed_prefilter.to_json(),
        "open": open_loop.to_json(),
    }
    with open(REPORT_PATH, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2)
    print(f"  report -> {REPORT_PATH}")

    # The serving path must complete the whole closed-loop run without
    # shedding load (the queue bound is far above CONCURRENCY).
    assert closed.sent == total
    assert closed.ok == total, (
        f"closed loop lost requests: {closed.to_json()}"
    )
    assert closed.throughput > 0
    assert closed.percentile_ms(0.50) <= closed.percentile_ms(0.95) \
        <= closed.percentile_ms(0.99)
    # The prefilter mode must sustain the same closed-loop volume.
    assert closed_prefilter.sent == total
    assert closed_prefilter.ok == total, (
        f"prefilter closed loop lost requests: {closed_prefilter.to_json()}"
    )
    # Open loop may legitimately shed (503) under queueing, but the
    # server must keep answering.
    assert open_loop.ok > 0


# ----------------------------------------------------------------------
# Mutation under load
# ----------------------------------------------------------------------
def _post_json(connection, method, path, payload=None):
    """One request; returns (status, parsed body, seconds)."""
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    start = time.perf_counter()
    connection.request(
        method, path, body=body,
        headers={"Content-Type": "application/json"} if body else {},
    )
    response = connection.getresponse()
    parsed = json.loads(response.read())
    return response.status, parsed, time.perf_counter() - start


def _query_worker(port, payloads, stop, out):
    """Closed-loop /search driver running until ``stop`` is set."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    latencies, errors = [], 0
    index = 0
    try:
        while not stop.is_set():
            payload = payloads[index % len(payloads)]
            index += 1
            try:
                status, _, seconds = _post_json(
                    connection, "POST", "/search", payload
                )
            except (OSError, http.client.HTTPException):
                errors += 1
                connection.close()
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=120
                )
                continue
            if status == 200:
                latencies.append(seconds)
            else:
                errors += 1
    finally:
        connection.close()
    out.append((latencies, errors))


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
    payloads = _query_payloads(wt_bench)
    source_table = wt_bench.lake.get(wt_bench.lake.table_ids()[0])

    handle = ServerThread(
        served,
        ServeConfig(port=0, max_batch_size=8),
    )
    handle.start().wait_ready(timeout=300)
    stop = threading.Event()
    worker_out = []
    workers = [
        threading.Thread(
            target=_query_worker,
            args=(handle.port, payloads, stop, worker_out),
            daemon=True,
        )
        for _ in range(MUTATION_QUERY_THREADS)
    ]
    try:
        for worker in workers:
            worker.start()

        def run():
            add_seconds, remove_seconds = [], []
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=300
            )
            try:
                for cycle in range(cycles):
                    table_id = f"bench-mutation-{cycle}"
                    status, body, seconds = _post_json(
                        connection, "POST", "/tables",
                        _upsert_payload(source_table, table_id),
                    )
                    assert status == 200, body
                    add_seconds.append(seconds)
                    status, body, seconds = _post_json(
                        connection, "DELETE", f"/tables/{table_id}"
                    )
                    assert status == 200, body
                    remove_seconds.append(seconds)
            finally:
                connection.close()
            return add_seconds, remove_seconds

        add_seconds, remove_seconds = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=120)
        handle.stop(timeout=120)

    query_latencies = [s for latencies, _ in worker_out for s in latencies]
    query_errors = sum(errors for _, errors in worker_out)
    report = {
        "corpus_tables": len(wt_bench.lake),
        "cycles": cycles,
        "query_threads": MUTATION_QUERY_THREADS,
        "add_p50_ms": percentile_of(add_seconds, 0.50) * 1e3,
        "add_p95_ms": percentile_of(add_seconds, 0.95) * 1e3,
        "remove_p50_ms": percentile_of(remove_seconds, 0.50) * 1e3,
        "remove_p95_ms": percentile_of(remove_seconds, 0.95) * 1e3,
        "query_ok": len(query_latencies),
        "query_errors": query_errors,
        "query_p50_ms": percentile_of(query_latencies, 0.50) * 1e3,
        "query_p95_ms": percentile_of(query_latencies, 0.95) * 1e3,
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

    try:
        with open(REPORT_PATH, "r", encoding="utf-8") as handle_in:
            payload = json.load(handle_in)
    except (OSError, json.JSONDecodeError):
        payload = {}
    payload["mutation"] = report
    with open(REPORT_PATH, "w", encoding="utf-8") as out:
        json.dump(payload, out, indent=2)
    print(f"  report -> {REPORT_PATH} (mutation)")

    # Every swap must land, and queries must keep succeeding across
    # them — the copy-and-swap contract under the segmented engine.
    assert len(add_seconds) == cycles
    assert len(remove_seconds) == cycles
    assert report["query_ok"] > 0, "no query completed during mutations"
