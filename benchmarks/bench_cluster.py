"""Cluster scatter-gather scaling and fail-over benchmark.

Boots whole in-process fleets — a coordinator plus N workers, each an
independent vectorized :class:`~repro.system.Thetis` over the same
corpus — and measures:

* **scaling** — closed-loop ``/search`` throughput at N in {1, 2, 4}
  workers.  Sharded scoring cuts per-worker work to ~1/N of the
  corpus, so throughput should rise with the fleet wherever the host
  actually has cores to run the workers on; the scaling *floors*
  (>=1.6x at 2 workers, >=2.5x at 4) are therefore asserted only when
  ``os.cpu_count()`` provides at least that many cores, while parity
  and zero-loss invariants are asserted unconditionally.
* **fail-over** — a worker is killed abruptly mid-load; the bench
  records the crash-window p95, demands zero non-2xx responses (a
  degraded 200 is the contract; a 500 is a bug), counts the explicit
  ``"degraded": true`` responses, and requires convergence back to
  clean responses after the heartbeat loop promotes replicas.

Results land in ``BENCH_serve.json`` under ``"cluster"``.
"""

import http.client
import json
import os
import threading
import time

from benchmarks.conftest import print_header
from benchmarks.serve_loadgen import LoadGenerator
from repro import Thetis
from repro.cluster import ClusterConfig, ClusterHarness
from repro.serve.metrics import percentile_of

#: Closed-loop request volume per fleet size (full / --quick).
TOTAL_REQUESTS = 120
QUICK_TOTAL_REQUESTS = 36
CONCURRENCY = 4

#: Fleet sizes of the scaling sweep.
FLEET_SIZES = (1, 2, 4)

#: Throughput floors relative to the 1-worker fleet, enforced only
#: when the host has at least that many cores.
SCALING_FLOORS = {2: 1.6, 4: 2.5}

#: Fail-over drive parameters (full / --quick).
FAILOVER_THREADS = 3
FAILOVER_TAIL_SECONDS = 1.0

REPORT_PATH = "BENCH_serve.json"


def _query_payloads(bench, k=10):
    payloads = []
    for queries in (bench.queries.one_tuple, bench.queries.five_tuple):
        for query in queries.values():
            payloads.append({
                "tuples": [list(t) for t in query.tuples],
                "k": k,
            })
    return payloads


def _make_factory(bench):
    def factory(index):
        return Thetis(
            bench.lake, bench.graph, bench.mapping,
            engine_kind="vectorized",
        )

    return factory


def _post_search(port, payload, timeout=120.0):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request(
            "POST", "/search", body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _assert_parity(port, reference, payloads):
    """Coordinator responses must equal direct search bit-for-bit."""
    from repro.core.query import Query

    for payload in payloads[:3]:
        status, body = _post_search(port, payload)
        assert status == 200, (status, body)
        query = Query(tuple(tuple(t) for t in payload["tuples"]))
        direct = reference.search(query, k=payload["k"])
        served = [(r["table_id"], r["score"]) for r in body["results"]]
        expected = [(s.table_id, s.score) for s in direct]
        assert served == expected, (
            f"cluster ranking diverged: {served[:3]} vs {expected[:3]}"
        )


# ----------------------------------------------------------------------
# Scaling sweep
# ----------------------------------------------------------------------
def test_cluster_scaling(wt_bench, benchmark, request):
    quick = request.config.getoption("--quick")
    total = QUICK_TOTAL_REQUESTS if quick else TOTAL_REQUESTS

    reference = Thetis(
        wt_bench.lake, wt_bench.graph, wt_bench.mapping,
        engine_kind="vectorized",
    )
    payloads = _query_payloads(wt_bench)
    factory = _make_factory(wt_bench)
    config = ClusterConfig(heartbeat_interval=0.5)

    def run():
        reports = {}
        for fleet_size in FLEET_SIZES:
            with ClusterHarness(factory, workers=fleet_size,
                                config=config) as fleet:
                _assert_parity(fleet.port, reference, payloads)
                generator = LoadGenerator(
                    "127.0.0.1", fleet.port, payloads, timeout=120
                )
                reports[fleet_size] = generator.run_closed(
                    concurrency=CONCURRENCY, total_requests=total
                )
        return reports

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    reference.close()

    base = reports[FLEET_SIZES[0]].throughput
    speedups = {
        fleet_size: (reports[fleet_size].throughput / base if base else 0.0)
        for fleet_size in FLEET_SIZES
    }
    cores = os.cpu_count() or 1

    print_header(
        f"Cluster scaling (closed loop, {CONCURRENCY} clients, "
        f"{total} requests/fleet, {cores} cores)"
    )
    for fleet_size in FLEET_SIZES:
        report = reports[fleet_size]
        print(f"  {fleet_size} worker(s): "
              f"{report.throughput:8.1f} req/s   "
              f"p95 {report.percentile_ms(0.95):8.1f} ms   "
              f"({speedups[fleet_size]:.2f}x vs 1 worker)")

    scaling = {
        str(fleet_size): dict(
            reports[fleet_size].to_json(),
            speedup_vs_one_worker=speedups[fleet_size],
        )
        for fleet_size in FLEET_SIZES
    }
    _merge_report("scaling", {
        "corpus_tables": len(wt_bench.lake),
        "concurrency": CONCURRENCY,
        "requests_per_fleet": total,
        "host_cores": cores,
        "fleets": scaling,
    })

    # Correctness invariants hold on any host: every request of every
    # fleet completes OK (degraded 200s would still count as OK, but
    # the parity pre-check already proved responses are clean).
    for fleet_size in FLEET_SIZES:
        report = reports[fleet_size]
        assert report.sent == total, report.to_json()
        assert report.ok == total, (
            f"{fleet_size}-worker fleet lost requests: {report.to_json()}"
        )
    # Scaling floors only where the host can physically run the fleet
    # in parallel (CI containers are often single-core; the numbers
    # above are still recorded for inspection).
    for fleet_size, floor in SCALING_FLOORS.items():
        if cores >= fleet_size:
            assert speedups[fleet_size] >= floor, (
                f"{fleet_size}-worker speedup {speedups[fleet_size]:.2f}x "
                f"below the {floor}x floor on a {cores}-core host"
            )
        else:
            print(f"  ({fleet_size}-worker floor {floor}x not enforced: "
                  f"only {cores} core(s))")


# ----------------------------------------------------------------------
# Kill-a-worker fail-over
# ----------------------------------------------------------------------
def _drive(port, payloads, stop, out):
    """Closed-loop driver recording (status, degraded, seconds)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    samples = []
    index = 0
    try:
        while not stop.is_set():
            payload = payloads[index % len(payloads)]
            index += 1
            start = time.perf_counter()
            try:
                connection.request(
                    "POST", "/search",
                    body=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
            except (OSError, http.client.HTTPException):
                connection.close()
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=120
                )
                continue
            samples.append((
                response.status,
                bool(body.get("degraded")),
                time.perf_counter() - start,
            ))
    finally:
        connection.close()
    out.append(samples)


def test_cluster_failover(wt_bench, benchmark, request):
    payloads = _query_payloads(wt_bench)
    factory = _make_factory(wt_bench)
    config = ClusterConfig(heartbeat_interval=0.2, dead_after=2)

    def run():
        stop = threading.Event()
        collected = []
        with ClusterHarness(factory, workers=3, config=config) as fleet:
            drivers = [
                threading.Thread(
                    target=_drive,
                    args=(fleet.port, payloads, stop, collected),
                    daemon=True,
                )
                for _ in range(FAILOVER_THREADS)
            ]
            for driver in drivers:
                driver.start()
            time.sleep(FAILOVER_TAIL_SECONDS)  # steady state
            fleet.crash_worker(0)
            # Wait until the fleet answers clean again (replica
            # promotion), then keep load running a little longer.
            deadline = time.monotonic() + 60
            recovered = False
            while time.monotonic() < deadline:
                status, body = _post_search(fleet.port, payloads[0])
                if status == 200 and not body["degraded"]:
                    recovered = True
                    break
                time.sleep(0.1)
            time.sleep(FAILOVER_TAIL_SECONDS)
            stop.set()
            for driver in drivers:
                driver.join(timeout=120)
        return collected, recovered

    collected, recovered = benchmark.pedantic(run, rounds=1, iterations=1)

    samples = [sample for batch in collected for sample in batch]
    statuses = [status for status, _, _ in samples]
    degraded = sum(1 for _, flag, _ in samples if flag)
    latencies = [seconds for status, _, seconds in samples if status == 200]
    non_ok = [status for status in statuses if status != 200]

    print_header(
        f"Cluster fail-over ({FAILOVER_THREADS} drivers, kill 1 of 3 "
        f"workers mid-load)"
    )
    print(f"  responses     {len(samples)} "
          f"(degraded: {degraded}, non-200: {len(non_ok)})")
    print(f"  p50           {percentile_of(latencies, 0.50) * 1e3:8.1f} ms")
    print(f"  p95           {percentile_of(latencies, 0.95) * 1e3:8.1f} ms")
    print(f"  recovered     {recovered}")

    _merge_report("failover", {
        "drivers": FAILOVER_THREADS,
        "responses": len(samples),
        "degraded_responses": degraded,
        "non_200": len(non_ok),
        "p50_ms": percentile_of(latencies, 0.50) * 1e3,
        "p95_ms": percentile_of(latencies, 0.95) * 1e3,
        "recovered": recovered,
    })

    assert samples, "no load completed"
    # The fail-over contract: the front door never 500s; the crash
    # window is visible as explicit degraded 200s instead.
    assert not non_ok, f"non-200 responses during fail-over: {non_ok[:5]}"
    assert recovered, "fleet never converged back to clean responses"


def _merge_report(key, payload):
    """Read-modify-write ``BENCH_serve.json``'s ``cluster`` block."""
    try:
        with open(REPORT_PATH, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        document = {}
    document.setdefault("cluster", {})[key] = payload
    with open(REPORT_PATH, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2)
    print(f"  report -> {REPORT_PATH} (cluster.{key})")
