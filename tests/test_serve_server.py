"""End-to-end tests for the HTTP serving layer.

Each test boots a real :class:`~repro.serve.server.ServerThread` on an
ephemeral port over a private copy of the sports corpus and talks to it
with plain ``http.client`` — the same wire a production client uses.
The load-bearing properties: batched serving is bit-identical to
direct ``Thetis.search``, overload fast-fails with 503 while admitted
work completes, deadlines surface as 504, snapshot swaps are invisible
to in-flight queries, and shutdown drains then closes the engine.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from benchmarks import serve_loadgen
from benchmarks.serve_loadgen import (
    closed_loop,
    open_loop,
    requests_for,
    summary,
)
from repro import Query, Thetis
from repro.serve import ServeConfig, ServerThread


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def build_served_thetis(sports_lake, sports_graph, sports_mapping) -> Thetis:
    """A private engine over copied containers.

    The server owns and closes its Thetis on shutdown, and /tables
    mutations must never leak into the shared session fixtures.
    """
    reference = Thetis(sports_lake, sports_graph, sports_mapping)
    lake, mapping = reference.snapshot_inputs()
    return Thetis(lake, sports_graph, mapping)


def http_request(port, method, path, payload=None, timeout=30.0):
    """One request against localhost; returns (status, decoded body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None)
    finally:
        connection.close()


QUERY_TUPLES = [
    [["kg:player0", "kg:team0", "kg:city0"]],
    [["kg:player5", "kg:team5"]],
    [["kg:player9"], ["kg:team1", "kg:city1"]],
    [["kg:city2", "kg:city3"]],
]


@pytest.fixture()
def server(sports_lake, sports_graph, sports_mapping):
    served = build_served_thetis(sports_lake, sports_graph, sports_mapping)
    handle = ServerThread(
        served,
        ServeConfig(port=0, max_batch_size=8),
    )
    handle.start().wait_ready()
    yield handle
    handle.stop()


@pytest.fixture()
def reference(sports_lake, sports_graph, sports_mapping):
    return Thetis(sports_lake, sports_graph, sports_mapping,
                  engine_kind="scalar")


def expected_results(reference, tuples, k=10, method="types"):
    query = Query(tuple(tuple(t) for t in tuples))
    results = reference.search(query, k=k, method=method)
    return [
        {"rank": rank, "table_id": scored.table_id, "score": scored.score}
        for rank, scored in enumerate(results, start=1)
    ]


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------
class TestControlPlane:
    def test_healthz(self, server):
        status, body = http_request(server.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0

    def test_readyz_after_warmup(self, server):
        status, body = http_request(server.port, "GET", "/readyz")
        assert status == 200
        assert body["status"] == "ready"

    def test_metrics_document(self, server):
        http_request(server.port, "POST", "/search",
                     {"tuples": QUERY_TUPLES[0]})
        status, body = http_request(server.port, "GET", "/metrics")
        assert status == 200
        assert body["requests_total"] >= 1
        assert body["requests"]["/search:200"] == 1
        assert body["batches_total"] >= 1
        assert body["snapshot_version"] == 0
        assert body["queue_limit"] == 64
        assert "/search" in body["latency"]
        assert body["latency"]["/search"]["count"] == 1
        # Cache stats from the engine are included with hit rates.
        for name in ("kernel_rows",):
            assert name in body["cache"]
            assert 0.0 <= body["cache"][name]["hit_rate"] <= 1.0

    def test_unknown_endpoint_404(self, server):
        status, body = http_request(server.port, "GET", "/nope")
        assert status == 404
        assert "no such endpoint" in body["error"]

    def test_bogus_paths_do_not_grow_metrics(self, server):
        """Requests are labelled by matched route, never by the
        client-supplied path: a scanner cannot grow /metrics."""
        def blocks():
            body = http_request(server.port, "GET", "/metrics")[1]
            return set(body["requests"]), set(body["latency"])

        for method in ("GET", "POST"):
            status, _ = http_request(server.port, method, "/scan/warm-up",
                                     payload={})
            assert status == 404
        blocks()  # the scrape itself is a counted request
        before = blocks()
        for index in range(200):
            status, _ = http_request(
                server.port, "POST" if index % 2 else "GET",
                f"/scan{index}/x{index}", payload={},
            )
            assert status == 404
        assert blocks() == before
        assert not any("scan" in key for block in before for key in block)

    def test_wrong_method_405(self, server):
        status, _ = http_request(server.port, "GET", "/search")
        assert status == 405
        status, _ = http_request(server.port, "POST", "/healthz",
                                 payload={})
        assert status == 405


# ----------------------------------------------------------------------
# Query path
# ----------------------------------------------------------------------
class TestSearchParity:
    def test_search_bit_identical_to_direct(self, server, reference):
        """POST /search must reproduce Thetis.search exactly — same
        tables, same order, same float scores through the JSON wire."""
        for tuples in QUERY_TUPLES:
            status, body = http_request(
                server.port, "POST", "/search", {"tuples": tuples}
            )
            assert status == 200
            assert body["results"] == expected_results(reference, tuples)

    def test_topk_bit_identical_to_direct(self, server, reference):
        """POST /topk is POST /search exact mode under another label."""
        for tuples in QUERY_TUPLES[:2]:
            payload = {"tuples": tuples, "k": 4}
            status, body = http_request(
                server.port, "POST", "/topk", payload
            )
            assert status == 200
            assert body["mode"] == "topk"
            assert body["results"] == expected_results(
                reference, tuples, k=4
            )
            _, searched = http_request(
                server.port, "POST", "/search", payload
            )
            assert searched["mode"] == "search"
            assert {**body, "mode": "search"} == searched

    def test_topk_and_search_share_one_search_many_call(
            self, sports_lake, sports_graph, sports_mapping):
        """A /topk and a /search with equal k, queued together, are one
        batch key: they ride one search_many call."""
        handle = ServerThread(
            build_served_thetis(sports_lake, sports_graph, sports_mapping),
            ServeConfig(port=0, max_batch_size=2),
        )
        handle.start().wait_ready()
        batcher = handle.server.batcher
        serve_plan = batcher.runner
        held, release = threading.Event(), threading.Event()

        class Hold:
            def batch_key(self):
                return "hold"

        hold = Hold()

        async def runner(plan, items):
            if plan != "hold":
                return await serve_plan(plan, items)
            # Hold the batcher busy; this batch is not a search.
            held.set()
            await asyncio.get_running_loop().run_in_executor(
                None, release.wait
            )
            return [None]

        batcher.runner = runner
        holding = asyncio.run_coroutine_threadsafe(
            batcher.submit(hold), handle._loop
        )
        try:
            assert held.wait(30.0)
            statuses = {}

            def client(path, tuples):
                statuses[path] = http_request(
                    handle.port, "POST", path, {"tuples": tuples, "k": 4}
                )[0]

            threads = [
                threading.Thread(target=client, args=args)
                for args in (("/topk", QUERY_TUPLES[0]),
                             ("/search", QUERY_TUPLES[1]))
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30.0
            while batcher.queue_depth < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            holding.result(30.0)
            for thread in threads:
                thread.join(timeout=30.0)
            assert statuses == {"/topk": 200, "/search": 200}
            _, metrics = http_request(handle.port, "GET", "/metrics")
        finally:
            release.set()
            handle.stop()
        # The hold, then one batch carrying both queries...
        assert metrics["batches_total"] == 2
        # ...in one search_many dispatch.
        assert metrics["batch"]["batched_passes"] == 1
        assert metrics["batch"]["batched_queries"] == 2

    def test_concurrent_batched_queries_identical_to_sequential(
            self, server, reference):
        """A concurrent burst (which the server coalesces into batches)
        returns exactly what sequential direct calls return."""
        payloads = [QUERY_TUPLES[i % len(QUERY_TUPLES)] for i in range(16)]
        responses = [None] * len(payloads)

        def client(index):
            responses[index] = http_request(
                server.port, "POST", "/search",
                {"tuples": payloads[index]},
            )

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(payloads))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index, (status, body) in enumerate(responses):
            assert status == 200
            assert body["results"] == expected_results(
                reference, payloads[index]
            )
        # The burst actually exercised coalescing.
        _, metrics = http_request(server.port, "GET", "/metrics")
        assert metrics["batches_total"] >= 1
        assert metrics["batched_queries_total"] >= len(payloads)

    def test_k_truncates(self, server):
        status, body = http_request(
            server.port, "POST", "/search",
            {"tuples": QUERY_TUPLES[0], "k": 3},
        )
        assert status == 200
        assert body["count"] == 3

    def test_malformed_body_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)
        try:
            connection.request(
                "POST", "/search", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    def test_unknown_field_400(self, server):
        status, body = http_request(
            server.port, "POST", "/search",
            {"tuples": QUERY_TUPLES[0], "bogus": 1},
        )
        assert status == 400
        assert "unknown" in body["error"]


class TestPrefilterServing:
    def test_prefilter_mode_matches_exact_topk(self, server, reference):
        """On the sports corpus the LSEI shortlist covers every scoring
        table, so the prefiltered wire ranking equals the exact one."""
        for tuples in QUERY_TUPLES:
            status, body = http_request(
                server.port, "POST", "/search",
                {"tuples": tuples, "mode": "prefilter"},
            )
            assert status == 200
            assert body["mode"] == "prefilter"
            assert body["results"] == expected_results(reference, tuples)

    def test_metrics_expose_prefilter_block(self, server):
        http_request(
            server.port, "POST", "/search",
            {"tuples": QUERY_TUPLES[0], "mode": "prefilter"},
        )
        status, metrics = http_request(server.port, "GET", "/metrics")
        assert status == 200
        block = metrics["prefilter"]
        assert block["queries"] >= 1
        assert 0.0 <= block["candidate_reduction"] <= 1.0
        # No guardrail configured on the default server fixture.
        assert block["guardrail"]["checks"] == 0

    def test_served_prefilter_traffic_reports_pruning(self):
        """The pruning counters are live for served requests.

        Served traffic is ``search_many`` -> ``search_batch``, which
        used to record ``scored == shortlisted`` and never a cut-off
        for every restricted job; only the 1-in-N guardrail samples
        (a lone in-process ``search``) reached the pruned scan.
        """
        from repro.benchgen import WT2015_PROFILE, build_benchmark

        bench = build_benchmark(
            WT2015_PROFILE, num_tables=200, num_query_pairs=3, seed=29
        )
        served = Thetis(bench.lake, bench.graph, bench.mapping,
                        engine_kind="vectorized")
        handle = ServerThread(
            served,
            ServeConfig(port=0, max_batch_size=8),
        )
        handle.start().wait_ready()
        try:
            queries = list(bench.queries.all_queries().values())
            for query in queries:
                status, body = http_request(
                    handle.port, "POST", "/search",
                    {"tuples": [list(entry) for entry in query.tuples],
                     "mode": "prefilter", "k": 3},
                )
                assert status == 200
                assert len(body["results"]) == 3
            _, metrics = http_request(handle.port, "GET", "/metrics")
        finally:
            handle.stop()
        block = metrics["prefilter"]
        assert block["guardrail"]["checks"] == 0  # no sampled path ran
        assert block["scoring_calls"] == len(queries)
        assert block["mean_shortlist"] > 32  # more than one chunk
        assert block["early_termination_rate"] > 0.0
        # scored <= shortlisted, and strictly fewer once a scan stops.
        assert 0.0 < block["scored_fraction"] < 1.0

    def test_guardrail_sampling_records_recall(self, sports_lake,
                                               sports_graph, sports_mapping):
        served = build_served_thetis(sports_lake, sports_graph,
                                     sports_mapping)
        handle = ServerThread(
            served,
            ServeConfig(port=0, max_batch_size=8,
                        prefilter_guardrail_every=2),
        )
        handle.start().wait_ready()
        try:
            for tuples in QUERY_TUPLES:
                status, _ = http_request(
                    handle.port, "POST", "/search",
                    {"tuples": tuples, "mode": "prefilter"},
                )
                assert status == 200
            _, metrics = http_request(handle.port, "GET", "/metrics")
            guardrail = metrics["prefilter"]["guardrail"]
            assert guardrail["checks"] == 2  # every 2nd of 4 queries
            assert guardrail["min_recall"] >= 0.95
        finally:
            handle.stop()

    def test_mode_rejected_on_topk_endpoint(self, server):
        status, body = http_request(
            server.port, "POST", "/topk",
            {"tuples": QUERY_TUPLES[0], "mode": "exact"},
        )
        assert status == 400
        assert "POST /search" in body["error"]

    def test_exact_wire_mode_is_plain_search(self, server, reference):
        status, body = http_request(
            server.port, "POST", "/search",
            {"tuples": QUERY_TUPLES[0], "mode": "exact"},
        )
        assert status == 200
        assert body["mode"] == "search"
        assert body["results"] == expected_results(reference,
                                                   QUERY_TUPLES[0])


class TestExplain:
    def test_explain_matches_direct(self, server, reference):
        tuples = QUERY_TUPLES[0]
        status, body = http_request(
            server.port, "POST", "/explain",
            {"tuples": tuples, "table_id": "T00"},
        )
        assert status == 200
        query = Query(tuple(tuple(t) for t in tuples))
        direct = reference.explain(query, "T00")
        assert body["score"] == direct.score
        assert "T00" in body["report"]

    def test_explain_unknown_table_404(self, server):
        status, _ = http_request(
            server.port, "POST", "/explain",
            {"tuples": QUERY_TUPLES[0], "table_id": "T99"},
        )
        assert status == 404

    def test_closed_engine_is_503_on_every_route(self, server):
        """A closed engine or snapshot manager is unavailability, not a
        bad request: every route answers 503, as ``/search`` always
        did."""
        search = ("POST", "/search", {"tuples": QUERY_TUPLES[0]})
        explain = ("POST", "/explain",
                   {"tuples": QUERY_TUPLES[0], "table_id": "T00"})
        remove = ("DELETE", "/tables/T00", None)
        with server.server.snapshots.checkout() as snapshot:
            snapshot.thetis.close()
        for method, path, payload in (search, explain):
            status, body = http_request(server.port, method, path, payload)
            assert status == 503, (path, body)
        server.server.snapshots.close()
        for method, path, payload in (search, explain, remove):
            status, body = http_request(server.port, method, path, payload)
            assert status == 503, (path, body)


# ----------------------------------------------------------------------
# Backpressure and deadlines over the wire
# ----------------------------------------------------------------------
def _slowed(handle, delay):
    """Wrap the server's batch runner with an artificial delay."""
    original = handle.server.batcher.runner

    async def slow_runner(plan, items):
        await asyncio.sleep(delay)
        return await original(plan, items)

    handle.server.batcher.runner = slow_runner
    return handle


class TestOverload:
    def test_burst_gets_503_but_admitted_work_completes(
            self, sports_lake, sports_graph, sports_mapping, reference):
        served = build_served_thetis(sports_lake, sports_graph,
                                     sports_mapping)
        handle = _slowed(
            ServerThread(
                served,
                ServeConfig(port=0, max_batch_size=1,
                            max_queue_depth=1, request_timeout=30.0),
            ),
            delay=0.25,
        )
        handle.start().wait_ready()
        try:
            outcomes = [None] * 10
            durations = [None] * 10

            def client(index):
                started = time.perf_counter()
                outcomes[index] = http_request(
                    handle.port, "POST", "/search",
                    {"tuples": QUERY_TUPLES[0]},
                )
                durations[index] = time.perf_counter() - started

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(10)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            statuses = [status for status, _ in outcomes]
            assert 200 in statuses     # in-flight work completed...
            assert 503 in statuses     # ...while the excess was shed
            assert set(statuses) <= {200, 503}
            for (status, body), duration in zip(outcomes, durations):
                if status == 503:
                    # Fast-fail: a rejection never waits out the queue.
                    assert duration < 5.0
                    assert "overloaded" in body["error"]
                else:
                    assert body["results"] == expected_results(
                        reference, QUERY_TUPLES[0]
                    )
            _, metrics = http_request(handle.port, "GET", "/metrics")
            assert metrics["rejected_total"] == statuses.count(503)
        finally:
            handle.stop()
        assert served.closed


class TestTimeout:
    def test_slow_query_times_out_with_504(
            self, sports_lake, sports_graph, sports_mapping):
        served = build_served_thetis(sports_lake, sports_graph,
                                     sports_mapping)
        handle = _slowed(
            ServerThread(
                served,
                ServeConfig(port=0, request_timeout=0.05),
            ),
            delay=0.5,
        )
        handle.start().wait_ready()
        try:
            status, body = http_request(
                handle.port, "POST", "/search",
                {"tuples": QUERY_TUPLES[0]},
            )
            assert status == 504
            assert "deadline" in body["error"] or "timed out" in body["error"]
            _, metrics = http_request(handle.port, "GET", "/metrics")
            assert metrics["timeout_total"] >= 1
        finally:
            handle.stop()

    def test_batch_blocking_the_loop_past_its_deadline_is_504(
            self, sports_lake, sports_graph, sports_mapping):
        """A batch scored on the loop thread blocks the deadline timer;
        its late result must still answer 504, not a late 200."""
        handle = ServerThread(
            build_served_thetis(sports_lake, sports_graph, sports_mapping),
            ServeConfig(port=0, request_timeout=0.05),
        )
        batcher = handle.server.batcher
        run_plan = batcher.runner

        async def slow_plan(plan, requests):
            time.sleep(0.3)
            return await run_plan(plan, requests)

        batcher.runner = slow_plan
        handle.start().wait_ready()
        try:
            status, body = http_request(
                handle.port, "POST", "/search",
                {"tuples": QUERY_TUPLES[0]},
            )
            assert status == 504
            assert "timed out" in body["error"]
            _, metrics = http_request(handle.port, "GET", "/metrics")
            assert metrics["timeout_total"] == 1
        finally:
            handle.stop()


class TestThreadModel:
    def test_batches_run_on_the_loop_thread(
            self, sports_lake, sports_graph, sports_mapping):
        """search_many runs on the event-loop thread; the server starts
        no batch thread of its own."""
        served = build_served_thetis(sports_lake, sports_graph,
                                     sports_mapping)
        search_many = served.search_many
        threads = []

        def recording_search_many(*args, **kwargs):
            threads.append(threading.current_thread())
            return search_many(*args, **kwargs)

        served.search_many = recording_search_many
        with ServerThread(served, ServeConfig(port=0)) as handle:
            handle.wait_ready()
            for tuples in QUERY_TUPLES:
                status, _ = http_request(
                    handle.port, "POST", "/search", {"tuples": tuples}
                )
                assert status == 200
            names = [thread.name for thread in threading.enumerate()]
        assert threads and set(threads) == {handle._thread}
        assert not [
            name for name in names if name.startswith("thetis-serve-batch")
        ]


# ----------------------------------------------------------------------
# Hot-swapped snapshots over the wire
# ----------------------------------------------------------------------
NEW_TABLE = {
    "table": {
        "id": "TX",
        "attributes": ["Player", "Team", "City"],
        "rows": [["Player 0", "Team 0", "City 0"],
                 ["Player 8", "Team 0", "City 0"]],
        "metadata": {"caption": "hot-added roster"},
    },
    "link": True,
}


class TestSnapshotSwaps:
    def test_add_then_remove_table(self, server):
        status, body = http_request(server.port, "POST", "/tables",
                                    NEW_TABLE)
        assert status == 200
        assert body["snapshot_version"] == 1
        assert body["links_created"] > 0

        # The new table is immediately searchable...
        status, body = http_request(
            server.port, "POST", "/search",
            {"tuples": [["kg:player0", "kg:team0", "kg:city0"]], "k": 13},
        )
        assert status == 200
        assert body["snapshot_version"] == 1
        assert any(r["table_id"] == "TX" for r in body["results"])

        # ...duplicate adds are rejected...
        status, _ = http_request(server.port, "POST", "/tables", NEW_TABLE)
        assert status == 400

        # ...and removal swaps another generation in.
        status, body = http_request(server.port, "DELETE", "/tables/TX")
        assert status == 200
        assert body["snapshot_version"] == 2
        status, _ = http_request(server.port, "DELETE", "/tables/TX")
        assert status == 404

        _, metrics = http_request(server.port, "GET", "/metrics")
        assert metrics["snapshot_swaps_total"] == 2
        assert metrics["snapshot_version"] == 2

    def test_swaps_under_concurrent_queries(self, server, reference):
        """Queries racing a series of snapshot swaps all succeed and
        stay coherent for whichever generation served them."""
        errors = []
        stop = threading.Event()
        expected = expected_results(reference, QUERY_TUPLES[0], k=5)

        def client():
            try:
                while not stop.is_set():
                    status, body = http_request(
                        server.port, "POST", "/search",
                        {"tuples": QUERY_TUPLES[0], "k": 5},
                    )
                    assert status == 200, body
                    # T00 is the exact-match top hit in every
                    # generation (mutations only add/remove TZ*).
                    assert body["results"][0] == expected[0]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for index in range(3):
                payload = json.loads(json.dumps(NEW_TABLE))
                payload["table"]["id"] = f"TZ{index}"
                status, _ = http_request(server.port, "POST", "/tables",
                                         payload)
                assert status == 200
            status, _ = http_request(server.port, "DELETE", "/tables/TZ0")
            assert status == 200
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        _, metrics = http_request(server.port, "GET", "/metrics")
        assert metrics["snapshot_swaps_total"] == 4
        assert metrics["snapshot_version"] == 4

    def test_mutations_never_touch_session_lake(self, server,
                                                sports_lake):
        status, _ = http_request(server.port, "POST", "/tables", NEW_TABLE)
        assert status == 200
        assert "TX" not in sports_lake
        assert len(sports_lake) == 12


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_graceful_stop_closes_engine(self, sports_lake, sports_graph,
                                         sports_mapping):
        served = build_served_thetis(sports_lake, sports_graph,
                                     sports_mapping)
        handle = ServerThread(served, ServeConfig(port=0))
        handle.start().wait_ready()
        port = handle.port
        status, _ = http_request(port, "POST", "/search",
                                 {"tuples": QUERY_TUPLES[0]})
        assert status == 200
        handle.stop()
        assert served.closed
        with pytest.raises(OSError):
            http_request(port, "GET", "/healthz", timeout=2.0)

    def test_stop_idempotent(self, sports_lake, sports_graph,
                             sports_mapping):
        served = build_served_thetis(sports_lake, sports_graph,
                                     sports_mapping)
        handle = ServerThread(served, ServeConfig(port=0))
        handle.start().wait_ready()
        handle.stop()
        handle.stop()  # second stop is a no-op

    def test_context_manager(self, sports_lake, sports_graph,
                             sports_mapping):
        served = build_served_thetis(sports_lake, sports_graph,
                                     sports_mapping)
        with ServerThread(served, ServeConfig(port=0)) as handle:
            handle.wait_ready()
            status, _ = http_request(handle.port, "GET", "/healthz")
            assert status == 200
        assert served.closed


# ----------------------------------------------------------------------
# Load generator against a live server
# ----------------------------------------------------------------------
class TestLoadGenerator:
    def test_closed_loop_run(self, server):
        requests = requests_for([{"tuples": t} for t in QUERY_TUPLES])
        report = summary(closed_loop(server.port, requests, 4, 24), "closed")
        assert report["sent"] == 24
        assert report["ok"] == 24
        assert report["rejected_503"] == 0
        assert report["throughput_rps"] > 0
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]

    def test_open_loop_run(self, server):
        requests = requests_for([{"tuples": QUERY_TUPLES[0]}])
        report = summary(open_loop(server.port, requests, 40.0, 0.5), "open")
        assert report["mode"] == "open"
        assert report["sent"] >= 1
        assert report["ok"] >= 1

    def test_cli_writes_the_report(self, server, tmp_path, capsys):
        payload_file = tmp_path / "queries.json"
        payload_file.write_text(json.dumps(
            [{"tuples": t, "k": 3} for t in QUERY_TUPLES]))
        out = tmp_path / "report.json"
        code = serve_loadgen.main([
            "--port", str(server.port), "--payload-file", str(payload_file),
            "--loop", "closed", "--concurrency", "2", "--requests", "8",
            "--mode", "exact", "--timeout", "30", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "mode", "duration_seconds", "sent", "ok", "rejected_503",
            "timeouts_504", "errors", "throughput_rps", "latency_ms",
        }
        assert set(report["latency_ms"]) == {"p50", "p95", "p99", "mean",
                                             "max"}
        assert (report["mode"], report["sent"], report["ok"]) == \
            ("closed", 8, 8)
        assert "throughput" in capsys.readouterr().out

    def test_parity_helper_checks_each_wire_field(self, server, reference):
        payloads = [{"tuples": t, "k": 5} for t in QUERY_TUPLES]
        serve_loadgen.assert_parity(server.port, reference, payloads)
        serve_loadgen.assert_parity(server.port, reference, payloads,
                                    task="union")

    def test_parity_helper_catches_a_diverged_ranking(self, server):
        class Empty:
            def search(self, query, k, **fields):
                return []

        with pytest.raises(AssertionError, match="diverged"):
            serve_loadgen.assert_parity(
                server.port, Empty(), [{"tuples": QUERY_TUPLES[0]}])
