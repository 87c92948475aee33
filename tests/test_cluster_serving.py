"""End-to-end scatter-gather serving tests over real sockets.

Everything here drives a :class:`~repro.cluster.ClusterHarness` — a
coordinator plus N workers on ephemeral localhost ports — and checks
the headline contract: cluster responses are *bit-identical* to a
single-process :class:`~repro.system.Thetis`, in ``exact`` and
``prefilter`` mode alike, including while the fleet is degraded.
"""

import asyncio
import gc
import http.client
import json
import logging
import threading
import time
import warnings

import pytest

from repro.benchgen import WT2015_PROFILE, build_benchmark
from repro.cluster import ClusterConfig, ClusterHarness
from repro.cluster.protocol import read_frame, write_frame
from repro.core.kernel import SegmentedCorpusIndex, save_index
from repro.system import Thetis

K = 5


def post_json(port, path, payload=None, timeout=30.0):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request(
            "POST", path, body=json.dumps(payload or {}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def post_search(port, payload, timeout=30.0):
    return post_json(port, "/search", payload, timeout)


def get_json(port, path, timeout=30.0):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def ranking(body):
    return [(entry["score"], entry["table_id"])
            for entry in body["results"]]


def wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


@pytest.fixture(scope="module")
def cluster_bench():
    return build_benchmark(
        WT2015_PROFILE, num_tables=60, num_query_pairs=3, seed=7
    )


@pytest.fixture(scope="module")
def reference(cluster_bench):
    with Thetis(
        cluster_bench.lake, cluster_bench.graph, cluster_bench.mapping,
        engine_kind="vectorized",
    ) as thetis:
        yield thetis


@pytest.fixture(scope="module")
def queries(cluster_bench):
    return list(cluster_bench.queries.all_queries().values())[:4]


def make_factory(bench, index_dir=None):
    def factory(index):
        return Thetis(
            bench.lake, bench.graph, bench.mapping,
            engine_kind="vectorized", index_dir=index_dir,
        )

    return factory


def payload_of(query, mode=None, k=K):
    body = {"tuples": [list(t) for t in query.tuples], "k": k}
    if mode is not None:
        body["mode"] = mode
    return body


@pytest.fixture(scope="module")
def fleet(cluster_bench, reference, tmp_path_factory):
    """Two workers that cold-start by memmapping one spilled index."""
    index_dir = tmp_path_factory.mktemp("spilled-index")
    save_index(
        SegmentedCorpusIndex.compile(
            cluster_bench.lake, cluster_bench.mapping,
            reference.engine("types").sigma, segment_tables=16,
        ),
        index_dir,
    )
    config = ClusterConfig(heartbeat_interval=0.2, dead_after=2)
    with ClusterHarness(make_factory(cluster_bench, index_dir), workers=2,
                        config=config) as harness:
        yield harness


class TestParity:
    def test_exact_mode_is_bit_equal(self, fleet, reference, queries):
        for query in queries:
            expected = [(s.score, s.table_id)
                        for s in reference.search(query, k=K)]
            status, body = post_search(fleet.port, payload_of(query))
            assert status == 200
            assert body["degraded"] is False
            assert ranking(body) == expected

    def test_prefilter_mode_is_bit_equal(self, fleet, reference, queries):
        for query in queries:
            expected = [
                (s.score, s.table_id)
                for s in reference.search(query, k=K, mode="prefilter")
            ]
            status, body = post_search(
                fleet.port, payload_of(query, mode="prefilter")
            )
            assert status == 200
            assert ranking(body) == expected

    def test_full_coverage_is_reported(self, fleet, queries):
        status, body = post_search(fleet.port, payload_of(queries[0]))
        assert status == 200
        cluster = body["cluster"]
        assert cluster["covered_tables"] == cluster["tables_total"] == 60
        assert cluster["uncovered_tables"] == 0
        assert cluster["failed_workers"] == []
        assert cluster["hedged_retry"] is False

    def test_union_and_join_tasks_are_bit_equal(
        self, fleet, reference, queries
    ):
        """Task scatters merge shard partials into the exact ranking.

        Every worker restricts the vectorized union/join engines to its
        shard; ``merge_topk`` over the per-shard partials must equal a
        single-process search of the same task.
        """
        for task in ("union", "join"):
            for query in queries[:2]:
                expected = [
                    (s.score, s.table_id)
                    for s in reference.search(query, k=K, task=task)
                ]
                status, body = post_search(
                    fleet.port, dict(payload_of(query), task=task)
                )
                assert status == 200
                assert body["task"] == task
                assert body["degraded"] is False
                assert ranking(body) == expected

    def test_bad_request_is_400(self, fleet):
        status, body = post_search(fleet.port, {"tuples": []})
        assert status == 400

    def test_unknown_path_is_404(self, fleet):
        status, _ = get_json(fleet.port, "/nope")
        assert status == 404


class TestTopologyParity:
    """One body, one ranking: in process, one server, and a fleet.

    Every valid ``(mode, votes, task)`` plan over a 200-table lake, sent
    as the same ``/search`` body to a :class:`ServerThread` and to a
    two-worker fleet, must rank exactly as in-process
    :meth:`Thetis.search` does.  The retired ``use_lsh`` field is a 400
    everywhere it used to parse.
    """

    PLANS = [
        (mode, votes, task)
        for mode in ("exact", "prefilter")
        for votes in (1, 3)
        for task in (("entity", "union", "join") if mode == "exact"
                     else ("entity",))
    ]

    @pytest.fixture(scope="class")
    def bench(self):
        return build_benchmark(
            WT2015_PROFILE, num_tables=200, num_query_pairs=6, seed=7
        )

    @pytest.fixture(scope="class")
    def topologies(self, bench):
        from repro.serve import ServeConfig, ServerThread

        factory = make_factory(bench)
        with factory(0) as local, ClusterHarness(factory, workers=2) as fleet:
            server = ServerThread(factory(0), ServeConfig(port=0))
            server.start().wait_ready()
            try:
                yield local, server, fleet
            finally:
                server.stop()

    def test_every_plan_ranks_alike_on_every_topology(self, bench,
                                                      topologies):
        local, server, fleet = topologies
        queries = list(bench.queries.all_queries().values())
        assert len(queries) == 12
        for mode, votes, task in self.PLANS:
            for query in queries:
                expected = [
                    (s.score, s.table_id)
                    for s in local.search(
                        query, k=10, mode=mode, votes=votes, task=task
                    )
                ]
                body = dict(payload_of(query, mode=mode, k=10),
                            votes=votes, task=task)
                for port in (server.port, fleet.port):
                    status, reply = post_search(port, body)
                    assert status == 200, reply
                    assert ranking(reply) == expected, (mode, votes, task)

    def test_use_lsh_is_rejected(self, bench, topologies):
        _, server, fleet = topologies
        query = next(iter(bench.queries.all_queries().values()))
        body = dict(payload_of(query, k=10), use_lsh=True, votes=3)
        for port, path in ((server.port, "/search"), (server.port, "/topk"),
                           (fleet.port, "/search")):
            status, reply = post_json(port, path, body)
            assert status == 400
            assert "unknown request fields: use_lsh" in reply["error"]


class TestEndpoints:
    def test_healthz(self, fleet):
        status, body = get_json(fleet.port, "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_readyz(self, fleet):
        status, body = get_json(fleet.port, "/readyz")
        assert status == 200
        assert body["workers_live"] == 2

    def test_cluster_status_lists_workers(self, fleet):
        status, body = get_json(fleet.port, "/cluster/status")
        assert status == 200
        ids = sorted(w["worker_id"] for w in body["workers"])
        assert ids == ["worker-0", "worker-1"]
        assert body["workers_live"] == 2
        assert body["epoch"] >= 2  # one flip per registration
        # Heartbeats scrape per-worker stats into the status document.
        scraped = wait_until(lambda: all(
            "tables_total" in w
            for w in get_json(fleet.port, "/cluster/status")[1]["workers"]
        ) or None)
        assert scraped

    def test_metrics_cluster_block(self, fleet, queries):
        post_search(fleet.port, payload_of(queries[0]))
        status, body = get_json(fleet.port, "/metrics")
        assert status == 200
        cluster = body["cluster"]
        assert cluster["workers_total"] == 2
        assert cluster["workers_live"] == 2
        assert cluster["scatters_total"] >= 1
        assert cluster["shard_requests_total"] >= 2
        assert body["requests_total"] >= 1


    def test_bogus_paths_do_not_grow_metrics(self, fleet):
        """Requests are labelled by matched route, never by the
        client-supplied path: a scanner cannot grow /metrics."""
        def blocks():
            body = get_json(fleet.port, "/metrics")[1]
            return set(body["requests"]), set(body["latency"])

        assert post_json(fleet.port, "/scan/warm-up")[0] == 404
        assert get_json(fleet.port, "/scan/warm-up")[0] == 404
        blocks()  # the scrape itself is a counted request
        before = blocks()
        for index in range(200):
            probe = post_json if index % 2 else get_json
            assert probe(fleet.port, f"/scan/{index}/x{index}")[0] == 404
        assert blocks() == before
        assert not any("scan" in key for block in before for key in block)


class TestWorkerWire:
    def test_search_frame_is_refused_and_connection_survives(self, fleet):
        """The single-query ``search`` frame is retired: a worker
        refuses it without dropping the connection."""
        async def talk():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", fleet.worker_threads[0].port
            )
            try:
                await write_frame(writer, {
                    "type": "search", "epoch": 1, "owner": "worker-0",
                    "live": ["worker-0"], "tuples": [["kg:a"]],
                })
                refused = await read_frame(reader)
                await write_frame(writer, {"type": "ping"})
                pong = await read_frame(reader)
            finally:
                writer.close()
                await writer.wait_closed()
            return refused, pong

        refused, pong = asyncio.run(talk())
        assert refused["ok"] is False
        assert "not served by workers" in refused["error"]
        assert pong["ok"] is True and pong["type"] == "pong"


class TestShutdown:
    def test_fleet_stop_leaves_no_pending_task(self, cluster_bench, queries,
                                               caplog):
        """Start -> search -> stop with a keep-alive connection still
        open: every coordinator task is awaited, none is destroyed
        pending when its loop closes."""
        config = ClusterConfig(heartbeat_interval=0.05)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            harness = ClusterHarness(
                make_factory(cluster_bench), workers=2, config=config
            ).start()
            connection = http.client.HTTPConnection(
                "127.0.0.1", harness.port, timeout=30.0
            )
            try:
                connection.request(
                    "POST", "/search",
                    body=json.dumps(payload_of(queries[0])),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                harness.stop()
            finally:
                connection.close()
            gc.collect()  # Task.__del__ is what logs the message
        assert not [
            record.getMessage() for record in caplog.records
            if "Task was destroyed" in record.getMessage()
        ]

    def test_stop_mid_request_leaks_no_socket(self, cluster_bench, queries,
                                              caplog):
        """Stop the fleet while a worker is still inside a shard pass
        that outlived ``shard_timeout``: every connection handler is
        awaited, so no socket or transport is left unclosed."""
        config = ClusterConfig(heartbeat_interval=0.1, dead_after=1,
                               shard_timeout=0.3)
        with warnings.catch_warnings(record=True) as caught, \
                caplog.at_level(logging.ERROR, logger="asyncio"):
            warnings.simplefilter("always", ResourceWarning)
            harness = ClusterHarness(
                make_factory(cluster_bench), workers=2, config=config
            ).start()
            try:
                stall_first_pass(harness, 0, 1.0)
                status, body = post_search(harness.port,
                                           payload_of(queries[0]))
                assert status == 200 and body["degraded"] is True
            finally:
                harness.stop()  # worker-0 is still stalled here
            gc.collect()
        assert not [
            str(warning.message) for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]
        assert not [
            record.getMessage() for record in caplog.records
            if "Task was destroyed" in record.getMessage()
        ]


def stall_first_pass(harness, index, seconds):
    """Make worker ``index``'s next shard pass block its loop thread."""
    thetis = harness.worker_threads[index].worker.thetis
    search = thetis.search_shard_batch
    stalled = []

    def stalling_search(*args, **kwargs):
        if not stalled:
            stalled.append(True)
            time.sleep(seconds)
        return search(*args, **kwargs)

    thetis.search_shard_batch = stalling_search


class TestThreadModel:
    def test_shard_passes_run_on_the_worker_loop_thread(
            self, cluster_bench, queries):
        with ClusterHarness(make_factory(cluster_bench), workers=2) as harness:
            seen = set()
            for thread in harness.worker_threads:
                search = thread.worker.thetis.search_shard_batch

                def recording(*args, _search=search, **kwargs):
                    seen.add(threading.current_thread())
                    return _search(*args, **kwargs)

                thread.worker.thetis.search_shard_batch = recording
            status, _ = post_search(harness.port, payload_of(queries[0]))
            assert status == 200
            names = [thread.name for thread in threading.enumerate()]
            loops = {thread._thread for thread in harness.worker_threads}
        assert seen == loops
        assert not [name for name in names if name.startswith("thetis-shard-")]


class TestBusyWorker:
    def test_busy_worker_is_not_demoted(self, cluster_bench, reference,
                                        queries):
        """A pass longer than the ping timeout blocks the worker's
        pings, but its shard RPC is in flight, so it stays live."""
        query = queries[0]
        expected = [(s.score, s.table_id)
                    for s in reference.search(query, k=K)]
        config = ClusterConfig(heartbeat_interval=0.1, dead_after=1)
        with ClusterHarness(make_factory(cluster_bench), workers=2,
                            config=config) as harness:
            wait_until(lambda: all(
                "tables_total" in w
                for w in get_json(harness.port, "/cluster/status")[1][
                    "workers"]
            ) or None)
            epoch = get_json(harness.port, "/cluster/status")[1]["epoch"]
            stall_first_pass(harness, 0, 1.5)  # ping timeout is 1 s
            status, body = post_search(harness.port, payload_of(query))
            assert status == 200
            assert body["degraded"] is False
            assert ranking(body) == expected
            _, doc = get_json(harness.port, "/cluster/status")
            cluster = get_json(harness.port, "/metrics")[1]["cluster"]
        assert doc["epoch"] == epoch
        assert {w["state"] for w in doc["workers"]} == {"live"}
        assert cluster["hedged_retries_total"] == 0

    def test_stalled_worker_is_hedged_and_demoted(self, cluster_bench,
                                                  reference, queries):
        """A pass past ``shard_timeout`` still fails its shard: the
        query hedges to the replica and the worker is demoted."""
        query = queries[0]
        expected = [(s.score, s.table_id)
                    for s in reference.search(query, k=K)]
        config = ClusterConfig(heartbeat_interval=0.1, dead_after=1,
                               shard_timeout=0.3)
        with ClusterHarness(make_factory(cluster_bench), workers=2,
                            config=config) as harness:
            stall_first_pass(harness, 0, 2.0)
            status, body = post_search(harness.port, payload_of(query))
            assert status == 200
            assert body["degraded"] is True
            assert body["cluster"]["hedged_retry"] is True
            assert body["cluster"]["failed_workers"] == ["worker-0"]
            assert ranking(body) == expected
            _, doc = get_json(harness.port, "/cluster/status")
            cluster = get_json(harness.port, "/metrics")[1]["cluster"]

            def state_of_worker_0():
                workers = get_json(harness.port, "/cluster/status")[1][
                    "workers"]
                return {w["worker_id"]: w["state"] for w in workers}[
                    "worker-0"]

            # Once the stall ends, the next answered ping revives it.
            wait_until(lambda: state_of_worker_0() == "live")
        states = {w["worker_id"]: w["state"] for w in doc["workers"]}
        assert states["worker-0"] == "dead"
        assert cluster["hedged_retries_total"] >= 1


def corrupt_first_reply(harness, index, corrupt):
    """Make worker ``index``'s next ``search_batch`` reply malformed."""
    worker = harness.worker_threads[index].worker
    handle = worker._handle_search_batch
    corrupted = []

    async def corrupting(message):
        reply = await handle(message)
        if not corrupted:
            corrupted.append(True)
            corrupt(reply)
        return reply

    worker._handle_search_batch = corrupting


class TestMalformedReply:
    @pytest.mark.parametrize("corrupt", [
        lambda reply: reply["results"].__setitem__(0, [["bad"]]),
        lambda reply: reply["results"][0].append([True, "T0"]),
        lambda reply: reply["results"].append([]),
        lambda reply: reply.__setitem__("shard_size", "12"),
        lambda reply: reply.pop("tables_total"),
    ], ids=["short-pair", "bool-score", "extra-row", "str-shard-size",
            "no-tables-total"])
    def test_malformed_reply_is_a_failed_shard_not_a_500(
            self, cluster_bench, reference, queries, corrupt):
        """A worker reply that does not check out is a failed shard:
        the query hedges to the replica and answers 200, degraded, with
        the exact ranking."""
        query = queries[0]
        expected = [(s.score, s.table_id)
                    for s in reference.search(query, k=K)]
        with ClusterHarness(make_factory(cluster_bench),
                            workers=2) as harness:
            corrupt_first_reply(harness, 0, corrupt)
            status, body = post_search(harness.port, payload_of(query))
        assert status == 200
        assert body["degraded"] is True
        assert body["cluster"]["hedged_retry"] is True
        assert body["cluster"]["failed_workers"] == ["worker-0"]
        assert ranking(body) == expected


class TestFailover:
    def test_crash_degrade_promote_recover(self, cluster_bench, reference,
                                           queries):
        """The kill-a-worker lifecycle, end to end.

        With R=2 replication a single death keeps every table covered:
        the crash-window response must stay 200 and bit-identical (via
        hedged retry to replicas), flagged ``degraded`` until the
        heartbeat loop declares the worker dead and flips the epoch.
        """
        query = queries[0]
        expected = [(s.score, s.table_id)
                    for s in reference.search(query, k=K)]
        config = ClusterConfig(heartbeat_interval=0.2, dead_after=2)
        with ClusterHarness(make_factory(cluster_bench), workers=3,
                            config=config) as harness:
            status, body = post_search(harness.port, payload_of(query))
            assert status == 200 and not body["degraded"]

            harness.crash_worker(0)
            status, body = post_search(harness.port, payload_of(query))
            assert status == 200  # never a 500 during fail-over
            assert body["degraded"] is True
            assert body["cluster"]["failed_workers"] == ["worker-0"]
            assert body["cluster"]["hedged_retry"] is True
            assert ranking(body) == expected  # replicas fill the gap

            # Heartbeats mark the worker dead and promote replicas;
            # responses then go clean again.
            def clean():
                status, body = post_search(harness.port, payload_of(query))
                assert status == 200
                return None if body["degraded"] else body

            body = wait_until(clean)
            assert ranking(body) == expected
            _, doc = get_json(harness.port, "/cluster/status")
            states = {w["worker_id"]: w["state"] for w in doc["workers"]}
            assert states["worker-0"] == "dead"
            cluster = get_json(harness.port, "/metrics")[1]["cluster"]
            assert cluster["workers_live"] == 2
            assert cluster["shard_failures_total"] >= 1
            assert cluster["hedged_retries_total"] >= 1
            assert cluster["degraded_total"] >= 1
            port = harness.port
        with pytest.raises(OSError):
            get_json(port, "/healthz", timeout=5.0)

    def test_live_rebalance_add_worker(self, cluster_bench, reference,
                                       queries):
        """Joining a worker flips the epoch with zero downtime."""
        query = queries[0]
        expected = [(s.score, s.table_id)
                    for s in reference.search(query, k=K)]
        config = ClusterConfig(heartbeat_interval=0.2, dead_after=2)
        with ClusterHarness(make_factory(cluster_bench), workers=1,
                            config=config) as harness:
            status, body = post_search(harness.port, payload_of(query))
            assert status == 200 and ranking(body) == expected
            epoch_before = body["cluster"]["epoch"]
            assert body["cluster"]["workers_scattered"] == 1

            harness.add_worker(1)

            def rebalanced():
                status, body = post_search(harness.port, payload_of(query))
                assert status == 200
                scattered = body["cluster"]["workers_scattered"]
                return body if scattered == 2 else None

            body = wait_until(rebalanced)
            assert body["cluster"]["epoch"] > epoch_before
            assert not body["degraded"]
            assert ranking(body) == expected
