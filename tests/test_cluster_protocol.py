"""Wire framing, routing-table codec, and hash-ring properties.

The cluster's correctness argument rests on three local facts tested
here: frames round-trip exactly (or fail loudly), routing tables are
validated at the trust boundary, and shard assignment is a pure
deterministic function of ``(workers, live, replication)`` so every
process holding the same epoch computes the same partition.
"""

import asyncio

import pytest

from repro.cluster import HashRing, RoutingTable, encode_frame, read_frame
from repro.cluster.hashring import DEFAULT_VNODES
from repro.cluster.protocol import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameShell,
    expect_type,
    write_frame,
)
from repro.exceptions import ClusterProtocolError, ConfigurationError


def decode(data: bytes):
    """Run ``read_frame`` against literal bytes (EOF after ``data``)."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(run())


class TestFraming:
    def test_round_trip(self):
        payload = {"type": "ping", "nested": {"a": [1, 2.5, None, "x"]}}
        assert decode(encode_frame(payload)) == payload

    def test_float_scores_round_trip_bit_exactly(self):
        # json repr is the shortest round-tripping decimal, so scores
        # survive the wire bit-for-bit — the merge-parity precondition.
        scores = [0.1 + 0.2, 1 / 3, 2**-30, 123456.789012345]
        frame = encode_frame({"type": "status", "scores": scores})
        assert decode(frame)["scores"] == scores

    def test_two_frames_back_to_back(self):
        data = encode_frame({"type": "ping", "n": 1}) + encode_frame(
            {"type": "ping", "n": 2}
        )

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = asyncio.run(run())
        assert (first["n"], second["n"]) == (1, 2)
        assert third is None  # clean EOF between frames

    def test_clean_eof_reads_none(self):
        assert decode(b"") is None

    def test_truncated_header_raises(self):
        with pytest.raises(ClusterProtocolError):
            decode(b"\x00\x00")

    def test_truncated_body_raises(self):
        frame = encode_frame({"type": "ping"})
        with pytest.raises(ClusterProtocolError):
            decode(frame[:-3])

    def test_oversized_length_raises(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(FRAME_HEADER_BYTES, "big")
        with pytest.raises(ClusterProtocolError):
            decode(header)

    def test_non_json_body_raises(self):
        body = b"not json"
        data = len(body).to_bytes(FRAME_HEADER_BYTES, "big") + body
        with pytest.raises(ClusterProtocolError):
            decode(data)

    def test_non_object_payload_raises(self):
        body = b"[1,2,3]"
        data = len(body).to_bytes(FRAME_HEADER_BYTES, "big") + body
        with pytest.raises(ClusterProtocolError):
            decode(data)

    def test_encode_rejects_non_object(self):
        with pytest.raises(ClusterProtocolError):
            encode_frame([1, 2, 3])  # type: ignore[arg-type]

    def test_expect_type(self):
        assert expect_type({"type": "search_batch"}) == "search_batch"
        with pytest.raises(ClusterProtocolError):
            expect_type({"type": "gossip"})
        with pytest.raises(ClusterProtocolError):
            # The single-query frame retired with PR 13.
            expect_type({"type": "search"})
        with pytest.raises(ClusterProtocolError):
            expect_type({})


class TestFrameShell:
    def test_replies_in_order_and_refuses_a_malformed_frame(self):
        async def run():
            async def echo(message):
                return {"ok": True, "echo": message["n"]}

            shell = FrameShell(echo)
            await shell.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", shell.port
            )
            for n in range(3):
                await write_frame(writer, {"type": "ping", "n": n})
            replies = [await read_frame(reader) for _ in range(3)]
            writer.write((3).to_bytes(FRAME_HEADER_BYTES, "big") + b"{{{")
            refused = await read_frame(reader)
            closed = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            await shell.close()
            return replies, refused, closed

        replies, refused, closed = asyncio.run(run())
        assert [reply["echo"] for reply in replies] == [0, 1, 2]
        assert refused["ok"] is False and "JSON" in refused["error"]
        assert closed is None  # the shell hung up after refusing

    def test_close_awaits_idle_and_busy_connections(self):
        """``close()`` returns only once every handler task is done: a
        connection parked between frames and one stuck mid-request."""
        async def run():
            entered = asyncio.Event()

            async def stuck(message):
                entered.set()
                await asyncio.Event().wait()  # never answers

            shell = FrameShell(stuck)
            await shell.start("127.0.0.1", 0)
            idle = await asyncio.open_connection("127.0.0.1", shell.port)
            busy = await asyncio.open_connection("127.0.0.1", shell.port)
            await write_frame(busy[1], {"type": "ping"})
            await entered.wait()
            tasks = set(shell._connections)
            await asyncio.wait_for(shell.close(), 5.0)
            after = await read_frame(busy[0])
            for _reader, writer in (idle, busy):
                writer.close()
                await writer.wait_closed()
            return tasks, shell, after

        tasks, shell, after = asyncio.run(run())
        assert len(tasks) == 2 and all(task.done() for task in tasks)
        assert not shell._connections and shell.port is None
        assert after is None


class TestRoutingTableCodec:
    def test_round_trip(self):
        table = RoutingTable(
            epoch=7,
            workers=("a", "b", "c"),
            live=("a", "c"),
            replication=2,
        )
        assert RoutingTable.from_json(table.to_json()) == table

    def test_duplicate_ids_are_deduplicated_in_order(self):
        table = RoutingTable.from_json(
            {"epoch": 0, "workers": ["b", "a", "b"], "live": ["a", "a"]}
        )
        assert table.workers == ("b", "a")
        assert table.live == ("a",)

    @pytest.mark.parametrize(
        "payload",
        [
            {"epoch": -1, "workers": [], "live": []},
            {"epoch": True, "workers": [], "live": []},
            {"epoch": "3", "workers": [], "live": []},
            {"epoch": 0, "workers": "ab", "live": []},
            {"epoch": 0, "workers": [""], "live": []},
            {"epoch": 0, "workers": [1], "live": []},
            {"epoch": 0, "workers": ["a"], "live": ["b"]},
            {"epoch": 0, "workers": ["a"], "live": ["a"],
             "replication": 0},
            {"epoch": 0, "workers": ["a"], "live": ["a"],
             "replication": True},
        ],
    )
    def test_invalid_payloads_raise(self, payload):
        with pytest.raises(ClusterProtocolError):
            RoutingTable.from_json(payload)


TABLE_IDS = [f"T{i:03d}" for i in range(200)]
WORKERS = ("alpha", "beta", "gamma", "delta")


class TestHashRing:
    def test_determinism_across_instances(self):
        # Two independently-built rings (as in two processes) agree on
        # every owner list — blake2b points, never salted hash().
        left = HashRing(WORKERS, replication=2)
        right = HashRing(WORKERS, replication=2)
        for table_id in TABLE_IDS:
            assert left.owners(table_id) == right.owners(table_id)

    def test_owners_are_distinct_and_r_way(self):
        ring = HashRing(WORKERS, replication=3)
        for table_id in TABLE_IDS:
            owners = ring.owners(table_id)
            assert len(owners) == 3
            assert len(set(owners)) == 3
            assert set(owners) <= set(WORKERS)

    def test_replication_clamps_to_fleet_size(self):
        ring = HashRing(("solo",), replication=3)
        assert ring.owners("T000") == ("solo",)

    def test_partition_covers_all_tables_when_all_live(self):
        ring = HashRing(WORKERS, replication=2)
        shards = ring.partition(TABLE_IDS, WORKERS)
        flattened = [tid for shard in shards.values() for tid in shard]
        assert sorted(flattened) == sorted(TABLE_IDS)
        assert len(flattened) == len(set(flattened))  # disjoint

    def test_shard_matches_partition(self):
        ring = HashRing(WORKERS, replication=2)
        shards = ring.partition(TABLE_IDS, WORKERS)
        for owner in WORKERS:
            assert ring.shard(owner, TABLE_IDS, WORKERS) == shards.get(
                owner, []
            )

    def test_failover_reassigns_only_dead_workers_tables(self):
        ring = HashRing(WORKERS, replication=2)
        before = ring.partition(TABLE_IDS, WORKERS)
        live = tuple(w for w in WORKERS if w != "beta")
        after = ring.partition(TABLE_IDS, live)
        # Full coverage survives one death under R=2 ...
        assert sorted(
            tid for shard in after.values() for tid in shard
        ) == sorted(TABLE_IDS)
        # ... and every table whose primary survived stays put.
        for owner in live:
            assert set(before[owner]) <= set(after[owner])

    def test_shard_delta_is_exactly_the_reassigned_tables(self):
        ring = HashRing(WORKERS, replication=2)
        live = tuple(w for w in WORKERS if w != "beta")
        for owner in live:
            delta = ring.shard_delta(owner, TABLE_IDS, live=live,
                                     prev_live=WORKERS)
            full = ring.shard(owner, TABLE_IDS, live)
            old = ring.shard(owner, TABLE_IDS, WORKERS)
            assert sorted(delta) == sorted(set(full) - set(old))

    def test_rebalance_moves_a_bounded_fraction(self):
        # Consistent hashing's point: adding a worker relocates roughly
        # 1/N of the keys, not all of them.
        ring_before = HashRing(WORKERS[:3], replication=1)
        ring_after = HashRing(WORKERS, replication=1)
        moved = sum(
            1
            for tid in TABLE_IDS
            if ring_before.owners(tid)[0] != ring_after.owners(tid)[0]
        )
        assert 0 < moved < len(TABLE_IDS) // 2

    def test_uncovered_tables_are_dropped_from_partition(self):
        ring = HashRing(("a", "b"), replication=1)
        shards = ring.partition(TABLE_IDS, live=("a",))
        covered = [tid for shard in shards.values() for tid in shard]
        only_a = ring.shard("a", TABLE_IDS, live=("a", "b"))
        assert sorted(covered) == sorted(only_a)

    def test_empty_ring_owns_nothing(self):
        ring = HashRing((), replication=2)
        assert ring.owners("T000") == ()
        assert ring.partition(TABLE_IDS, live=()) == {}

    def test_invalid_configurations_raise(self):
        with pytest.raises(ConfigurationError):
            HashRing(("a",), replication=0)
        with pytest.raises(ConfigurationError):
            HashRing(("a",), replication=1, vnodes=0)

    def test_default_vnodes(self):
        assert DEFAULT_VNODES == 64


class TestFieldValidators:
    """The wire-boundary sanitizers the handlers route frames through."""

    def test_expect_epoch_accepts_non_negative_int(self):
        from repro.cluster.protocol import expect_epoch

        assert expect_epoch({"epoch": 0}) == 0
        assert expect_epoch({"gen": 7}, "gen") == 7
        for bad in ({}, {"epoch": -1}, {"epoch": "3"}, {"epoch": True},
                    {"epoch": 2.0}):
            with pytest.raises(ClusterProtocolError):
                expect_epoch(bad)

    def test_expect_worker_id_requires_non_empty_string(self):
        from repro.cluster.protocol import expect_worker_id

        assert expect_worker_id({"worker_id": "w-1"}) == "w-1"
        assert expect_worker_id({"owner": "w-2"}, "owner") == "w-2"
        for bad in ({}, {"worker_id": ""}, {"worker_id": 3}):
            with pytest.raises(ClusterProtocolError):
                expect_worker_id(bad)

    def test_expect_worker_ids_dedupes_and_orders(self):
        from repro.cluster.protocol import expect_worker_ids

        assert expect_worker_ids(
            {"live": ["b", "a", "b"]}, "live"
        ) == ("b", "a")
        with pytest.raises(ClusterProtocolError):
            expect_worker_ids({"live": "not-a-list"}, "live")

    def test_expect_endpoint_bounds_the_port(self):
        from repro.cluster.protocol import expect_endpoint

        assert expect_endpoint(
            {"host": "127.0.0.1", "port": 8080}
        ) == ("127.0.0.1", 8080)
        for bad in ({"host": "", "port": 80},
                    {"host": "h", "port": 0},
                    {"host": "h", "port": 65536},
                    {"host": "h", "port": True},
                    {"host": "h", "port": "80"}):
            with pytest.raises(ClusterProtocolError):
                expect_endpoint(bad)

    def test_expect_segment_path_rejects_traversal_and_nul(self):
        from repro.cluster.protocol import expect_segment_path

        assert expect_segment_path(
            {"path": "/var/segments/seg-3"}
        ) == "/var/segments/seg-3"
        for bad in ({}, {"path": ""}, {"path": 7},
                    {"path": "/var/\x00/seg"},
                    {"path": "/var/../etc/passwd"},
                    {"path": "..\\..\\secrets"}):
            with pytest.raises(ClusterProtocolError):
                expect_segment_path(bad)
