"""A cluster worker: one process scoring its shard of the lake.

A worker wraps a warm :class:`~repro.system.Thetis` and serves the
length-prefixed JSON protocol of :mod:`repro.cluster.protocol` on a
TCP port.  Its only scoring primitive is
:meth:`~repro.system.Thetis.search_shard_batch`: given a routing epoch,
a liveness set, and its own id, the worker derives its shard of table
ids from the consistent-hash ring (:mod:`repro.cluster.hashring`) —
the same pure function the coordinator and every sibling compute — and
returns the shard's top-k ``(score, table_id)`` partial per query.

Cold start memmaps, never compiles: pointing the worker's Thetis at a
spilled segment directory (``index_dir=...`` /
``thetis cluster worker --index DIR``) re-opens the sealed arrays as
read-only memmaps through :mod:`repro.core.kernel.storage`, so N
workers on one machine share a single copy of the corpus through the
OS page cache.  A running worker can likewise *adopt* a newly shipped
sealed segment directory over the wire (the rebalance path).

Warm-up, ``adopt`` and every shard pass run on the event-loop thread:
the worker is CPU-bound under the GIL, so a second thread would add
hand-offs, not overlap.  A ping therefore waits for the running pass;
the coordinator does not count a ping that times out while it has a
shard RPC in flight to this worker (see its heartbeat loop).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.hashring import HashRing
from repro.cluster.protocol import (
    Frame,
    FrameShell,
    RoutingTable,
    expect_epoch,
    expect_segment_path,
    expect_worker_id,
    expect_worker_ids,
    read_frame,
    write_frame,
)
from repro.exceptions import (
    ClusterError,
    ClusterProtocolError,
    StaleEpochError,
)
from repro.serve.protocol import SearchPlan, SearchRequest
from repro.system import Thetis

#: Routing epochs a worker keeps resolvable.  In-flight requests built
#: against epoch E must still score correctly while the coordinator
#: flips to E+1; a handful of generations is plenty of overlap.
ROUTING_HISTORY = 8

#: Memoized shards per (epoch, live, owner, prev_live), as table ids and
#: as the lake's sorted table ordinals.  Shards are recomputed only when
#: liveness actually changes, so steady-state traffic computes each
#: partition (and converts it to ordinals) once.
SHARD_CACHE_LIMIT = 64

#: Registration retry budget and the pause between attempts (the
#: coordinator may bind later than its workers start).
REGISTER_ATTEMPTS = 20
REGISTER_BACKOFF = 0.25


@dataclass
class WorkerConfig:
    """Tuning knobs of one cluster worker."""

    worker_id: str
    host: str = "127.0.0.1"
    port: int = 0
    #: Coordinator control endpoint to register with (optional: a
    #: worker without one waits passively for routing pushes).
    coordinator_host: Optional[str] = None
    coordinator_port: Optional[int] = None
    #: Host workers advertise to the coordinator (defaults to ``host``).
    advertise_host: Optional[str] = None
    #: Engine warmed at start-up and used for shard scoring.
    method: str = "types"
    #: Warm the engine (see ``Thetis.warm``) before accepting shards.
    warm_on_start: bool = True


class ClusterWorker:
    """Serve shard RPCs for one :class:`Thetis` instance."""

    def __init__(self, thetis: Thetis, config: WorkerConfig):
        self.thetis = thetis
        self.config = config
        self._shell = FrameShell(self._dispatch)
        # Routing state; touched only from the event loop, serialized
        # by this lock so a routing install never interleaves with a
        # shard computation reading it.
        self._state_lock = asyncio.Lock()
        self._routing: Optional[RoutingTable] = None
        self._history: Dict[int, RoutingTable] = {}
        self._rings: Dict[int, HashRing] = {}
        self._shards: Dict[Tuple, Tuple[List[str], np.ndarray]] = {}
        self._started_at = 0.0
        self._searches_total = 0
        # Per-task query tallies ("entity" | "union" | "join"), folded
        # into the coordinator's fleet metrics via the pong.
        self._task_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (``port=0`` requests an ephemeral one)."""
        port = self._shell.port
        if port is None:
            raise ClusterError("worker is not listening")
        return port

    async def start(self) -> None:
        """Warm the engine, bind, and register with the coordinator."""
        if self._shell.port is not None:
            raise ClusterError("worker already started")
        self._started_at = time.monotonic()
        if self.config.warm_on_start:
            self.thetis.warm(self.config.method)
        await self._shell.start(self.config.host, self.config.port)
        if (self.config.coordinator_host is not None
                and self.config.coordinator_port is not None):
            await self._register()

    async def serve_forever(self) -> None:
        await self._shell.serve_forever()

    async def shutdown(self) -> None:
        """Graceful stop: unbind, end every connection (awaiting its
        handler task), release the engine; idempotent."""
        await self._shell.close()
        self.thetis.close()

    async def abort(self) -> None:
        """Crash simulation: drop every connection mid-flight, no drain.

        The fail-over tests (and the kill-a-worker benchmark when the
        worker is in-process) use this to make the coordinator observe
        exactly what a dead process looks like: refused dials and EOFs
        on pooled connections.
        """
        self._shell.abort()

    async def _register(self) -> None:
        """Dial the coordinator's control port and join the ring."""
        assert self.config.coordinator_host is not None
        message = {
            "type": "register",
            "worker_id": self.config.worker_id,
            "host": self.config.advertise_host or self.config.host,
            "port": self.port,
        }
        last_error: Optional[Exception] = None
        for _attempt in range(REGISTER_ATTEMPTS):
            try:
                reader, writer = await asyncio.open_connection(
                    self.config.coordinator_host, self.config.coordinator_port
                )
            except OSError as exc:
                last_error = exc
                await asyncio.sleep(REGISTER_BACKOFF)
                continue
            try:
                await write_frame(writer, message)
                reply = await read_frame(reader)
            finally:
                writer.close()
            if reply is None or not reply.get("ok"):
                raise ClusterError(
                    f"coordinator rejected registration: {reply!r}"
                )
            return
        raise ClusterError(
            f"could not reach coordinator at "
            f"{self.config.coordinator_host}:{self.config.coordinator_port}: "
            f"{last_error}"
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, message: Frame) -> Frame:
        # Compared, never forwarded: any type without a handler here
        # (the coordinator's own, the retired single-query "search",
        # garbage) gets the refusal below.
        kind = message.get("type")
        if kind == "ping":
            return await self._handle_ping()
        if kind == "routing":
            return await self._handle_routing(message)
        if kind == "search_batch":
            return await self._handle_search_batch(message)
        if kind == "adopt":
            return await self._handle_adopt(message)
        if kind == "status":
            return await self._handle_status()
        raise ClusterProtocolError(
            f"message type {kind!r} is not served by workers"
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_ping(self) -> Dict[str, Any]:
        async with self._state_lock:
            epoch = self._routing.epoch if self._routing else None
        return {
            "ok": True,
            "type": "pong",
            "worker_id": self.config.worker_id,
            "epoch": epoch,
            "tables_total": len(self.thetis.lake),
            "searches_total": self._searches_total,
            "uptime_seconds": time.monotonic() - self._started_at,
            "profile": self._profile_dict(),
            "prefilter": self.thetis.prefilter_stats.as_dict(),
            "batch": self.thetis.batch_stats.as_dict(),
            "tasks": dict(sorted(self._task_counts.items())),
        }

    def _profile_dict(self) -> Dict[str, Any]:
        profile = self.thetis.engine(self.config.method).profile
        return {
            "mapping_seconds": profile.mapping_seconds,
            "total_seconds": profile.total_seconds,
            "tables_scored": profile.tables_scored,
            "similarity_calls": profile.similarity_calls,
            "similarity_misses": profile.similarity_misses,
        }

    async def _handle_routing(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        table = RoutingTable.from_json(message)
        async with self._state_lock:
            if self._routing is None or table.epoch >= self._routing.epoch:
                self._routing = table
            self._history[table.epoch] = table
            self._rings.pop(table.epoch, None)
            while len(self._history) > ROUTING_HISTORY:
                oldest = min(self._history)
                del self._history[oldest]
                self._rings.pop(oldest, None)
            # Shard memos of retired epochs go with their tables.
            self._shards = {
                key: shard
                for key, shard in self._shards.items()
                if key[0] in self._history
            }
            return {"ok": True, "epoch": self._routing.epoch}

    async def _handle_search_batch(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Score a whole coordinator micro-batch in one shard pass.

        The frame carries a ``queries`` list (each entry the ``tuples``
        payload of one query) plus the shared
        :class:`~repro.serve.protocol.SearchPlan` fields; the shard is
        derived once and every query is scored in a single fused kernel
        pass via ``search_shard_batch``.  The reply's ``results`` holds
        one score/table-id pair list per query, in request order.
        """
        epoch = expect_epoch(message)
        owner = expect_worker_id(message, "owner")
        live = expect_worker_ids(message, "live")
        prev_live = (
            expect_worker_ids(message, "prev_live")
            if message.get("prev_live") is not None else None
        )
        raw_queries = message.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise ClusterProtocolError(
                "'queries' must be a non-empty list of tuple lists"
            )
        fields = {
            name: message[name]
            for name in SearchPlan._fields if name in message
        }
        requests = [
            SearchRequest.from_json(dict(fields, tuples=entry))
            for entry in raw_queries
        ]
        queries = [request.query() for request in requests]
        plan = requests[0].batch_key()
        shard, ordinals = await self._shard_for(epoch, live, owner, prev_live)
        if shard:
            rankings = self.thetis.search_shard_batch(
                queries, ordinals, **plan._asdict()
            )
            per_query = [
                [[scored.score, scored.table_id] for scored in results]
                for results in rankings
            ]
        else:
            per_query = [[] for _ in queries]
        self._searches_total += len(queries)
        self._task_counts[plan.task] = (
            self._task_counts.get(plan.task, 0) + len(queries)
        )
        return {
            "ok": True,
            "type": "result_batch",
            "worker_id": self.config.worker_id,
            "epoch": epoch,
            "shard_size": len(shard),
            "tables_total": len(self.thetis.lake),
            "results": per_query,
        }

    async def _handle_adopt(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Memmap a sealed segment directory into the engine."""
        from repro.core.kernel.storage import load_index

        path = expect_segment_path(message)
        engine = self.thetis.engine(self.config.method)
        adopt = getattr(engine, "adopt_index", None)
        if adopt is None:
            raise ClusterError(
                "this worker's engine has no segmented index; start it "
                "with engine_kind='vectorized' to adopt sealed segments"
            )
        index = load_index(path, engine.sigma, engine.mapping)
        adopt(index)
        stats = index.stats()
        return {
            "ok": True,
            "worker_id": self.config.worker_id,
            "adopted_tables": stats.live_tables if stats is not None else 0,
        }

    async def _handle_status(self) -> Dict[str, Any]:
        async with self._state_lock:
            routing = self._routing
            epochs = sorted(self._history)
        return {
            "ok": True,
            "worker_id": self.config.worker_id,
            "routing": routing.to_json() if routing else None,
            "known_epochs": epochs,
            "tables_total": len(self.thetis.lake),
            "searches_total": self._searches_total,
        }

    # ------------------------------------------------------------------
    # Shard derivation
    # ------------------------------------------------------------------
    async def _shard_for(
        self,
        epoch: int,
        live: Tuple[str, ...],
        owner: str,
        prev_live: Optional[Tuple[str, ...]],
    ) -> Tuple[List[str], np.ndarray]:
        async with self._state_lock:
            table = self._history.get(epoch)
            if table is None:
                current = self._routing.epoch if self._routing else -1
                raise StaleEpochError(epoch, current)
            key = (epoch, live, owner, prev_live)
            cached = self._shards.get(key)
            if cached is not None:
                return cached
            ring = self._rings.get(epoch)
            if ring is None:
                ring = HashRing(table.workers, replication=table.replication)
                self._rings[epoch] = ring
            table_ids = self.thetis.lake.table_ids()
            if prev_live is None:
                shard = ring.shard(owner, table_ids, live)
            else:
                shard = ring.shard_delta(owner, table_ids, live, prev_live)
            if len(self._shards) >= SHARD_CACHE_LIMIT:
                self._shards.clear()
            entry = (shard, self.thetis.lake.ordinals.lookup(shard))
            self._shards[key] = entry
            return entry
