"""The cluster coordinator: membership, routing epochs, scatter-gather.

The coordinator owns no corpus data at all — it is a routing tier.  It
answers the same ``POST /search`` wire contract as the single-process
server (:mod:`repro.serve`), but executes each query as a
scatter-gather: every live worker scores the shard it is primary for
under the current routing epoch, and the per-shard top-k partials are
merged with :func:`repro.core.parallel.merge_topk` — the bit-identical
``(-score, table_id)`` merge — so the cluster ranking equals the
single-process ranking exactly, for both ``exact`` and ``prefilter``
modes.

Fail-over is layered:

1. **Per-shard timeout + hedged retry.**  A shard RPC that times out
   or dies mid-flight fails *that shard only*; the coordinator
   immediately re-scatters the failed primaries' tables to the
   surviving replicas (each survivor scores exactly the delta the ring
   reassigns to it), so one slow or dying worker costs one extra round
   trip, not the query.
2. **Degraded, never wrong.**  Any query that saw a primary fail — or
   that left tables uncovered because every replica of some shard is
   dead — answers ``200`` with ``"degraded": true``.  The results that
   are present are still exact; degradation is about coverage, not
   score quality.
3. **Promotion via epoch flip.**  The heartbeat loop (and repeated
   query-path failures) confirm a worker dead, shrink the live set,
   and atomically bump the routing epoch — after which replicas are
   primaries and responses are clean again.  A worker that comes back
   (or a new one that registers) flips the epoch the same way: that
   *is* the live-rebalance mechanism, and it never blocks a query.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.client import WorkerLink
from repro.cluster.protocol import (
    Frame,
    FrameShell,
    RoutingTable,
    expect_endpoint,
    expect_type,
    expect_worker_id,
)
from repro.core.kernel.batchstats import BatchStats
from repro.core.parallel import merge_topk
from repro.core.result import ResultSet, ScoredTable
from repro.exceptions import ClusterError, ClusterProtocolError
from repro.serve.batching import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_QUEUE_DEPTH,
    DEFAULT_REQUEST_TIMEOUT,
    MicroBatcher,
)
from repro.serve.http import (
    HttpRequest, HttpResponse, HttpShell, search_handler,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    SearchOutcome, SearchPlan, SearchRequest, error_to_json,
)


@dataclass
class ClusterConfig:
    """Tuning knobs of one coordinator (see ``docs/cluster.md``)."""

    host: str = "127.0.0.1"
    #: HTTP front door (``0`` binds an ephemeral port).
    port: int = 0
    #: Framed control port workers register on.
    control_port: int = 0
    #: Owners per table; replicas serve only after primaries die.
    replication: int = 2
    #: Seconds between heartbeat rounds.
    heartbeat_interval: float = 0.5
    #: Consecutive failures (pings + query-path transport errors)
    #: before a worker is declared dead and its replicas promoted.
    dead_after: int = 3
    #: Per-shard RPC deadline within one query.
    shard_timeout: float = 10.0
    #: ``/readyz`` flips once this many workers are live.
    min_workers: int = 1
    #: Micro-batch coalescing of the ``/search`` front door: concurrent
    #: queries fold into one batched scatter (a single fused kernel
    #: pass per shard) instead of one scatter per query.
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT


@dataclass
class _WorkerHandle:
    """Coordinator-side state of one registered worker."""

    worker_id: str
    host: str
    port: int
    link: WorkerLink
    state: str = "live"  # "live" | "dead"
    failures: int = 0
    last_seen: float = 0.0
    stats: Dict[str, Any] = field(default_factory=dict)


def _well_formed(reply: Dict[str, Any], queries: int) -> bool:
    """Whether a ``result_batch`` reply can be folded, checked whole.

    One list per query of ``[score, table_id]`` pairs, and integer
    ``shard_size`` / ``tables_total``.  Nothing is folded before all of
    it is checked, so a bad reply is one failed shard (it takes the
    hedged retry), never a half-merged ranking or an error.
    """
    rows = reply.get("results")
    return (
        isinstance(rows, list) and len(rows) == queries
        and type(reply.get("shard_size")) is int
        and type(reply.get("tables_total")) is int
        and all(isinstance(row, list) and all(map(_is_pair, row))
                for row in rows)
    )


def _is_pair(entry: Any) -> bool:
    return (isinstance(entry, list) and len(entry) == 2
            and type(entry[0]) in (int, float)
            and isinstance(entry[1], str))


class ClusterMetrics:
    """Scatter-gather counters surfaced as the ``/metrics`` cluster block."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.scatters_total = 0  # guarded-by: _lock
        self.shard_requests_total = 0  # guarded-by: _lock
        self.shard_failures_total = 0  # guarded-by: _lock
        self.hedged_retries_total = 0  # guarded-by: _lock
        self.degraded_total = 0  # guarded-by: _lock
        self.epoch_flips_total = 0  # guarded-by: _lock
        self.uncovered_tables_last = 0  # guarded-by: _lock

    def note_scatter(
        self,
        shard_requests: int,
        failures: int,
        retried: bool,
        degraded: bool,
        uncovered: int,
    ) -> None:
        with self._lock:
            self.scatters_total += 1
            self.shard_requests_total += shard_requests
            self.shard_failures_total += failures
            if retried:
                self.hedged_retries_total += 1
            if degraded:
                self.degraded_total += 1
            self.uncovered_tables_last = uncovered

    def note_epoch_flip(self) -> None:
        with self._lock:
            self.epoch_flips_total += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "scatters_total": self.scatters_total,
                "shard_requests_total": self.shard_requests_total,
                "shard_failures_total": self.shard_failures_total,
                "hedged_retries_total": self.hedged_retries_total,
                "degraded_total": self.degraded_total,
                "epoch_flips_total": self.epoch_flips_total,
                "uncovered_tables_last": self.uncovered_tables_last,
            }


class ClusterCoordinator:
    """HTTP front door + control plane of one worker fleet."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        self.metrics = ServerMetrics()
        self.cluster_metrics = ClusterMetrics()
        self.batcher = MicroBatcher(
            runner=self._scatter_plan,
            metrics=self.metrics,
            max_batch_size=self.config.max_batch_size,
            max_queue_depth=self.config.max_queue_depth,
            request_timeout=self.config.request_timeout,
        )
        # Topology state; mutated only on the event loop under this
        # lock so epoch flips are atomic with ring/live updates.
        self._topology_lock = asyncio.Lock()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._epoch = 0
        # Shard RPCs awaiting a reply, per worker id (see the heartbeat).
        self._in_flight: Dict[str, int] = {}
        self._http = HttpShell(
            {
                ("GET", "/readyz"): self._handle_readyz,
                ("GET", "/metrics"): self._handle_metrics,
                ("GET", "/cluster/status"): self._handle_status,
                ("POST", "/search"): search_handler(self.batcher),
            },
            self.metrics,
        )
        self._control = FrameShell(self._handle_control)
        self._heartbeat_task: Optional["asyncio.Task[None]"] = None
        self._push_tasks: Set["asyncio.Task[None]"] = set()
        self._shut_down = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        port = self._http.port
        if port is None:
            raise ClusterError("coordinator is not listening")
        return port

    @property
    def control_port(self) -> int:
        port = self._control.port
        if port is None:
            raise ClusterError("coordinator control port is not listening")
        return port

    async def start(self) -> None:
        if self._http.port is not None:
            raise ClusterError("coordinator already started")
        await self._control.start(self.config.host, self.config.control_port)
        await self._http.start(self.config.host, self.config.port)
        loop = asyncio.get_running_loop()
        self._heartbeat_task = loop.create_task(
            self._heartbeat_loop(), name="thetis-cluster-heartbeat"
        )
        await self.batcher.start()

    async def serve_forever(self) -> None:
        await self._http.serve_forever()

    async def shutdown(self) -> None:
        if self._shut_down:
            return
        self._shut_down = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
        # Drain before the worker links close so admitted queries still
        # complete their scatter; each is bounded by the request timeout.
        await self._http.close(self.config.request_timeout)
        await self.batcher.stop()
        await self._control.close()
        pushes = list(self._push_tasks)
        for task in pushes:
            task.cancel()
        # Awaited, not just cancelled: a task still pending when the
        # loop closes is "destroyed but it is pending".
        await asyncio.gather(*pushes, return_exceptions=True)
        async with self._topology_lock:
            handles = list(self._workers.values())
        for handle in handles:
            await handle.link.close()

    # ------------------------------------------------------------------
    # Control plane: registration + heartbeat
    # ------------------------------------------------------------------
    async def _handle_control(self, message: Frame) -> Frame:
        """Answer one control-port frame (``register`` / ``leave``)."""
        kind = expect_type(message)
        if kind == "register":
            return await self._handle_register(message)
        if kind == "leave":
            return await self._handle_leave(message)
        raise ClusterProtocolError(
            f"message type {kind!r} is not served on the control port"
        )

    async def _handle_register(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        worker_id = expect_worker_id(message)
        host, port = expect_endpoint(message)
        stale_link: Optional[WorkerLink] = None
        async with self._topology_lock:
            existing = self._workers.get(worker_id)
            if existing is not None:
                stale_link = existing.link
            self._workers[worker_id] = _WorkerHandle(
                worker_id=worker_id,
                host=host,
                port=port,
                link=WorkerLink(host, port),
                last_seen=time.monotonic(),
            )
            epoch = self._flip_epoch_locked()
        if stale_link is not None:
            await stale_link.close()
        await self._push_routing()
        return {"ok": True, "epoch": epoch}

    async def _handle_leave(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        worker_id = expect_worker_id(message)
        async with self._topology_lock:
            handle = self._workers.pop(worker_id, None)
            epoch = self._flip_epoch_locked() if handle else self._epoch
        if handle is None:
            return {"ok": False, "error": f"unknown worker: {worker_id}"}
        await handle.link.close()
        await self._push_routing()
        return {"ok": True, "epoch": epoch}

    def _flip_epoch_locked(self) -> int:
        """Bump the routing epoch atomically (caller holds the lock).

        The ring itself is a pure function of ``(workers, replication,
        vnodes)``; the coordinator never materializes it — workers
        derive their shards from the pushed :class:`RoutingTable`, and
        the epoch number is what makes 'which membership' unambiguous
        for in-flight requests.
        """
        self._epoch += 1
        self.cluster_metrics.note_epoch_flip()
        return self._epoch

    async def _routing_table(self) -> RoutingTable:
        async with self._topology_lock:
            return RoutingTable(
                epoch=self._epoch,
                workers=tuple(self._workers),
                live=tuple(
                    worker_id
                    for worker_id, handle in self._workers.items()
                    if handle.state == "live"
                ),
                replication=self.config.replication,
            )

    async def _push_routing(self) -> None:
        """Install the current routing table on every live worker."""
        table = await self._routing_table()
        message = {"type": "routing", **table.to_json()}
        async with self._topology_lock:
            targets = [
                handle for handle in self._workers.values()
                if handle.state == "live"
            ]
        if not targets:
            return
        await asyncio.gather(
            *(
                self._push_one(handle, message)
                for handle in targets
            ),
        )

    async def _push_one(
        self, handle: _WorkerHandle, message: Dict[str, Any]
    ) -> None:
        try:
            await handle.link.request(
                message, timeout=handle.link.connect_timeout
            )
        except ClusterError:
            # The heartbeat loop will confirm and demote; a worker that
            # missed a push simply answers stale-epoch until re-pushed.
            pass

    async def _heartbeat_loop(self) -> None:
        """Ping every worker each interval; demote after ``dead_after``.

        Busy is not dead: a worker scores on its event-loop thread, so
        it cannot answer a ping while a shard pass runs, and a long
        pass (a k=None batch on a large lake) would outlast
        ``dead_after`` ping timeouts.  A ping that times out while a
        shard RPC to that worker is in flight is not counted; that
        RPC's own ``shard_timeout`` detects a stall, and a crash still
        shows at once as an EOF or a refused dial.
        """
        interval = self.config.heartbeat_interval
        timeout = max(interval * 2.0, 1.0)
        while not self._shut_down:
            await asyncio.sleep(interval)
            async with self._topology_lock:
                handles = list(self._workers.values())
            flipped = False
            for handle in handles:
                try:
                    pong = await handle.link.request(
                        {"type": "ping"}, timeout=timeout
                    )
                except ClusterError as exc:
                    timed_out = isinstance(
                        exc.__cause__, (asyncio.TimeoutError, TimeoutError)
                    )
                    if timed_out and self._in_flight.get(handle.worker_id):
                        continue
                    if await self._note_failure(handle.worker_id):
                        flipped = True
                    continue
                if not pong.get("ok"):
                    continue
                async with self._topology_lock:
                    current = self._workers.get(handle.worker_id)
                    if current is None:
                        continue
                    current.failures = 0
                    current.last_seen = time.monotonic()
                    current.stats = {
                        key: pong.get(key)
                        for key in (
                            "epoch", "tables_total", "searches_total",
                            "uptime_seconds", "profile", "prefilter",
                            "batch", "tasks",
                        )
                    }
                    if current.state == "dead":
                        # The worker came back: rejoin the live set —
                        # the other half of live rebalance.
                        current.state = "live"
                        self._flip_epoch_locked()
                        flipped = True
            if flipped:
                await self._push_routing()

    async def _note_failure(self, worker_id: str) -> bool:
        """Count one transport failure; returns True on a demotion."""
        async with self._topology_lock:
            handle = self._workers.get(worker_id)
            if handle is None:
                return False
            handle.failures += 1
            if (handle.state == "live"
                    and handle.failures >= self.config.dead_after):
                handle.state = "dead"
                self._flip_epoch_locked()
                return True
        return False

    # ------------------------------------------------------------------
    # HTTP front door
    # ------------------------------------------------------------------
    async def _handle_readyz(self, request: HttpRequest) -> HttpResponse:
        table = await self._routing_table()
        if len(table.live) >= self.config.min_workers:
            return HttpResponse(200, {
                "status": "ready", "workers_live": len(table.live),
            })
        return HttpResponse(503, error_to_json(
            f"{len(table.live)}/{self.config.min_workers} workers live",
            503,
        ))

    async def _handle_metrics(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, await self._metrics_payload())

    async def _handle_status(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, await self._status_payload())

    async def _metrics_payload(self) -> Dict[str, Any]:
        table = await self._routing_table()
        cluster = self.cluster_metrics.snapshot()
        cluster.update({
            "epoch": table.epoch,
            "replication": table.replication,
            "workers_total": len(table.workers),
            "workers_live": len(table.live),
        })
        # Fold each worker's batched-kernel counters (reported with its
        # heartbeat pong) into one fleet-wide ``batch`` block; the
        # occupancy histogram comes from this coordinator's own
        # micro-batcher.
        fleet_batch = BatchStats()
        async with self._topology_lock:
            worker_counts = [
                handle.stats.get("batch")
                for handle in self._workers.values()
            ]
        for counts in worker_counts:
            if isinstance(counts, dict):
                fleet_batch.merge_counts(counts)
        return self.metrics.to_json(
            queue_depth=self.batcher.queue_depth,
            queue_limit=self.config.max_queue_depth,
            snapshot_version=table.epoch,
            uptime_seconds=self._http.uptime_seconds,
            cluster_stats=cluster,
            batch_stats=fleet_batch.as_dict(),
        )

    async def _status_payload(self) -> Dict[str, Any]:
        async with self._topology_lock:
            now = time.monotonic()
            workers = [
                {
                    "worker_id": handle.worker_id,
                    "host": handle.host,
                    "port": handle.port,
                    "state": handle.state,
                    "failures": handle.failures,
                    "last_seen_seconds_ago": (
                        now - handle.last_seen if handle.last_seen else None
                    ),
                    **handle.stats,
                }
                for handle in self._workers.values()
            ]
            epoch = self._epoch
        return {
            "epoch": epoch,
            "replication": self.config.replication,
            "workers": workers,
            "workers_live": sum(
                1 for worker in workers if worker["state"] == "live"
            ),
        }

    # ------------------------------------------------------------------
    # Scatter-gather query path
    # ------------------------------------------------------------------
    async def _scatter_plan(
        self, plan: SearchPlan, group: Sequence[SearchRequest]
    ) -> List[SearchOutcome]:
        """One batched scatter for a group of queries sharing ``plan``.

        Every live worker receives the whole query batch and the plan
        in one ``search_batch`` frame, scores its shard for all of them
        in one fused kernel pass, and answers one top-k partial per
        query; per-query partials are merged with :func:`merge_topk`,
        so each query's ranking is bit-identical to a solo scatter of
        that query.
        """
        self.metrics.note_task(plan.task, len(group))
        async with self._topology_lock:
            epoch = self._epoch
            links = {
                worker_id: handle.link
                for worker_id, handle in self._workers.items()
                if handle.state == "live"
            }
        live = tuple(links)
        if not live:
            raise ClusterError("no live workers in the ring")
        base = {
            "type": "search_batch",
            "epoch": epoch,
            "queries": [
                [list(entry) for entry in parsed.tuples]
                for parsed in group
            ],
            "live": list(live),
            **plan._asdict(),
        }
        replies = await self._scatter(links, base, live)
        partials: List[List[List[Tuple[float, str]]]] = [
            [] for _ in group
        ]
        covered = 0
        tables_total = 0
        failed: List[str] = []
        shard_requests = len(live)

        def absorb(worker_id: str, reply: Optional[Dict[str, Any]]) -> None:
            nonlocal covered, tables_total
            if reply is None or not _well_formed(reply, len(group)):
                if worker_id not in failed:
                    failed.append(worker_id)
                return
            for position, row in enumerate(reply["results"]):
                partials[position].append(row)
            covered += reply["shard_size"]
            tables_total = max(tables_total, reply["tables_total"])

        for worker_id in live:
            absorb(worker_id, replies[worker_id])
        retried = False
        if failed and len(failed) < len(live):
            # Hedged retry: surviving replicas score exactly the tables
            # the failed primaries owned (the ring's shard delta), so
            # the union of partials still covers every reachable table
            # exactly once — for every query of the batch at once.
            retried = True
            survivors = tuple(
                worker_id for worker_id in live if worker_id not in failed
            )
            retry = dict(
                base, live=list(survivors), prev_live=list(live)
            )
            retry_replies = await self._scatter(links, retry, survivors)
            for worker_id in survivors:
                absorb(worker_id, retry_replies[worker_id])
            shard_requests += len(survivors)
        if failed and not any(partials):
            self.cluster_metrics.note_scatter(
                shard_requests, len(failed), retried, True, tables_total
            )
            raise ClusterError("no shard answered the scatter")
        uncovered = max(0, tables_total - covered)
        degraded = bool(failed) or uncovered > 0
        self.cluster_metrics.note_scatter(
            shard_requests, len(failed), retried, degraded, uncovered
        )
        extra = {
            "degraded": degraded,
            "cluster": {
                "epoch": epoch,
                "workers_scattered": len(live),
                "failed_workers": failed,
                "hedged_retry": retried,
                "covered_tables": covered,
                "tables_total": tables_total,
                "uncovered_tables": uncovered,
            },
        }
        return [
            SearchOutcome(
                ResultSet(
                    ScoredTable(score, table_id)
                    for score, table_id in merge_topk(
                        partials[position], parsed.k
                    )
                ),
                epoch,
                extra,
            )
            for position, parsed in enumerate(group)
        ]

    async def _scatter(
        self,
        links: Dict[str, WorkerLink],
        message: Dict[str, Any],
        owners: Sequence[str],
    ) -> Dict[str, Optional[Dict[str, Any]]]:
        """Send one shard RPC per owner; ``None`` marks a failed shard."""
        outcomes = await asyncio.gather(
            *(
                self._one_shard(links[worker_id], worker_id, message)
                for worker_id in owners
            ),
        )
        return dict(zip(owners, outcomes))

    async def _one_shard(
        self,
        link: WorkerLink,
        worker_id: str,
        message: Dict[str, Any],
    ) -> Optional[Dict[str, Any]]:
        self._in_flight[worker_id] = self._in_flight.get(worker_id, 0) + 1
        try:
            reply = await link.request(
                dict(message, owner=worker_id),
                timeout=self.config.shard_timeout,
            )
        except ClusterError:
            # Transport failure: count toward demotion so a killed
            # worker is confirmed dead after a few more observations.
            flipped = await self._note_failure(worker_id)
            if flipped:
                self._spawn_push()
            return None
        finally:
            self._in_flight[worker_id] -= 1
        if not reply.get("ok"):
            if reply.get("stale_epoch"):
                # The worker missed a routing push (e.g. it registered
                # while a push was in flight): re-push asynchronously;
                # this query treats the shard as failed and hedges.
                self._spawn_push()
            return None
        return reply

    def _spawn_push(self) -> None:
        loop = asyncio.get_running_loop()
        task = loop.create_task(self._push_routing())
        self._push_tasks.add(task)
        task.add_done_callback(self._push_tasks.discard)

