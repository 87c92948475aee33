"""The asyncio HTTP query service wrapping a warm Thetis instance.

Request path::

    connection -> parse -> validate (400) -> admission (503 on full
    queue) -> micro-batch, split by SearchPlan -> one search_many pass
    per plan on the event-loop thread -> JSON response (504 past the
    deadline)

The cluster coordinator shares every step but the per-plan pass (its
runner scatters to workers instead); see
:func:`repro.serve.http.search_handler`.

Control plane::

    GET  /healthz      liveness (always 200 while the loop runs)
    GET  /readyz       readiness (200 only after index warm-up)
    GET  /metrics      counters, latency histograms, queue depth,
                       cache hit rates
    POST /search       exact top-k (optionally LSH-prefiltered)
    POST /topk         alias of /search exact mode
    POST /explain      per-table score explanation
    POST /tables       add + entity-link a table (snapshot swap)
    DELETE /tables/ID  remove a table (snapshot swap)

Query batches are scored on the loop thread: under the GIL a second
thread adds hand-offs, not overlap.  Warm-up, ``/explain`` and
mutations are long, so they run in the default executor and the loop
keeps answering ``/readyz`` and reads meanwhile.  Mutations never touch
the engine a query might be reading: the
:class:`~repro.serve.snapshot.SnapshotManager` builds the next
generation off the request path and swaps it in atomically; in-flight
batches finish on the generation they started with.

Shutdown is graceful by default: stop accepting connections, drain the
admitted queue, then close the engine.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Sequence

from repro.exceptions import ReproError, RequestTimeoutError, ServeError
from repro.serve.batching import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_QUEUE_DEPTH,
    DEFAULT_REQUEST_TIMEOUT,
    MicroBatcher,
)
from repro.serve.http import (
    HttpRequest,
    HttpResponse,
    HttpShell,
    search_handler,
    split_path,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    ExplainRequest,
    SearchOutcome,
    SearchPlan,
    SearchRequest,
    TableUpsertRequest,
    error_to_json,
    parse_table_id,
)
from repro.serve.snapshot import SnapshotManager
from repro.system import Thetis

#: Seconds shutdown waits for open connections before cancelling.
DRAIN_TIMEOUT = 10.0


@dataclass
class ServeConfig:
    """Tuning knobs of one server instance (see ``docs/serving.md``)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Engine warmed at start-up and after every snapshot swap.
    default_method: str = "types"
    #: Queries coalesced per engine pass.
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    #: Admission bound; beyond it requests fast-fail with 503.
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    #: Per-request deadline in seconds (504 past it).
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT
    #: Warm the engine (see ``Thetis.warm``) before flipping /readyz.
    warm_on_start: bool = True
    #: Recall guardrail sampling: every Nth prefilter-mode query is
    #: additionally cross-checked against the exact ranking and its
    #: recall@k recorded into the ``/metrics`` prefilter block
    #: (``0`` disables the guardrail).  Deterministic counter-based
    #: sampling, so a fixed request sequence always checks the same
    #: queries.
    prefilter_guardrail_every: int = 0


class ThetisServer:
    """HTTP/JSON search service over hot-swappable engine snapshots."""

    def __init__(self, thetis: Thetis, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.metrics = ServerMetrics()
        self.snapshots = SnapshotManager(
            thetis,
            warm_method=self.config.default_method,
            on_swap=lambda _version: self.metrics.snapshot_swapped(),
        )
        self.batcher = MicroBatcher(
            runner=self._run_plan,
            metrics=self.metrics,
            max_batch_size=self.config.max_batch_size,
            max_queue_depth=self.config.max_queue_depth,
            request_timeout=self.config.request_timeout,
        )
        self._http = HttpShell(
            {
                ("GET", "/readyz"): self._handle_readyz,
                ("GET", "/metrics"): self._handle_metrics,
                ("POST", "/search"): search_handler(self.batcher),
                ("POST", "/topk"): search_handler(self.batcher, "topk"),
                ("POST", "/explain"): self._handle_explain,
                ("POST", "/tables"): self._handle_add_table,
                ("DELETE", "/tables/*"): self._handle_remove_table,
            },
            self.metrics,
        )
        self._warmup_task: Optional["asyncio.Task[None]"] = None
        self._ready = threading.Event()
        self._shut_down = False
        # Deterministic guardrail sampling; only batches touch it, and
        # they all run on the loop thread.
        self._guardrail_counter = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        port = self._http.port
        if port is None:
            raise ServeError("server is not listening")
        return port

    async def start(self) -> None:
        """Bind, start the batcher, and kick off index warm-up."""
        if self._http.port is not None:
            raise ServeError("server already started")
        await self.batcher.start()
        loop = asyncio.get_running_loop()
        if self.config.warm_on_start:
            self._warmup_task = loop.create_task(
                self._warm_up(), name="thetis-warmup"
            )
        else:
            self._ready.set()
        await self._http.start(self.config.host, self.config.port)

    async def _warm_up(self) -> None:
        loop = asyncio.get_running_loop()
        method = self.config.default_method

        def warm() -> None:
            with self.snapshots.checkout() as snapshot:
                snapshot.thetis.warm(method)

        await loop.run_in_executor(None, warm)
        self._ready.set()

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI wraps this with signal handling)."""
        await self._http.serve_forever()

    async def shutdown(self) -> None:
        """Graceful stop: quiesce, drain, release the engine.

        1. stop accepting new connections;
        2. wait (bounded) for open connections to finish their
           request/response cycles — their queued queries still run;
        3. drain the batcher;
        4. close the snapshot manager, which drains the current
           generation and closes it via ``Thetis.close()``.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self._ready.clear()
        await self._http.close(DRAIN_TIMEOUT)
        if self._warmup_task is not None:
            try:
                await self._warmup_task
            except Exception:
                pass
        await self.batcher.stop()
        self.snapshots.close()

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    async def _handle_readyz(self, request: HttpRequest) -> HttpResponse:
        if self.ready:
            return HttpResponse(200, {"status": "ready"})
        return HttpResponse(
            503, error_to_json("index warm-up in progress", 503)
        )

    async def _handle_metrics(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, self._metrics_payload())

    def _metrics_payload(self) -> dict:
        cache_stats = None
        index_stats = None
        prefilter_stats = None
        batch_stats = None
        try:
            with self.snapshots.checkout() as snapshot:
                cache_stats = snapshot.thetis.cache_stats(
                    self.config.default_method
                )
                stats = snapshot.thetis.index_stats(
                    self.config.default_method
                )
                if stats is not None:
                    index_stats = stats.as_dict()
                prefilter_stats = snapshot.thetis.prefilter_stats.as_dict()
                batch_stats = snapshot.thetis.batch_stats.as_dict()
        except (ServeError, ReproError):
            pass  # mid-shutdown scrape: serve counters without cache view
        return self.metrics.to_json(
            queue_depth=self.batcher.queue_depth,
            queue_limit=self.batcher.max_queue_depth,
            snapshot_version=self.snapshots.version,
            cache_stats=cache_stats,
            index_stats=index_stats,
            prefilter_stats=prefilter_stats,
            uptime_seconds=self._http.uptime_seconds,
            batch_stats=batch_stats,
        )

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def _guardrail_due(self) -> bool:
        """Whether this prefilter query is a sampled guardrail check."""
        every = self.config.prefilter_guardrail_every
        if every <= 0:
            return False
        self._guardrail_counter += 1
        return self._guardrail_counter % every == 0

    async def _run_plan(self, plan: SearchPlan,
                        requests: Sequence[SearchRequest]
                        ) -> List[SearchOutcome]:
        """Answer one plan group of a batch against the pinned snapshot.

        The group runs through one ``search_many`` pass — with a
        vectorized engine that is a single fused multi-query kernel
        pass over the corpus, in exact and prefilter mode alike, and
        for union and join tasks their lane-stacked ``search_batch``;
        rankings are bit-identical to per-request ``Thetis.search``
        calls (property-tested).  Prefilter-mode groups generate their
        LSH shortlists per query (with every Nth one,
        ``prefilter_guardrail_every``, cross-checked against the exact
        ranking), then rescore all shortlists in one batched pass.
        """
        self.metrics.note_task(plan.task, len(requests))
        queries = [request.query() for request in requests]
        with self.snapshots.checkout() as snapshot:
            thetis = snapshot.thetis
            if plan.mode == "prefilter":
                for query in queries:
                    if self._guardrail_due():
                        # Runs both rankings and records the recall
                        # sample, but still answers from the prefiltered
                        # one (the guardrail observes, it does not
                        # rewrite).
                        thetis.prefilter_recall(
                            query, k=plan.k, method=plan.method,
                            votes=plan.votes,
                        )
            results = thetis.search_many(
                {str(i): query for i, query in enumerate(queries)},
                **plan._asdict(),
            )
            return [
                SearchOutcome(results[str(i)], snapshot.version)
                for i in range(len(queries))
            ]

    # ------------------------------------------------------------------
    # Explain
    # ------------------------------------------------------------------
    async def _handle_explain(self, request: HttpRequest) -> HttpResponse:
        parsed = ExplainRequest.from_json(request.json())
        query = parsed.query()

        def run() -> dict:
            with self.snapshots.checkout() as snapshot:
                thetis = snapshot.thetis
                explanation = thetis.explain(
                    query, parsed.table_id, method=parsed.method
                )
                return {
                    "table_id": parsed.table_id,
                    "method": parsed.method,
                    "score": explanation.score,
                    "report": explanation.render(thetis.graph),
                    "snapshot_version": snapshot.version,
                }

        loop = asyncio.get_running_loop()
        try:
            payload = await asyncio.wait_for(
                loop.run_in_executor(None, run),
                self.config.request_timeout,
            )
        except asyncio.TimeoutError:
            raise RequestTimeoutError(self.config.request_timeout) from None
        return HttpResponse(200, payload)

    # ------------------------------------------------------------------
    # Mutations (snapshot swaps)
    # ------------------------------------------------------------------
    async def _handle_add_table(self, request: HttpRequest) -> HttpResponse:
        parsed = TableUpsertRequest.from_json(request.json())
        table = parsed.table()
        links = await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: self.snapshots.apply(
                lambda thetis: thetis.add_table(table, link=parsed.link)
            ),
        )
        return HttpResponse(200, {
            "table_id": parsed.table_id,
            "links_created": links,
            "snapshot_version": self.snapshots.version,
        })

    async def _handle_remove_table(self, request: HttpRequest) -> HttpResponse:
        table_id = parse_table_id(split_path(request.path)[1])
        await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: self.snapshots.apply(
                lambda thetis: thetis.remove_table(table_id)
            ),
        )
        return HttpResponse(200, {
            "table_id": table_id,
            "removed": True,
            "snapshot_version": self.snapshots.version,
        })


class LoopThread:
    """One asyncio node on a dedicated event-loop thread.

    The synchronous start/stop surface the tests and benchmarks drive
    in-process nodes through: :meth:`start` runs the subclass's
    ``_start_node`` coroutine on a fresh loop and returns once it is
    listening (raising :class:`~repro.exceptions.ServeError` if it
    failed or timed out); :meth:`stop` runs ``_stop_node`` there, then
    stops and joins the loop thread.  :class:`ServerThread` and the
    cluster harness's worker and coordinator threads subclass it.
    """

    def __init__(self, name: str):
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listening = threading.Event()
        self._startup_error: Optional[BaseException] = None

    async def _start_node(self) -> None:
        raise NotImplementedError

    async def _stop_node(self) -> None:
        raise NotImplementedError

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._start_node())
        except BaseException as exc:
            self._startup_error = exc
            self._listening.set()
            loop.close()
            return
        self._listening.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def start(self, timeout: float = 60.0) -> "LoopThread":
        self._thread.start()
        if not self._listening.wait(timeout):
            raise ServeError(
                f"{self._thread.name} did not start listening in time"
            )
        if self._startup_error is not None:
            raise ServeError(
                f"{self._thread.name} failed to start: {self._startup_error}"
            )
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown, then stop and join the loop thread."""
        self._finish(self._stop_node, timeout)

    def _finish(self, stop_node: Callable[[], Awaitable[None]],
                timeout: float) -> None:
        """Run ``stop_node()`` on the loop, then stop and join it."""
        if self._loop is None or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(stop_node(), self._loop)
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "LoopThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServerThread(LoopThread):
    """Run a :class:`ThetisServer` on a dedicated event-loop thread.

    The synchronous harness the tests and the latency benchmark
    share::

        handle = ServerThread(thetis, ServeConfig(port=0)).start()
        handle.wait_ready()
        ... issue HTTP requests against handle.port ...
        handle.stop()      # graceful: drains, closes the engine
    """

    def __init__(self, thetis: Thetis, config: Optional[ServeConfig] = None):
        super().__init__(name="thetis-serve")
        self.server = ThetisServer(thetis, config or ServeConfig(port=0))

    async def _start_node(self) -> None:
        await self.server.start()

    async def _stop_node(self) -> None:
        await self.server.shutdown()

    @property
    def port(self) -> int:
        return self.server.port

    def wait_ready(self, timeout: float = 60.0) -> "ServerThread":
        """Block until warm-up finished (``/readyz`` would return 200)."""
        if not self.server._ready.wait(timeout):
            raise ServeError("server did not become ready in time")
        return self
