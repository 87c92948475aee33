"""Minimal HTTP/1.1 plumbing over asyncio streams (stdlib only).

The serving layer deliberately avoids web frameworks: the wire needs of
a JSON query service are a request line, a handful of headers, a
``Content-Length`` body, and keep-alive — small enough to implement
directly on :mod:`asyncio` streams and keep the whole stack
dependency-free.  Requests that violate the subset (chunked bodies,
oversized headers) are rejected with the appropriate 4xx rather than
guessed at.

:class:`HttpShell` is the one front door built on that plumbing: the
single-process server and the cluster coordinator both hand it a route
table and get the listener, the keep-alive connection loop, graceful
drain, the metrics/500 envelope, and ``GET /healthz``.  Both route
``POST /search`` to :func:`search_handler` over their own
:class:`~repro.serve.batching.MicroBatcher`; only the per-plan runner
behind the batcher differs.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import (
    Any, Awaitable, Callable, Dict, Iterable, Optional, Set, Tuple,
)

from repro.exceptions import (
    BadRequestError,
    DataLakeError,
    DuplicateTableError,
    ProtocolError,
    ReproError,
    RequestTimeoutError,
    ServeError,
    ThetisClosedError,
)
from repro.serve.batching import MicroBatcher
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    SearchRequest, error_to_json, result_to_json,
)

#: Hard limits keeping one client from exhausting server memory.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

STATUS_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive") != "close"

    def json(self) -> Any:
        """Decode the body as JSON; raises :class:`ProtocolError` on 400s."""
        if not self.body:
            raise ProtocolError("request body is empty, expected JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc


@dataclass
class HttpResponse:
    """One response; ``payload`` dicts are serialized as JSON."""

    status: int
    payload: Optional[Any] = None
    content_type: str = "application/json"

    def encode(self, keep_alive: bool = True) -> bytes:
        if self.payload is None:
            body = b""
        elif isinstance(self.payload, (bytes, bytearray)):
            body = bytes(self.payload)
        elif isinstance(self.payload, str):
            body = self.payload.encode("utf-8")
        else:
            body = json.dumps(self.payload).encode("utf-8")
        reason = STATUS_REASONS.get(self.status, "Unknown")
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        return head.encode("ascii") + body


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Parse one request off the stream.

    Returns ``None`` on a clean EOF (client closed between requests);
    raises :class:`~repro.exceptions.BadRequestError` on protocol violations.
    """
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    if len(request_line) > MAX_HEADER_BYTES:
        raise BadRequestError(413, "request line too long")
    parts = request_line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequestError(400, "malformed request line")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if not line:
            raise BadRequestError(400, "connection closed inside headers")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequestError(413, "headers too large")
        if line in (b"\r\n", b"\n"):
            break
        text = line.decode("latin-1").rstrip("\r\n")
        name, separator, value = text.partition(":")
        if not separator:
            raise BadRequestError(400, f"malformed header line: {text!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "transfer-encoding" in headers:
        raise BadRequestError(501, "chunked transfer encoding not supported")
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise BadRequestError(400, "invalid Content-Length") from None
        if length < 0:
            raise BadRequestError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise BadRequestError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise BadRequestError(
                    400, "connection closed inside body"
                ) from None
    elif method in ("POST", "PUT", "PATCH"):
        raise BadRequestError(411, "Content-Length required")

    return HttpRequest(method=method.upper(), path=target, headers=headers,
                       body=body)


def split_path(path: str) -> Tuple[str, ...]:
    """``/tables/T01?x=1`` -> ``("tables", "T01")`` (query string dropped)."""
    path = path.split("?", 1)[0]
    return tuple(segment for segment in path.split("/") if segment)


#: Status of an error a handler raises; the first row whose class
#: matches wins.  Anything else is a bug, answered 500.
ERROR_STATUS: Tuple[Tuple[type, int], ...] = (
    (ProtocolError, 400),        # malformed request
    (RequestTimeoutError, 504),  # deadline passed
    (ServeError, 503),           # overload, stopping, no shard answered
    (ThetisClosedError, 503),    # engine closed under the request
    (DuplicateTableError, 400),
    (DataLakeError, 404),        # no such table
    (ReproError, 400),           # the engine refused the request
)


def error_response(exc: Exception) -> HttpResponse:
    """The error envelope of ``exc``, its status from :data:`ERROR_STATUS`."""
    for kind, status in ERROR_STATUS:
        if isinstance(exc, kind):
            return HttpResponse(status, error_to_json(str(exc), status))
    return HttpResponse(500, error_to_json(f"internal error: {exc}", 500))


#: ``/metrics`` label of every request whose path matches no route, so
#: client-chosen URLs never become metric keys.
UNMATCHED_ENDPOINT = "unmatched"

Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


class StreamShell:
    """A TCP listener whose connections are tracked from the moment
    each is made; a subclass serves one connection in ``_serve``.

    The base of :class:`HttpShell` and of the cluster's framed
    :class:`~repro.cluster.protocol.FrameShell`.
    """

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[
            "asyncio.Task[None]", asyncio.StreamWriter
        ] = {}
        self._closing = False

    @property
    def port(self) -> Optional[int]:
        """The bound port, or ``None`` while not listening."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._accept, host, port)

    async def serve_forever(self) -> None:
        if self._server is None or self.port is None:
            raise ServeError("call start() first")
        await self._server.serve_forever()

    async def _stop_accepting(self) -> None:
        """Close the listener; every connection is tracked from here on.

        asyncio sets a connection up over two loop turns: the accepted
        socket attaches to the listener on the next turn, and the
        connection is made (and tracked) on the turn after.  Closing
        the listener before the attach leaks the socket (asyncio fails
        the attach), hence one turn before the close and one after.
        """
        self._closing = True
        if self._server is not None:
            await asyncio.sleep(0)
            self._server.close()
            await asyncio.sleep(0)

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve(reader, writer)
        )
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        raise NotImplementedError

    def _end(self, tasks: Iterable["asyncio.Task[None]"]) -> None:
        """Close each task's connection and cancel it at its next await.

        The close is not left to the task: one cancelled before its
        first step never runs its own ``finally``.
        """
        for task in list(tasks):
            self._connections[task].close()
            task.cancel()

    @staticmethod
    async def _hang_up(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class HttpShell(StreamShell):
    """Listener, connection loop, envelope and route table of one service.

    ``routes`` maps ``(method, path)`` to an async handler; a path
    segment ``*`` matches any one segment.  A path no route matches
    answers 404, a matched path without the request's method 405, and
    a handler that raises answers :func:`error_response` — the shell
    never leaks an exception.
    Requests are counted in ``metrics`` under their route's literal
    segments (``/tables/*`` counts as ``/tables``) or
    :data:`UNMATCHED_ENDPOINT`, never under the client-supplied path;
    non-``GET`` requests also feed the label's latency histogram.
    The shell answers ``GET /healthz`` itself (liveness is a property
    of the listener: 200 while the loop runs).
    """

    def __init__(self, routes: Dict[Tuple[str, str], Handler],
                 metrics: ServerMetrics):
        self.metrics = metrics
        # pattern segments -> (metrics label, method -> handler)
        self._routes: Dict[
            Tuple[str, ...], Tuple[str, Dict[str, Handler]]
        ] = {}
        routes = {("GET", "/healthz"): self._handle_healthz, **routes}
        for (method, path), handler in routes.items():
            pattern = split_path(path)
            label = "/" + "/".join(part for part in pattern if part != "*")
            self._routes.setdefault(pattern, (label, {}))[1][method] = handler
        super().__init__()
        self._busy: Set["asyncio.Task[None]"] = set()
        self._started_at = 0.0

    @property
    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start`."""
        return time.monotonic() - self._started_at

    async def _handle_healthz(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, {
            "status": "ok", "uptime_seconds": self.uptime_seconds,
        })

    async def start(self, host: str, port: int) -> None:
        self._started_at = time.monotonic()
        await super().start(host, port)

    async def close(self, drain_timeout: float) -> None:
        """Stop accepting, then drain the open connections.

        Idle keep-alive connections are parked in :func:`read_request`
        with no request in progress — they are cancelled outright; only
        connections with a request mid-flight get the drain window.
        Every connection task is awaited, so none outlives the loop.
        """
        await self._stop_accepting()
        self._end(self._connections.keys() - self._busy)
        if self._busy:
            _done, pending = await asyncio.wait(
                set(self._busy), timeout=drain_timeout
            )
            self._end(pending)
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=1.0)

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        try:
            while not self._closing:
                try:
                    request = await read_request(reader)
                except BadRequestError as exc:
                    response = HttpResponse(
                        exc.status, error_to_json(str(exc), exc.status)
                    )
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                self._busy.add(task)
                try:
                    response = await self._dispatch(request)
                    keep_alive = request.keep_alive and not self._closing
                    writer.write(response.encode(keep_alive=keep_alive))
                    await writer.drain()
                finally:
                    self._busy.discard(task)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            await self._hang_up(writer)

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        segments = split_path(request.path)
        endpoint = UNMATCHED_ENDPOINT
        handlers: Optional[Dict[str, Handler]] = None
        for pattern, route in self._routes.items():
            if len(pattern) == len(segments) and all(
                part in ("*", segment)
                for part, segment in zip(pattern, segments)
            ):
                endpoint, handlers = route
                break
        self.metrics.request_started()
        start = time.perf_counter()
        if handlers is None:
            response = HttpResponse(
                404, error_to_json(f"no such endpoint: {request.path}", 404)
            )
        elif request.method not in handlers:
            response = HttpResponse(
                405, error_to_json("method not allowed", 405)
            )
        else:
            try:
                response = await handlers[request.method](request)
            except Exception as exc:  # the handler itself must never leak
                response = error_response(exc)
        elapsed = time.perf_counter() - start
        self.metrics.request_finished(
            endpoint, response.status,
            elapsed if request.method != "GET" else None,
        )
        return response


def search_handler(batcher: MicroBatcher, mode: str = "search") -> Handler:
    """The ``POST /search`` (and ``/topk``) handler over ``batcher``:
    parse, submit, answer the runner's
    :class:`~repro.serve.protocol.SearchOutcome` (errors: see
    :data:`ERROR_STATUS`)."""

    async def handle(request: HttpRequest) -> HttpResponse:
        parsed = SearchRequest.from_json(request.json(), mode=mode)
        outcome = await batcher.submit(parsed)
        payload = result_to_json(outcome.results, parsed,
                                 snapshot_version=outcome.snapshot_version)
        payload.update(outcome.extra or {})
        return HttpResponse(200, payload)

    return handle
