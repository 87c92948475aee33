"""Length-prefixed JSON framing for the coordinator↔worker wire.

The cluster control plane deliberately avoids HTTP between the
coordinator and its workers: a shard RPC needs no request line, no
headers, and no content negotiation — just a message boundary.  Every
frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object with a ``"type"`` field.  The
codec mirrors :mod:`repro.serve.http` in spirit (stdlib asyncio
streams, strict limits, explicit errors) while staying an order of
magnitude smaller.

Violations raise :class:`~repro.exceptions.ClusterProtocolError`; a
clean EOF *between* frames reads as ``None`` so connection pools can
distinguish "peer closed politely" from "peer died mid-reply".

:class:`FrameShell` is the server side of the wire, as
:class:`~repro.serve.http.HttpShell` is of HTTP: the worker and the
coordinator's control port hand it one frame handler each.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.exceptions import (
    ClusterProtocolError, ReproError, ServeError, StaleEpochError,
)
from repro.serve.http import StreamShell

#: Bytes of the frame-length prefix (big-endian unsigned).
FRAME_HEADER_BYTES = 4

#: Hard cap on one frame's body.  A shard response carries at most a
#: few thousand ``(score, id)`` pairs plus counters; 32 MiB is generous
#: headroom without letting a confused peer allocate unboundedly.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Message types spoken on the worker wire (requests carry ``type``;
#: replies carry ``ok`` plus type-specific fields).
MSG_TYPES = (
    "register",   # worker -> coordinator: join the ring
    "leave",      # worker -> coordinator: retire from the ring
    "ping",       # coordinator -> worker: heartbeat + stats scrape
    "routing",    # coordinator -> worker: install a routing epoch
    "search_batch",  # coordinator -> worker: score a query batch, one pass
    "adopt",      # coordinator -> worker: memmap a sealed segment dir
    "status",     # anyone -> worker: introspection
)


#: One decoded frame: an object with a ``type`` (requests) or an ``ok``
#: flag (replies).
Frame = Dict[str, Any]

#: Answers one request frame with its reply frame.
FrameHandler = Callable[[Frame], Awaitable[Frame]]


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialize one message to its on-wire bytes."""
    if not isinstance(payload, dict):
        raise ClusterProtocolError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame too large: {len(body)} bytes > {MAX_FRAME_BYTES}"
        )
    return len(body).to_bytes(FRAME_HEADER_BYTES, "big") + body


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF between frames.

    Raises :class:`ClusterProtocolError` for truncation mid-frame,
    oversized lengths, non-JSON bodies, and non-object payloads.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ClusterProtocolError(
            "connection closed inside a frame header"
        ) from exc
    except ConnectionResetError:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame too large: {length} bytes > {MAX_FRAME_BYTES}"
        )
    try:
        body = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ClusterProtocolError(
            "connection closed inside a frame body"
        ) from exc
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ClusterProtocolError(f"invalid frame JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ClusterProtocolError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload


async def write_frame(
    writer: asyncio.StreamWriter, payload: Dict[str, Any]
) -> None:
    """Encode and flush one frame."""
    writer.write(encode_frame(payload))
    await writer.drain()


def error_frame(exc: ReproError) -> Frame:
    """The ``{"ok": false}`` reply to a frame that raised ``exc``.

    An engine error is named by its kind; a stale epoch also carries
    the node's current one, so the coordinator knows to re-push.
    """
    if isinstance(exc, ServeError):
        reply: Frame = {"ok": False, "error": str(exc)}
    else:
        reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    if isinstance(exc, StaleEpochError):
        reply.update(stale_epoch=True, epoch=exc.current)
    return reply


class FrameShell(StreamShell):
    """Listener and framed connection loop of one cluster node.

    Every frame read on an accepted connection goes to ``handler`` and
    its reply is written back, in order; a handler's error is answered
    with its :func:`error_frame`, and a malformed frame gets one such
    reply before the connection closes.
    """

    def __init__(self, handler: FrameHandler):
        super().__init__()
        self._handler = handler

    async def close(self) -> None:
        """Stop accepting, end every connection, await its handler task.

        Each connection is closed and its task cancelled at its next
        await, so no handler (nor its socket) outlives the call.
        """
        await self._stop_accepting()
        tasks = list(self._connections)
        self._end(tasks)
        await asyncio.gather(*tasks, return_exceptions=True)

    def abort(self) -> None:
        """Crash simulation: unbind and drop every connection, no reply."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        for writer in self._connections.values():
            if writer.transport is not None:
                writer.transport.abort()

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while not self._closing:
                try:
                    message = await read_frame(reader)
                except ClusterProtocolError as exc:
                    await write_frame(writer, error_frame(exc))
                    break
                if message is None:
                    break
                try:
                    reply = await self._handler(message)
                except ReproError as exc:
                    reply = error_frame(exc)
                await write_frame(writer, reply)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            await self._hang_up(writer)


def expect_type(payload: Dict[str, Any]) -> str:
    """Return a request frame's ``type`` field, validated."""
    kind = payload.get("type")
    if kind not in MSG_TYPES:
        raise ClusterProtocolError(
            f"unknown or missing message type: {kind!r}"
        )
    return kind


# ----------------------------------------------------------------------
# Routing tables
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoutingTable:
    """One immutable routing epoch: ring membership + liveness.

    ``workers`` is the full (ordered, deduplicated) ring membership the
    consistent-hash points are built from; ``live`` is the subset
    currently accepting shards.  Shard assignment is a pure function of
    ``(workers, live, replication)``, so two processes holding the same
    epoch agree on every table's owner without further coordination —
    the property the scatter-gather correctness argument rests on.
    """

    epoch: int
    workers: Tuple[str, ...]
    live: Tuple[str, ...]
    replication: int = 2

    def to_json(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "workers": list(self.workers),
            "live": list(self.live),
            "replication": self.replication,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RoutingTable":
        epoch = payload.get("epoch")
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise ClusterProtocolError("'epoch' must be a non-negative int")
        workers = _parse_worker_ids(payload, "workers")
        live = _parse_worker_ids(payload, "live")
        members = set(workers)
        for worker_id in live:
            if worker_id not in members:
                raise ClusterProtocolError(
                    f"live worker {worker_id!r} is not in the ring"
                )
        replication = payload.get("replication", 2)
        if (isinstance(replication, bool) or not isinstance(replication, int)
                or replication < 1):
            raise ClusterProtocolError("'replication' must be an int >= 1")
        return cls(
            epoch=epoch,
            workers=workers,
            live=live,
            replication=replication,
        )


def _parse_worker_ids(
    payload: Dict[str, Any], name: str
) -> Tuple[str, ...]:
    raw = payload.get(name)
    if not isinstance(raw, list):
        raise ClusterProtocolError(f"'{name}' must be a list of worker ids")
    seen: Dict[str, None] = {}
    for worker_id in raw:
        if not isinstance(worker_id, str) or not worker_id:
            raise ClusterProtocolError(
                f"'{name}' entries must be non-empty strings"
            )
        seen.setdefault(worker_id)
    return tuple(seen)


# ----------------------------------------------------------------------
# Field validators
# ----------------------------------------------------------------------
# Every value a handler pulls out of a request frame goes through one
# of these before it touches the engine, the routing state, or the
# filesystem.  They are the wire boundary's sanitizers: the wire-taint
# lint pass treats their return values as clean, so a handler that
# reads a frame field raw and forwards it trips the lint.

def expect_epoch(payload: Dict[str, Any],
                 name: str = "epoch") -> int:
    """A non-negative integer epoch out of a frame field."""
    epoch = payload.get(name)
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
        raise ClusterProtocolError(
            f"'{name}' must be a non-negative int"
        )
    return epoch


def expect_worker_id(payload: Dict[str, Any],
                     name: str = "worker_id") -> str:
    """A non-empty worker-id string out of a frame field."""
    worker_id = payload.get(name)
    if not isinstance(worker_id, str) or not worker_id:
        raise ClusterProtocolError(f"'{name}' must be a worker id")
    return worker_id


def expect_worker_ids(payload: Dict[str, Any],
                      name: str) -> Tuple[str, ...]:
    """An ordered, deduplicated tuple of worker ids out of a list field."""
    return _parse_worker_ids(payload, name)


def expect_endpoint(payload: Dict[str, Any],
                    host_name: str = "host",
                    port_name: str = "port") -> Tuple[str, int]:
    """A ``(host, port)`` endpoint out of two frame fields."""
    host = payload.get(host_name)
    if not isinstance(host, str) or not host:
        raise ClusterProtocolError(f"'{host_name}' must be a string")
    port = payload.get(port_name)
    if (isinstance(port, bool) or not isinstance(port, int)
            or not 0 < port < 65536):
        raise ClusterProtocolError(
            f"'{port_name}' must be a port number"
        )
    return (host, port)


def expect_segment_path(payload: Dict[str, Any],
                        name: str = "path") -> str:
    """A sealed-segment directory path out of a frame field.

    The adopt flow hands this straight to ``load_index``, so beyond
    type/emptiness it rejects NUL bytes and ``..`` traversal segments —
    a confused (or hostile) coordinator must not be able to map
    arbitrary files into the worker's address space.
    """
    path = payload.get(name)
    if not isinstance(path, str) or not path:
        raise ClusterProtocolError(
            f"'{name}' must be a directory path"
        )
    if "\x00" in path:
        raise ClusterProtocolError(f"'{name}' contains a NUL byte")
    parts = path.replace("\\", "/").split("/")
    if ".." in parts:
        raise ClusterProtocolError(
            f"'{name}' must not contain '..' traversal segments"
        )
    return path
