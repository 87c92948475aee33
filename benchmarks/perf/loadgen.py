"""The benchmark's load generator: one process, one thread per connection.

Same semantics as ``repro.serve.loadgen.LoadGenerator`` (closed loop:
send the next request when the previous reply lands; open loop: send on
a fixed schedule and time each request from when it was *due*), plus
what a benchmark needs and that generator does not do: it reads every
reply and checks its shape, keeps per-request samples by kind, and
drives searches and table mutations side by side.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from benchmarks.perf.streams import Request

HOST = "127.0.0.1"


def now() -> float:
    """Seconds on the machine-wide monotonic clock the span dumps use."""
    return time.monotonic_ns() / 1e9


class Sample(NamedTuple):
    """One request as the client saw it; times are :func:`now` seconds."""

    request: Request
    due: float      # open loop: scheduled send time; closed loop: == sent
    sent: float
    done: float
    status: int     # 0 = transport error
    ok: bool        # 200 and, for /search, a well-formed full ranking

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class Connection:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._http = http.client.HTTPConnection(HOST, port, timeout=timeout)

    def send(self, request: Request) -> Tuple[int, bytes]:
        """``(status, body)``; status 0 on a transport error."""
        try:
            self._http.request(
                request.method, request.path, body=request.body or None,
                headers={"Content-Type": "application/json"},
            )
            response = self._http.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            self._http.close()
            return 0, b""

    def close(self) -> None:
        self._http.close()


def parse_ranking(body: bytes) -> Optional[List[Tuple[str, float]]]:
    """The ``(table_id, score)`` list of a `/search` reply, None if malformed."""
    try:
        payload = json.loads(body)
        if payload.get("degraded") is True:
            return None
        return [(str(entry["table_id"]), float(entry["score"]))
                for entry in payload["results"]]
    except (ValueError, TypeError, KeyError, AttributeError):
        return None


def well_formed(request: Request, status: int, body: bytes) -> bool:
    """200, and for a search at most ``k`` entries in ranking order."""
    if status != 200:
        return False
    if request.path != "/search":
        return True
    ranking = parse_ranking(body)
    return (
        ranking is not None
        and len(ranking) <= request.k
        and ranking == sorted(ranking, key=lambda e: (-e[1], e[0]))
    )


class Feed:
    """A thread-safe cursor over a request list, optionally on a schedule."""

    def __init__(self, requests: Sequence[Request],
                 rate: Optional[float] = None) -> None:
        self._requests = requests
        self._interval = 1.0 / rate if rate else None
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> Optional[Tuple[Request, Optional[float]]]:
        """``(request, seconds after the window opens it is due)``."""
        with self._lock:
            index = self._next
            if index >= len(self._requests):
                return None
            self._next += 1
        offset = index * self._interval if self._interval else None
        return self._requests[index], offset


class Lane(NamedTuple):
    """One connection: where its requests come from, and its think time."""

    feed: Feed
    think: float = 0.0


class Window(NamedTuple):
    samples: List[Sample]
    start: float
    end: float


def drive(port: int, lanes: Sequence[Lane],
          seconds: Optional[float] = None) -> Window:
    """Run every lane to the end of its feed or until ``seconds`` pass.

    An unscheduled (closed-loop) lane stops *starting* requests at the
    deadline; the one in flight completes and counts, so the window
    ends with the last reply.
    """
    samples: List[Sample] = []
    opened = now()
    deadline = opened + seconds if seconds is not None else float("inf")

    def run(lane: Lane) -> None:
        connection = Connection(port)
        try:
            while True:
                taken = lane.feed.take()
                if taken is None:
                    return
                request, offset = taken
                if offset is None:
                    if now() >= deadline:
                        return
                else:
                    # Scheduled requests are all sent, however late: the
                    # schedule, not the deadline, bounds an open loop.
                    delay = opened + offset - now()
                    if delay > 0:
                        time.sleep(delay)
                sent = now()
                status, body = connection.send(request)
                done = now()
                samples.append(Sample(
                    request, sent if offset is None else opened + offset,
                    sent, done, status, well_formed(request, status, body),
                ))
                if lane.think:
                    time.sleep(lane.think)
        finally:
            connection.close()

    threads = [threading.Thread(target=run, args=(lane,), daemon=True)
               for lane in lanes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((sample.done for sample in samples), default=now())
    return Window(samples, opened, end)


def ask(port: int, request: Request) -> Tuple[int, bytes]:
    """One request on a throw-away connection."""
    connection = Connection(port)
    try:
        return connection.send(request)
    finally:
        connection.close()


def get_json(port: int, path: str) -> Tuple[int, Any]:
    """``GET path`` -> ``(status, decoded body or None)``."""
    status, body = ask(port, Request("get", "GET", path, b""))
    try:
        return status, json.loads(body) if body else None
    except ValueError:
        return status, None
