"""What the serving benches share: load runs, a parity check, one report writer.

Every request goes through :mod:`benchmarks.perf.loadgen`, the
benchmark's own generator, in one of two load models:

* **closed loop** — ``concurrency`` lanes share one :class:`Feed`; each
  lane sends its next request the moment the previous reply lands.
  Offered load adapts to the server; measures best-case throughput and
  in-service latency.
* **open loop** — ``Feed(requests, rate)``: requests fall due on a fixed
  schedule at ``rate`` per second regardless of completions, the model
  matching real user traffic.  Latency is measured from the *scheduled*
  send, so queueing delay (and coordinated omission) is captured, and
  overload shows up as 503s rather than silently slowing the generator.

:func:`summary` turns a run's :class:`Window` into the report fields;
:func:`assert_parity` checks served rankings against direct
``Thetis.search``; :func:`record` folds one block into a JSON report
without dropping the blocks other benches wrote.  The module is also a
CLI, from the repository root::

    PYTHONPATH=src python -m benchmarks.serve_loadgen --port 8080 \\
        --payload-file q.json \\
        --loop closed --concurrency 4 --requests 200 --out loadgen.json

``--mode exact|prefilter`` and ``--task entity|union|join`` stamp the
wire ``"mode"`` / ``"task"`` fields onto every payload, so the same
query file can drive the exact path, the Section 6 prefilter path, any
search task, or the cluster front door.
"""

from __future__ import annotations

import argparse
import itertools
import json
import threading
from collections import Counter
from functools import partial
from typing import Any, Dict, List, Optional, Sequence
from unittest import mock

from benchmarks.perf import loadgen
from benchmarks.perf.loadgen import Feed, Lane, Window, ask, drive
from benchmarks.perf.metrics import percentile
from benchmarks.perf.streams import K, Request
from repro.core.query import Query

#: Wire search modes the CLI can stamp onto payloads (the ``"mode"``
#: body field of ``POST /search``).
SEARCH_MODES = ("exact", "prefilter")

#: Search tasks the CLI can stamp onto payloads (the ``"task"`` body
#: field of ``POST /search``).
SEARCH_TASKS = ("entity", "union", "join")


def query_payloads(bench: Any, k: int = K) -> List[Dict[str, Any]]:
    """``/search`` bodies of a generated benchmark's 1- and 5-tuple queries."""
    return [
        {"tuples": [list(t) for t in query.tuples], "k": k}
        for queries in (bench.queries.one_tuple, bench.queries.five_tuple)
        for query in queries.values()
    ]


def requests_for(payloads: Sequence[Dict[str, Any]], path: str = "/search",
                 **fields: str) -> List[Request]:
    """One wire request per payload, with ``fields`` stamped onto each."""
    requests = []
    for payload in payloads:
        body = dict(payload, **fields)
        requests.append(Request(
            "search", "POST", path, json.dumps(body).encode("utf-8"),
            int(body.get("k", K)),   # K is also the server's default k
        ))
    return requests


def _rotated(requests: Sequence[Request], total: int) -> List[Request]:
    return [requests[i % len(requests)] for i in range(total)]


def closed_loop(port: int, requests: Sequence[Request], concurrency: int,
                total: int) -> Window:
    """``total`` requests, rotating ``requests``, over ``concurrency`` lanes."""
    feed = Feed(_rotated(requests, total))
    return drive(port, [Lane(feed)] * max(1, concurrency))


def open_loop(port: int, requests: Sequence[Request], rate: float,
              duration: float) -> Window:
    """``rate * duration`` requests on a fixed ``rate`` per second schedule."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    feed = Feed(_rotated(requests, max(1, int(rate * duration))), rate)
    return drive(port, [Lane(feed)] * min(32, max(2, int(2 * rate))))


class Background:
    """Closed-loop load beside the ``with`` body, cycling ``requests`` on
    ``connections`` lanes until the block exits; then :attr:`window`."""

    def __init__(self, port: int, requests: Sequence[Request],
                 connections: int) -> None:
        self._requests = itertools.cycle(requests)
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(port, connections), daemon=True)
        self.window: Optional[Window] = None

    def take(self):
        """The :class:`Feed` interface: the next request, unscheduled."""
        if self._stopped.is_set():
            return None
        return next(self._requests), None

    def _run(self, port: int, connections: int) -> None:
        self.window = drive(port, [Lane(self)] * connections)

    def __enter__(self) -> "Background":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stopped.set()
        self._thread.join()


def summary(window: Window, loop: str) -> Dict[str, Any]:
    """The report fields of one run, counted by HTTP status.

    A degraded or malformed 200 counts as ``ok`` here: gates that need
    clean replies read ``Sample.ok`` themselves.
    """
    statuses = Counter(sample.status for sample in window.samples)
    latencies = [sample.latency_ms for sample in window.samples
                 if sample.status == 200]
    seconds = window.end - window.start
    ok = statuses[200]
    return {
        "mode": loop,
        "duration_seconds": seconds,
        "sent": len(window.samples),
        "ok": ok,
        "rejected_503": statuses[503],
        "timeouts_504": statuses[504],
        "errors": len(window.samples) - ok - statuses[503] - statuses[504],
        "throughput_rps": ok / seconds if seconds > 0 else 0.0,
        "latency_ms": {
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "mean": sum(latencies) / len(latencies) if latencies else 0.0,
            "max": max(latencies, default=0.0),
        },
    }


def describe(report: Dict[str, Any]) -> str:
    """A :func:`summary` as the aligned lines the benches print."""
    latency = report["latency_ms"]
    return "\n".join([
        f"  mode        {report['mode']}",
        f"  duration    {report['duration_seconds']:8.2f} s",
        f"  sent        {report['sent']}",
        f"  ok          {report['ok']}",
        f"  rejected    {report['rejected_503']}  (503)",
        f"  timeouts    {report['timeouts_504']}  (504)",
        f"  errors      {report['errors']}",
        f"  throughput  {report['throughput_rps']:8.1f} req/s",
        f"  p50         {latency['p50']:8.1f} ms",
        f"  p95         {latency['p95']:8.1f} ms",
        f"  p99         {latency['p99']:8.1f} ms",
    ])


def assert_parity(port: int, reference: Any,
                  payloads: Sequence[Dict[str, Any]], **fields: str) -> None:
    """Each served ranking equals ``reference.search`` bit for bit.

    ``fields`` are wire fields (``task``, ``mode``) stamped onto every
    payload, echoed by the reply, and passed to the direct search.
    """
    for payload, request in zip(payloads, requests_for(payloads, **fields)):
        status, body = ask(port, request)
        decoded = json.loads(body) if body else None
        assert status == 200, (status, decoded)
        for name, value in fields.items():
            assert decoded[name] == value, (name, decoded[name])
        query = Query(tuple(tuple(t) for t in payload["tuples"]))
        direct = reference.search(query, k=request.k, **fields)
        served = [(r["table_id"], r["score"]) for r in decoded["results"]]
        expected = [(s.table_id, s.score) for s in direct]
        assert served == expected, (
            f"served ranking {fields or ''} diverged from direct search: "
            f"{served[:3]} vs {expected[:3]}"
        )


def record(path: str, key: str, block: Any) -> None:
    """Set ``key`` of the JSON report at ``path`` to ``block``, keeping
    every other key; a dotted key (``"cluster.scaling"``) nests."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        document = {}
    *parents, leaf = key.split(".")
    node = document
    for name in parents:
        node = node.setdefault(name, {})
    node[leaf] = block
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2)
    print(f"  report -> {path} ({key})")


# ----------------------------------------------------------------------
# Module CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.serve_loadgen",
        description="Load-generate against a running Thetis server",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--path", default="/search")
    parser.add_argument("--payload-file", required=True,
                        help="JSON file: one request object or a list")
    parser.add_argument("--loop", choices=["closed", "open"],
                        default="closed",
                        help="load model: closed or open loop")
    parser.add_argument("--task", choices=list(SEARCH_TASKS), default=None,
                        help="stamp this search task onto every payload "
                             "(entity, union, or join engine dispatch)")
    parser.add_argument("--mode", choices=list(SEARCH_MODES), default=None,
                        help="stamp this search mode onto every payload "
                             "(exact or prefilter)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="workers (closed loop)")
    parser.add_argument("--requests", type=int, default=100,
                        help="total requests (closed loop)")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="arrivals/second (open loop)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds (open loop)")
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--out", default=None,
                        help="write the report as JSON to this path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with open(args.payload_file, encoding="utf-8") as handle:
        loaded = json.load(handle)
    payloads = loaded if isinstance(loaded, list) else [loaded]
    if not payloads:
        raise SystemExit("need at least one payload")
    fields = {name: value for name, value in
              (("mode", args.mode), ("task", args.task)) if value}
    requests = requests_for(payloads, args.path, **fields)
    # drive() dials loadgen.HOST with the connection's default timeout.
    with mock.patch.object(loadgen, "HOST", args.host), \
            mock.patch.object(loadgen, "Connection", partial(
                loadgen.Connection, timeout=args.timeout)):
        if args.loop == "closed":
            window = closed_loop(args.port, requests, args.concurrency,
                                 args.requests)
        else:
            window = open_loop(args.port, requests, args.rate,
                               args.duration)
    report = summary(window, args.loop)
    print(describe(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"  report -> {args.out}")
    return 0 if report["ok"] > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
