"""Closed- and open-loop load generation against a running server.

Two canonical load models:

* **closed loop** — ``concurrency`` workers each issue the next request
  the moment the previous response lands.  Offered load adapts to the
  server (classic think-time-zero benchmark); measures best-case
  throughput and in-service latency.
* **open loop** — requests arrive on a fixed schedule at ``rate``
  requests/second regardless of completions, the model matching real
  user traffic.  Latency is measured from the *scheduled* arrival, so
  queueing delay (and coordinated omission) is captured, and overload
  shows up as 503s rather than silently slowing the generator.

Pure stdlib (``http.client`` + threads) so the generator runs anywhere
the repo does; also usable as a module CLI from the repository root::

    PYTHONPATH=src python -m benchmarks.serve_loadgen --port 8080 \\
        --payload-file q.json \\
        --loop closed --concurrency 4 --requests 200 --out BENCH_serve.json

``--mode exact|prefilter`` stamps the wire ``"mode"`` field onto every
payload, so the same query file can drive the exact path, the Section 6
prefilter path, or the cluster front door — the generator itself is
endpoint-agnostic.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.metrics import percentile_of

#: Wire search modes the generator can stamp onto payloads (the
#: ``"mode"`` body field of ``POST /search``).
SEARCH_MODES = ("exact", "prefilter")

#: Search tasks the generator can stamp onto payloads (the ``"task"``
#: body field of ``POST /search``).
SEARCH_TASKS = ("entity", "union", "join")


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    mode: str
    duration_seconds: float
    sent: int = 0
    ok: int = 0
    rejected: int = 0        # 503s: admission control doing its job
    timeouts: int = 0        # 504s
    errors: int = 0          # everything else non-2xx or transport
    latencies: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed-OK requests per second."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.ok / self.duration_seconds

    def percentile_ms(self, p: float) -> float:
        return percentile_of(self.latencies, p) * 1000.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "duration_seconds": self.duration_seconds,
            "sent": self.sent,
            "ok": self.ok,
            "rejected_503": self.rejected,
            "timeouts_504": self.timeouts,
            "errors": self.errors,
            "throughput_rps": self.throughput,
            "latency_ms": {
                "p50": self.percentile_ms(0.50),
                "p95": self.percentile_ms(0.95),
                "p99": self.percentile_ms(0.99),
                "mean": (
                    sum(self.latencies) / len(self.latencies) * 1000.0
                    if self.latencies else 0.0
                ),
                "max": (max(self.latencies) * 1000.0
                        if self.latencies else 0.0),
            },
        }

    def format_report(self) -> str:
        lines = [
            f"  mode        {self.mode}",
            f"  duration    {self.duration_seconds:8.2f} s",
            f"  sent        {self.sent}",
            f"  ok          {self.ok}",
            f"  rejected    {self.rejected}  (503)",
            f"  timeouts    {self.timeouts}  (504)",
            f"  errors      {self.errors}",
            f"  throughput  {self.throughput:8.1f} req/s",
            f"  p50         {self.percentile_ms(0.50):8.1f} ms",
            f"  p95         {self.percentile_ms(0.95):8.1f} ms",
            f"  p99         {self.percentile_ms(0.99):8.1f} ms",
        ]
        return "\n".join(lines)


class LoadGenerator:
    """Issue ``POST path`` requests with rotating payloads."""

    def __init__(
        self,
        host: str,
        port: int,
        payloads: Sequence[Dict[str, Any]],
        path: str = "/search",
        timeout: float = 30.0,
        search_mode: Optional[str] = None,
        task: Optional[str] = None,
    ):
        if not payloads:
            raise ValueError("need at least one payload")
        if search_mode is not None and search_mode not in SEARCH_MODES:
            raise ValueError(
                f"search_mode must be one of {SEARCH_MODES}, "
                f"got {search_mode!r}"
            )
        if task is not None and task not in SEARCH_TASKS:
            raise ValueError(
                f"task must be one of {SEARCH_TASKS}, got {task!r}"
            )
        self.host = host
        self.port = port
        self.path = path
        if search_mode is not None:
            payloads = [dict(p, mode=search_mode) for p in payloads]
        if task is not None:
            payloads = [dict(p, task=task) for p in payloads]
        self.payloads = [json.dumps(p).encode("utf-8") for p in payloads]
        self.timeout = timeout
        self.search_mode = search_mode
        self.task = task

    # ------------------------------------------------------------------
    def _one_request(self, connection: http.client.HTTPConnection,
                     body: bytes) -> int:
        """Send one request; returns the HTTP status (0 = transport error)."""
        try:
            connection.request(
                "POST", self.path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()  # drain for keep-alive reuse
            return response.status
        except (http.client.HTTPException, OSError):
            connection.close()
            return 0

    def _record(self, report: LoadReport, lock: threading.Lock,
                status: int, latency: float) -> None:
        with lock:
            report.sent += 1
            if status == 200:
                report.ok += 1
                report.latencies.append(latency)
            elif status == 503:
                report.rejected += 1
            elif status == 504:
                report.timeouts += 1
            else:
                report.errors += 1

    # ------------------------------------------------------------------
    def run_closed(self, concurrency: int = 4,
                   total_requests: int = 100) -> LoadReport:
        """Closed loop: ``concurrency`` workers, ``total_requests`` total."""
        report = LoadReport(mode="closed", duration_seconds=0.0)
        lock = threading.Lock()
        counter = {"next": 0}

        def worker() -> None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                while True:
                    with lock:
                        index = counter["next"]
                        if index >= total_requests:
                            return
                        counter["next"] += 1
                    body = self.payloads[index % len(self.payloads)]
                    start = time.perf_counter()
                    status = self._one_request(connection, body)
                    latency = time.perf_counter() - start
                    self._record(report, lock, status, latency)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
            for i in range(max(1, concurrency))
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.duration_seconds = time.perf_counter() - started
        return report

    def run_open(self, rate: float, duration: float,
                 max_workers: int = 32) -> LoadReport:
        """Open loop: fixed arrival schedule at ``rate`` req/s.

        Latency is measured from each request's *scheduled* send time,
        so server-side queueing (and generator lateness) counts against
        the percentile — the anti-coordinated-omission convention.
        """
        if rate <= 0:
            raise ValueError("rate must be > 0")
        report = LoadReport(mode="open", duration_seconds=0.0)
        lock = threading.Lock()
        interval = 1.0 / rate
        total = max(1, int(rate * duration))
        epoch = time.perf_counter()
        schedule = [epoch + i * interval for i in range(total)]
        cursor = {"next": 0}

        def worker() -> None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                while True:
                    with lock:
                        index = cursor["next"]
                        if index >= total:
                            return
                        cursor["next"] += 1
                    scheduled = schedule[index]
                    delay = scheduled - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    body = self.payloads[index % len(self.payloads)]
                    status = self._one_request(connection, body)
                    latency = time.perf_counter() - scheduled
                    self._record(report, lock, status, latency)
            finally:
                connection.close()

        workers = min(max_workers, max(2, int(rate * 2)))
        threads = [
            threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.duration_seconds = time.perf_counter() - epoch
        return report


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
    generator = LoadGenerator(
        args.host, args.port, payloads, path=args.path,
        timeout=args.timeout, search_mode=args.mode, task=args.task,
    )
    if args.loop == "closed":
        report = generator.run_closed(
            concurrency=args.concurrency, total_requests=args.requests
        )
    else:
        report = generator.run_open(rate=args.rate, duration=args.duration)
    print(report.format_report())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"  report -> {args.out}")
    return 0 if report.ok > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
