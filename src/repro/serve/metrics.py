"""Serving metrics: request counters, latency histogram, gauges.

The server exposes these at ``GET /metrics`` as JSON.  Everything is
guarded by one lock — metric updates are a handful of integer adds per
request, far off the scoring hot path — and snapshots are taken
atomically so a scrape never observes a half-updated histogram.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Optional, Tuple

#: Histogram bucket upper bounds in seconds (Prometheus-style ``le``
#: semantics, +Inf implicit).  Spans sub-millisecond cache hits to
#: multi-second cold scans.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class LatencyHistogram:
    """A fixed-bucket latency histogram with percentile estimation."""

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be sorted, unique, non-empty")
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(buckets) + 1)  # +Inf; guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock

    def observe(self, seconds: float) -> None:
        index = bisect_left(self.buckets, seconds)
        with self._lock:
            self._counts[index] += 1
            self._sum += seconds
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-quantile (0 < p <= 1) in seconds.

        Linear interpolation inside the containing bucket; the +Inf
        bucket reports its lower bound (the histogram cannot see
        beyond its last edge).
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        target = p * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                if index >= len(self.buckets):  # +Inf bucket
                    return self.buckets[-1]
                upper = self.buckets[index]
                fraction = (target - cumulative) / count
                return lower + (upper - lower) * fraction
            cumulative += count
        return self.buckets[-1]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            total_seconds = self._sum
        return {
            "count": total,
            "sum_seconds": total_seconds,
            "mean_seconds": (total_seconds / total) if total else 0.0,
            "buckets": [
                {"le": le, "count": count}
                for le, count in zip(
                    list(self.buckets) + ["+Inf"], counts
                )
            ],
            "p50_seconds": self.percentile(0.50),
            "p95_seconds": self.percentile(0.95),
            "p99_seconds": self.percentile(0.99),
        }


class ServerMetrics:
    """All counters/gauges of one :class:`~repro.serve.server.ThetisServer`.

    ``requests_total`` is keyed by ``(endpoint, status)``;
    ``latency`` holds one histogram per query endpoint.  Batching
    effectiveness shows up as ``batched_queries_total /
    batches_total`` (mean coalesced batch size).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: Dict[Tuple[str, int], int] = {}  # guarded-by: _lock
        self._in_flight = 0  # guarded-by: _lock
        self.rejected_total = 0  # guarded-by: _lock
        self.timeout_total = 0  # guarded-by: _lock
        self.batches_total = 0  # guarded-by: _lock
        self.batched_queries_total = 0  # guarded-by: _lock
        self._batch_occupancy: Dict[int, int] = {}  # guarded-by: _lock
        self.snapshot_swaps_total = 0  # guarded-by: _lock
        self._latency: Dict[str, LatencyHistogram] = {}  # guarded-by: _lock
        # Per-task query tallies of the /search dispatch: task name
        # ("entity" | "union" | "join") -> queries routed to it.
        self._tasks: Dict[str, int] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    def request_started(self) -> None:
        with self._lock:
            self._in_flight += 1

    def request_finished(self, endpoint: str, status: int,
                         seconds: Optional[float] = None) -> None:
        with self._lock:
            self._in_flight -= 1
            key = (endpoint, status)
            self._requests[key] = self._requests.get(key, 0) + 1
            # Overload/timeout tallies track the query path only; a 503
            # from /readyz during warm-up is not an admission rejection.
            if endpoint in ("/search", "/topk"):
                if status == 503:
                    self.rejected_total += 1
                elif status == 504:
                    self.timeout_total += 1
        if seconds is not None:
            self.latency(endpoint).observe(seconds)

    def latency(self, endpoint: str) -> LatencyHistogram:
        with self._lock:
            histogram = self._latency.get(endpoint)
            if histogram is None:
                histogram = LatencyHistogram()
                self._latency[endpoint] = histogram
            return histogram

    def batch_executed(self, size: int) -> None:
        with self._lock:
            self.batches_total += 1
            self.batched_queries_total += size
            size = max(0, int(size))
            self._batch_occupancy[size] = (
                self._batch_occupancy.get(size, 0) + 1
            )

    def note_task(self, task: str, queries: int) -> None:
        """Tally ``queries`` dispatched to ``task``'s engine."""
        with self._lock:
            self._tasks[task] = self._tasks.get(task, 0) + int(queries)

    def snapshot_swapped(self) -> None:
        with self._lock:
            self.snapshot_swaps_total += 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def total_requests(self) -> int:
        with self._lock:
            return sum(self._requests.values())

    # ------------------------------------------------------------------
    def to_json(
        self,
        queue_depth: int = 0,
        queue_limit: int = 0,
        snapshot_version: int = 0,
        cache_stats: Optional[Dict[str, Any]] = None,
        index_stats: Optional[Dict[str, Any]] = None,
        prefilter_stats: Optional[Dict[str, Any]] = None,
        uptime_seconds: float = 0.0,
        cluster_stats: Optional[Dict[str, Any]] = None,
        batch_stats: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The ``GET /metrics`` document."""
        # One consistent snapshot of every counter; the histogram
        # snapshots happen outside the lock (each takes its own).
        with self._lock:
            batches = self.batches_total
            batched = self.batched_queries_total
            occupancy = dict(sorted(self._batch_occupancy.items()))
            rejected = self.rejected_total
            timeouts = self.timeout_total
            swaps = self.snapshot_swaps_total
            in_flight = self._in_flight
            requests = {
                f"{endpoint}:{status}": count
                for (endpoint, status), count in sorted(
                    self._requests.items()
                )
            }
            histograms = sorted(self._latency.items())
            tasks = dict(sorted(self._tasks.items()))
        payload: Dict[str, Any] = {
            "uptime_seconds": uptime_seconds,
            "requests_total": sum(requests.values()),
            "requests": requests,
            "in_flight": in_flight,
            "rejected_total": rejected,
            "timeout_total": timeouts,
            "queue_depth": queue_depth,
            "queue_limit": queue_limit,
            "batches_total": batches,
            "batched_queries_total": batched,
            "mean_batch_size": (batched / batches) if batches else 0.0,
            "snapshot_version": snapshot_version,
            "snapshot_swaps_total": swaps,
            "latency": {
                endpoint: histogram.snapshot()
                for endpoint, histogram in histograms
            },
        }
        if tasks:
            # Per-task dispatch tallies of the /search batch runner:
            # how many queries each workload (entity/union/join)
            # received since start-up.
            payload["tasks"] = tasks
        if cache_stats is not None:
            payload["cache"] = {
                name: {
                    "size": stats.size,
                    "maxsize": stats.maxsize,
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "hit_rate": stats.hit_rate,
                }
                for name, stats in cache_stats.items()
            }
        if index_stats is not None:
            # Segment/tombstone/compaction gauges of the engine's
            # segmented corpus index (absent before warm-up or the
            # first query builds the index).
            payload["index"] = dict(index_stats)
        if prefilter_stats is not None:
            # Candidate-generation counters of the prefilter serve
            # path: reduction, shortlist sizes, early-termination
            # rate, and sampled recall-guardrail observations (see
            # repro.core.kernel.prefilter.PrefilterStats).
            payload["prefilter"] = dict(prefilter_stats)
        if cluster_stats is not None:
            # Scatter-gather counters of the cluster coordinator:
            # routing epoch, fleet size/liveness, shard failures,
            # hedged retries, and degraded responses (see
            # repro.cluster.coordinator.ClusterMetrics).
            payload["cluster"] = dict(cluster_stats)
        if batch_stats is not None:
            # Multi-query batched scoring counters: the micro-batch
            # occupancy histogram (batch size -> batches observed) plus
            # the engine-side pass and dedup tallies
            # (see repro.core.kernel.batchstats.BatchStats).
            payload["batch"] = {
                "occupancy": {
                    str(size): count for size, count in occupancy.items()
                },
                **dict(batch_stats),
            }
        return payload

