"""Tests for serving metrics: histograms, counters, JSON document."""

import pytest

from repro.serve.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    LatencyHistogram,
    ServerMetrics,
)


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.percentile(0.5) == 0.0
        snap = histogram.snapshot()
        assert snap["count"] == 0
        assert len(snap["buckets"]) == len(DEFAULT_LATENCY_BUCKETS) + 1

    def test_observe_counts_and_sum(self):
        histogram = LatencyHistogram()
        for value in (0.0005, 0.003, 0.003, 0.2):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total_seconds == pytest.approx(0.2065)

    def test_percentile_within_bucket(self):
        histogram = LatencyHistogram(buckets=(0.01, 0.1, 1.0))
        for _ in range(100):
            histogram.observe(0.05)  # all in the (0.01, 0.1] bucket
        p50 = histogram.percentile(0.50)
        assert 0.01 < p50 <= 0.1

    def test_percentile_monotone(self):
        histogram = LatencyHistogram()
        for i in range(1, 101):
            histogram.observe(i / 1000.0)  # 1ms .. 100ms
        p50 = histogram.percentile(0.50)
        p95 = histogram.percentile(0.95)
        p99 = histogram.percentile(0.99)
        assert p50 <= p95 <= p99
        assert 0.01 <= p50 <= 0.1

    def test_overflow_bucket_reports_last_edge(self):
        histogram = LatencyHistogram(buckets=(0.01, 0.1))
        histogram.observe(5.0)
        assert histogram.percentile(0.99) == 0.1

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=())
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(0.1, 0.01))
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(0.1, 0.1))

    def test_bad_percentile_rejected(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)


class TestServerMetrics:
    def test_request_accounting(self):
        metrics = ServerMetrics()
        metrics.request_started()
        assert metrics.in_flight == 1
        metrics.request_finished("/search", 200, seconds=0.01)
        assert metrics.in_flight == 0
        assert metrics.total_requests() == 1
        assert metrics.to_json()["requests"] == {"/search:200": 1}
        assert metrics.latency("/search").count == 1

    def test_rejections_tracked_on_query_paths_only(self):
        metrics = ServerMetrics()
        for endpoint, status in [
            ("/search", 503), ("/topk", 504), ("/readyz", 503),
        ]:
            metrics.request_started()
            metrics.request_finished(endpoint, status)
        assert metrics.rejected_total == 1   # /readyz 503 is not overload
        assert metrics.timeout_total == 1

    def test_batch_and_swap_counters(self):
        metrics = ServerMetrics()
        metrics.batch_executed(3)
        metrics.batch_executed(5)
        metrics.snapshot_swapped()
        doc = metrics.to_json(queue_depth=2, queue_limit=64,
                              snapshot_version=1)
        assert doc["batches_total"] == 2
        assert doc["batched_queries_total"] == 8
        assert doc["mean_batch_size"] == pytest.approx(4.0)
        assert doc["snapshot_swaps_total"] == 1
        assert doc["queue_depth"] == 2
        assert doc["queue_limit"] == 64
        assert doc["snapshot_version"] == 1

    def test_to_json_includes_cache_stats(self):
        class _Stats:
            size, maxsize, hits, misses, evictions = 3, 10, 7, 3, 0
            hit_rate = 0.7

        metrics = ServerMetrics()
        doc = metrics.to_json(cache_stats={"types": _Stats()})
        assert doc["cache"]["types"]["hit_rate"] == pytest.approx(0.7)
        assert doc["cache"]["types"]["size"] == 3
