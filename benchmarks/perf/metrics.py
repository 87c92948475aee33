"""The declared metrics and how each is computed from a workload run.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and directions in ``BENCHMARK.json`` (``test_smoke.py`` checks the
two agree).  End-to-end numbers come only from untraced runs.  Per-layer
numbers are either counters (the load generator's own samples and
window deltas of ``GET /metrics``, taken from the untraced run) or span
statistics (from the traced run).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.perf.loadgen import Sample, Window
from benchmarks.perf.streams import distinct_tuple_share
from benchmarks.perf.trace import Trace, median, union_length

#: ``(name, unit, better, bound)``.  The time-based bounds are as wide as
#: a bound may be: on the 2-core box this was built on, a pure CPU loop
#: timed over 12 s windows already spreads by 0.16 (README, "Noise").
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("search_rps", "1/s", "higher", 0.25),
    ("search_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Spans timed per search request, and the statistics reported for each.
SEARCH_SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("serve.http.read_request", ("busy_ms", "calls")),
    ("serve.http.encode", ("busy_ms",)),
    ("serve.protocol.from_json", ("busy_ms",)),
    ("serve.protocol.result_to_json", ("busy_ms",)),
    ("serve.snapshot.checkout", ("busy_ms",)),
    ("system.search_many", ("self_ms",)),
    ("system.search_shard_batch", ("self_ms",)),
    ("core.kernel.engine.search_batch", ("busy_ms", "calls")),
    ("core.kernel.engine.search_candidates", ("busy_ms",)),
    ("core.kernel.prefilter.candidates", ("busy_ms",)),
    ("core.kernel.union.search_batch", ("busy_ms",)),
    ("core.kernel.join.search_batch", ("busy_ms",)),
    ("core.result.from_arrays", ("busy_ms",)),
    ("cluster.client.request", ("busy_ms",)),
    ("cluster.protocol.encode_frame", ("busy_ms",)),
    ("cluster.protocol.read_frame", ("busy_ms",)),
    ("core.parallel.merge_topk", ("busy_ms",)),
)
#: Spans on the mutation path, timed per ``/tables`` request.
MUTATION_SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("serve.snapshot.apply", ("busy_ms", "calls")),
    ("system.add_table", ("busy_ms",)),
    ("system.remove_table", ("busy_ms",)),
    ("system.snapshot_inputs", ("busy_ms",)),
    ("system.seed_engines_from", ("busy_ms",)),
    ("system.warm", ("busy_ms",)),
    ("core.kernel.segments.compile", ("busy_ms",)),
    ("core.kernel.segments.with_table", ("busy_ms",)),
    ("core.kernel.segments.without_table", ("busy_ms",)),
    ("core.kernel.segments.maybe_compacted", ("busy_ms",)),
    ("core.kernel.union.compile", ("busy_ms", "calls")),
    ("core.kernel.join.compile", ("busy_ms", "calls")),
)

#: ``(name, unit, better)`` of the metrics that need no span.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("benchgen.build_s", "s", "lower"),
    ("benchgen.tables", "count", "higher"),
    ("benchgen.distinct_tuple_share", "ratio", "higher"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.ok", "count", "higher"),
    ("loadgen.rejected_503", "count", "lower"),
    ("loadgen.timeouts_504", "count", "lower"),
    ("loadgen.errors", "count", "lower"),
    ("loadgen.failed_share", "ratio", "lower"),
    ("loadgen.late_p95_ms", "ms", "lower"),
    ("loadgen.rps_quintile_spread", "ratio", "lower"),
    ("loadgen.search_p95_ms", "ms", "lower"),
    ("serve.batching.mean_batch_size", "count", "higher"),
    ("serve.batching.batches_total", "count", "lower"),
    ("serve.batching.rejected_total", "count", "lower"),
    ("serve.snapshot.swaps_total", "count", "higher"),
    ("serve.prefilter.p50_ms", "ms", "lower"),
    ("serve.union.p50_ms", "ms", "lower"),
    ("serve.join.p50_ms", "ms", "lower"),
    ("serve.mutation.add_p50_ms", "ms", "lower"),
    ("serve.mutation.remove_p50_ms", "ms", "lower"),
    ("core.kernel.engine.queries_per_batched_pass", "count", "higher"),
    ("core.kernel.engine.dedup_rate", "ratio", "higher"),
    ("core.kernel.index.row_memo_hit_rate", "ratio", "higher"),
    ("core.kernel.index.tuple_memo_hit_rate", "ratio", "higher"),
    ("core.kernel.index.tuple_memo_misses_per_request", "count", "lower"),
    ("core.kernel.segments.segments", "count", "lower"),
    ("core.kernel.segments.tombstones", "count", "lower"),
    ("core.kernel.prefilter.candidate_reduction", "ratio", "higher"),
    ("core.kernel.prefilter.early_termination_rate", "ratio", "higher"),
    ("cluster.coordinator.scatters_total", "count", "lower"),
    ("cluster.coordinator.shard_requests_total", "count", "lower"),
    ("cluster.coordinator.shard_failures_total", "count", "lower"),
    ("cluster.coordinator.hedged_retries_total", "count", "lower"),
    ("cluster.coordinator.degraded_total", "count", "lower"),
)
#: Span-derived metrics that are not a plain busy/self/calls statistic.
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("serve.batching.submit.wait_ms_p50", "ms", "lower"),
    ("cluster.protocol.frame_bytes_per_request", "B", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.coverage_share", "ratio", "higher"),
)


def _span_metrics() -> List[Tuple[str, str, str]]:
    return [
        (f"{span}.{stat}", "count" if stat == "calls" else "ms", "lower")
        for span, stats in SEARCH_SPANS + MUTATION_SPANS for stat in stats
    ]


PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    COUNTERS + tuple(_span_metrics()) + DERIVED
)
UNITS: Dict[str, str] = {
    name: unit for name, unit, *_ in END_TO_END + PER_LAYER
}


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = p * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _latencies(samples: Sequence[Sample], *kinds: str) -> List[float]:
    return [s.latency_ms for s in samples
            if s.ok and (not kinds or s.request.kind in kinds)]


def _searches(window: Window) -> List[Sample]:
    return [s for s in window.samples if s.request.path == "/search"]


def search_p50_ms(window: Window) -> float:
    return percentile(_latencies(_searches(window)), 0.50)


def end_to_end(window: Window, setup_times: Sequence[float],
               peak_rss_mb: float) -> Dict[str, float]:
    latencies = _latencies(_searches(window))
    return {
        "setup_s": median(setup_times),
        "search_rps": len(latencies) / (window.end - window.start),
        "search_p50_ms": percentile(latencies, 0.50),
        "peak_rss_mb": peak_rss_mb,
    }


def _dig(payload: Any, path: str) -> float:
    for key in path.split("."):
        payload = payload.get(key) if isinstance(payload, dict) else None
    return float(payload) if isinstance(payload, (int, float)) else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def quintile_spread(window: Window) -> float:
    """(max - min) / median of OK searches completed per fifth of the window."""
    span = (window.end - window.start) / 5.0
    counts = [0] * 5
    for sample in _searches(window):
        if sample.ok:
            counts[min(4, int((sample.done - window.start) / span))] += 1
    return _share(max(counts) - min(counts), median(counts))


def counters(window: Window, before: dict, after: dict, build_s: float,
             tables: int) -> Dict[str, float]:
    """Every ``COUNTERS`` metric, from client samples and `/metrics` deltas."""
    samples = window.samples
    ok_searches = sum(1 for s in _searches(window) if s.ok)

    def delta(path: str) -> float:
        # Memo counters restart when a swap replaces a segment; a
        # negative delta then means "no information", not a negative count.
        return max(0.0, _dig(after, path) - _dig(before, path))

    row_hits, row_misses = (delta("cache.kernel_rows.hits"),
                            delta("cache.kernel_rows.misses"))
    tuple_hits, tuple_misses = (delta("cache.kernel_tuples.hits"),
                                delta("cache.kernel_tuples.misses"))
    values = {
        "benchgen.build_s": build_s,
        "benchgen.tables": tables,
        "benchgen.distinct_tuple_share": distinct_tuple_share(
            [s.request for s in samples]),
        "loadgen.sent": len(samples),
        "loadgen.ok": sum(1 for s in samples if s.ok),
        "loadgen.rejected_503": sum(1 for s in samples if s.status == 503),
        "loadgen.timeouts_504": sum(1 for s in samples if s.status == 504),
        "loadgen.errors": sum(
            1 for s in samples if not s.ok and s.status not in (503, 504)),
        "loadgen.failed_share": _share(
            sum(1 for s in samples if not s.ok), len(samples)),
        "loadgen.late_p95_ms": percentile(
            [(s.sent - s.due) * 1000.0 for s in samples], 0.95),
        "loadgen.rps_quintile_spread": quintile_spread(window),
        "loadgen.search_p95_ms": percentile(
            _latencies(_searches(window)), 0.95),
        "serve.batching.mean_batch_size": _share(
            delta("batched_queries_total"), delta("batches_total")),
        "serve.batching.batches_total": delta("batches_total"),
        "serve.batching.rejected_total": delta("rejected_total"),
        "serve.snapshot.swaps_total": delta("snapshot_swaps_total"),
        "serve.prefilter.p50_ms": percentile(
            _latencies(samples, "prefilter"), 0.5),
        "serve.union.p50_ms": percentile(_latencies(samples, "union"), 0.5),
        "serve.join.p50_ms": percentile(_latencies(samples, "join"), 0.5),
        "serve.mutation.add_p50_ms": percentile(
            _latencies(samples, "add"), 0.5),
        "serve.mutation.remove_p50_ms": percentile(
            _latencies(samples, "remove"), 0.5),
        "core.kernel.engine.queries_per_batched_pass": _share(
            delta("batch.batched_queries"), delta("batch.batched_passes")),
        "core.kernel.engine.dedup_rate": _share(
            delta("batch.deduped_queries"), delta("batch.batched_queries")),
        "core.kernel.index.row_memo_hit_rate": _share(
            row_hits, row_hits + row_misses),
        "core.kernel.index.tuple_memo_hit_rate": _share(
            tuple_hits, tuple_hits + tuple_misses),
        "core.kernel.index.tuple_memo_misses_per_request": _share(
            tuple_misses, ok_searches),
        "core.kernel.segments.segments": _dig(after, "index.segments"),
        "core.kernel.segments.tombstones": _dig(after, "index.tombstones"),
        "core.kernel.prefilter.candidate_reduction": _dig(
            after, "prefilter.candidate_reduction"),
        "core.kernel.prefilter.early_termination_rate": _dig(
            after, "prefilter.early_termination_rate"),
    }
    for name in ("scatters_total", "shard_requests_total",
                 "shard_failures_total", "hedged_retries_total",
                 "degraded_total"):
        values[f"cluster.coordinator.{name}"] = delta(f"cluster.{name}")
    return values


def spans(trace: Trace, traced: Window,
          untraced_p50_ms: float) -> Dict[str, Optional[float]]:
    """Every span-derived metric; None where the probe did not resolve."""
    searches = len(_searches(traced))
    mutations = len(traced.samples) - searches
    values: Dict[str, Optional[float]] = {}
    for table, requests in ((SEARCH_SPANS, searches),
                            (MUTATION_SPANS, mutations)):
        for span, stats in table:
            for stat in stats:
                if span in trace.missing:
                    value = None
                elif stat == "calls":
                    value = float(trace.calls(span))
                else:
                    value = _share(getattr(trace, stat)(span), requests)
                values[f"{span}.{stat}"] = value
    derived = {
        "serve.batching.submit.wait_ms_p50": (
            "serve.batching.submit", median(trace.submit_wait_ms())),
        "cluster.protocol.frame_bytes_per_request": (
            "cluster.protocol.encode_frame",
            _share(trace.bytes("cluster.protocol.encode_frame"), searches)),
    }
    for name, (span, value) in derived.items():
        values[name] = None if span in trace.missing else value
    values["trace.overhead_share"] = (
        _share(search_p50_ms(traced), untraced_p50_ms) - 1.0)
    values["trace.coverage_share"] = _share(
        trace.root_cover_s(),
        union_length((s.sent, s.done) for s in traced.samples))
    return values
