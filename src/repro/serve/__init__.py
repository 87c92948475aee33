"""Online serving layer: an asyncio HTTP/JSON query service.

Turns a warm :class:`~repro.system.Thetis` into a standing network
service (stdlib-only — no framework dependencies):

* :class:`~repro.serve.server.ThetisServer` — the asyncio HTTP server
  (``/search``, ``/topk``, ``/explain``, ``/tables``, ``/healthz``,
  ``/readyz``, ``/metrics``);
* :class:`~repro.serve.batching.MicroBatcher` — coalesces concurrent
  queries into ``search_many`` passes with bounded admission (503) and
  per-request deadlines (504);
* :class:`~repro.serve.snapshot.SnapshotManager` — versioned engine
  snapshots with copy-and-swap lake updates; in-flight queries finish
  on the generation they started with;
* :class:`~repro.serve.metrics.ServerMetrics` — counters, latency
  histograms, queue depth, cache hit rates for ``/metrics``.

The serving benches load a server through the benchmark's own
closed-/open-loop generator, ``benchmarks/perf/loadgen.py``;
``benchmarks/serve_loadgen.py`` is its CLI.

See ``docs/serving.md`` for the wire format and tuning guide.
"""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.serve.batching import MicroBatcher
    from repro.serve.metrics import LatencyHistogram, ServerMetrics
    from repro.serve.protocol import (
        ExplainRequest,
        SearchRequest,
        TableUpsertRequest,
        error_to_json,
        result_to_json,
    )
    from repro.serve.server import ServeConfig, ServerThread, ThetisServer
    from repro.serve.snapshot import EngineSnapshot, SnapshotManager

__all__ = [
    "ThetisServer",
    "ServerThread",
    "ServeConfig",
    "MicroBatcher",
    "SnapshotManager",
    "EngineSnapshot",
    "ServerMetrics",
    "LatencyHistogram",
    "SearchRequest",
    "ExplainRequest",
    "TableUpsertRequest",
    "result_to_json",
    "error_to_json",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".batching": ("MicroBatcher",),
    ".metrics": ("LatencyHistogram", "ServerMetrics"),
    ".protocol": (
        "ExplainRequest", "SearchRequest", "TableUpsertRequest",
        "error_to_json", "result_to_json",
    ),
    ".server": ("ServeConfig", "ServerThread", "ThetisServer"),
    ".snapshot": ("EngineSnapshot", "SnapshotManager"),
})
