"""Sharded scatter-gather serving over memmap segments.

The cluster layer turns the single-process :mod:`repro.serve` service
into a fleet: a data-free **coordinator** scatters every ``POST
/search`` across N **workers**, each of which scores the shard of
table ids it owns under the current routing epoch (consistent hashing
with R-way replication) and returns a top-k partial; the coordinator
merges partials with the bit-identical ``(-score, table_id)`` merge,
so cluster results equal single-process results exactly — in ``exact``
and ``prefilter`` mode alike.

Workers cold-start by memmapping spilled segment directories
(:mod:`repro.core.kernel.storage`), so N workers on a machine share
one copy of the corpus through the page cache.  Dead workers degrade
responses explicitly (``"degraded": true``) until the heartbeat loop
promotes replicas by flipping the routing epoch; new workers join the
same way — that epoch flip *is* live rebalance.

See ``docs/cluster.md`` for topology, fail-over semantics, and the
rebalance runbook.
"""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.client import WorkerLink
    from repro.cluster.coordinator import (
        ClusterConfig,
        ClusterCoordinator,
        ClusterMetrics,
    )
    from repro.cluster.harness import (
        ClusterHarness,
        CoordinatorThread,
        WorkerThread,
    )
    from repro.cluster.hashring import HashRing
    from repro.cluster.protocol import (
        MAX_FRAME_BYTES,
        RoutingTable,
        encode_frame,
        read_frame,
        write_frame,
    )
    from repro.cluster.worker import ClusterWorker, WorkerConfig

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterHarness",
    "ClusterMetrics",
    "ClusterWorker",
    "CoordinatorThread",
    "HashRing",
    "MAX_FRAME_BYTES",
    "RoutingTable",
    "WorkerConfig",
    "WorkerLink",
    "WorkerThread",
    "encode_frame",
    "read_frame",
    "write_frame",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".client": ("WorkerLink",),
    ".coordinator": ("ClusterConfig", "ClusterCoordinator", "ClusterMetrics"),
    ".harness": ("ClusterHarness", "CoordinatorThread", "WorkerThread"),
    ".hashring": ("HashRing",),
    ".protocol": (
        "MAX_FRAME_BYTES", "RoutingTable", "encode_frame", "read_frame",
        "write_frame",
    ),
    ".worker": ("ClusterWorker", "WorkerConfig"),
})
