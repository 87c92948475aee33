"""Exception hierarchy for the Thetis reproduction library.

All library errors derive from :class:`ReproError` so that callers can
catch the whole family with a single ``except`` clause while still being
able to discriminate specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class KnowledgeGraphError(ReproError):
    """Raised for malformed or inconsistent knowledge-graph operations."""


class UnknownEntityError(KnowledgeGraphError):
    """Raised when an entity URI is not present in the knowledge graph."""

    def __init__(self, uri: str):
        super().__init__(f"unknown entity: {uri!r}")
        self.uri = uri


class UnknownTypeError(KnowledgeGraphError):
    """Raised when a type name is not present in the taxonomy."""

    def __init__(self, name: str):
        super().__init__(f"unknown type: {name!r}")
        self.name = name


class DataLakeError(ReproError):
    """Raised for malformed tables or data-lake operations."""


class DuplicateTableError(DataLakeError):
    """Raised when adding a table whose identifier already exists."""

    def __init__(self, table_id: str):
        super().__init__(f"table id already present in lake: {table_id!r}")
        self.table_id = table_id


class LinkingError(ReproError):
    """Raised for invalid entity-linking operations."""


class EmbeddingError(ReproError):
    """Raised for embedding-store and training failures."""


class DimensionMismatchError(EmbeddingError):
    """Raised when vectors of incompatible dimensionality are combined."""

    def __init__(self, expected: int, got: int):
        super().__init__(f"expected dimension {expected}, got {got}")
        self.expected = expected
        self.got = got


class SearchError(ReproError):
    """Raised for invalid search queries or engine configuration."""


class IndexStorageError(ReproError):
    """Raised for unreadable, truncated, or mismatched on-disk indexes.

    Covers format/version mismatches, truncated or misaligned array
    payloads, and indexes persisted for a different similarity
    configuration than the one asking to load them.  Callers that can
    recompile (the vectorized engine's cold-start path) treat this as
    "fall back to compiling from the lake"; explicit CLI loads surface
    it to the user.
    """


class ThetisClosedError(ReproError):
    """Raised when a closed :class:`~repro.system.Thetis` is used.

    ``Thetis.close()`` is terminal; a serving layer that keeps
    references to retired engine snapshots must get a clear error if a
    stray call slips through after the swap.
    """

    def __init__(self, operation: str = "operation"):
        super().__init__(
            f"Thetis instance is closed; {operation} is no longer available"
        )
        self.operation = operation


class ServeError(ReproError):
    """Base class for errors raised by the online serving layer."""


class ProtocolError(ServeError):
    """Raised for malformed serving requests (HTTP 400)."""


class BadRequestError(ServeError):
    """Raised while parsing an HTTP request; carries the status code.

    Unlike :class:`ProtocolError` (always a 400), the parser
    distinguishes oversized requests (413) from malformed ones (400),
    so the status travels with the exception.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServerOverloadedError(ServeError):
    """Raised when the admission queue is full (HTTP 503).

    The server fast-fails instead of queueing unboundedly, so clients
    can back off while in-flight queries still complete.
    """

    def __init__(self, depth: int, limit: int):
        super().__init__(
            f"server overloaded: queue depth {depth} at limit {limit}"
        )
        self.depth = depth
        self.limit = limit


class RequestTimeoutError(ServeError):
    """Raised when a request exceeds its per-request deadline (HTTP 504)."""

    def __init__(self, timeout: float):
        super().__init__(f"request timed out after {timeout:.3f}s")
        self.timeout = timeout


class ClusterError(ServeError):
    """Base class for errors raised by the scatter-gather cluster layer.

    Raised for transport failures between the coordinator and a worker
    (refused connections, mid-request EOFs, per-shard timeouts) and for
    cluster misconfiguration.  The coordinator converts these into
    hedged retries and degraded responses rather than surfacing them to
    clients as 500s.
    """


class ClusterProtocolError(ClusterError):
    """Raised for malformed frames on the worker wire protocol.

    Covers oversized or truncated length-prefixed frames, bodies that
    are not JSON objects, and messages missing their ``type`` field.
    """


class StaleEpochError(ClusterError):
    """Raised when a worker receives a request for an unknown epoch.

    Shard assignment is a pure function of the routing epoch's
    membership; a worker that cannot resolve the request's epoch must
    refuse rather than score the wrong shard.  The coordinator re-pushes
    the routing table and retries.
    """

    def __init__(self, requested: int, current: int):
        super().__init__(
            f"routing epoch {requested} is unknown to this worker "
            f"(current epoch: {current})"
        )
        self.requested = requested
        self.current = current


class EmptyQueryError(SearchError):
    """Raised when a query contains no usable entity tuples."""


class ConfigurationError(ReproError):
    """Raised when a component is configured with invalid parameters."""


class AnalysisError(ReproError):
    """Raised by :mod:`repro.analysis` for invalid lint configuration.

    Covers unknown rule ids/severities, unreadable or malformed
    baseline files (including entries missing their mandatory
    ``reason``), and nonexistent lint targets.  Findings are *not*
    exceptions — they are data returned in a
    :class:`~repro.analysis.engine.LintReport`.
    """
