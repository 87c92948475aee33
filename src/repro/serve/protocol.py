"""Request model and JSON codec of the online serving layer.

The wire format is plain JSON over HTTP.  A search request looks like::

    POST /search
    {"tuples": [["kg:player0", "kg:team0"]],
     "k": 10, "method": "types", "mode": "exact", "task": "entity"}

and its response::

    {"results": [{"rank": 1, "table_id": "T00", "score": 0.93}, ...],
     "count": 10, "k": 10, "method": "types", "snapshot_version": 0}

Parsing is strict: unknown fields, wrong types, or out-of-range values
raise :class:`~repro.exceptions.ProtocolError`, which the server maps
to HTTP 400 — a malformed request must never reach the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core.query import SEARCH_MODES, SEARCH_TASKS, Query
from repro.core.result import ResultSet
from repro.exceptions import EmptyQueryError, ProtocolError

#: Search methods the service accepts.
METHODS = ("types", "embeddings")

#: Mode labels a reply carries, mapped to the :data:`~repro.core.query.
#: SEARCH_MODES` value they execute as: exact ranking (``"search"``,
#: and ``"topk"``, the label of ``POST /topk`` replies) or LSH
#: candidate generation + rescoring (``"prefilter"``, Section 6).
MODES = {"search": "exact", "topk": "exact", "prefilter": "prefilter"}

#: Upper bound on ``k`` accepted over the wire: a page of results, not
#: a corpus dump — unbounded ``k`` would let one client monopolize a
#: batch slot with serialization work.
MAX_K = 1000

#: Upper bounds on query shape, mirroring the paper's largest workload
#: (5-tuple queries) with generous headroom.
MAX_TUPLES = 64
MAX_TUPLE_WIDTH = 64


def _expect_mapping(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_fields(payload: Dict[str, Any], allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ProtocolError(f"unknown request fields: {', '.join(unknown)}")


def _parse_tuples(payload: Dict[str, Any]) -> Tuple[Tuple[str, ...], ...]:
    raw = payload.get("tuples")
    if raw is None:
        raise ProtocolError("missing required field 'tuples'")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("'tuples' must be a non-empty list of lists")
    if len(raw) > MAX_TUPLES:
        raise ProtocolError(
            f"too many query tuples: {len(raw)} > {MAX_TUPLES}"
        )
    tuples: List[Tuple[str, ...]] = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or not entry:
            raise ProtocolError(
                f"tuple {i} must be a non-empty list of entity URIs"
            )
        if len(entry) > MAX_TUPLE_WIDTH:
            raise ProtocolError(
                f"tuple {i} too wide: {len(entry)} > {MAX_TUPLE_WIDTH}"
            )
        for uri in entry:
            if not isinstance(uri, str) or not uri:
                raise ProtocolError(
                    f"tuple {i} contains a non-string or empty entity URI"
                )
        tuples.append(tuple(entry))
    return tuple(tuples)


def _parse_int(payload: Dict[str, Any], name: str, default: int,
               low: int, high: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"'{name}' must be an integer")
    if not low <= value <= high:
        raise ProtocolError(
            f"'{name}' must be in [{low}, {high}], got {value}"
        )
    return value


def _parse_bool(payload: Dict[str, Any], name: str, default: bool) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"'{name}' must be a boolean")
    return value


def _parse_choice(payload: Dict[str, Any], name: str, default: str,
                  choices: Tuple[str, ...]) -> str:
    value = payload.get(name, default)
    if value not in choices:
        raise ProtocolError(
            f"'{name}' must be one of {choices}, got {value!r}"
        )
    return value


#: Table ids travel in URL path segments as well as JSON bodies, so
#: beyond non-emptiness they must not carry control characters.
MAX_TABLE_ID_LENGTH = 1024


def parse_table_id(value: Any, name: str = "table_id") -> str:
    """Validate one table id from a request body or URL segment.

    The single chokepoint every externally-supplied table id passes
    through before it reaches the engine (the wire-taint lint pass
    treats its return value as sanitized).
    """
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"'{name}' must be a non-empty string")
    if len(value) > MAX_TABLE_ID_LENGTH:
        raise ProtocolError(
            f"'{name}' exceeds {MAX_TABLE_ID_LENGTH} characters"
        )
    if any(ch < " " or ch == "\x7f" for ch in value):
        raise ProtocolError(
            f"'{name}' must not contain control characters"
        )
    return value


class SearchPlan(NamedTuple):
    """How a request executes, in :meth:`Thetis.search_many`'s terms.

    The server spreads it into ``search_many``, the coordinator into
    its ``search_batch`` frame, and the worker into
    ``search_shard_batch``; requests sharing a plan share one engine
    pass.
    """

    task: str
    mode: str
    method: str
    k: int
    votes: int


@dataclass(frozen=True)
class SearchRequest:
    """One parsed, validated query request.

    ``mode`` is the label echoed in the reply (see :data:`MODES`):
    ``"search"`` ranks the whole lake exactly, ``"prefilter"`` rescores
    an LSH shortlist, and ``"topk"`` (``POST /topk``, kept for
    compatibility) is ``"search"`` under another label.
    """

    tuples: Tuple[Tuple[str, ...], ...]
    k: int = 10
    method: str = "types"
    mode: str = "search"
    votes: int = 1
    task: str = "entity"

    @classmethod
    def from_json(cls, payload: Any, mode: str = "search") -> "SearchRequest":
        """Parse and validate a JSON payload; raises :class:`ProtocolError`.

        ``mode`` is the endpoint's mode label (``POST /topk`` passes
        ``"topk"``).  ``POST /search`` bodies may additionally carry a
        ``"mode"`` field, one of :data:`~repro.core.query.SEARCH_MODES`
        (``"exact"``, the default, keeps the ``"search"`` label), and a
        ``"task"`` field routing the query to the entity, union, or
        join engine; both fields are rejected on other endpoints, where
        the path already fixes the execution.  ``votes`` is the LSH
        vote threshold of ``"prefilter"``; exact search ignores it.
        """
        payload = _expect_mapping(payload)
        _check_fields(
            payload, ("tuples", "k", "method", "votes", "mode", "task")
        )
        if payload.get("mode") is not None:
            if mode != "search":
                raise ProtocolError(
                    "'mode' is only accepted on POST /search"
                )
            wire_mode = _parse_choice(payload, "mode", "exact", SEARCH_MODES)
            if wire_mode == "prefilter":
                mode = wire_mode
        task = "entity"
        if payload.get("task") is not None:
            if mode not in ("search", "prefilter"):
                raise ProtocolError(
                    "'task' is only accepted on POST /search"
                )
            task = _parse_choice(payload, "task", "entity", SEARCH_TASKS)
        if task != "entity" and mode == "prefilter":
            raise ProtocolError(
                "LSH prefiltering applies to the entity task only: "
                f"task {task!r} cannot combine with mode='prefilter'"
            )
        return cls(
            tuples=_parse_tuples(payload),
            k=_parse_int(payload, "k", 10, 1, MAX_K),
            method=_parse_choice(payload, "method", "types", METHODS),
            mode=mode if mode in MODES else "search",
            votes=_parse_int(payload, "votes", 1, 1, 64),
            task=task,
        )

    def query(self) -> Query:
        """Materialize the :class:`Query`; empty queries become 400s."""
        try:
            return Query(self.tuples)
        except EmptyQueryError as exc:
            raise ProtocolError(str(exc)) from exc

    def batch_key(self) -> SearchPlan:
        """The request's :class:`SearchPlan`, its micro-batch key.

        The task is part of the key: entity, union, and join queries
        never share a batch — they dispatch to different engines.
        ``votes`` reads 1 under exact search, which never uses it, so
        a ``POST /topk`` request and an exact ``POST /search`` with the
        same ``k`` share one pass.
        """
        mode = MODES[self.mode]
        votes = self.votes if mode == "prefilter" else 1
        return SearchPlan(self.task, mode, self.method, self.k, votes)


@dataclass(frozen=True)
class ExplainRequest:
    """A request to explain one table's score for a query."""

    tuples: Tuple[Tuple[str, ...], ...]
    table_id: str
    method: str = "types"

    @classmethod
    def from_json(cls, payload: Any) -> "ExplainRequest":
        payload = _expect_mapping(payload)
        _check_fields(payload, ("tuples", "table_id", "method"))
        table_id = parse_table_id(payload.get("table_id"))
        return cls(
            tuples=_parse_tuples(payload),
            table_id=table_id,
            method=_parse_choice(payload, "method", "types", METHODS),
        )

    def query(self) -> Query:
        try:
            return Query(self.tuples)
        except EmptyQueryError as exc:
            raise ProtocolError(str(exc)) from exc


@dataclass(frozen=True)
class TableUpsertRequest:
    """A request to add (and entity-link) one table to the lake."""

    table_id: str
    attributes: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    metadata: Dict[str, Any] = field(default_factory=dict)
    link: bool = True

    @classmethod
    def from_json(cls, payload: Any) -> "TableUpsertRequest":
        payload = _expect_mapping(payload)
        _check_fields(payload, ("table", "link"))
        record = payload.get("table")
        if not isinstance(record, dict):
            raise ProtocolError("missing required object field 'table'")
        _check_fields(record, ("id", "attributes", "rows", "metadata"))
        table_id = parse_table_id(record.get("id"), name="table.id")
        attributes = record.get("attributes")
        if (not isinstance(attributes, list) or not attributes
                or not all(isinstance(a, str) for a in attributes)):
            raise ProtocolError(
                "'table.attributes' must be a non-empty list of strings"
            )
        rows = record.get("rows")
        if not isinstance(rows, list):
            raise ProtocolError("'table.rows' must be a list of rows")
        parsed_rows: List[Tuple[Any, ...]] = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(attributes):
                raise ProtocolError(
                    f"'table.rows[{i}]' must be a list of "
                    f"{len(attributes)} cells"
                )
            parsed_rows.append(tuple(row))
        metadata = record.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise ProtocolError("'table.metadata' must be an object")
        return cls(
            table_id=table_id,
            attributes=tuple(attributes),
            rows=tuple(parsed_rows),
            metadata=dict(metadata),
            link=_parse_bool(payload, "link", True),
        )

    def table(self):
        """Build the :class:`~repro.datalake.table.Table` (may raise 400)."""
        from repro.datalake.table import Table
        from repro.exceptions import DataLakeError

        try:
            return Table(
                self.table_id,
                list(self.attributes),
                [list(row) for row in self.rows],
                metadata=self.metadata or None,
            )
        except DataLakeError as exc:
            raise ProtocolError(str(exc)) from exc


def result_to_json(
    results: ResultSet,
    request: SearchRequest,
    snapshot_version: Optional[int] = None,
) -> Dict[str, Any]:
    """Serialize a :class:`ResultSet` for one request."""
    payload: Dict[str, Any] = {
        "results": [
            {"rank": rank, "table_id": scored.table_id,
             "score": scored.score}
            for rank, scored in enumerate(results, start=1)
        ],
        "count": len(results),
        "k": request.k,
        "method": request.method,
        "mode": request.mode,
        "task": request.task,
    }
    if snapshot_version is not None:
        payload["snapshot_version"] = snapshot_version
    return payload


class SearchOutcome(NamedTuple):
    """One query's answer, as a node's per-plan runner returns it.

    ``extra`` holds the reply fields only the cluster has (its
    ``degraded`` flag and ``cluster`` block).
    """

    results: ResultSet
    snapshot_version: int
    extra: Optional[Dict[str, Any]] = None


def error_to_json(message: str, status: int) -> Dict[str, Any]:
    """Uniform error envelope for non-200 responses."""
    return {"error": message, "status": status}
