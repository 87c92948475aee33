"""The query model of Problem 2.2: a set of entity tuples.

A query ``Q = {t_1, ..., t_k}`` holds entity tuples; each tuple is an
ordered list of KG entity URIs.  Tuples may have different widths — the
paper notes that each query tuple is mapped to table columns
independently.  Entities not present in the reference KG are dropped at
construction time ("query entities not in the KG are ignored",
Section 2.4).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import EmptyQueryError
from repro.kg.graph import KnowledgeGraph

EntityTuple = Tuple[str, ...]

#: Retrieval modes accepted by :meth:`~repro.system.Thetis.search`:
#: ``"exact"`` ranks the whole lake (bit-compatible with the historical
#: default), while ``"prefilter"`` generates an LSH candidate set first
#: and ranks only the shortlist (Section 6).
SEARCH_MODES = ("exact", "prefilter")

#: Search workloads accepted by :meth:`~repro.system.Thetis.search`:
#: ``"entity"`` is the paper's entity-tuple SemRel ranking, ``"union"``
#: the SANTOS-like / Starmie-like table-union ranking, ``"join"`` the
#: D3L/JOSIE-like joinability ranking.  Union and join run on the
#: vectorized kernels of :mod:`repro.core.kernel.union` /
#: :mod:`repro.core.kernel.join` (scalar-baseline parity <= 1e-9) and
#: are served through the same micro-batch, snapshot, and cluster
#: scatter paths as ``"entity"``.
SEARCH_TASKS = ("entity", "union", "join")


class Query:
    """An immutable set of entity tuples used as search input."""

    __slots__ = ("tuples",)

    def __init__(self, tuples: Iterable[Sequence[str]]):
        materialized: List[EntityTuple] = []
        for entity_tuple in tuples:
            cleaned = tuple(uri for uri in entity_tuple if uri)
            if cleaned:
                materialized.append(cleaned)
        if not materialized:
            raise EmptyQueryError("query must contain at least one non-empty tuple")
        self.tuples: Tuple[EntityTuple, ...] = tuple(materialized)

    @classmethod
    def single(cls, *uris: str) -> "Query":
        """Build a 1-tuple query: ``Query.single("e1", "e2")``."""
        return cls([uris])

    @classmethod
    def from_graph(
        cls, tuples: Iterable[Sequence[str]], graph: KnowledgeGraph
    ) -> "Query":
        """Build a query, silently dropping entities absent from ``graph``.

        Raises :class:`EmptyQueryError` when nothing survives filtering,
        signalling the caller that the query cannot be answered
        semantically at all.
        """
        filtered = [
            [uri for uri in entity_tuple if uri in graph] for entity_tuple in tuples
        ]
        return cls([t for t in filtered if t])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[EntityTuple]:
        return iter(self.tuples)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Query):
            return self.tuples == other.tuples
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.tuples)

    def __repr__(self) -> str:
        return f"Query({len(self.tuples)} tuples, width {self.max_width()})"

    # ------------------------------------------------------------------
    def entities(self) -> Set[str]:
        """Return the distinct entities across all tuples."""
        return {uri for entity_tuple in self.tuples for uri in entity_tuple}

    def max_width(self) -> int:
        """Return the widest tuple's entity count."""
        return max(len(t) for t in self.tuples)

    def flattened(self) -> "Query":
        """Collapse all tuples into one (the column-aggregated query form).

        Section 6.2 optimizes multi-tuple queries by treating them as a
        single 1-tuple query over the union of their entities; duplicate
        entities are removed, first occurrence order preserved.
        """
        seen: List[str] = []
        known: Set[str] = set()
        for entity_tuple in self.tuples:
            for uri in entity_tuple:
                if uri not in known:
                    known.add(uri)
                    seen.append(uri)
        return Query([seen])

    def restrict_to(self, allowed: Set[str]) -> Optional["Query"]:
        """Return the query with tuples filtered to ``allowed`` entities.

        Returns ``None`` when no entity survives (unanswerable query).
        """
        filtered = [
            [uri for uri in entity_tuple if uri in allowed]
            for entity_tuple in self.tuples
        ]
        filtered = [t for t in filtered if t]
        if not filtered:
            return None
        return Query(filtered)
