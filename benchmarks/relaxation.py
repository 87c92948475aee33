"""Query relaxation for over-specialized queries.

Section 7.2 observes that 5-tuple queries "become easily
over-specialized" — their recall falls below the contained 1-tuple
queries despite carrying more information — and the conclusion plans
"alternative similarity metrics to improve the results for the case of
over-specialized queries".  This module implements the retrieval-side
remedy: detect when a query is over-specialized (the result head is
weak) and progressively relax it, either by

* *tuple splitting* — run each entity tuple as its own query and fuse
  the rankings (an over-specialized conjunction becomes a
  disjunction); or
* *entity dropping* — remove the least informative entity per tuple
  (the weakly discriminating team/city, keeping the player), shrinking
  the perfect-match requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from benchmarks.fusion import reciprocal_rank_fusion
from repro.core.query import Query
from repro.core.result import ResultSet
from repro.core.search import TableSearchEngine
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class RelaxationOutcome:
    """What the relaxing searcher did for one query."""

    results: ResultSet
    relaxed: bool
    strategy: Optional[str]  # "split" | "drop" | None
    head_score: float        # mean top-k score of the original query


def drop_least_informative(query: Query, informativeness) -> Optional[Query]:
    """Remove the lowest-weight entity from every tuple wider than 1.

    Returns ``None`` when nothing can be dropped (all tuples width 1).
    """
    relaxed: List[List[str]] = []
    changed = False
    for entity_tuple in query:
        if len(entity_tuple) <= 1:
            relaxed.append(list(entity_tuple))
            continue
        weakest = min(entity_tuple, key=lambda uri: (informativeness(uri), uri))
        kept = [uri for uri in entity_tuple if uri != weakest]
        # Drop only one occurrence in the pathological duplicate case.
        if len(kept) < len(entity_tuple) - 1:
            kept = list(entity_tuple)
            kept.remove(weakest)
        relaxed.append(kept)
        changed = True
    if not changed:
        return None
    return Query(relaxed)


def split_tuples(query: Query) -> List[Query]:
    """One single-tuple query per entity tuple of the original."""
    return [Query([entity_tuple]) for entity_tuple in query]


class RelaxingSearcher:
    """Search with automatic relaxation of over-specialized queries.

    Parameters
    ----------
    engine:
        The exact search engine to drive.
    threshold:
        Relaxation triggers when the mean top-``k`` SemRel of the
        original query falls below this value — weak heads mean no
        table satisfies the full conjunction well.
    strategy:
        ``"split"`` (default; fuse per-tuple rankings via RRF) or
        ``"drop"`` (drop the least informative entity per tuple).
    """

    def __init__(
        self,
        engine: TableSearchEngine,
        threshold: float = 0.7,
        strategy: str = "split",
    ):
        if strategy not in ("split", "drop"):
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must be within [0, 1]")
        self.engine = engine
        self.threshold = threshold
        self.strategy = strategy

    def _head_score(self, results: ResultSet, k: int) -> float:
        head = [st.score for st in results.top(k)]
        if not head:
            return 0.0
        return sum(head) / len(head)

    def search(self, query: Query, k: int = 10) -> RelaxationOutcome:
        """Search; relax and re-search when the head is weak."""
        original = self.engine.search(query, k=k)
        head = self._head_score(original, k)
        if head >= self.threshold:
            return RelaxationOutcome(original, False, None, head)
        if self.strategy == "split":
            if len(query) == 1 and query.max_width() == 1:
                return RelaxationOutcome(original, False, None, head)
            rankings = [
                self.engine.search(part, k=max(k * 2, 50))
                for part in split_tuples(query)
            ]
            fused = reciprocal_rank_fusion(rankings).top(k)
            return RelaxationOutcome(fused, True, "split", head)
        relaxed_query = drop_least_informative(
            query, self.engine.informativeness
        )
        if relaxed_query is None:
            return RelaxationOutcome(original, False, None, head)
        relaxed_results = self.engine.search(relaxed_query, k=k)
        return RelaxationOutcome(relaxed_results, True, "drop", head)
