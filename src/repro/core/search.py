"""The exact semantic table search engine (Algorithm 1, Section 5.3).

For every table the engine:

1. maps each query tuple's entities to distinct table columns with the
   Hungarian method, maximizing summed column-relevance (Section 5.1);
2. scores each table row against the query tuple through those columns;
3. aggregates row scores per query entity (max or avg, line 13);
4. converts the informativeness-weighted Euclidean distance from the
   ideal point into the tuple's SemRel score (line 14, Eq. 2-3);
5. averages tuple scores into the table score (line 15, Eq. 1).

Pairwise similarities are memoized in a persistent, bounded, thread-safe
:class:`~repro.core.cache.SimilarityCache` that survives across
``search()`` / ``search_batch()`` calls, so repeated
queries over the same corpus amortize the dominant Section 7.3 cost.
The engine also records a timing profile separating the column-mapping
cost from total scoring cost (the Section 7.3 measurement).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import (
    QueryAggregation,
    RowAggregation,
    TupleSemantics,
)
from repro.core.assignment import max_assignment
from repro.core.cache import (
    DEFAULT_SIMILARITY_CACHE_SIZE,
    DEFAULT_VIEW_CACHE_SIZE,
    CacheStats,
    LRUCache,
    SimilarityCache,
)
from repro.core.query import Query
from repro.core.result import ResultSet, ScoredTable
from repro.core.semrel import semrel_tuple_score
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.exceptions import SearchError
from repro.linking.mapping import EntityMapping
from repro.similarity.base import EntitySimilarity
from repro.similarity.informativeness import UniformInformativeness

EntityGrid = List[List[Optional[str]]]


@dataclass
class ScoringProfile:
    """Accumulated timing instrumentation for Section 7.3.

    ``mapping_seconds`` covers building the column-relevance matrix and
    solving the assignment (the cost of ``mu_{T,Q}``); ``total_seconds``
    covers full table scoring.  ``similarity_calls`` counts every
    pairwise-similarity *lookup* while ``similarity_misses`` counts only
    the lookups the cache could not answer (the ones that actually ran
    ``sigma``), so the cost report states similarity work accurately in
    the presence of caching.

    The vectorized engine reports through the same counters: each
    batched similarity-row lookup counts as one pairwise call per
    corpus entity (and, on a row-memo miss, one miss per corpus
    entity), so the call/miss split and ``--cache-stats`` stay
    meaningful under ``--engine vectorized`` even though no per-pair
    ``sigma`` call runs on the hot path.  A top-k scan stacks each
    lane's row once per segment and reuses that stack in its verify
    and refine passes; every reuse counts as the hit the re-read it
    replaced counted, so the totals match a scan that re-reads the
    row memo on every pass.
    """

    mapping_seconds: float = 0.0
    total_seconds: float = 0.0
    tables_scored: int = 0
    similarity_calls: int = 0
    similarity_misses: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.mapping_seconds = 0.0
        self.total_seconds = 0.0
        self.tables_scored = 0
        self.similarity_calls = 0
        self.similarity_misses = 0

    @property
    def mapping_fraction(self) -> float:
        """Fraction of scoring time spent on the column mapping."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.mapping_seconds / self.total_seconds

    @property
    def mean_table_seconds(self) -> float:
        """Mean wall-clock seconds to score one table."""
        if self.tables_scored == 0:
            return 0.0
        return self.total_seconds / self.tables_scored

    @property
    def similarity_hit_rate(self) -> float:
        """Fraction of similarity lookups answered by the cache."""
        if self.similarity_calls == 0:
            return 0.0
        return 1.0 - self.similarity_misses / self.similarity_calls


@dataclass
class TableScore:
    """Score of one table with per-query-tuple breakdown."""

    table_id: str
    score: float
    tuple_scores: List[float] = field(default_factory=list)
    relevant: bool = True


def aligned_candidates(
    queries: Sequence[Query],
    candidates: Optional[Sequence[Optional[Iterable]]],
) -> List[Optional[Sequence]]:
    """Materialize ``search_batch`` restrictions, one per query.

    An id iterable becomes a list; an array of table ordinals is kept
    as it is, for the engine to read.
    """
    if candidates is None:
        return [None] * len(queries)
    cand_lists = [
        cands if cands is None or isinstance(cands, np.ndarray)
        else list(cands)
        for cands in candidates
    ]
    if len(cand_lists) != len(queries):
        raise SearchError(
            "candidates must align with queries: "
            f"{len(cand_lists)} != {len(queries)}"
        )
    return cand_lists


class TableSearchEngine:
    """Brute-force semantic table search over a semantic data lake.

    Plain Algorithm 1: every candidate table is scored, whatever ``k``
    — no bounds, no pruning.  That is what makes it the oracle the
    vectorized kernel's pruned scan is checked against.

    Parameters
    ----------
    lake:
        The table repository to search.
    mapping:
        The entity linking ``Phi`` between lake cells and KG entities.
    sigma:
        Pairwise entity similarity (types or embeddings).
    informativeness:
        Query-entity weights ``I``; defaults to uniform weights.
    row_aggregation:
        Row-score collapse policy (paper default: max).
    query_aggregation:
        Tuple-score combination (paper: mean, Eq. 1).
    tuple_semantics:
        Which formalization scores a query tuple against the table:
        Algorithm 1's per-entity aggregation (default) or Equation 1's
        per-row tuple-to-tuple scoring.
    drop_irrelevant:
        When true (default), a table in which *no* query entity achieves
        any positive similarity is treated as irrelevant (SemRel = 0)
        and omitted from results, per Problem 2.2's requirement that
        only tables with positive relevance be returned.
    cache_size:
        Entry bound of the persistent pairwise-similarity cache.
    view_cache_size:
        Entry bound of the per-table view caches (entity grids and
        column counters); each cache holds at most this many tables.

    Notes
    -----
    *Thread safety.*  :meth:`search`, :meth:`search_batch`,
    :meth:`score_table`, and :meth:`warm` are safe for concurrent
    reader threads over an unchanging lake/mapping: every shared cache
    (similarity, grids, column counters) is internally synchronized and
    scoring itself is pure.  The shared :attr:`profile` is the one
    exception — its counters are accumulated without a lock, so under
    concurrent readers they are best-effort (they may undercount, never
    corrupt).  Mutations (``invalidate_table`` and friends) require
    external coordination — the serving layer swaps whole engine
    snapshots instead of mutating a live one.
    """

    def __init__(
        self,
        lake: DataLake,
        mapping: EntityMapping,
        sigma: EntitySimilarity,
        informativeness=None,
        row_aggregation: RowAggregation = RowAggregation.MAX,
        query_aggregation: QueryAggregation = QueryAggregation.MEAN,
        tuple_semantics: TupleSemantics = TupleSemantics.PER_ENTITY,
        drop_irrelevant: bool = True,
        cache_size: int = DEFAULT_SIMILARITY_CACHE_SIZE,
        view_cache_size: int = DEFAULT_VIEW_CACHE_SIZE,
    ):
        self.lake = lake
        self.mapping = mapping
        self.sigma = sigma
        self.informativeness = (
            informativeness if informativeness is not None else UniformInformativeness()
        )
        self.row_aggregation = row_aggregation
        self.query_aggregation = query_aggregation
        self.tuple_semantics = tuple_semantics
        self.drop_irrelevant = drop_irrelevant
        self.profile = ScoringProfile()
        self.similarity_cache = SimilarityCache(sigma, maxsize=cache_size)
        self._grids: LRUCache = LRUCache(view_cache_size)
        self._column_counts: LRUCache = LRUCache(view_cache_size)

    # ------------------------------------------------------------------
    # Table views
    # ------------------------------------------------------------------
    def _entity_grid(self, table: Table) -> EntityGrid:
        """Rows x columns grid of linked entity URIs (None = unlinked)."""
        grid = self._grids.get(table.table_id)
        if grid is None:
            grid = [
                self.mapping.entity_row(table.table_id, row, table.num_columns)
                for row in range(table.num_rows)
            ]
            self._grids.put(table.table_id, grid)
        return grid

    def _column_entity_counts(self, table: Table) -> List[Dict[str, int]]:
        """Per column, the multiset of linked entities as a counter."""
        counts = self._column_counts.get(table.table_id)
        if counts is None:
            grid = self._entity_grid(table)
            counts = [dict() for _ in range(table.num_columns)]
            for row in grid:
                for column, uri in enumerate(row):
                    if uri is not None:
                        counter = counts[column]
                        counter[uri] = counter.get(uri, 0) + 1
            self._column_counts.put(table.table_id, counts)
        return counts

    def warm(self, table_ids: Optional[Iterable[str]] = None) -> int:
        """Materialize the per-table views ahead of the first query.

        Builds the entity grid and column counters for every table (or
        the given subset), so a serving layer can finish its warm-up —
        and flip ``/readyz`` — before the first client query pays the
        view-construction cost.  Returns the number of tables warmed.
        """
        warmed = 0
        ids = self.lake.table_ids() if table_ids is None else table_ids
        for table_id in ids:
            table = self.lake.find(table_id)
            if table is None:
                continue
            self._column_entity_counts(table)  # builds the grid too
            warmed += 1
        return warmed

    def invalidate_cache(self, include_similarities: bool = False) -> None:
        """Drop cached table views (call after mutating lake or mapping).

        Pairwise similarities depend only on ``sigma`` — not on the
        lake — so they survive by default; pass
        ``include_similarities=True`` when the similarity itself (its
        graph or embedding store) changed.
        """
        self._grids.clear()
        self._column_counts.clear()
        if include_similarities:
            self.similarity_cache.clear()

    def invalidate_table(self, table_id: str) -> None:
        """Drop the cached view of one table (dynamic-lake updates)."""
        self._grids.pop(table_id, None)
        self._column_counts.pop(table_id, None)

    def seed_views_from(self, source: "TableSearchEngine") -> None:
        """Warm this engine's caches from another engine's.

        Serving snapshots clone the whole system per mutation; without
        seeding, every clone cold-starts its per-table views and its
        pairwise-similarity memo even though only O(delta) tables
        changed.  Grid and column-counter entries are copied (recency
        order preserved), and the :class:`SimilarityCache` is *shared*
        by reference — it is keyed by URI pairs, which are independent
        of lake membership, and it is internally synchronized, so
        generations can safely accumulate into one memo.  Callers then
        invalidate the mutated tables as usual, which pops exactly the
        stale entries.
        """
        for key, value in source._grids.snapshot_items():
            self._grids.put(key, value)
        for key, value in source._column_counts.snapshot_items():
            self._column_counts.put(key, value)
        self.similarity_cache = source.similarity_cache

    def cache_stats(self) -> Dict[str, CacheStats]:
        """Snapshot every cache the engine owns (sizes, hit rates)."""
        return {
            "similarity": self.similarity_cache.stats(),
            "grids": self._grids.stats(),
            "column_counts": self._column_counts.stats(),
        }

    # ------------------------------------------------------------------
    # Similarity through the persistent cache
    # ------------------------------------------------------------------
    def similarity(self, a: str, b: str) -> float:
        """``sigma(a, b)`` through the persistent bounded cache.

        The call/miss accounting is charged to :attr:`profile`.
        """
        return self.similarity_cache.similarity(a, b, self.profile)

    # ------------------------------------------------------------------
    # Column mapping (Section 5.1)
    # ------------------------------------------------------------------
    def column_mapping(
        self, query_tuple: Tuple[str, ...], table: Table
    ) -> List[int]:
        """Return ``tau``: per query entity, the assigned column (-1 = none).

        The column-relevance matrix ``S[i][j] = sum over column j of
        sigma(e_i, cell entity)`` is maximized by the Hungarian method
        under the one-entity-per-column constraint.
        """
        counts = self._column_entity_counts(table)
        scores = [
            [
                sum(
                    count * self.similarity(query_entity, uri)
                    for uri, count in counter.items()
                )
                for counter in counts
            ]
            for query_entity in query_tuple
        ]
        assignment, _ = max_assignment(scores)
        return assignment

    # ------------------------------------------------------------------
    # Scoring (Algorithm 1)
    # ------------------------------------------------------------------
    def score_table(self, query: Query, table: Table) -> TableScore:
        """Compute SemRel(Q, T) with full per-tuple breakdown."""
        profile = self.profile
        start = time.perf_counter()
        grid = self._entity_grid(table)
        tuple_scores: List[float] = []
        any_signal = False
        for query_tuple in query:
            map_start = time.perf_counter()
            assignment = self.column_mapping(query_tuple, table)
            profile.mapping_seconds += time.perf_counter() - map_start
            row_scores: List[List[float]] = []
            for row in grid:
                entity_scores: List[float] = []
                for position, query_entity in enumerate(query_tuple):
                    column = assignment[position]
                    target = row[column] if column >= 0 else None
                    if target is None:
                        entity_scores.append(0.0)
                    else:
                        entity_scores.append(
                            self.similarity(query_entity, target)
                        )
                row_scores.append(entity_scores)
            if self.tuple_semantics is TupleSemantics.PER_ROW:
                # Equation 1: score every row as a whole tuple, then
                # aggregate row scores (max = SemRel_MAX, avg = _AVG).
                if any(
                    score > 0.0 for row in row_scores for score in row
                ):
                    any_signal = True
                per_row = [
                    semrel_tuple_score(
                        query_tuple, row, self.informativeness
                    )
                    for row in row_scores
                ]
                tuple_scores.append(self.row_aggregation.aggregate(per_row))
                continue
            coordinates = self.row_aggregation.aggregate_columns(row_scores)
            if not coordinates:
                coordinates = [0.0] * len(query_tuple)
            if any(c > 0.0 for c in coordinates):
                any_signal = True
            tuple_scores.append(
                semrel_tuple_score(query_tuple, coordinates, self.informativeness)
            )
        score = self.query_aggregation.aggregate(tuple_scores)
        relevant = any_signal or not self.drop_irrelevant
        if not relevant:
            score = 0.0
        profile.total_seconds += time.perf_counter() - start
        profile.tables_scored += 1
        return TableScore(table.table_id, score, tuple_scores, relevant)

    def search(
        self,
        query: Query,
        k: Optional[int] = None,
        candidates: Optional[Iterable[str]] = None,
    ) -> ResultSet:
        """Rank (a subset of) the lake by SemRel against ``query``.

        Similarities evaluated here stay in the persistent cache, so
        follow-up queries over the same corpus skip the dominant cost.

        Parameters
        ----------
        query:
            The entity-tuple query.
        k:
            Optional cut-off; ``None`` returns the full ranking of
            relevant tables.
        candidates:
            Optional iterable of table ids to restrict scoring to — this
            is how the LSH prefilter plugs in.
        """
        if candidates is None:
            tables: Iterable[Table] = self.lake
        else:
            tables = (
                self.lake.get(table_id)
                for table_id in dict.fromkeys(candidates)
                if table_id in self.lake
            )
        scored: List[ScoredTable] = []
        for table in tables:
            # Tables without any linked entity can never be relevant.
            if self.drop_irrelevant and not self.mapping.entities_in_table(
                table.table_id
            ):
                continue
            result = self.score_table(query, table)
            if result.relevant and result.score > 0.0:
                scored.append(ScoredTable(result.score, result.table_id))
        results = ResultSet(scored)
        if k is not None:
            results = results.top(k)
        return results

    def search_batch(
        self,
        queries: Sequence[Query],
        k: Optional[int] = None,
        candidates: Optional[Sequence[Optional[Iterable[str]]]] = None,
        stats=None,
        batch_stats=None,
    ) -> List[ResultSet]:
        """Rank the lake for every query of a batch, in request order.

        The one search shape every engine answers.  The scalar engine
        scores query by query over the shared similarity cache; identical
        queries (same tuples, same canonical candidate list) share one
        ranking — common under loadgen replay, and a ResultSet is
        immutable so sharing by reference is safe.  Results are
        identical to per-query :meth:`search` calls.

        Parameters
        ----------
        queries:
            The batch, in request order.
        k:
            Optional shared cut-off.
        candidates:
            Optional per-query candidate restrictions aligned with
            ``queries`` (``None`` entries search the whole lake): table
            ids, or an array of the lake's table ordinals.
        stats:
            Optional :class:`~repro.core.kernel.prefilter.
            PrefilterStats` fed one scoring record per candidate-
            restricted query: every shortlisted table in the lake is
            scored, and no cut-off ever fires.
        batch_stats:
            Optional :class:`~repro.core.kernel.batchstats.BatchStats`
            fed one pass over the batch's distinct queries.
        """
        queries = list(queries)
        cand_lists = aligned_candidates(queries, candidates)
        if not queries:
            return []
        memo: Dict[Tuple, ResultSet] = {}
        rankings: List[ResultSet] = []
        for query, cands in zip(queries, cand_lists):
            if isinstance(cands, np.ndarray):
                cands = self.lake.ordinals.ids_of(cands)
            key = (
                query.tuples,
                None if cands is None else tuple(dict.fromkeys(cands)),
            )
            ranking = memo.get(key)
            if ranking is None:
                if key[1] is not None and stats is not None:
                    size = sum(tid in self.lake for tid in key[1])
                    stats.record_scoring(size, size, False)
                ranking = self.search(query, k=k, candidates=cands)
                memo[key] = ranking
            rankings.append(ranking)
        if batch_stats is not None:
            batch_stats.record_batched(len(queries), len(memo))
        return rankings
