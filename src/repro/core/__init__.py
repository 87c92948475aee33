"""Core semantic table search: queries, SemRel scoring, Algorithm 1."""

from repro.core.aggregation import (
    QueryAggregation,
    RowAggregation,
    TupleSemantics,
)
from repro.core.assignment import assignment_score, max_assignment
from repro.core.cache import (
    DEFAULT_SIMILARITY_CACHE_SIZE,
    DEFAULT_VIEW_CACHE_SIZE,
    CacheStats,
    LRUCache,
    SimilarityCache,
    format_cache_stats,
)
from repro.core.explain import (
    EntityExplanation,
    TableExplanation,
    TupleExplanation,
    explain_table,
)
from repro.core.kernel import (
    ENGINE_KINDS,
    CorpusIndex,
    VectorizedTableSearchEngine,
)
from repro.core.mappings import MappingKind, RelevantMapping, best_mapping
from repro.core.parallel import merge_topk
from repro.core.query import EntityTuple, Query
from repro.core.result import ResultSet, ScoredTable
from repro.core.search import ScoringProfile, TableScore, TableSearchEngine
from repro.core.semrel import (
    distance_to_similarity,
    semrel_tuple_score,
    weighted_distance,
)

__all__ = [
    "Query",
    "EntityTuple",
    "TableSearchEngine",
    "VectorizedTableSearchEngine",
    "CorpusIndex",
    "ENGINE_KINDS",
    "merge_topk",
    "LRUCache",
    "SimilarityCache",
    "CacheStats",
    "format_cache_stats",
    "DEFAULT_SIMILARITY_CACHE_SIZE",
    "DEFAULT_VIEW_CACHE_SIZE",
    "TableScore",
    "ScoringProfile",
    "ResultSet",
    "ScoredTable",
    "RowAggregation",
    "QueryAggregation",
    "TupleSemantics",
    "MappingKind",
    "RelevantMapping",
    "best_mapping",
    "max_assignment",
    "assignment_score",
    "weighted_distance",
    "distance_to_similarity",
    "semrel_tuple_score",
    "explain_table",
    "TableExplanation",
    "TupleExplanation",
    "EntityExplanation",
]
