"""Core semantic table search: queries, SemRel scoring, Algorithm 1."""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".aggregation": ("QueryAggregation", "RowAggregation", "TupleSemantics"),
    ".assignment": ("assignment_score", "max_assignment"),
    ".cache": (
        "DEFAULT_SIMILARITY_CACHE_SIZE", "DEFAULT_VIEW_CACHE_SIZE",
        "CacheStats", "LRUCache", "SimilarityCache", "format_cache_stats",
    ),
    ".explain": (
        "EntityExplanation", "TableExplanation", "TupleExplanation",
        "explain_table",
    ),
    ".kernel": ("ENGINE_KINDS", "CorpusIndex", "VectorizedTableSearchEngine"),
    ".mappings": ("MappingKind", "RelevantMapping", "best_mapping"),
    ".parallel": ("merge_topk",),
    ".query": ("EntityTuple", "Query"),
    ".result": ("ResultSet", "ScoredTable"),
    ".search": ("ScoringProfile", "TableScore", "TableSearchEngine"),
    ".semrel": (
        "distance_to_similarity", "semrel_tuple_score", "weighted_distance",
    ),
})
