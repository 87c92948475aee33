"""Comparison systems: BM25, TURL-like, union search, join search."""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.bm25 import BM25TableSearch, text_query_from_labels
    from repro.baselines.join_search import (
        JOIN_MODES,
        JoinTableSearch,
        normalize_cell,
        query_value_sets,
    )
    from repro.baselines.metadata_search import MetadataKeywordSearch
    from repro.baselines.turl_like import TurlLikeTableSearch
    from repro.baselines.union_search import UnionTableSearch, dominant_types

__all__ = [
    "BM25TableSearch",
    "text_query_from_labels",
    "TurlLikeTableSearch",
    "UnionTableSearch",
    "JoinTableSearch",
    "JOIN_MODES",
    "MetadataKeywordSearch",
    "dominant_types",
    "normalize_cell",
    "query_value_sets",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bm25": ("BM25TableSearch", "text_query_from_labels"),
    ".join_search": (
        "JOIN_MODES", "JoinTableSearch", "normalize_cell", "query_value_sets",
    ),
    ".metadata_search": ("MetadataKeywordSearch",),
    ".turl_like": ("TurlLikeTableSearch",),
    ".union_search": ("UnionTableSearch", "dominant_types"),
})
