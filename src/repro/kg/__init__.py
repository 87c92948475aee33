"""Knowledge-graph substrate: entities, taxonomy, graph, walks, IO."""

from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from repro.kg.analytics import (
        GraphProfile,
        connected_components,
        degree_histogram,
        profile_graph,
        top_types,
        type_frequencies,
    )
    from repro.kg.entity import Entity, EntityType, Predicate
    from repro.kg.graph import KnowledgeGraph
    from repro.kg.io import (
        graph_from_dict,
        graph_to_dict,
        load_graph,
        save_graph,
    )
    from repro.kg.taxonomy import TypeTaxonomy
    from repro.kg.walks import RandomWalker

__all__ = [
    "Entity",
    "EntityType",
    "Predicate",
    "KnowledgeGraph",
    "TypeTaxonomy",
    "RandomWalker",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "GraphProfile",
    "profile_graph",
    "degree_histogram",
    "type_frequencies",
    "connected_components",
    "top_types",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analytics": (
        "GraphProfile", "connected_components", "degree_histogram",
        "profile_graph", "top_types", "type_frequencies",
    ),
    ".entity": ("Entity", "EntityType", "Predicate"),
    ".graph": ("KnowledgeGraph",),
    ".io": ("graph_from_dict", "graph_to_dict", "load_graph", "save_graph"),
    ".taxonomy": ("TypeTaxonomy",),
    ".walks": ("RandomWalker",),
})
