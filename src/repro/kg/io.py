"""Serialization of knowledge graphs to and from JSON.

The on-disk format is a single JSON document with three sections
(``taxonomy``, ``entities``, ``edges``), chosen over N-Triples for
round-trip fidelity of the type taxonomy and entity aliases.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.kg.entity import Entity
from repro.kg.graph import KnowledgeGraph
from repro.kg.taxonomy import TypeTaxonomy
from repro.startup import gc_paused

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def graph_to_dict(graph: KnowledgeGraph) -> dict:
    """Return a JSON-serializable dictionary for ``graph``."""
    taxonomy = [
        {"name": name, "parent": graph.taxonomy.parent(name)}
        for name in graph.taxonomy
    ]
    entities = [
        {
            "uri": e.uri,
            "label": e.label,
            "types": sorted(e.types),
            "aliases": list(e.aliases),
        }
        for e in graph.entities()
    ]
    edges = [list(edge) for edge in graph.edges()]
    return {
        "version": _FORMAT_VERSION,
        "taxonomy": taxonomy,
        "entities": entities,
        "edges": edges,
    }


def graph_from_dict(payload: dict) -> KnowledgeGraph:
    """Rebuild a :class:`KnowledgeGraph` from :func:`graph_to_dict` output."""
    taxonomy = TypeTaxonomy()
    # Two passes: roots first so parents always exist before children.
    entries = payload.get("taxonomy", [])
    for entry in entries:
        if entry["parent"] is None:
            taxonomy.add_type(entry["name"])
    for entry in entries:
        if entry["parent"] is not None:
            taxonomy.add_type(entry["name"], entry["parent"])
    graph = KnowledgeGraph(taxonomy)
    for record in payload.get("entities", []):
        graph.add_entity(
            Entity(
                uri=record["uri"],
                label=record.get("label", ""),
                types=frozenset(record.get("types", [])),
                aliases=tuple(record.get("aliases", [])),
            )
        )
    for subject, predicate, obj in payload.get("edges", []):
        graph.add_edge(subject, predicate, obj)
    return graph


def save_graph(graph: KnowledgeGraph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(graph_to_dict(graph)), encoding="utf-8")


def load_graph(path: PathLike) -> KnowledgeGraph:
    """Load a knowledge graph previously written by :func:`save_graph`.

    Decoded and built with the cyclic GC paused
    (:func:`~repro.startup.gc_paused`).
    """
    with gc_paused():
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return graph_from_dict(payload)
