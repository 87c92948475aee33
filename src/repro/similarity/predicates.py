"""Predicate-based entity similarity (the paper's Section 5.3 pointer).

Besides type sets and embeddings, Section 5.3 notes that "one can also
compute the similarity between two entities based on the set of
predicates around them" (exemplar queries, Mottin et al.).  Two
entities are similar when they participate in the same kinds of
relationships: a baseball player and a basketball player both have
``playsFor`` and ``bornIn`` edges, a city does not.

The signature distinguishes edge direction — ``playsFor`` *out* of a
player is different evidence than ``playsFor`` *into* a team.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.kg.graph import KnowledgeGraph
from repro.similarity.base import EntitySimilarity
from repro.similarity.types import DEFAULT_CAP, jaccard


def predicate_signature(graph: KnowledgeGraph, uri: str) -> FrozenSet[str]:
    """The direction-tagged predicate set around an entity.

    Outgoing predicates are prefixed ``out:``, incoming ``in:``, so the
    signature captures the entity's relational role, not just the
    vocabulary it touches.
    """
    signature = set()
    for predicate, _ in graph.out_edges(uri):
        signature.add(f"out:{predicate}")
    for predicate, _ in graph.in_edges(uri):
        signature.add(f"in:{predicate}")
    return frozenset(signature)


class PredicateJaccardSimilarity(EntitySimilarity):
    """Adjusted Jaccard over direction-tagged predicate sets.

    Mirrors the adjustment of Equation 4: identity scores exactly 1 and
    non-identical pairs are capped below it, so exact entity matches
    always dominate.

    Parameters
    ----------
    graph:
        Source of the edges.
    cap:
        Maximum score for non-identical entities.
    """

    def __init__(self, graph: KnowledgeGraph, cap: float = DEFAULT_CAP):
        self.graph = graph
        self.cap = cap
        self._signatures: Dict[str, FrozenSet[str]] = {
            entity.uri: predicate_signature(graph, entity.uri)
            for entity in graph.entities()
        }

    def similarity(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        sig_a = self._signatures.get(a)
        sig_b = self._signatures.get(b)
        if not sig_a or not sig_b:
            return 0.0
        return min(self.cap, jaccard(sig_a, sig_b))

    @property
    def name(self) -> str:
        return "predicates"

    @property
    def is_symmetric(self) -> bool:
        return True
