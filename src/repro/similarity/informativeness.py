"""Entity informativeness weights ``I(e)`` of Section 5.2.

Query entities play different roles: in ``(Mitch Stetter, Milwaukee
Brewers)`` the player is more discriminative than the team, because the
team appears in many more tables.  ``I: N -> [0, 1]`` therefore weights
each query entity by an IDF-style function of its table frequency in the
corpus, and the SemRel distance (Equation 2) scales each coordinate by
this weight.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.linking.mapping import EntityMapping


class Informativeness:
    """IDF-style weights from entity table frequencies.

    ``I(e) = log(1 + N / df(e)) / log(1 + N)`` where ``N`` is the number
    of tables in the corpus and ``df(e)`` the number of tables mentioning
    ``e``.  The normalization keeps weights in ``(0, 1]``: an entity
    found in a single table gets weight 1, one found everywhere
    approaches ``log(2)/log(1+N)``.  Entities never seen in the corpus
    default to weight 1 — an unseen query entity is maximally
    discriminative.
    """

    def __init__(self, table_frequencies: Mapping[str, int], num_tables: int):
        self.num_tables = max(1, int(num_tables))
        self._frequencies: Dict[str, int] = dict(table_frequencies)
        self._log_norm = math.log(1.0 + self.num_tables)
        # I(e), computed the first time it is asked for: a generation
        # pays for the query entities it serves, not for every entity.
        self._weights: Dict[str, float] = {}

    @classmethod
    def from_mapping(cls, mapping: EntityMapping, num_tables: int) -> "Informativeness":
        """Build weights from an entity mapping over a corpus of tables."""
        return cls(mapping.table_frequencies(), num_tables)

    def weight(self, uri: str) -> float:
        """Return ``I(uri)`` (1.0 for unseen entities)."""
        weight = self._weights.get(uri)
        if weight is None:
            frequency = self._frequencies.get(uri)
            if frequency is None:
                return 1.0
            df = max(1, min(int(frequency), self.num_tables))
            weight = math.log(1.0 + self.num_tables / df) / self._log_norm
            # A racing reader computes the same float; either store wins.
            self._weights[uri] = weight
        return weight

    def __call__(self, uri: str) -> float:
        return self.weight(uri)

    def __contains__(self, uri: str) -> bool:
        return uri in self._frequencies

    def __len__(self) -> int:
        return len(self._frequencies)


class UniformInformativeness:
    """The unweighted special case: every entity weighs 1.

    Plugging this in turns Equation 2 into the plain Euclidean distance,
    which is the ablation baseline for the weighting scheme.
    """

    def weight(self, uri: str) -> float:
        return 1.0

    def __call__(self, uri: str) -> float:
        return 1.0


def informativeness_or_uniform(
    mapping: Optional[EntityMapping], num_tables: int
):
    """Return corpus-driven weights when a mapping exists, else uniform."""
    if mapping is None:
        return UniformInformativeness()
    return Informativeness.from_mapping(mapping, num_tables)
