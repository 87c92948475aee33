"""Multi-probe LSH querying for hyperplane signatures.

The paper's Table 4 shows embedding-LSH filtering weakly: similar
vectors often differ in a single sign bit per band, landing one bucket
apart.  Multi-probe LSH (Lv et al., VLDB 2007) recovers those misses
at query time — besides the query's own bucket, each band also probes
the buckets reachable by flipping a small number of signature bits —
trading a few extra lookups for recall without growing the index.

This module implements the probing *sequence* (Hamming-ball expansion
over a band's bits) and a :class:`MultiProbePrefilter` wrapper that
drives a built :class:`~repro.lsh.index.TablePrefilter` with it.  Only
bit signatures (hyperplane schemes) benefit: MinHash values are not
perturbable in a principled way, so type-based prefiltering is best
served by the vote threshold instead.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterator, List, Set, Tuple

import numpy as np

from repro.core.query import Query
from repro.exceptions import ConfigurationError
from repro.lsh.index import TablePrefilter


def probe_band_keys(
    band: Tuple[int, ...], max_flips: int
) -> Iterator[Tuple[int, ...]]:
    """Yield the band key and its Hamming-ball neighbors.

    Keys are emitted in increasing flip count (the query's own bucket
    first), matching the multi-probe intuition that closer buckets are
    likelier to hold true neighbors.  Only meaningful for 0/1 bands.
    """
    if max_flips < 0:
        raise ConfigurationError("max_flips must be >= 0")
    yield band
    positions = range(len(band))
    for flips in range(1, max_flips + 1):
        for flipped in combinations(positions, flips):
            probe = list(band)
            for position in flipped:
                probe[position] = 1 - probe[position]
            yield tuple(probe)


class MultiProbePrefilter:
    """Recall-boosted querying over a built hyperplane prefilter.

    Parameters
    ----------
    prefilter:
        A :class:`TablePrefilter` built with an embedding
        (hyperplane-bit) signature scheme.  The underlying index is
        reused as-is; only the lookup changes.
    max_flips:
        Hamming radius probed per band (1 multiplies lookups by
        ``band_size + 1``; 2 is rarely worth it).
    """

    def __init__(self, prefilter: TablePrefilter, max_flips: int = 1):
        if max_flips < 0:
            raise ConfigurationError("max_flips must be >= 0")
        self.prefilter = prefilter
        self.max_flips = max_flips

    # ------------------------------------------------------------------
    def _probe_votes(self, signature: np.ndarray) -> Counter:
        """Distinct co-bucketed keys across all probed buckets."""
        index = self.prefilter._index
        size = index.config.band_size
        keys: Set[str] = set()
        for band_number in range(index.config.num_bands):
            band = tuple(
                int(v)
                for v in signature[band_number * size:(band_number + 1) * size]
            )
            bucket_dict = index._bands[band_number]
            for probe in probe_band_keys(band, self.max_flips):
                keys.update(bucket_dict.get(probe, ()))
        votes: Counter = Counter()
        ids_of = self.prefilter.ordinals.ids_of
        for key in keys:
            votes.update(ids_of(self.prefilter._postings.get(key, ())))
        return votes

    def candidate_tables(self, query: Query, votes: int = 1) -> Set[str]:
        """Multi-probe candidate set (same contract as the prefilter)."""
        if votes < 1:
            raise ConfigurationError("votes must be >= 1")
        scheme = self.prefilter.scheme
        signatures: List[np.ndarray] = []
        for uri in sorted(query.entities()):
            signature = scheme.entity_signature(uri)
            if signature is not None:
                signatures.append(signature)
        if not signatures:
            return set(self.prefilter.indexed_tables)
        candidates: Set[str] = set()
        for signature in signatures:
            table_votes = self._probe_votes(signature)
            candidates.update(
                table_id
                for table_id, count in table_votes.items()
                if count >= votes
            )
        return candidates

    def reduction(self, total_tables: int, candidates) -> float:
        """Delegates to the wrapped prefilter's measurement."""
        return self.prefilter.reduction(total_tables, candidates)
