"""The Locality-Sensitive Entity-Index (LSEI) and table prefiltering.

Signatures are split into bands; each band hashes into its own group of
buckets, and keys landing in the same bucket of any band are candidate
neighbors (Section 6.1).  For table search, each indexed key carries
postings to the tables it appears in; a query entity's lookup returns a
*bag* of tables (duplicates preserved across bands and across bucket
co-members), enabling the vote-threshold filtering of Section 6.2.

Two indexing granularities exist:

* entity mode — every linked entity is indexed, postings = tables that
  mention it;
* column-aggregated mode — every (table, column) group is indexed under
  the scheme's group signature, postings = that table (Section 6.2).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.query import Query
from repro.cow import CopyOnWriteDict
from repro.exceptions import ConfigurationError
from repro.linking.mapping import EntityMapping
from repro.lsh.config import LSHConfig
from repro.lsh.schemes import SignatureScheme

BucketKey = Tuple[int, ...]


class LSHIndex:
    """Banded signature index from keys to buckets of keys."""

    def __init__(self, config: LSHConfig):
        self.config = config
        self._bands: List[CopyOnWriteDict] = [
            CopyOnWriteDict(list) for _ in range(config.num_bands)
        ]
        self._signatures: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, key: str) -> bool:
        return key in self._signatures

    def _band_keys(self, signature: np.ndarray) -> List[BucketKey]:
        size = self.config.band_size
        if signature.shape[0] != self.config.num_vectors:
            raise ConfigurationError(
                f"signature width {signature.shape[0]} does not match "
                f"config {self.config}"
            )
        return [
            tuple(int(v) for v in signature[band * size : (band + 1) * size])
            for band in range(self.config.num_bands)
        ]

    def add(self, key: str, signature: np.ndarray) -> None:
        """Insert ``key`` into one bucket per band."""
        if key in self._signatures:
            return
        self._signatures[key] = signature
        for band, bucket_key in enumerate(self._band_keys(signature)):
            self._bands[band].writable(bucket_key).append(key)

    def remove(self, key: str) -> None:
        """Drop ``key``'s signature and bucket memberships.

        Unknown keys are a no-op.  Buckets left empty are deleted so
        :meth:`bucket_count` stays an honest occupancy gauge.
        """
        signature = self._signatures.pop(key, None)
        if signature is None:
            return
        for buckets, bucket_key in zip(
            self._bands, self._band_keys(signature)
        ):
            if key not in buckets.get(bucket_key, ()):
                continue
            bucket = buckets.writable(bucket_key)
            bucket.remove(key)
            if not bucket:
                buckets.drop(bucket_key)

    def lookup_signature(self, signature: np.ndarray) -> List[List[str]]:
        """Return, per band, the co-bucketed keys for ``signature``."""
        results: List[List[str]] = []
        for band, bucket_key in enumerate(self._band_keys(signature)):
            results.append(list(self._bands[band].get(bucket_key, ())))
        return results

    def lookup(self, key: str) -> List[List[str]]:
        """Per-band co-bucketed keys of an already-indexed ``key``."""
        signature = self._signatures.get(key)
        if signature is None:
            return [[] for _ in range(self.config.num_bands)]
        return self.lookup_signature(signature)

    def bucket_count(self) -> int:
        """Total number of non-empty buckets across bands."""
        return sum(len(band) for band in self._bands)

    def copy(self) -> "LSHIndex":
        """An independent index, copy-on-write.

        The (immutable) signatures are shared; so is every bucket,
        until one side writes to it.
        """
        clone = LSHIndex.__new__(LSHIndex)
        clone.config = self.config
        clone._bands = [band.fork() for band in self._bands]
        clone._signatures = dict(self._signatures)
        return clone


class TablePrefilter:
    """LSEI-based search-space reduction for semantic table search.

    Parameters
    ----------
    scheme:
        Entity signature scheme (types or embeddings).
    config:
        Banding configuration.
    mapping:
        The entity linking; provides both the entities to index and the
        entity -> table postings.
    column_aggregation:
        When true, index one aggregated signature per (table, column)
        entity group instead of one per entity (Section 6.2).
    """

    def __init__(
        self,
        scheme: SignatureScheme,
        config: LSHConfig,
        mapping: EntityMapping,
        column_aggregation: bool = False,
    ):
        if scheme.num_vectors != config.num_vectors:
            raise ConfigurationError(
                f"scheme width {scheme.num_vectors} does not match "
                f"config {config}"
            )
        self.scheme = scheme
        self.config = config
        self.mapping = mapping
        self.column_aggregation = column_aggregation
        self._index = LSHIndex(config)
        self._postings = CopyOnWriteDict(set)
        self._indexed_tables: Set[str] = set()
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        if self.column_aggregation:
            self._build_column_aggregated()
        else:
            self._build_per_entity()

    def _build_per_entity(self) -> None:
        entity_tables = self.mapping.entity_tables()
        for uri in sorted(entity_tables):
            tables = entity_tables[uri]
            # Track every linked table so the filter can degrade to a
            # no-op (rather than an empty search space) when entities
            # cannot be hashed at all.
            self._indexed_tables.update(tables)
            signature = self.scheme.entity_signature(uri)
            if signature is None:
                continue
            self._index.add(uri, signature)
            self._postings.writable(uri).update(tables)

    def _build_column_aggregated(self) -> None:
        # Group linked cells by (table, column).
        groups: Dict[Tuple[str, int], List[str]] = defaultdict(list)
        for (table_id, _row, column), uri in sorted(self.mapping.all_links()):
            groups[(table_id, column)].append(uri)
        for (table_id, column), uris in groups.items():
            self._indexed_tables.add(table_id)
            signature = self.scheme.group_signature(uris)
            if signature is None:
                continue
            key = f"{table_id}#{column}"
            self._index.add(key, signature)
            self._postings.writable(key).add(table_id)

    def fork(self, mapping: EntityMapping) -> "TablePrefilter":
        """An independent prefilter over ``mapping``, without a rebuild.

        ``mapping`` must hold the links this prefilter was maintained
        over (a snapshot clone's copy).  The scheme and the signatures
        are immutable and shared.  The bands and postings are
        copy-on-write: the fork shares every bucket and posting set
        until one side writes to it, so :meth:`add_table` /
        :meth:`remove_table` on the fork copy only what they change and
        never disturb readers of this instance.  The scheme is the one
        of the first build: a ``types`` scheme keeps the
        ``frequent_types`` filter it was constructed with.
        """
        clone = TablePrefilter.__new__(TablePrefilter)
        clone.scheme = self.scheme
        clone.config = self.config
        clone.mapping = mapping
        clone.column_aggregation = self.column_aggregation
        clone._index = self._index.copy()
        clone._postings = self._postings.fork()
        clone._indexed_tables = set(self._indexed_tables)
        return clone

    # ------------------------------------------------------------------
    # Dynamic-lake maintenance
    # ------------------------------------------------------------------
    def add_table(self, table_id: str) -> None:
        """Index a table that was linked into the mapping after build.

        New entities receive signatures and buckets; known entities just
        gain a posting.  In column-aggregated mode the table's column
        groups are signed and inserted.
        """
        entities = self.mapping.entities_in_table(table_id)
        if not entities:
            return
        self._indexed_tables.add(table_id)
        if self.column_aggregation:
            groups = self.mapping.entities_by_column(table_id)
            for column, uris in groups.items():
                key = f"{table_id}#{column}"
                # Drop any previous generation of this key first: the
                # index ignores duplicate adds, and a (table, column)
                # group's signature must always reflect the *current*
                # mapping contents.
                self._index.remove(key)
                self._postings.drop(key)
                signature = self.scheme.group_signature(uris)
                if signature is None:
                    continue
                self._index.add(key, signature)
                self._postings.writable(key).add(table_id)
            return
        for uri in sorted(entities):
            if uri not in self._postings:
                signature = self.scheme.entity_signature(uri)
                if signature is None:
                    continue
                self._index.add(uri, signature)
            self._postings.writable(uri).add(table_id)

    def remove_table(self, table_id: str) -> None:
        """Drop a table from the posting lists of its keys.

        Call it *before* the mapping unlinks the table: the table's
        keys are read from its current links, so the cost is the
        table's key count, not the index size.

        In per-entity mode, entity signatures stay in the bucket
        structure (they are shared with other tables and depend only on
        the entity); only the postings shrink, so removed tables can
        never be returned as candidates.

        In column-aggregated mode the ``table#column`` keys belong to
        this table alone, so they are pruned outright — postings,
        signatures, and bucket memberships.  Leaving them behind would
        leak keys forever, over-count :meth:`num_indexed_keys`, and —
        because :meth:`LSHIndex.add` ignores already-present keys — make
        a later re-add of the same table id silently reuse the stale
        signatures instead of re-hashing its current columns.
        """
        self._indexed_tables.discard(table_id)
        if self.column_aggregation:
            for column in self.mapping.entities_by_column(table_id):
                key = f"{table_id}#{column}"
                self._postings.drop(key)
                self._index.remove(key)
            return
        for uri in self.mapping.entities_in_table(table_id):
            if table_id in self._postings.get(uri, ()):
                self._postings.writable(uri).discard(table_id)

    # ------------------------------------------------------------------
    @property
    def indexed_tables(self) -> FrozenSet[str]:
        """Tables reachable through at least one indexed key."""
        return frozenset(self._indexed_tables)

    def num_indexed_keys(self) -> int:
        """Number of indexed signatures (entities or column groups)."""
        return len(self._index)

    def _table_votes_for_signature(self, signature: np.ndarray) -> Counter:
        """Table votes from one signature lookup.

        Each *distinct* co-bucketed key contributes all its posted
        tables once, so a table's vote count is the number of similar
        entities it contains.  (The paper counts raw bucket occurrences
        — duplicates across bands included; with synthetic corpora many
        entities share identical type sets and therefore collide in
        every band, which would make band multiplicity a constant factor
        and the vote threshold inert.  Counting distinct keys keeps the
        threshold meaningful; on signature-diverse corpora the two
        schemes order tables the same way.)
        """
        votes: Counter = Counter()
        for key in self._co_bucketed_keys(signature):
            votes.update(self._postings.get(key, ()))
        return votes

    def _co_bucketed_keys(self, signature: np.ndarray) -> Set[str]:
        """Distinct keys sharing a bucket with ``signature`` in any band."""
        keys: Set[str] = set()
        for bucket in self._index.lookup_signature(signature):
            keys.update(bucket)
        return keys

    def candidate_tables(
        self,
        query: Query,
        votes: int = 1,
        aggregate_query: bool = False,
    ) -> Set[str]:
        """Return the reduced table set for ``query`` (Section 6.2).

        Parameters
        ----------
        query:
            The entity-tuple query.
        votes:
            Minimum number of occurrences a table needs in a single
            entity lookup's bag to survive (paper tests 1 and 3).
        aggregate_query:
            Treat the whole query as a single aggregated signature
            (the 1-tuple reduction of Section 6.2).

        Notes
        -----
        Entities that cannot be hashed (untyped / unembedded) contribute
        no candidates; if *no* query entity is hashable the filter
        returns every indexed table rather than silently returning an
        empty search space.
        """
        if votes < 1:
            raise ConfigurationError("votes must be >= 1")
        if len(self._index) == 0:
            # Degenerate corpus (nothing hashable): filtering is a no-op.
            return set(self._indexed_tables)
        lookups: List[Optional[np.ndarray]] = []
        if aggregate_query:
            uris = self._query_uris(query)
            lookups.append(self.scheme.group_signature(uris))
        else:
            for uri in sorted(query.entities()):
                lookups.append(self.scheme.entity_signature(uri))
        usable = [sig for sig in lookups if sig is not None]
        if not usable:
            return set(self._indexed_tables)
        candidates: Set[str] = set()
        for signature in usable:
            if votes == 1:
                # One vote is membership: a C-level union of the
                # co-bucketed keys' postings, nothing to count.
                postings = self._postings
                candidates.update(*(
                    postings.get(key, ())
                    for key in self._co_bucketed_keys(signature)
                ))
                continue
            table_votes = self._table_votes_for_signature(signature)
            candidates.update(
                table_id
                for table_id, count in table_votes.items()
                if count >= votes
            )
        return candidates

    @staticmethod
    def _query_uris(query: Query) -> List[str]:
        seen: List[str] = []
        known: Set[str] = set()
        for entity_tuple in query:
            for uri in entity_tuple:
                if uri not in known:
                    known.add(uri)
                    seen.append(uri)
        return seen

    def reduction(self, total_tables: int, candidates: Iterable[str]) -> float:
        """Search-space reduction fraction (the Table 4 measurement)."""
        count = len(set(candidates))
        if total_tables <= 0:
            return 0.0
        return max(0.0, 1.0 - count / total_tables)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the built index.

        The signature scheme itself is not serialized (it references
        the KG or the embedding store); pass an equivalent scheme to
        :meth:`from_dict` so query-side signatures keep matching.
        """
        return {
            "version": 1,
            "config": {
                "num_vectors": self.config.num_vectors,
                "band_size": self.config.band_size,
            },
            "column_aggregation": self.column_aggregation,
            "signatures": {
                key: [int(v) for v in signature]
                for key, signature in self._index._signatures.items()
            },
            "postings": {
                key: sorted(tables) for key, tables in self._postings.items()
            },
            "indexed_tables": sorted(self._indexed_tables),
        }

    def save(self, path) -> None:
        """Write the built index to ``path`` as JSON."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def from_dict(
        cls,
        payload: dict,
        scheme: SignatureScheme,
        mapping: EntityMapping,
    ) -> "TablePrefilter":
        """Rebuild a prefilter from :meth:`to_dict` output.

        ``scheme`` must be constructed with the same seed and width as
        the one that built the snapshot; ``mapping`` is only needed for
        later incremental updates.
        """
        config = LSHConfig(
            payload["config"]["num_vectors"],
            payload["config"]["band_size"],
        )
        prefilter = cls.__new__(cls)
        prefilter.scheme = scheme
        prefilter.config = config
        prefilter.mapping = mapping
        prefilter.column_aggregation = payload.get(
            "column_aggregation", False
        )
        prefilter._index = LSHIndex(config)
        for key, values in payload.get("signatures", {}).items():
            prefilter._index.add(key, np.asarray(values, dtype=np.int64))
        prefilter._postings = CopyOnWriteDict(set, (
            (key, set(tables))
            for key, tables in payload.get("postings", {}).items()
        ))
        prefilter._indexed_tables = set(payload.get("indexed_tables", ()))
        return prefilter

    @classmethod
    def load(cls, path, scheme: SignatureScheme,
             mapping: EntityMapping) -> "TablePrefilter":
        """Load an index previously written by :meth:`save`."""
        import json
        from pathlib import Path

        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(payload, scheme, mapping)
