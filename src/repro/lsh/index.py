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

Postings hold table *ordinals* (:class:`~repro.datalake.lake.
TableOrdinals`), each key's as one int array, and the distinct tables
posted by a bucket's keys are kept per bucket (counted, so a mutation
updates them in place of a recount), so a one-vote shortlist is one
concatenation and one mask over a few int arrays
(:meth:`TablePrefilter.candidate_ordinals`); table ids appear only at
the id-returning :meth:`TablePrefilter.candidate_tables`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.query import Query
from repro.cow import CopyOnWriteDict
from repro.datalake.lake import TableOrdinals
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
        values = signature.tolist()
        return [
            tuple(values[band * size : (band + 1) * size])
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


#: The postings of a key nothing links (read-only, shared).
_NO_TABLES = np.zeros(0, dtype=np.int64)
_NO_TABLES.setflags(write=False)


def _frozen(ordinals: np.ndarray) -> np.ndarray:
    """``ordinals`` as a read-only int64 posting array."""
    posting = np.asarray(ordinals, dtype=np.int64)
    posting.setflags(write=False)
    return posting


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
    ordinals:
        The table id space postings are kept in (``Thetis`` passes its
        lake's, so a shortlist indexes the kernel's table layout
        directly); a private one by default.

    Notes
    -----
    Each key's postings are one read-only array of table ordinals,
    replaced (never written) when a table joins or leaves the key, so a
    :meth:`fork` shares every posting array until one side replaces it.
    The distinct ordinals a bucket's keys post, with how many of its
    keys post each, are memoized per ``(band, bucket)`` on first read;
    a write replaces the entries of the memoized buckets it touches
    with recounted arrays, so a fork, which copies the memo dict,
    shares every other entry.
    """

    def __init__(
        self,
        scheme: SignatureScheme,
        config: LSHConfig,
        mapping: EntityMapping,
        column_aggregation: bool = False,
        ordinals: Optional[TableOrdinals] = None,
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
        self.ordinals = TableOrdinals() if ordinals is None else ordinals
        self._index = LSHIndex(config)
        self._postings: Dict[str, np.ndarray] = {}
        self._indexed_tables: Set[int] = set()
        self._buckets: Dict[
            Tuple[int, BucketKey], Tuple[np.ndarray, np.ndarray]
        ] = {}
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
            tables = self.ordinals.intern_all(entity_tables[uri])
            # Track every linked table so the filter can degrade to a
            # no-op (rather than an empty search space) when entities
            # cannot be hashed at all.
            self._indexed_tables.update(tables.tolist())
            signature = self.scheme.entity_signature(uri)
            if signature is None:
                continue
            self._index.add(uri, signature)
            self._postings[uri] = _frozen(tables)

    def _build_column_aggregated(self) -> None:
        # Group linked cells by (table, column).
        groups: Dict[Tuple[str, int], List[str]] = defaultdict(list)
        for (table_id, _row, column), uri in sorted(self.mapping.all_links()):
            groups[(table_id, column)].append(uri)
        for (table_id, column), uris in groups.items():
            ordinal = self.ordinals.intern(table_id)
            self._indexed_tables.add(ordinal)
            signature = self.scheme.group_signature(uris)
            if signature is None:
                continue
            key = f"{table_id}#{column}"
            self._index.add(key, signature)
            self._postings[key] = _frozen([ordinal])

    def fork(self, mapping: EntityMapping) -> "TablePrefilter":
        """An independent prefilter over ``mapping``, without a rebuild.

        ``mapping`` must hold the links this prefilter was maintained
        over (a snapshot clone's copy).  The scheme, the signatures,
        the ordinal space and every posting array are immutable and
        shared; the bands are copy-on-write, so :meth:`add_table` /
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
        clone.ordinals = self.ordinals
        clone._index = self._index.copy()
        clone._postings = dict(self._postings)
        clone._indexed_tables = set(self._indexed_tables)
        clone._buckets = dict(self._buckets)
        return clone

    # ------------------------------------------------------------------
    # Dynamic-lake maintenance
    # ------------------------------------------------------------------
    def _recount(self, keys: Iterable[str], ordinal: int, step: int) -> None:
        """``keys`` gained (``step=1``) or lost (``-1``) ``ordinal``.

        Moves the count of ``ordinal`` in every memoized bucket holding
        one of ``keys`` — once per key there — and keeps the bucket's
        distinct ordinals in step: a count reaching zero drops the
        ordinal, a new one is appended.  The arrays are replaced, never
        written.  Call it while the keys are still in their buckets.
        """
        touched = Counter(
            bucket
            for key in keys
            for bucket in enumerate(
                self._index._band_keys(self._index._signatures[key])
            )
        )
        for bucket, times in touched.items():
            entry = self._buckets.get(bucket)
            if entry is None:
                continue
            tables, counts = entry
            match = tables == ordinal
            if match.any():
                counts = counts + match * (step * times)
                if step < 0:
                    kept = counts > 0
                    tables, counts = tables[kept], counts[kept]
            else:
                tables = np.append(tables, ordinal)
                counts = np.append(counts, step * times)
            self._buckets[bucket] = (tables, counts)

    def add_table(self, table_id: str) -> None:
        """Index a table that was linked into the mapping after build.

        New entities receive signatures and buckets; known entities just
        gain a posting.  In column-aggregated mode the table's column
        groups are signed and inserted.
        """
        entities = self.mapping.entities_in_table(table_id)
        if not entities:
            return
        ordinal = self.ordinals.intern(table_id)
        self._indexed_tables.add(ordinal)
        if self.column_aggregation:
            groups = self.mapping.entities_by_column(table_id)
            for column, uris in groups.items():
                key = f"{table_id}#{column}"
                # Drop any previous generation of this key first: the
                # index ignores duplicate adds, and a (table, column)
                # group's signature must always reflect the *current*
                # mapping contents.
                if key in self._postings:
                    self._recount([key], ordinal, -1)
                self._index.remove(key)
                self._postings.pop(key, None)
                signature = self.scheme.group_signature(uris)
                if signature is None:
                    continue
                self._index.add(key, signature)
                self._postings[key] = _frozen([ordinal])
                self._recount([key], ordinal, 1)
            return
        gained = []
        for uri in sorted(entities):
            posting = self._postings.get(uri)
            if posting is None:
                signature = self.scheme.entity_signature(uri)
                if signature is None:
                    continue
                self._index.add(uri, signature)
                posting = _NO_TABLES
            if not (posting == ordinal).any():
                self._postings[uri] = _frozen(np.append(posting, ordinal))
                gained.append(uri)
        self._recount(gained, ordinal, 1)

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
        ordinal = self.ordinals.intern(table_id)
        self._indexed_tables.discard(ordinal)
        if self.column_aggregation:
            keys = [
                f"{table_id}#{column}"
                for column in self.mapping.entities_by_column(table_id)
            ]
            keys = [key for key in keys if key in self._postings]
            self._recount(keys, ordinal, -1)
            for key in keys:
                self._postings.pop(key)
                self._index.remove(key)
            return
        lost = []
        for uri in self.mapping.entities_in_table(table_id):
            posting = self._postings.get(uri)
            if posting is not None:
                kept = posting[posting != ordinal]
                if len(kept) < len(posting):
                    self._postings[uri] = _frozen(kept)
                    lost.append(uri)
        self._recount(lost, ordinal, -1)

    # ------------------------------------------------------------------
    @property
    def indexed_tables(self) -> FrozenSet[str]:
        """Tables reachable through at least one indexed key."""
        return frozenset(self.ordinals.ids_of(list(self._indexed_tables)))

    def num_indexed_keys(self) -> int:
        """Number of indexed signatures (entities or column groups)."""
        return len(self._index)

    def _table_votes(self, signature: np.ndarray) -> np.ndarray:
        """Table votes from one signature lookup, indexed by ordinal.

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
        parts = [
            self._postings.get(key, _NO_TABLES)
            for key in self._co_bucketed_keys(signature)
        ]
        return np.bincount(
            np.concatenate(parts) if parts else _NO_TABLES,
            minlength=len(self.ordinals),
        )

    def _bucket_tables(self, band: int, bucket_key: BucketKey) -> np.ndarray:
        """The distinct ordinals the keys of one bucket post, memoized.

        The unsynchronized memo is a benign race: a racing reader
        computes the same arrays from the same (unwritten) state.
        """
        entry = self._buckets.get((band, bucket_key))
        if entry is None:
            postings = self._postings
            parts = [
                postings.get(key, _NO_TABLES)
                for key in self._index._bands[band].get(bucket_key, ())
            ]
            tables, counts = np.unique(
                np.concatenate(parts) if parts else _NO_TABLES,
                return_counts=True,
            )
            entry = (tables, counts)
            self._buckets[(band, bucket_key)] = entry
        return entry[0]

    def _co_bucketed_keys(self, signature: np.ndarray) -> Set[str]:
        """Distinct keys sharing a bucket with ``signature`` in any band."""
        keys: Set[str] = set()
        for bucket in self._index.lookup_signature(signature):
            keys.update(bucket)
        return keys

    def candidate_ordinals(
        self,
        query: Query,
        votes: int = 1,
        aggregate_query: bool = False,
    ) -> np.ndarray:
        """The reduced table set for ``query`` as sorted table ordinals.

        The int form of :meth:`candidate_tables` (same parameters, same
        set): one vote is membership, so the memoized hits of the
        signatures' buckets are concatenated and marked once;
        ``votes > 1`` keeps, per signature, the tables whose
        ``bincount`` over its distinct co-bucketed keys reaches the
        threshold.
        Entities that cannot be hashed (untyped / unembedded) contribute
        no candidates; if *no* query entity is hashable the filter
        returns every indexed table rather than an empty search space.
        """
        if votes < 1:
            raise ConfigurationError("votes must be >= 1")
        if aggregate_query:
            lookups = [self.scheme.group_signature(self._query_uris(query))]
        else:
            lookups = [
                self.scheme.entity_signature(uri)
                for uri in sorted(query.entities())
            ]
        usable = [signature for signature in lookups if signature is not None]
        if not len(self._index) or not usable:
            # Nothing to look up with: filtering is a no-op.
            return np.array(sorted(self._indexed_tables), dtype=np.int64)
        if votes == 1:
            hits = np.concatenate([
                self._bucket_tables(band, bucket_key)
                for signature in usable
                for band, bucket_key in enumerate(
                    self._index._band_keys(signature)
                )
            ])
        else:
            hits = np.concatenate([
                np.flatnonzero(self._table_votes(signature) >= votes)
                for signature in usable
            ])
        marked = np.zeros(len(self.ordinals), dtype=bool)
        marked[hits] = True
        return np.flatnonzero(marked)

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

        The table ids of :meth:`candidate_ordinals`, which the serving
        path consumes directly.
        """
        return set(self.ordinals.ids_of(
            self.candidate_ordinals(query, votes, aggregate_query)
        ))

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
        Postings are written as table ids, not ordinals.
        """
        ids_of = self.ordinals.ids_of
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
                key: sorted(ids_of(tables))
                for key, tables in self._postings.items()
            },
            "indexed_tables": sorted(ids_of(list(self._indexed_tables))),
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
        prefilter.ordinals = TableOrdinals()
        prefilter._index = LSHIndex(config)
        for key, values in payload.get("signatures", {}).items():
            prefilter._index.add(key, np.asarray(values, dtype=np.int64))
        intern_all = prefilter.ordinals.intern_all
        prefilter._postings = {
            key: _frozen(intern_all(tables))
            for key, tables in payload.get("postings", {}).items()
        }
        prefilter._indexed_tables = set(
            intern_all(payload.get("indexed_tables", ())).tolist()
        )
        prefilter._buckets = {}
        return prefilter

    @classmethod
    def load(cls, path, scheme: SignatureScheme,
             mapping: EntityMapping) -> "TablePrefilter":
        """Load an index previously written by :meth:`save`."""
        import json
        from pathlib import Path

        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(payload, scheme, mapping)
