"""The compiled, read-only corpus index behind the vectorized engine.

Section 7.3 shows scoring cost scales with rows x columns x query size,
and every one of those cells pays a Python-level ``sigma(a, b)`` call in
the scalar engine.  The :class:`CorpusIndex` compiles the corpus once
into flat numpy arrays so a whole query-entity-vs-corpus similarity row
is one batched kernel pass instead of thousands of scalar calls:

* every entity URI linked anywhere in the lake is interned to a dense
  ``int32`` id (sorted-URI order, so ids are deterministic);
* every table's cells land in corpus-wide arrays: a column-major id
  block with ``-1`` marking unlinked/null cells, plus a flattened
  per-column entity multiset (``nnz`` triples of column / entity id /
  count) that turns the Section 5.1 column-relevance matrix into one
  ``bincount`` reduction per query entity;
* the similarity ``sigma`` is compiled into a :class:`SimilarityKernel`
  that evaluates one query entity against *all* corpus entities at
  once — type sets packed into ``uint64`` bitmap rows answer the
  adjusted Jaccard of Equation 4 with bitwise AND + popcount, and unit
  embeddings stacked into one matrix answer clamped cosine with a
  single matrix-vector product;
* computed similarity rows are memoized in a bounded
  :class:`~repro.core.cache.LRUCache` (the batched analogue of the
  scalar engine's :class:`~repro.core.cache.SimilarityCache`).

The index is immutable once compiled.  It is the *segment* unit of the
incremental :class:`~repro.core.kernel.segments.SegmentedCorpusIndex`:
dynamic lakes append small segments and tombstone old ones instead of
recompiling, concurrent batches share instances read-only, and
:mod:`repro.core.kernel.storage` persists the compiled arrays in an
``np.memmap``-loadable on-disk format (see :meth:`CorpusIndex.from_arrays`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple,
)

import numpy as np

from repro.core.cache import CacheStats, LRUCache
from repro.datalake.table import Table
from repro.linking.mapping import EntityMapping
from repro.similarity.base import (
    EntitySimilarity,
    ExactMatchSimilarity,
    WeightedCombination,
)
from repro.similarity.embedding import EmbeddingCosineSimilarity
from repro.similarity.types import (
    MappingTypeSimilarity,
    TypeJaccardSimilarity,
)

#: Bound of the per-query-entity similarity-row memo.  Each entry is one
#: float64 per corpus entity, so the default keeps even large corpora
#: within tens of megabytes.
DEFAULT_ROW_CACHE_SIZE = 4096

#: Tables compiled per numpy pass by :class:`CorpusIndex`: large enough
#: that the per-pass overhead vanishes, small enough that the pass's
#: temporaries do not raise a cold start's memory high-water mark.
COMPILE_CHUNK_TABLES = 256

if hasattr(np, "bitwise_count"):
    def _popcount(words: np.ndarray) -> np.ndarray:
        """Per-element population count of a uint64 array."""
        return np.bitwise_count(words)
else:  # pragma: no cover - numpy < 2.0 fallback
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(words: np.ndarray) -> np.ndarray:
        shape = words.shape
        bytes_view = np.ascontiguousarray(words).view(np.uint8)
        return (
            _POP8[bytes_view]
            .reshape(shape + (8,))
            .sum(axis=-1, dtype=np.uint64)
        )


@dataclass(frozen=True)
class EntityPostings:
    """Entity -> distinct tables CSR of one segment (all read-only).

    Entity ``e`` occurs in tables ``tables[offsets[e]:offsets[e + 1]]``
    (ascending, each once however many cells or columns mention it),
    and table ``t`` holds ``distinct[t]`` distinct entities — the
    posting count of table ``t`` over all entities.
    """

    offsets: np.ndarray   # (entities + 1,) int64
    tables: np.ndarray    # (distinct (table, entity) pairs,) int32
    distinct: np.ndarray  # (tables,) int64


class SimilarityKernel:
    """Batched form of one ``sigma``: query entity vs all corpus entities.

    :meth:`row` returns ``sigma(uri, e)`` for every interned corpus
    entity ``e`` as one float64 array.  Subclasses must reproduce the
    scalar similarity exactly wherever the arithmetic allows (type
    Jaccard is bit-exact; cosine differs only by BLAS summation order,
    well inside the engine's 1e-9 parity budget).
    """

    def __init__(self, uris: List[str], id_of: Dict[str, int]):
        self._uris = uris
        self._id_of = id_of

    def row(self, uri: str) -> np.ndarray:
        raise NotImplementedError

    def _apply_identity(self, uri: str, sims: np.ndarray) -> np.ndarray:
        """Pin ``sigma(e, e) = 1`` exactly, as every scalar sigma does."""
        index = self._id_of.get(uri)
        if index is not None:
            sims[index] = 1.0
        return sims


class ExactMatchKernel(SimilarityKernel):
    """Batched :class:`~repro.similarity.base.ExactMatchSimilarity`."""

    def row(self, uri: str) -> np.ndarray:
        return self._apply_identity(uri, np.zeros(len(self._uris), dtype=np.float64))


class TypeBitmapKernel(SimilarityKernel):
    """Adjusted Jaccard (Equation 4) over packed type-set bitmaps.

    Every distinct type across the corpus entities claims one bit; each
    entity's type set becomes a row of ``uint64`` words.  A query row is
    then ``popcount(bitmaps & query_bits)`` for the intersection sizes
    and ``|types(q)| + |types(e)| - intersection`` for the unions — two
    integer array ops replacing one Python set intersection per pair.
    Integer division reproduces the scalar Jaccard bit for bit.
    """

    def __init__(
        self,
        uris: List[str],
        id_of: Dict[str, int],
        types_of: Callable[[str], FrozenSet[str]],
        cap: float,
    ):
        super().__init__(uris, id_of)
        self._types_of = types_of
        self._cap = float(cap)
        bit_of: Dict[str, int] = {}
        type_sets = []
        for uri in uris:
            types = types_of(uri)
            type_sets.append(types)
            for name in types:
                if name not in bit_of:
                    bit_of[name] = len(bit_of)
        self._bit_of = bit_of
        self._words = max(1, (len(bit_of) + 63) // 64)
        bitmaps = np.zeros((len(uris), self._words), dtype=np.uint64)
        sizes = np.zeros(len(uris), dtype=np.int64)
        for row_index, types in enumerate(type_sets):
            sizes[row_index] = len(types)
            for name in types:
                bit = bit_of[name]
                bitmaps[row_index, bit >> 6] |= np.uint64(1 << (bit & 63))
        self._bitmaps = bitmaps
        self._sizes = sizes

    @classmethod
    def from_arrays(
        cls,
        uris: List[str],
        id_of: Dict[str, int],
        types_of: Callable[[str], FrozenSet[str]],
        cap: float,
        bit_names: List[str],
        bitmaps: np.ndarray,
        sizes: np.ndarray,
    ) -> "TypeBitmapKernel":
        """Rebuild a compiled bitmap kernel from persisted arrays.

        ``bit_names`` lists the type name claiming each bit in bit
        order; ``bitmaps``/``sizes`` may be read-only memmap views.  The
        per-entity type-set compilation loop is skipped entirely.
        """
        kernel = cls.__new__(cls)
        SimilarityKernel.__init__(kernel, uris, id_of)
        kernel._types_of = types_of
        kernel._cap = float(cap)
        kernel._bit_of = {name: bit for bit, name in enumerate(bit_names)}
        kernel._words = int(bitmaps.shape[1]) if bitmaps.ndim == 2 else 1
        kernel._bitmaps = bitmaps
        kernel._sizes = sizes
        return kernel

    def row(self, uri: str) -> np.ndarray:
        sims = np.zeros(len(self._uris), dtype=np.float64)
        types = self._types_of(uri)
        if types:
            query_bits = np.zeros(self._words, dtype=np.uint64)
            for name in types:
                bit = self._bit_of.get(name)
                if bit is not None:
                    query_bits[bit >> 6] |= np.uint64(1 << (bit & 63))
            intersection = (
                _popcount(self._bitmaps & query_bits)
                .sum(axis=1)
                .astype(np.int64)
            )
            union = len(types) + self._sizes - intersection
            overlapping = intersection > 0
            np.divide(
                intersection, union, out=sims,
                where=overlapping, casting="unsafe",
            )
            np.minimum(sims, self._cap, out=sims)
        return self._apply_identity(uri, sims)


class EmbeddingMatmulKernel(SimilarityKernel):
    """Clamped cosine as one matrix-vector product over unit embeddings.

    Corpus entities without an embedding get an all-zero row, so their
    dot product is exactly the scalar engine's 0.
    """

    def __init__(self, uris: List[str], id_of: Dict[str, int], store):
        super().__init__(uris, id_of)
        self._store = store
        matrix = np.zeros((len(uris), store.dimensions), dtype=np.float64)
        for row_index, uri in enumerate(uris):
            if uri in store:
                matrix[row_index] = store.unit_vector(uri)
        self._matrix = np.ascontiguousarray(matrix)

    @classmethod
    def from_arrays(
        cls,
        uris: List[str],
        id_of: Dict[str, int],
        store,
        matrix: np.ndarray,
    ) -> "EmbeddingMatmulKernel":
        """Rebuild the matmul kernel around a persisted unit matrix."""
        kernel = cls.__new__(cls)
        SimilarityKernel.__init__(kernel, uris, id_of)
        kernel._store = store
        kernel._matrix = matrix
        return kernel

    def row(self, uri: str) -> np.ndarray:
        if uri not in self._store:
            return self._apply_identity(uri, np.zeros(len(self._uris), dtype=np.float64))
        sims = self._matrix @ self._store.unit_vector(uri)
        np.maximum(sims, 0.0, out=sims)
        return self._apply_identity(uri, sims)


class CombinationKernel(SimilarityKernel):
    """Convex combination of part kernels, mirroring
    :class:`~repro.similarity.base.WeightedCombination` term order."""

    def __init__(
        self,
        uris: List[str],
        id_of: Dict[str, int],
        parts: List[SimilarityKernel],
        weights: List[float],
    ):
        super().__init__(uris, id_of)
        self._parts = parts
        self._weights = list(weights)

    def row(self, uri: str) -> np.ndarray:
        sims = np.zeros(len(self._uris), dtype=np.float64)
        for part, weight in zip(self._parts, self._weights):
            sims += weight * part.row(uri)
        return self._apply_identity(uri, sims)


class ScalarLoopKernel(SimilarityKernel):
    """Correctness fallback for similarities with no batched form.

    One Python call per corpus entity — no faster than the scalar
    engine for a cold row, but rows are memoized, so repeated queries
    still amortize.  The sigma's own identity handling is preserved
    verbatim (no override), keeping parity with the scalar path even
    for contract-violating custom similarities.
    """

    def __init__(
        self, uris: List[str], id_of: Dict[str, int], sigma: EntitySimilarity
    ):
        super().__init__(uris, id_of)
        self._sigma = sigma

    def row(self, uri: str) -> np.ndarray:
        similarity = self._sigma.similarity
        return np.array(
            [similarity(uri, other) for other in self._uris], dtype=np.float64
        )


def compile_kernel(
    sigma: EntitySimilarity, uris: List[str], id_of: Dict[str, int]
) -> SimilarityKernel:
    """Compile ``sigma`` into its batched kernel form.

    Recognizes the built-in similarities (exact, type Jaccard over a
    graph or an explicit mapping, embedding cosine, and any weighted
    combination of those); everything else falls back to the memoized
    scalar loop, so the vectorized engine stays correct for custom
    sigmas while being fast for the paper's.  Dispatch is on the exact
    type, never ``isinstance``: a subclass may override ``similarity``
    arbitrarily, and a wrong kernel would be silently wrong while the
    scalar-loop fallback is merely slower.
    """
    if type(sigma) is ExactMatchSimilarity:
        return ExactMatchKernel(uris, id_of)
    if type(sigma) in (TypeJaccardSimilarity, MappingTypeSimilarity):
        return TypeBitmapKernel(uris, id_of, sigma.types_of, sigma.cap)
    if type(sigma) is EmbeddingCosineSimilarity:
        return EmbeddingMatmulKernel(uris, id_of, sigma.store)
    if type(sigma) is WeightedCombination:
        parts = [
            compile_kernel(part, uris, id_of) for part in sigma.parts
        ]
        return CombinationKernel(uris, id_of, parts, sigma.weights)
    return ScalarLoopKernel(uris, id_of, sigma)


class CorpusIndex:
    """Read-only columnar compilation of (tables, mapping, sigma).

    Build once, share freely: after construction the index is never
    mutated, so concurrent reader threads share it without locks.
    ``tables`` is any iterable of tables — a whole
    :class:`~repro.datalake.lake.DataLake` for a monolithic index, or a
    subset when the index serves as one *segment* of a
    :class:`~repro.core.kernel.segments.SegmentedCorpusIndex` (a
    single-table segment compiles in O(table), which is what makes lake
    mutations O(delta) instead of O(lake)).  Compiled arrays round-trip
    through :mod:`repro.core.kernel.storage` via :meth:`from_arrays`,
    whose inputs may be ``np.memmap`` views for zero-copy cold start.
    """

    def __init__(
        self,
        tables: Iterable[Table],
        mapping: EntityMapping,
        sigma: EntitySimilarity,
    ):
        tables = list(tables)
        self._postings: Optional[EntityPostings] = None
        self._rows = LRUCache(DEFAULT_ROW_CACHE_SIZE)
        self._tuples = LRUCache(DEFAULT_ROW_CACHE_SIZE // 8)
        self._compile_corpus(tables, mapping)
        self.kernel = compile_kernel(sigma, self.uris, self.id_of)

    def _compile_corpus(
        self, tables: List[Table], mapping: EntityMapping
    ) -> None:
        """Compile the tables' linked cells into corpus-wide arrays.

        These power the engine's batched kernel: one global column
        space (table ``t``'s column ``c`` is global column
        ``col_offset[t] + c``) and per-table nnz blocks
        (``nnz_toffset``) let a scoring pass gather any selection of
        tables with a few fancy indexes and build all their
        column-relevance matrices with one ``bincount``, and the
        column-major ``flat_ids``/``col_start`` pair lets one fancy
        index gather every assigned column of every table.

        Python touches only the linked cells, read through
        :meth:`~repro.linking.mapping.EntityMapping.table_cells`, in
        chunks of :data:`COMPILE_CHUNK_TABLES` tables so the numpy
        temporaries stay small.  A link outside its table's grid is
        skipped.  Entities get provisional ids in order of appearance,
        renumbered into sorted-URI order once every chunk is read.
        """
        self.table_ids: List[str] = [table.table_id for table in tables]
        self._table_pos: Dict[str, int] = {
            table_id: position
            for position, table_id in enumerate(self.table_ids)
        }
        self.table_rows = np.array(
            [table.num_rows for table in tables], dtype=np.int64
        )
        self.table_columns = np.array(
            [table.num_columns for table in tables], dtype=np.int64
        )
        self.col_offset = np.concatenate(
            ([0], np.cumsum(self.table_columns))
        ).astype(np.int64)
        self.row_offset = np.concatenate(
            ([0], np.cumsum(self.table_rows))
        ).astype(np.int64)
        # Column-major cell ids: global column g's entity ids live in
        # flat_ids[col_start[g] : col_start[g] + rows(table of g)].
        self.col_start = np.concatenate(
            ([0], np.cumsum(np.repeat(self.table_rows, self.table_columns)))
        ).astype(np.int64)
        provisional: Dict[str, int] = {}
        flat_ids = np.full(int(self.col_start[-1]), -1, dtype=np.int32)
        # One (columns, provisional ids, counts) triple per chunk, after
        # an empty one that fixes the dtypes of an empty selection.
        nnz: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )]
        for start in range(0, len(tables), COMPILE_CHUNK_TABLES):
            cells = [
                mapping.table_cells(table.table_id)
                for table in tables[start:start + COMPILE_CHUNK_TABLES]
            ]
            nnz.append(
                self._compile_chunk(start, cells, provisional, flat_ids)
            )
        self.uris: List[str] = sorted(provisional)
        self.id_of: Dict[str, int] = {
            uri: index for index, uri in enumerate(self.uris)
        }
        # final[p] is the sorted-order id of provisional id p; the
        # trailing -1 maps an unlinked cell's -1 to itself.
        final = np.full(len(provisional) + 1, -1, dtype=np.int32)
        final[:-1] = np.fromiter(
            map(self.id_of.__getitem__, provisional), dtype=np.int32,
            count=len(provisional),
        )
        self.flat_ids = final[flat_ids]
        self.nnz_gcolumns, nnz_ids, self.nnz_gcounts = map(
            np.concatenate, zip(*nnz)
        )
        self.nnz_gids = final[nnz_ids]
        # Table t's nnz triples live in [nnz_toffset[t], nnz_toffset[t+1]).
        self.nnz_toffset = np.searchsorted(
            self.nnz_gcolumns, self.col_offset
        ).astype(np.int64)
        for array in (
            self.table_rows, self.table_columns, self.col_offset,
            self.row_offset, self.flat_ids, self.col_start,
            self.nnz_gcolumns, self.nnz_gids, self.nnz_gcounts,
            self.nnz_toffset,
        ):
            array.setflags(write=False)

    def _compile_chunk(
        self,
        start: int,
        cells: List[Mapping[Tuple[int, int], str]],
        provisional: Dict[str, int],
        flat_ids: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compile the chunk of tables from position ``start`` on.

        ``cells`` holds each table's links; an entity not yet in
        ``provisional`` gets the next provisional id there.  Scatters
        the chunk's provisional entity ids into ``flat_ids``
        (``-1`` stays on null and unlinked cells) and returns its nnz
        triples: one (global column, provisional id, count) per
        distinct entity of each column, columns ascending and, within a
        column, in first-occurrence order down the rows.  That is the
        scalar engine's ``_column_entity_counts`` insertion order, so
        the ``bincount`` reduction adds terms in the scalar sum's order
        and the column-relevance matrix stays bit-equal.
        """
        links = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
        total = int(links.sum())
        coords = np.fromiter(
            chain.from_iterable(chain.from_iterable(
                table_cells.keys() for table_cells in cells
            )),
            dtype=np.int64, count=2 * total,
        ).reshape(total, 2)
        table = np.repeat(np.arange(start, start + len(cells)), links)
        rows, columns = coords[:, 0], coords[:, 1]
        uris: Iterable[str] = chain.from_iterable(
            table_cells.values() for table_cells in cells
        )
        inside = (
            (rows < self.table_rows[table])
            & (columns < self.table_columns[table])
        )
        if not inside.all():
            uris = compress(uris, inside.tolist())
            rows, columns, table = rows[inside], columns[inside], table[inside]
        uris = list(uris)
        chunk_ids = dict.fromkeys(uris)
        for uri in chunk_ids:
            chunk_ids[uri] = provisional.setdefault(uri, len(provisional))
        ids = np.fromiter(
            map(chunk_ids.__getitem__, uris), dtype=np.int64, count=len(uris)
        )
        gcolumns = self.col_offset[table] + columns
        positions = self.col_start[gcolumns] + rows
        flat_ids[positions] = ids
        # Cells are distinct, so sorting by position is column-major
        # order.  A stable sort on (column, entity) then puts each
        # group's first occurrence at its head.
        order = np.argsort(positions)
        gcolumns, ids = gcolumns[order], ids[order]
        pairs = gcolumns * len(provisional) + ids
        by_pair = np.argsort(pairs, kind="stable")
        pairs = pairs[by_pair]
        head = np.ones(len(pairs), dtype=bool)
        head[1:] = pairs[1:] != pairs[:-1]
        heads = np.flatnonzero(head)
        counts = np.diff(np.append(heads, len(pairs)))
        first = by_pair[heads]
        emit = np.argsort(first)
        first = first[emit]
        return gcolumns[first], ids[first], counts[emit].astype(np.float64)

    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        """Distinct linked entities across the corpus."""
        return len(self.uris)

    @property
    def has_links(self) -> np.ndarray:
        """Per table, whether it links an entity inside its grid."""
        return np.diff(self.nnz_toffset) > 0

    def __len__(self) -> int:
        return len(self.table_ids)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._table_pos

    def postings(self) -> EntityPostings:
        """The segment's entity -> tables postings, built on first use.

        Derived from ``nnz_gids`` / ``nnz_toffset`` alone, so compiled,
        single-table and memmap-loaded segments all get it and the
        on-disk format does not change.  nnz is keyed by (column,
        entity); the sort deduplicates it to (table, entity) pairs.  The
        unsynchronized memo insert is a benign race: the postings are
        deterministic and attribute assignment is atomic.
        """
        postings = self._postings
        if postings is None:
            num_tables = max(1, len(self.table_ids))
            table_of = np.repeat(
                np.arange(len(self.table_ids), dtype=np.int64),
                np.diff(self.nnz_toffset),
            )
            # Sort + adjacent-difference dedup: a plain sort is ~50x
            # faster than ``np.unique`` on these keys.
            pairs = np.sort(
                self.nnz_gids.astype(np.int64) * num_tables + table_of
            )
            first = np.ones(len(pairs), dtype=bool)
            first[1:] = pairs[1:] != pairs[:-1]
            pairs = pairs[first]
            tables = (pairs % num_tables).astype(np.int32)
            offsets = np.zeros(self.num_entities + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(pairs // num_tables, minlength=self.num_entities),
                out=offsets[1:],
            )
            distinct = np.bincount(tables, minlength=len(self.table_ids))
            for array in (offsets, tables, distinct):
                array.setflags(write=False)
            postings = EntityPostings(offsets, tables, distinct)
            self._postings = postings
        return postings

    @classmethod
    def from_arrays(
        cls,
        table_ids: List[str],
        uris: List[str],
        kernel: "SimilarityKernel",
        arrays: Mapping[str, np.ndarray],
    ) -> "CorpusIndex":
        """Reassemble an index from persisted arrays without compiling.

        ``arrays`` maps the corpus-wide array names written by
        :func:`repro.core.kernel.storage.save_index` to (typically
        ``np.memmap``-backed, read-only) ndarrays.  No table iteration,
        interning, or kernel compilation happens here — cold start cost
        is mmap + dict construction, independent of corpus size.
        """
        index = cls.__new__(cls)
        index.uris = list(uris)
        index.id_of = {uri: i for i, uri in enumerate(index.uris)}
        index.kernel = kernel
        index._rows = LRUCache(DEFAULT_ROW_CACHE_SIZE)
        index._tuples = LRUCache(DEFAULT_ROW_CACHE_SIZE // 8)
        index.table_ids = list(table_ids)
        index._table_pos = {
            table_id: position
            for position, table_id in enumerate(index.table_ids)
        }
        index._postings = None
        index.table_rows = arrays["table_rows"]
        index.table_columns = arrays["table_columns"]
        index.col_offset = arrays["col_offset"]
        index.row_offset = arrays["row_offset"]
        index.flat_ids = arrays["flat_ids"]
        index.col_start = arrays["col_start"]
        index.nnz_gcolumns = arrays["nnz_gcolumns"]
        index.nnz_gids = arrays["nnz_gids"]
        index.nnz_gcounts = arrays["nnz_gcounts"]
        index.nnz_toffset = arrays["nnz_toffset"]
        return index

    def tuple_rows(self, query_tuple, profile=None) -> np.ndarray:
        """Stacked similarity rows for a whole query tuple, memoized.

        Returns a read-only ``(len(query_tuple), num_entities)`` matrix
        whose row ``p`` is :meth:`sims_row` of the tuple's ``p``-th
        entity.  Queries repeat tuples across every candidate table, so
        memoizing the stacked (C-contiguous) matrix removes one row
        lookup + stack per table from the hot path.  Profile accounting
        matches :meth:`sims_row`: a memo hit counts one similarity call
        per corpus entity per tuple position.
        """
        matrix = self._tuples.get(query_tuple)
        if matrix is None:
            matrix = np.ascontiguousarray(
                np.stack([self.sims_row(uri, profile)
                          for uri in query_tuple])
            )
            matrix.setflags(write=False)
            self._tuples.put(query_tuple, matrix)
        elif profile is not None:
            profile.similarity_calls += len(self.uris) * len(query_tuple)
        return matrix

    def sims_row(self, uri: str, profile=None) -> np.ndarray:
        """``sigma(uri, e)`` for every corpus entity, memoized.

        When a :class:`~repro.core.search.ScoringProfile` is passed,
        each batched lookup counts as ``num_entities`` pairwise
        ``similarity_calls``, and materializing a row additionally as
        ``num_entities`` ``similarity_misses`` — the vectorized
        equivalent of the scalar cache's per-pair accounting, so
        ``--cache-stats`` and the Section 7.3 cost split stay
        meaningful under ``--engine vectorized``.
        """
        sims = self._rows.get(uri)
        if sims is None:
            sims = self.kernel.row(uri)
            sims.setflags(write=False)
            self._rows.put(uri, sims)
            if profile is not None:
                profile.similarity_calls += len(self.uris)
                profile.similarity_misses += len(self.uris)
        elif profile is not None:
            profile.similarity_calls += len(self.uris)
        return sims

    def row_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the similarity-row memo."""
        return self._rows.stats()

    def tuple_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the stacked tuple-matrix memo."""
        return self._tuples.stats()
