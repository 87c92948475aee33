"""Vectorized union search: compiled column-concept segments + engine.

The scalar :class:`~repro.baselines.union_search.UnionTableSearch`
scores one table at a time: re-encode the query columns, build a dense
query-column x table-column similarity matrix in Python lists, and run
the Hungarian solver per table.  This module compiles tables into
:class:`UnionCorpusIndex` segments — per-column dominant-type bitmaps
for the SANTOS-like ``types`` encoder, stacked mean column embeddings
for the Starmie-like ``embeddings`` encoder, plus the same
table->column ``reduceat`` layout the entity kernel uses — held by the
one segment container every task shares
(:class:`~repro.core.kernel.segments.SegmentedCorpusIndex`).  A read
scores every candidate column with one popcount Jaccard pass (types) or
one ``einsum`` cosine pass (embeddings) per segment, lays the results
on one flat column axis, and follows with a vectorized column
assignment: exact enumerated assignment for tables with at most
``MAX_ENUM_ROWS`` positively-scoring query columns (the shared
:func:`~repro.core.assignment.enumerate_assignments`, trusted where its
near-optimal totals agree bitwise), Hungarian fallback otherwise.  A
search with a cut-off ``k`` solves the assignment only for the tables
it must: a bound-ordered, early-terminating scan (the entity kernel's
:func:`~repro.core.kernel.engine.pruned_topk`) whose bound is each
table's best column per query row, so its ranking is the full pass
truncated to ``k``, bit for bit.

Parity contract: scores match the scalar baseline to <= 1e-9 and the
ranking is identical including ``(-score, table_id)`` tie-breaks.  For
the ``types`` encoder every operation is integer popcount arithmetic
followed by one int/int division, so scores are bit-identical; for
``embeddings`` the ``einsum`` dot product may round the last bits
differently from the scalar one (~1e-16, far inside the budget), but
each column's score is computed alone, so it does not depend on the
segment layout or on what else rides the batch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.union_search import _query_columns, dominant_types
from repro.core.assignment import (
    enumerate_assignments,
    enumeration_chunks,
    max_assignment,
)
from repro.core.kernel.engine import _concat_ranges, pruned_topk
from repro.core.kernel.index import _popcount
from repro.core.kernel.segments import (
    LakeLayout,
    SegmentedCorpusIndex,
    SegmentedEngine,
)
from repro.core.query import Query
from repro.core.result import ResultSet, ScoredTable
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.embeddings.store import EmbeddingStore
from repro.exceptions import ConfigurationError
from repro.kg.graph import KnowledgeGraph
from repro.linking.mapping import EntityMapping

UNION_ENCODERS = ("types", "embeddings")

#: Exhaustive assignment enumeration covers tables with at most this
#: many positively-scoring query rows; beyond it (or past the element
#: budget) tables fall back to the scalar Hungarian solver.
MAX_ENUM_ROWS = 5


class UnionCorpusIndex:
    """One immutable segment: a columnar encoding of its tables' columns.

    Layout (shared by both encoders)
    --------------------------------
    ``table_ids[t]``      table id of segment position ``t``
    ``table_columns[t]``  column count of table ``t`` (int64)
    ``col_offset``        ``len == num_tables + 1`` prefix sums; table
                          ``t`` owns segment columns
                          ``[col_offset[t], col_offset[t+1])``

    ``types`` encoder: ``bitmaps`` is ``(total_columns, words)`` uint64
    with one bit per dominant type interned by this segment
    (``bit_of``), ``sizes`` the per-column type-set cardinality — a
    stack of query columns scores the segment with one
    ``popcount(bitmaps & query_bits)`` pass.

    ``embeddings`` encoder: ``vectors`` is ``(total_columns, dim)``
    float64 mean column embeddings (zero rows where a column has no
    linked entities), ``norms`` their L2 norms, ``valid`` the
    non-null mask — a stack of query columns scores the segment with
    one ``einsum``.

    Every row is a function of its own table's links only, so a segment
    never needs another table: a mutation compiles a one-table segment
    and the container shares the rest.
    """

    def __init__(
        self,
        column_encoder: str,
        table_ids: List[str],
        table_columns: np.ndarray,
        bit_of: Optional[Dict[str, int]] = None,
        bitmaps: Optional[np.ndarray] = None,
        sizes: Optional[np.ndarray] = None,
        vectors: Optional[np.ndarray] = None,
        norms: Optional[np.ndarray] = None,
        valid: Optional[np.ndarray] = None,
    ):
        self.column_encoder = column_encoder
        self.table_ids = table_ids
        self.table_columns = table_columns
        self.col_offset = np.zeros(len(table_ids) + 1, dtype=np.int64)
        np.cumsum(table_columns, out=self.col_offset[1:])
        self.bit_of = bit_of
        self.bitmaps = bitmaps
        self.sizes = sizes
        self.vectors = vectors
        self.norms = norms
        self.valid = valid

    @property
    def num_tables(self) -> int:
        return len(self.table_ids)

    @property
    def total_columns(self) -> int:
        return int(self.col_offset[-1])

    @property
    def has_links(self) -> np.ndarray:
        """Per table, whether any column has a concept to score."""
        encoded = self.sizes > 0 if self.bitmaps is not None else self.valid
        owner = np.repeat(
            np.arange(self.num_tables, dtype=np.int64), self.table_columns
        )
        return np.bincount(owner[encoded], minlength=self.num_tables) > 0

    def nbytes(self) -> int:
        total = 0
        for array in (self.bitmaps, self.sizes, self.vectors,
                      self.norms, self.valid):
            if array is not None:
                total += int(array.nbytes)
        return total

    def relevance(self, query) -> np.ndarray:
        """Dense ``(query rows, columns)`` similarity to a query stack.

        ``query`` is a query-column stack — the type sets themselves
        (each segment maps them to its own bits), or ``(vectors, norms,
        valid)`` rows (:func:`_vector_rows`).  Each cell is a function
        of its query row and its column alone.
        """
        if self.bitmaps is not None:
            # The query's types in this segment's bit space; a type no
            # column of the segment has matches nothing.
            bits = np.zeros(
                (len(query), self.bitmaps.shape[1]), dtype=np.uint64
            )
            for row, types in enumerate(query):
                for name in types:
                    bit = self.bit_of.get(name)
                    if bit is not None:
                        bits[row, bit >> 6] |= np.uint64(1 << (bit & 63))
            # One popcount pass per word some query row sets.  Counts
            # are small integers, exact in float64, so the Jaccard below
            # is the same int/int division as the scalar baseline's.  An
            # empty query column intersects nothing; sizing it 1 keeps
            # its union positive, so it scores 0.0 everywhere.
            intersection = np.zeros(
                (len(query), len(self.sizes)), dtype=np.float64
            )
            for word in np.flatnonzero(bits.any(axis=0)).tolist():
                intersection += _popcount(
                    self.bitmaps[:, word] & bits[:, word, None]
                )
            query_sizes = np.array(
                [max(len(types), 1) for types in query], dtype=np.float64
            )
            return intersection / (
                query_sizes[:, None] + self.sizes[None, :] - intersection
            )
        stacked, query_norms, query_valid = query
        dots = np.einsum("rd,cd->rc", stacked, self.vectors)
        denominator = query_norms[:, None] * self.norms[None, :]
        usable = (
            query_valid[:, None] & self.valid[None, :]
            & (denominator != 0.0)
        )
        relevance = np.zeros_like(dots)
        np.divide(dots, denominator, out=relevance, where=usable)
        np.maximum(relevance, 0.0, out=relevance)
        return relevance


def _vector_rows(
    vector_list: Sequence[Optional[np.ndarray]], dim: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(vectors, norms, valid)`` rows for per-column mean vectors."""
    vectors = np.zeros((len(vector_list), dim), dtype=np.float64)
    norms = np.zeros(len(vector_list), dtype=np.float64)
    valid = np.zeros(len(vector_list), dtype=bool)
    for row, vector in enumerate(vector_list):
        if vector is None:
            continue
        vectors[row] = np.asarray(vector, dtype=np.float64)
        valid[row] = True
        # Per-row 1-D norm calls reproduce the scalar baseline's
        # sqrt(dot) bit-for-bit (axis-reductions may round differently).
        norms[row] = float(np.linalg.norm(vectors[row]))
    return vectors, norms, valid


def compile_union_index(
    lake: Iterable[Table],
    mapping: EntityMapping,
    graph: Optional[KnowledgeGraph] = None,
    store: Optional[EmbeddingStore] = None,
    column_encoder: str = "types",
) -> UnionCorpusIndex:
    """Encode every column of ``lake``'s tables, in order: one segment.

    The table's linked cells are grouped by column in one pass; within
    a column the URIs keep the sorted-cell order ``store.mean_vector``
    has always summed in.  Types are interned in first-seen order,
    sorted within a column.
    """
    table_ids: List[str] = []
    widths: List[int] = []
    encoded: List = []
    for table in lake:
        table_ids.append(table.table_id)
        widths.append(table.num_columns)
        by_column = mapping.entities_by_column(table.table_id)
        for column in range(table.num_columns):
            uris = by_column.get(column, ())
            if column_encoder == "types":
                encoded.append(dominant_types(graph, uris))
            else:
                encoded.append(store.mean_vector(uris) if uris else None)
    table_columns = np.asarray(widths, dtype=np.int64)
    if column_encoder != "types":
        vectors, norms, valid = _vector_rows(encoded, store.dimensions)
        return UnionCorpusIndex(
            column_encoder, table_ids, table_columns,
            vectors=vectors, norms=norms, valid=valid,
        )
    bit_of: Dict[str, int] = {}
    for types in encoded:
        for name in sorted(types):
            bit_of.setdefault(name, len(bit_of))
    bitmaps = np.zeros(
        (len(encoded), max(1, (len(bit_of) + 63) // 64)), dtype=np.uint64
    )
    sizes = np.zeros(len(encoded), dtype=np.int64)
    for row, types in enumerate(encoded):
        sizes[row] = len(types)
        for name in types:
            bit = bit_of[name]
            bitmaps[row, bit >> 6] |= np.uint64(1 << (bit & 63))
    return UnionCorpusIndex(
        column_encoder, table_ids, table_columns,
        bit_of=bit_of, bitmaps=bitmaps, sizes=sizes,
    )


def _row_maxima(
    relevance: np.ndarray,
    table_columns: np.ndarray,
    col_offset: np.ndarray,
) -> np.ndarray:
    """``(query_width, num_tables)`` best relevance per query row per table.

    Summed over the rows this bounds any one-to-one assignment's total
    (each row takes at most its best column); 0.0 for a table without
    columns.
    """
    starts = np.minimum(col_offset[:-1], int(relevance.shape[1]) - 1)
    maxima = np.maximum.reduceat(relevance, starts, axis=1)
    # reduceat yields a neighbor's value for empty segments; mask them.
    maxima[:, table_columns == 0] = 0.0
    return maxima


def _assignment_totals(
    relevance: np.ndarray,
    table_columns: np.ndarray,
    col_offset: np.ndarray,
) -> np.ndarray:
    """Best one-to-one assignment total per table, scalar-parity exact.

    ``relevance`` is the dense (query_width, total_columns) similarity
    matrix over a contiguous table->column layout.  Tables whose columns
    are all non-positive total exactly 0.0 (their optimal assignment
    sums zeros).  The remaining tables are grouped by how many query
    rows score positive on them; a table with at most MAX_ENUM_ROWS
    positive rows — regardless of the full query width — is enumerated
    over those rows by
    :func:`~repro.core.assignment.enumerate_assignments` (gated on its
    positive-column count).  A table whose optimum is not ``settled``
    — near-optimal totals within ASSIGNMENT_MARGIN that are not all
    bitwise equal, where enumeration and the Hungarian solver could
    pick equal-total assignments with different rounding — falls back
    to :func:`max_assignment` on its block, the very code path the
    scalar baseline runs.  ``settled`` rather than ``unique``: the
    total is all this reads, and exact ties on type Jaccard scores are
    common.  Skipping non-positive query rows is exact because the
    scalar accumulator adds their 0.0 contribution in row order and
    ``x + 0.0 == x`` for every non-negative score.
    """
    width = int(relevance.shape[0])
    num_tables = len(table_columns)
    totals = np.zeros(num_tables, dtype=np.float64)
    total_columns = int(relevance.shape[1])
    if width == 0 or num_tables == 0 or total_columns == 0:
        return totals
    positive = _row_maxima(relevance, table_columns, col_offset) > 0.0
    counts = positive.sum(axis=0)
    # reduceat needs int (bool add is OR), and empty segments echo a
    # neighbour — zero them.
    starts = np.minimum(col_offset[:-1], total_columns - 1)
    positive_columns = np.add.reduceat(
        (relevance > 0.0).any(axis=0).astype(np.int64), starts
    )
    positive_columns[table_columns == 0] = 0
    fallback = [np.nonzero(counts > MAX_ENUM_ROWS)[0]]
    for p in range(1, MAX_ENUM_ROWS + 1):
        selection = np.nonzero(counts == p)[0]
        if not selection.size:
            continue
        rows = np.nonzero(positive[:, selection].T)[1].reshape(-1, p)
        solver, chunks = enumeration_chunks(
            (positive_columns[selection] + 1.0) ** p
        )
        fallback.append(selection[solver])
        for chunk in chunks:
            tables = selection[chunk]
            _, optimum, _, settled = enumerate_assignments(
                relevance, col_offset, table_columns, rows[chunk], tables
            )
            totals[tables[settled]] = optimum[settled]
            fallback.append(tables[~settled])
    for position in np.concatenate(fallback).tolist():
        start = int(col_offset[position])
        stop = int(col_offset[position + 1])
        _, total = max_assignment(relevance[:, start:stop])
        totals[position] = total
    return totals


class VectorizedUnionSearchEngine(SegmentedEngine):
    """Whole-lake union scoring with scalar-baseline parity.

    Drop-in for :class:`~repro.baselines.union_search.UnionTableSearch`
    ``search``: identical constructor validation, identical scores
    (<= 1e-9) and ranking, plus ``candidates`` restriction for shard
    scatter and :meth:`search_batch` lane stacking for the micro-batch
    serve path.  The index is a
    :class:`~repro.core.kernel.segments.SegmentedCorpusIndex` of
    :class:`UnionCorpusIndex` segments with the
    :class:`~repro.core.kernel.segments.SegmentedEngine` lifecycle.
    """

    def __init__(
        self,
        lake: DataLake,
        mapping: EntityMapping,
        graph: Optional[KnowledgeGraph] = None,
        store: Optional[EmbeddingStore] = None,
        column_encoder: str = "types",
    ):
        if column_encoder not in UNION_ENCODERS:
            raise ConfigurationError(
                f"unknown column encoder: {column_encoder!r}"
            )
        if column_encoder == "types" and graph is None:
            raise ConfigurationError("types encoder requires a graph")
        if column_encoder == "embeddings" and store is None:
            raise ConfigurationError("embeddings encoder requires a store")
        super().__init__()
        self.lake = lake
        self.mapping = mapping
        self.graph = graph
        self.store = store
        self.column_encoder = column_encoder

    def _compile_segment(self, tables: Sequence[Table]) -> UnionCorpusIndex:
        return compile_union_index(
            tables, self.mapping, graph=self.graph, store=self.store,
            column_encoder=self.column_encoder,
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _encode_query(self, query: Query):
        columns = _query_columns(query)
        if self.column_encoder == "types":
            return [dominant_types(self.graph, column) for column in columns]
        return [self.store.mean_vector(column) for column in columns]

    def _relevance(
        self, index: SegmentedCorpusIndex, encoded_columns: Sequence
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Relevance of stacked query columns to every indexed column.

        One pass per segment, concatenated onto one flat column axis in
        flat table order (tombstoned copies included: a read ranks the
        positions it is given).  Returns ``(relevance, table_columns)``,
        the latter the column count at every flat position.
        """
        if self.column_encoder == "types":
            query = list(encoded_columns)
        else:
            query = _vector_rows(encoded_columns, self.store.dimensions)
        segments = index.segments
        if len(segments) == 1:
            return segments[0].relevance(query), segments[0].table_columns
        return (
            np.concatenate(
                [segment.relevance(query) for segment in segments], axis=1
            ),
            np.concatenate([segment.table_columns for segment in segments]),
        )

    def _rank(
        self,
        layout: LakeLayout,
        relevance: np.ndarray,
        width: int,
        positions: np.ndarray,
        table_columns: np.ndarray,
        col_offset: np.ndarray,
        k: Optional[int],
        stats=None,
    ) -> ResultSet:
        """One job's ranking of the tables at flat ``positions``.

        ``relevance`` holds every flat position's columns on one axis
        (``col_offset``).  A verify pass runs :func:`_assignment_totals`
        on its own tables' columns — bit-identical per table, because
        each table's enumeration lane and solver fallback are its own.
        ``k=None`` verifies every position — the reference the scan is
        checked against.  With a cut-off the job is a
        :func:`~repro.core.kernel.engine.pruned_topk` scan: a table's
        row maxima, summed over the query rows and divided by the same
        normalizer, bound any one-to-one assignment's score.
        """
        # Elementwise float64 / int64 is the same IEEE division the
        # scalar baseline's per-table ``total / normalizer`` performs.
        normalizer = np.maximum(np.int64(width), table_columns)

        def verify(chunk: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            widths = table_columns[chunk]
            offset = np.zeros(len(chunk) + 1, dtype=np.int64)
            np.cumsum(widths, out=offset[1:])
            score = _assignment_totals(
                relevance[:, _concat_ranges(col_offset[chunk], widths)],
                widths, offset,
            ) / normalizer[chunk]
            return score, score > 0.0

        if k is None:
            scores, returnable = verify(positions)
            top, scores = positions[returnable], scores[returnable]
        else:
            bound = _row_maxima(
                relevance, table_columns, col_offset
            ).sum(axis=0) / normalizer
            # A zero bound means no positive relevance: the table
            # scores exactly 0.0 and is never returned.
            shortlist = positions[bound[positions] > 0.0]
            top, scores, verified = pruned_topk(
                shortlist, bound[shortlist], layout.id_rank, k, verify
            )
            if stats is not None:
                stats.record_scoring(
                    len(shortlist), verified, verified < len(shortlist)
                )
        table_ids = layout.table_ids
        return ResultSet(
            ScoredTable(score, table_ids[position])
            for score, position in zip(scores.tolist(), top.tolist())
        )

    def search_batch(
        self,
        queries: Sequence[Query],
        k: Optional[int] = None,
        candidates: Optional[Sequence[Optional[Iterable[str]]]] = None,
        stats=None,
        batch_stats=None,
    ) -> List[ResultSet]:
        """Score a micro-batch with one stacked relevance pass.

        Every job stacks its query columns into a single relevance
        computation — one popcount sweep or ``einsum`` per segment —
        and ranks its own row slice at its own candidate positions
        (:meth:`_rank`), bit-identical to sequential :meth:`search`
        because a query's rows are untouched by the stacking.
        Identical ``(tuples, candidates)`` jobs are scored once.
        ``candidates`` entries are table ids or sorted table ordinals
        of the lake.  With a cut-off ``k`` every job is an
        early-terminating scan, and ``stats`` (a
        :class:`~repro.core.kernel.prefilter.PrefilterStats`), when
        given, receives one ``(shortlisted, verified, terminated)``
        record per scanned job.
        """
        jobs, fanout = self._jobs(queries, candidates, batch_stats)
        index = self._read_index()
        resolved = [ResultSet([]) for _ in jobs]
        encoded = [self._encode_query(query) for query, _ in jobs]
        if (k is not None and k < 1) or not any(encoded):
            return [resolved[slot] for slot in fanout]
        if not len(index):
            return [resolved[slot] for slot in fanout]
        layout = index.layout()
        relevance, table_columns = self._relevance(
            index, [column for columns in encoded for column in columns]
        )
        if not relevance.shape[1]:
            return [resolved[slot] for slot in fanout]
        col_offset = np.zeros(len(table_columns) + 1, dtype=np.int64)
        np.cumsum(table_columns, out=col_offset[1:])
        row = 0
        for slot, (_, cands) in enumerate(jobs):
            width = len(encoded[slot])
            positions = layout.positions(cands, linked_only=False)
            if width and len(positions):
                resolved[slot] = self._rank(
                    layout, relevance[row:row + width], width, positions,
                    table_columns, col_offset, k, stats,
                )
            row += width
        return [resolved[slot] for slot in fanout]
