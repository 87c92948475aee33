"""Vectorized union search: a compiled column-concept index + engine.

The scalar :class:`~repro.baselines.union_search.UnionTableSearch`
scores one table at a time: re-encode the query columns, build a dense
query-column x table-column similarity matrix in Python lists, and run
the Hungarian solver per table.  This module compiles the lake once
into a :class:`UnionCorpusIndex` — per-column dominant-type bitmaps for
the SANTOS-like ``types`` encoder, stacked mean column embeddings for
the Starmie-like ``embeddings`` encoder, plus the same table->column
``reduceat`` layout the entity kernel uses — and scores the *whole
lake* per query with one popcount Jaccard pass (types) or one matmul
cosine pass (embeddings), followed by a vectorized column assignment:
exact enumerated assignment for tables with at most ``MAX_ENUM_ROWS``
positively-scoring query columns (with the :data:`ASSIGNMENT_MARGIN`
near-tie check), Hungarian fallback otherwise.  A search with a cut-off
``k`` solves the assignment only for the tables it must: a
bound-ordered, early-terminating scan (the entity kernel's
:func:`~repro.core.kernel.engine.pruned_topk`) whose bound is each
table's best column per query row, so its ranking is the full pass
truncated to ``k``, bit for bit.

Parity contract: scores match the scalar baseline to <= 1e-9 and the
ranking is identical including ``(-score, table_id)`` tie-breaks.  For
the ``types`` encoder every operation is integer popcount arithmetic
followed by one int/int division, so scores are bit-identical; for
``embeddings`` the BLAS matmul may round the last bits differently
from the scalar dot product (~1e-16, far inside the budget).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.union_search import _query_columns, dominant_types
from repro.core.assignment import max_assignment
from repro.core.kernel.engine import (
    ASSIGNMENT_MARGIN,
    _concat_ranges,
    pruned_topk,
)
from repro.core.kernel.index import _popcount
from repro.core.query import Query
from repro.core.result import ResultSet, ScoredTable
from repro.core.search import aligned_candidates
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.embeddings.store import EmbeddingStore
from repro.exceptions import ConfigurationError
from repro.kg.graph import KnowledgeGraph
from repro.linking.mapping import EntityMapping

UNION_ENCODERS = ("types", "embeddings")

#: Exhaustive assignment enumeration covers groups with at most this
#: many positively-scoring query rows; beyond it (or past the element
#: budget) tables fall back to the scalar Hungarian solver.
MAX_ENUM_ROWS = 5

#: Upper bound on enumerated option-tensor elements per chunk
#: (float64: ~32 MB).  Groups are chunked to stay inside it.
ENUM_BUDGET = 4_000_000

#: Per-table enumeration ceiling: beyond this many option-tensor cells
#: a single Hungarian call on the table's block is cheaper than its
#: slice of the tensor, so the table falls back to the solver.
MAX_ENUM_ELEMENTS = 262_144

#: Conflict masks for the n-dimensional enumeration, keyed by
#: (rows, options): True where two non-null dimensions picked the same
#: real column.
_WIDE_CLASH_MASKS: Dict[Tuple[int, int], np.ndarray] = {}


def _wide_clash_mask(rows: int, options: int) -> np.ndarray:
    key = (rows, options)
    mask = _WIDE_CLASH_MASKS.get(key)
    if mask is None:
        if len(_WIDE_CLASH_MASKS) >= 32:
            _WIDE_CLASH_MASKS.clear()
        grids = np.indices((options,) * rows)
        null = options - 1
        mask = np.zeros((options,) * rows, dtype=bool)
        for i in range(rows):
            for j in range(i + 1, rows):
                mask |= (grids[i] == grids[j]) & (grids[i] != null)
        _WIDE_CLASH_MASKS[key] = mask
    return mask


class UnionCorpusIndex:
    """Immutable columnar encoding of every lake column.

    Layout (shared by both encoders)
    --------------------------------
    ``table_ids[t]``      table id of corpus position ``t``
    ``id_rank[t]``        rank of ``table_ids[t]`` in ascending id
                          order, so the ``(-score, table_id)`` ranking
                          is one numeric ``lexsort``
    ``table_columns[t]``  column count of table ``t`` (int64)
    ``col_offset``        ``len == num_tables + 1`` prefix sums; table
                          ``t`` owns global columns
                          ``[col_offset[t], col_offset[t+1])``

    ``types`` encoder: ``bitmaps`` is ``(total_columns, words)`` uint64
    with one bit per interned dominant type, ``sizes`` the per-column
    type-set cardinality — a query column scores the whole corpus with
    one ``popcount(bitmaps & query_bits)`` pass.

    ``embeddings`` encoder: ``vectors`` is ``(total_columns, dim)``
    float64 mean column embeddings (zero rows where a column has no
    linked entities), ``norms`` their L2 norms, ``valid`` the
    non-null mask — a query column scores the corpus with one matmul.

    Every row is a function of its own table's links only, so a
    mutation never looks at another table: :meth:`with_table` and
    :meth:`without_table` return a *new* index whose arrays are spliced
    from this one's (one memcpy of the per-column rows, and the id rank
    shifted around the one id that moved), and this instance is never
    written — a reader holding it keeps a consistent generation.
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
        id_rank: Optional[np.ndarray] = None,
    ):
        self.column_encoder = column_encoder
        self.table_ids = table_ids
        if id_rank is None:
            # Cold build only: derived generations pass theirs in.
            id_rank = np.empty(len(table_ids), dtype=np.int64)
            id_rank[
                sorted(range(len(table_ids)), key=table_ids.__getitem__)
            ] = np.arange(len(table_ids), dtype=np.int64)
        id_rank.setflags(write=False)
        self.id_rank = id_rank
        self.table_columns = table_columns
        self.col_offset = np.zeros(len(table_ids) + 1, dtype=np.int64)
        np.cumsum(table_columns, out=self.col_offset[1:])
        self.position_of = dict(zip(table_ids, range(len(table_ids))))
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

    def nbytes(self) -> int:
        total = 0
        for array in (self.bitmaps, self.sizes, self.vectors,
                      self.norms, self.valid):
            if array is not None:
                total += int(array.nbytes)
        return total

    # ------------------------------------------------------------------
    # O(delta) derivation
    # ------------------------------------------------------------------
    def without_table(self, table_id: str) -> "UnionCorpusIndex":
        """A new index with ``table_id``'s columns cut out.

        Interned type bits are kept (a stale bit matches no row), so
        ``bit_of`` is shared with this generation.  Unknown ids return
        ``self``.
        """
        position = self.position_of.get(table_id)
        if position is None:
            return self
        rows = slice(
            int(self.col_offset[position]),
            int(self.col_offset[position + 1]),
        )

        def cut(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if array is None else np.delete(array, rows, axis=0)

        id_rank = np.delete(self.id_rank, position)
        id_rank -= id_rank > self.id_rank[position]
        return UnionCorpusIndex(
            self.column_encoder,
            self.table_ids[:position] + self.table_ids[position + 1:],
            np.delete(self.table_columns, position),
            bit_of=self.bit_of,
            bitmaps=cut(self.bitmaps), sizes=cut(self.sizes),
            vectors=cut(self.vectors), norms=cut(self.norms),
            valid=cut(self.valid), id_rank=id_rank,
        )

    def with_table(
        self,
        table: Table,
        mapping: EntityMapping,
        graph: Optional[KnowledgeGraph] = None,
        store: Optional[EmbeddingStore] = None,
    ) -> "UnionCorpusIndex":
        """A new index with ``table`` encoded and appended last.

        A table already present under the same id is cut out first, so
        a re-add with different content replaces it.  Corpus position
        never reaches a score or a tie-break (rankings order by
        ``(-score, table_id)``), so appending is ranking-equivalent to
        the cold compile's lake order.
        """
        base = self.without_table(table.table_id)
        encoded = _encode_table_columns(
            table, mapping, graph, store, self.column_encoder
        )
        table_ids = base.table_ids + [table.table_id]
        table_columns = np.append(
            base.table_columns, np.int64(table.num_columns)
        )
        # The new id's rank is the count of smaller ids (one O(n)
        # comparison pass, no sort); every rank from it on moves up one.
        rank = sum(map(table.table_id.__gt__, base.table_ids))
        id_rank = np.append(base.id_rank + (base.id_rank >= rank), rank)
        if self.column_encoder == "types":
            bit_of = dict(base.bit_of)
            _intern_types(bit_of, encoded)
            bitmaps = base.bitmaps
            words = max(bitmaps.shape[1], _words_for(bit_of))
            if words > bitmaps.shape[1]:
                bitmaps = np.pad(
                    bitmaps, ((0, 0), (0, words - bitmaps.shape[1]))
                )
            rows, sizes = _pack_type_rows(encoded, bit_of, words)
            return UnionCorpusIndex(
                self.column_encoder, table_ids, table_columns,
                bit_of=bit_of,
                bitmaps=np.concatenate([bitmaps, rows]),
                sizes=np.concatenate([base.sizes, sizes]),
                id_rank=id_rank,
            )
        vectors, norms, valid = _stack_vector_rows(
            encoded, base.vectors.shape[1]
        )
        return UnionCorpusIndex(
            self.column_encoder, table_ids, table_columns,
            vectors=np.concatenate([base.vectors, vectors]),
            norms=np.concatenate([base.norms, norms]),
            valid=np.concatenate([base.valid, valid]),
            id_rank=id_rank,
        )


def _encode_table_columns(
    table: Table,
    mapping: EntityMapping,
    graph: Optional[KnowledgeGraph],
    store: Optional[EmbeddingStore],
    column_encoder: str,
) -> List:
    """One table's per-column concepts: type sets or mean vectors.

    The only per-table encoder: the cold :func:`compile_union_index`
    and the derive path (:meth:`UnionCorpusIndex.with_table`) both call
    it, so their rows agree by construction.  The table's linked cells
    are grouped by column in one pass; within a column the URIs keep
    the sorted-cell order ``store.mean_vector`` has always summed in.
    """
    by_column = mapping.entities_by_column(table.table_id)
    encoded: List = []
    for column in range(table.num_columns):
        uris = by_column.get(column, ())
        if column_encoder == "types":
            encoded.append(dominant_types(graph, uris))
        else:
            encoded.append(store.mean_vector(uris) if uris else None)
    return encoded


def _intern_types(
    bit_of: Dict[str, int], type_sets: Sequence[FrozenSet[str]]
) -> None:
    """Give every not-yet-seen type the next free bit, in place."""
    for types in type_sets:
        for name in sorted(types):
            if name not in bit_of:
                bit_of[name] = len(bit_of)


def _words_for(bit_of: Dict[str, int]) -> int:
    return max(1, (len(bit_of) + 63) // 64)


def _pack_type_rows(
    type_sets: Sequence[FrozenSet[str]], bit_of: Dict[str, int], words: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(bitmaps, sizes)`` rows for already-interned type sets."""
    bitmaps = np.zeros((len(type_sets), words), dtype=np.uint64)
    sizes = np.zeros(len(type_sets), dtype=np.int64)
    for row, types in enumerate(type_sets):
        sizes[row] = len(types)
        for name in types:
            bit = bit_of[name]
            bitmaps[row, bit >> 6] |= np.uint64(1 << (bit & 63))
    return bitmaps, sizes


def _stack_vector_rows(
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
    lake: DataLake,
    mapping: EntityMapping,
    graph: Optional[KnowledgeGraph] = None,
    store: Optional[EmbeddingStore] = None,
    column_encoder: str = "types",
) -> UnionCorpusIndex:
    """Cold build: encode every lake column once, in corpus order.

    Mutations never come back here — they derive the next generation
    from the live one (:meth:`UnionCorpusIndex.with_table` /
    :meth:`~UnionCorpusIndex.without_table`).
    """
    table_ids: List[str] = []
    widths: List[int] = []
    encoded: List = []
    for table in lake:
        table_ids.append(table.table_id)
        widths.append(table.num_columns)
        encoded.extend(_encode_table_columns(
            table, mapping, graph, store, column_encoder
        ))
    table_columns = np.asarray(widths, dtype=np.int64)
    if column_encoder == "types":
        bit_of: Dict[str, int] = {}
        _intern_types(bit_of, encoded)
        bitmaps, sizes = _pack_type_rows(
            encoded, bit_of, _words_for(bit_of)
        )
        return UnionCorpusIndex(
            column_encoder, table_ids, table_columns,
            bit_of=bit_of, bitmaps=bitmaps, sizes=sizes,
        )
    vectors, norms, valid = _stack_vector_rows(encoded, store.dimensions)
    return UnionCorpusIndex(
        column_encoder, table_ids, table_columns,
        vectors=vectors, norms=norms, valid=valid,
    )


def _pack_query_types(
    index: UnionCorpusIndex, types: FrozenSet[str]
) -> Tuple[np.ndarray, int]:
    bits = np.zeros(index.bitmaps.shape[1], dtype=np.uint64)
    for name in types:
        bit = index.bit_of.get(name)
        if bit is not None:
            bits[bit >> 6] |= np.uint64(1 << (bit & 63))
    return bits, len(types)


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
    sums zeros).  The remaining tables are grouped by which query rows
    have positive entries; groups with at most MAX_ENUM_ROWS positive
    rows — regardless of the full query width — are solved by
    exhaustive enumeration over a null-augmented option tensor; a table
    whose near-optimal totals (within ASSIGNMENT_MARGIN of the
    optimum) are not all bitwise equal — where enumeration and the
    Hungarian solver could pick equal-total assignments with different
    rounding — falls back to :func:`max_assignment` on its block, the
    very code path the scalar baseline runs.  Skipping non-positive query rows is exact because
    the scalar accumulator adds their 0.0 contribution in row order and
    ``x + 0.0 == x`` for every non-negative score.
    """
    width = int(relevance.shape[0])
    num_tables = len(table_columns)
    totals = np.zeros(num_tables, dtype=np.float64)
    total_columns = int(relevance.shape[1])
    if width == 0 or num_tables == 0 or total_columns == 0:
        return totals
    starts = np.minimum(col_offset[:-1], total_columns - 1)
    positive = _row_maxima(relevance, table_columns, col_offset) > 0.0
    need = positive.any(axis=0)
    if not bool(need.any()):
        return totals
    fallback: List[int] = []
    if width <= 62:  # int64 bit codes; wider queries all fall back
        weights = (
            np.int64(1) << np.arange(width, dtype=np.int64)
        )
        codes = positive.T.astype(np.int64) @ weights
        codes = np.where(need, codes, 0)
        for code in np.unique(codes):
            if code == 0:
                continue
            selection = np.nonzero(codes == code)[0]
            rows = np.nonzero(
                (int(code) >> np.arange(width, dtype=np.int64)) & 1
            )[0]
            # Enumeration keys on the *positive* row count of the
            # group, not the full query width: a wide query still
            # enumerates every table where at most MAX_ENUM_ROWS query
            # columns score positive (the zero rows add exact 0.0 in
            # the scalar accumulator, so skipping them is bit-exact).
            if len(rows) > MAX_ENUM_ROWS:
                fallback.extend(int(t) for t in selection)
                continue
            # The enumeration compacts each table to its positively-
            # scoring columns, so size gates key on that count, not the
            # table width.  reduceat needs int (bool add is OR), and
            # empty segments echo a neighbour — zero them.
            pos_any = (relevance[rows] > 0.0).any(axis=0)
            pos_counts = np.add.reduceat(
                pos_any.astype(np.int64), starts
            )
            pos_counts[table_columns == 0] = 0
            # Gate per table: one wide table must not drag the whole
            # group to the solver, and past MAX_ENUM_ELEMENTS cells a
            # single Hungarian call is cheaper than the tensor.
            lane_elements = (
                (pos_counts[selection] + 1).astype(np.float64)
                ** len(rows)
            )
            enumerable = lane_elements <= MAX_ENUM_ELEMENTS
            fallback.extend(int(t) for t in selection[~enumerable])
            selection = selection[enumerable]
            if not len(selection):
                continue
            # Sort by positive-column count so each chunk's tensor is
            # padded to a near-uniform option count, then chunk to keep
            # one tensor inside the element budget.  A chunk's tensor
            # is padded to its *widest* member, so the fit test
            # multiplies the running lane count by that member's
            # element count (monotone in both once sorted: first
            # failure ends the chunk).
            order = np.argsort(
                pos_counts[selection], kind="stable"
            )
            selection = selection[order]
            lane_elements = lane_elements[enumerable][order]
            cursor = 0
            while cursor < len(selection):
                remaining = lane_elements[cursor:]
                fits = (
                    np.arange(1, len(remaining) + 1) * remaining
                    <= ENUM_BUDGET
                )
                step = (
                    len(remaining) if bool(fits.all())
                    else max(1, int(np.argmin(fits)))
                )
                chunk = selection[cursor:cursor + step]
                cursor += step
                enum_totals, trusted = _enumerate_totals(
                    relevance, table_columns, col_offset, rows, chunk
                )
                totals[chunk] = np.where(trusted, enum_totals, 0.0)
                if not bool(trusted.all()):
                    fallback.extend(int(t) for t in chunk[~trusted])
    else:
        fallback = [int(t) for t in np.nonzero(need)[0]]
    for position in fallback:
        start = int(col_offset[position])
        stop = int(col_offset[position + 1])
        _, total = max_assignment(relevance[:, start:stop])
        totals[position] = total
    return totals


def _enumerate_totals(
    relevance: np.ndarray,
    table_columns: np.ndarray,
    col_offset: np.ndarray,
    rows: np.ndarray,
    selection: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exhaustive assignment totals for every selected table at once.

    Mirrors the entity kernel's enumeration: per table, each positive
    query row picks one option among the table's positively-scoring
    columns plus a conflict-exempt null slot worth +0.0, non-positive
    entries are demoted to ``-inf``, and repeated *real* columns are
    masked out.  Returns ``(totals, trusted)`` where ``trusted`` marks
    lanes whose near-optimal totals (within ASSIGNMENT_MARGIN) are all
    bitwise equal to the optimum.
    """
    columns = table_columns[selection]
    cmax = int(columns.max())
    total_columns = int(relevance.shape[1])
    gather = (
        col_offset[selection][:, None]
        + np.arange(cmax, dtype=np.int64)[None, :]
    )
    np.minimum(gather, total_columns - 1, out=gather)
    valid = np.arange(cmax, dtype=np.int64)[None, :] < columns[:, None]
    real = relevance[rows][:, gather]
    positive = valid[None, :, :] & (real > 0.0)
    # Compact each lane to its positively-scoring columns: non-positive
    # cells are ``-inf`` below either way (the optimum never takes
    # them; "unassigned" is the null slot), so only positive columns
    # need option slots and the tensor shrinks from (table columns)^d
    # to (positive columns)^d.  The stable argsort keeps original
    # column order, so equal compact indices still mean equal real
    # columns for the clash mask.
    lane_positive = positive.any(axis=0)
    counts = lane_positive.sum(axis=1)
    pmax = int(counts.max())
    order = np.argsort(~lane_positive, axis=1, kind="stable")[:, :pmax]
    real = np.take_along_axis(real, order[None, :, :], axis=2)
    positive = np.take_along_axis(positive, order[None, :, :], axis=2)
    keep = np.arange(pmax, dtype=np.int64)[None, :] < counts[:, None]
    options = pmax + 1
    blocks = np.concatenate(
        [
            np.where(positive & keep[None, :, :], real, -np.inf),
            np.zeros(
                (len(rows), len(selection), 1), dtype=np.float64
            ),
        ],
        axis=2,
    )
    lanes = np.arange(len(selection))
    depth = len(rows)
    if depth == 1:
        # A single positive row: the optimum is a plain max, no float
        # additions are involved, so ties cannot change the total —
        # every lane is trusted without the runner-up margin check.
        best = blocks[0].max(axis=1)
        return best, np.ones(len(selection), dtype=bool)
    # Build the (lanes, options, ..., options) total tensor one row at
    # a time — the additions happen in increasing row order, exactly
    # the order the scalar accumulator sums its chosen cells.
    accumulated = blocks[0].reshape(
        (len(selection), options) + (1,) * (depth - 1)
    )
    for position in range(1, depth):
        shape = [len(selection)] + [1] * depth
        shape[1 + position] = options
        accumulated = accumulated + blocks[position].reshape(shape)
    accumulated[:, _wide_clash_mask(depth, options)] = -np.inf
    flat = accumulated.reshape(len(selection), -1)
    best = flat.argmax(axis=1)
    best_totals = flat[lanes, best]
    # Trust a lane when every near-optimal total (within the margin of
    # the winner) is bitwise equal to the winner.  The scalar solver's
    # chosen assignment is mathematically optimal, so its row-order sum
    # is one of these near-optimal floats — if they are all the same
    # float, the solver's total is that float no matter which tied
    # assignment it picks.  A margin-clearing unique optimum is the
    # degenerate case (near set == {winner}).  Exact ties on type
    # Jaccard scores are common, so this keeps tied tables off the
    # per-table solver fallback.
    near = flat >= (best_totals - ASSIGNMENT_MARGIN)[:, None]
    min_near = np.where(near, flat, np.inf).min(axis=1)
    trusted = min_near == best_totals
    return best_totals, trusted


class VectorizedUnionSearchEngine:
    """Whole-lake union scoring with scalar-baseline parity.

    Drop-in for :class:`~repro.baselines.union_search.UnionTableSearch`
    ``search``: identical constructor validation, identical scores
    (<= 1e-9) and ranking, plus ``candidates`` restriction for shard
    scatter and :meth:`search_batch` lane stacking for the micro-batch
    serve path.  The compiled index is built lazily on first use and
    from then on derived per mutation (:meth:`invalidate_table`); serve
    snapshot clones adopt the live generation's instance by reference.
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
        self.lake = lake
        self.mapping = mapping
        self.graph = graph
        self.store = store
        self.column_encoder = column_encoder
        self._lock = threading.RLock()
        self._compiled: Optional[UnionCorpusIndex] = None  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    def index(self) -> UnionCorpusIndex:
        # Double-checked build: racy first read, build under the lock.
        compiled = self._compiled  # lint: disable=guarded-attr-outside-lock
        if compiled is None:
            with self._lock:
                if self._compiled is None:
                    self._compiled = compile_union_index(
                        self.lake,
                        self.mapping,
                        graph=self.graph,
                        store=self.store,
                        column_encoder=self.column_encoder,
                    )
                compiled = self._compiled
        return compiled

    def invalidate_table(self, table_id: str) -> None:
        """Apply one table's change to the index in O(delta).

        Mirrors the entity kernel's hook: a table (still) in the lake
        is re-encoded and spliced in, a table that left the lake is cut
        out; the other tables' rows are copied, never re-encoded.  A
        never-built index stays unbuilt (nothing to update).
        """
        with self._lock:
            index = self._compiled
            if index is None:
                return
            table = self.lake.find(table_id)
            if table is not None:
                index = index.with_table(
                    table, self.mapping, graph=self.graph, store=self.store
                )
            else:
                index = index.without_table(table_id)
            self._compiled = index

    def export_index(self) -> Optional[UnionCorpusIndex]:
        """The current index instance, or ``None`` when not yet built."""
        # Intentionally racy read: instances are immutable; a stale
        # reference is simply the previous (still valid) generation.
        return self._compiled  # lint: disable=guarded-attr-outside-lock

    def adopt_index(self, index: UnionCorpusIndex) -> None:
        """Adopt another engine's index by reference.

        Serving snapshot clones share the live generation's index this
        way; it is never written, so the source keeps serving from it
        while this engine derives its successor.
        """
        with self._lock:
            self._compiled = index

    def prepare(self) -> None:
        """Build the index now if it never was (server warm-up)."""
        self.index()

    def warm(self) -> None:
        self.prepare()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _encode_query(self, query: Query):
        columns = _query_columns(query)
        if self.column_encoder == "types":
            return [dominant_types(self.graph, column) for column in columns]
        return [self.store.mean_vector(column) for column in columns]

    def _relevance(
        self,
        index: UnionCorpusIndex,
        encoded_columns: Sequence,
        column_selection: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Dense (num_encoded, num_selected_columns) similarity matrix."""
        if index.column_encoder == "types":
            bitmaps = index.bitmaps
            sizes = index.sizes
            if column_selection is not None:
                bitmaps = bitmaps[column_selection]
                sizes = sizes[column_selection]
            relevance = np.zeros(
                (len(encoded_columns), bitmaps.shape[0]), dtype=np.float64
            )
            for row, types in enumerate(encoded_columns):
                if not types:
                    continue
                bits, query_size = _pack_query_types(index, types)
                intersection = (
                    _popcount(bitmaps & bits[None, :])
                    .sum(axis=1)
                    .astype(np.int64)
                )
                union = query_size + sizes - intersection
                np.divide(
                    intersection,
                    union,
                    out=relevance[row],
                    where=intersection > 0,
                    casting="unsafe",
                )
            return relevance
        vectors = index.vectors
        norms = index.norms
        valid = index.valid
        if column_selection is not None:
            vectors = vectors[column_selection]
            norms = norms[column_selection]
            valid = valid[column_selection]
        width = len(encoded_columns)
        stacked = np.zeros((width, vectors.shape[1]), dtype=np.float64)
        query_norms = np.zeros(width, dtype=np.float64)
        query_valid = np.zeros(width, dtype=bool)
        for row, vector in enumerate(encoded_columns):
            if vector is None:
                continue
            stacked[row] = np.asarray(vector, dtype=np.float64)
            query_norms[row] = float(np.linalg.norm(stacked[row]))
            query_valid[row] = True
        dots = stacked @ vectors.T
        denominator = query_norms[:, None] * norms[None, :]
        usable = (
            query_valid[:, None] & valid[None, :] & (denominator != 0.0)
        )
        relevance = np.zeros_like(dots)
        np.divide(dots, denominator, out=relevance, where=usable)
        np.maximum(relevance, 0.0, out=relevance)
        return relevance

    def _rank(
        self,
        index: UnionCorpusIndex,
        relevance: np.ndarray,
        width: int,
        positions: Optional[np.ndarray],
        table_columns: np.ndarray,
        col_offset: np.ndarray,
        k: Optional[int],
        stats=None,
    ) -> ResultSet:
        """One job's ranking over a (sub-)layout of the index.

        ``positions`` maps the layout's tables to index positions
        (``None``: the layout is the whole index).  ``k=None`` solves
        the assignment for every table — the reference the scan is
        checked against.  With a cut-off the job is a
        :func:`~repro.core.kernel.engine.pruned_topk` scan: a table's
        row maxima, summed over the query rows and divided by the same
        normalizer, bound any one-to-one assignment's score, and a
        verify chunk runs :func:`_assignment_totals` on its own tables'
        columns — bit-identical per table, because each table's
        enumeration lane and solver fallback are its own.
        """
        # Elementwise float64 / int64 is the same IEEE division the
        # scalar baseline's per-table ``total / normalizer`` performs.
        normalizer = np.maximum(np.int64(width), table_columns)
        if k is None:
            scores = _assignment_totals(
                relevance, table_columns, col_offset
            ) / normalizer
            top = np.flatnonzero(scores > 0.0)
            scores = scores[top]
        else:
            bound = _row_maxima(
                relevance, table_columns, col_offset
            ).sum(axis=0) / normalizer
            # A zero bound means no positive relevance: the table
            # scores exactly 0.0 and is never returned.
            shortlist = np.flatnonzero(bound > 0.0)

            def verify(chunk: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
                widths = table_columns[chunk]
                offset = np.zeros(len(chunk) + 1, dtype=np.int64)
                np.cumsum(widths, out=offset[1:])
                score = _assignment_totals(
                    relevance[:, _concat_ranges(col_offset[chunk], widths)],
                    widths, offset,
                ) / normalizer[chunk]
                return score, score > 0.0

            top, scores, verified = pruned_topk(
                shortlist, bound[shortlist],
                index.id_rank if positions is None
                else index.id_rank[positions],
                k, verify,
            )
            if stats is not None:
                stats.record_scoring(
                    len(shortlist), verified, verified < len(shortlist)
                )
        if positions is not None:
            top = positions[top]
        table_ids = index.table_ids
        return ResultSet(
            ScoredTable(score, table_ids[position])
            for score, position in zip(scores.tolist(), top.tolist())
        )

    def _selection_layout(
        self,
        index: UnionCorpusIndex,
        candidates: Iterable[str],
    ):
        """Resolve a candidate restriction to a contiguous sub-layout.

        Returns ``(positions, column_selection, table_columns,
        col_offset)``.
        """
        positions = np.asarray(
            sorted(
                {
                    index.position_of[table_id]
                    for table_id in candidates
                    if table_id in index.position_of
                }
            ),
            dtype=np.int64,
        )
        table_columns = index.table_columns[positions]
        col_offset = np.zeros(len(positions) + 1, dtype=np.int64)
        np.cumsum(table_columns, out=col_offset[1:])
        column_selection = _concat_ranges(
            index.col_offset[positions], table_columns
        )
        return positions, column_selection, table_columns, col_offset

    def search(
        self,
        query: Query,
        k: Optional[int] = None,
        candidates: Optional[Iterable[str]] = None,
    ) -> ResultSet:
        """Rank tables by unionability; parity with the scalar baseline."""
        return self.search_batch([query], k=k, candidates=[candidates])[0]

    def search_batch(
        self,
        queries: Sequence[Query],
        k: Optional[int] = None,
        candidates: Optional[Sequence[Optional[Iterable[str]]]] = None,
        stats=None,
        batch_stats=None,
    ) -> List[ResultSet]:
        """Score a micro-batch, one stacked relevance pass per restriction.

        Jobs sharing a candidate restriction (every whole-lake job;
        every job of a cluster shard) stack their query columns into a
        single relevance computation — one matmul / one popcount sweep
        per stacked column — and each job ranks its own row slice
        (:meth:`_rank`), bit-identical to sequential :meth:`search`
        because a query's rows are untouched by the stacking.
        Identical ``(tuples, candidates)`` jobs are scored once.  With
        a cut-off ``k`` every job is an early-terminating scan, and
        ``stats`` (a :class:`~repro.core.kernel.prefilter.
        PrefilterStats`), when given, receives one ``(shortlisted,
        verified, terminated)`` record per scanned job.
        """
        queries = list(queries)
        cand_lists = aligned_candidates(queries, candidates)
        if not queries:
            return []
        job_of: Dict[Tuple, int] = {}
        jobs: List[Tuple[Query, Optional[Tuple[str, ...]]]] = []
        fanout: List[int] = []
        for query, cands in zip(queries, cand_lists):
            key = (
                query.tuples,
                None if cands is None else tuple(dict.fromkeys(cands)),
            )
            slot = job_of.get(key)
            if slot is None:
                slot = len(jobs)
                job_of[key] = slot
                jobs.append((query, key[1]))
            fanout.append(slot)
        if batch_stats is not None:
            batch_stats.record_batched(len(queries), len(jobs))
        resolved = [ResultSet([]) for _ in jobs]
        if k is not None and k < 1:
            return [resolved[slot] for slot in fanout]
        index = self.index()
        groups: Dict[Optional[Tuple[str, ...]], List[Tuple[int, List]]] = {}
        for slot, (query, cands) in enumerate(jobs):
            encoded = self._encode_query(query)
            if encoded and index.num_tables:
                groups.setdefault(cands, []).append((slot, encoded))
        for cands, members in groups.items():
            if cands is None:
                positions = column_selection = None
                table_columns, col_offset = (
                    index.table_columns, index.col_offset
                )
            else:
                positions, column_selection, table_columns, col_offset = (
                    self._selection_layout(index, cands)
                )
                if not len(positions):
                    continue
            relevance = self._relevance(
                index,
                [column for _, encoded in members for column in encoded],
                column_selection,
            )
            row = 0
            for slot, encoded in members:
                resolved[slot] = self._rank(
                    index, relevance[row:row + len(encoded)], len(encoded),
                    positions, table_columns, col_offset, k, stats,
                )
                row += len(encoded)
        return [resolved[slot] for slot in fanout]
