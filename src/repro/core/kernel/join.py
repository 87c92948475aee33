"""Vectorized join search: interned value postings + one-pass scoring.

The scalar :class:`~repro.baselines.join_search.JoinTableSearch` keeps
dict postings of ``value -> {(table, column)}`` and loops candidate
columns in Python.  This module compiles the lake into a
:class:`JoinCorpusIndex`: every normalized cell value is interned into
a sorted string vocabulary (int32 value ids), and a CSR posting array
maps each value id to the global column positions containing it.  A
query column then scores *all* candidate columns in one pass:
``searchsorted`` to resolve its values, one gather of the hit values'
postings, one ``bincount`` for per-column intersection sizes, and one
division for containment (``|q & t| / |q|``) or Jaccard
(``|q & t| / |q u t|``).  Only columns sharing at least one value with
the query are ever touched — the posting-driven shortlist the scalar
baseline's candidate set provides, without the Python loops.

Cell canonicalization is shared with the scalar baseline
(:func:`repro.baselines.join_search.normalize_cell`), including the
opt-in ``fold_numeric`` folding, so both paths intern identical value
sets — every score is an int/int division over identical integers and
parity is bit-exact.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.join_search import (
    JOIN_MODES,
    normalize_cell,
    query_value_sets,
)
from repro.core.kernel.engine import _concat_ranges
from repro.core.query import Query
from repro.core.result import ResultSet
from repro.core.search import aligned_candidates
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.exceptions import ConfigurationError
from repro.kg.graph import KnowledgeGraph


class JoinCorpusIndex:
    """Immutable interned value postings over the lake's columns.

    Layout
    ------
    ``vocab``           sorted unique normalized values (numpy unicode)
    ``post_offset``     ``len == len(vocab) + 1`` CSR offsets
    ``post_cols``       global column positions, grouped by value id
    ``col_table[c]``    owning table position of global column ``c``
    ``col_sizes[c]``    value-set cardinality of column ``c``
    ``table_ids[t]``    table id of position ``t``

    Columns whose value sets are empty still occupy a position (sizes
    0, no postings) so column numbering matches the lake.  A table's
    columns are contiguous and ``col_table`` is non-decreasing.

    A posting is a function of one column's value set, so a mutation
    never looks at another table: :meth:`with_table` and
    :meth:`without_table` return a *new* index spliced from this one's
    arrays (one memcpy each, all numpy), and this instance is never
    written — a reader holding it keeps a consistent generation.
    """

    def __init__(
        self,
        table_ids: List[str],
        col_table: np.ndarray,
        col_sizes: np.ndarray,
        vocab: np.ndarray,
        post_offset: np.ndarray,
        post_cols: np.ndarray,
        fold_numeric: bool,
    ):
        self.table_ids = table_ids
        self.ids_array = np.asarray(table_ids, dtype=np.str_)
        self.position_of = dict(zip(table_ids, range(len(table_ids))))
        self.col_table = col_table
        self.col_sizes = col_sizes
        self.vocab = vocab
        self.post_offset = post_offset
        self.post_lengths = np.diff(post_offset)
        self.post_cols = post_cols
        self.fold_numeric = fold_numeric

    @property
    def num_tables(self) -> int:
        return len(self.table_ids)

    @property
    def num_columns(self) -> int:
        return len(self.col_table)

    def nbytes(self) -> int:
        return int(
            self.col_table.nbytes
            + self.col_sizes.nbytes
            + self.vocab.nbytes
            + self.post_offset.nbytes
            + self.post_cols.nbytes
        )

    # ------------------------------------------------------------------
    # O(delta) derivation
    # ------------------------------------------------------------------
    def without_table(self, table_id: str) -> "JoinCorpusIndex":
        """A new index without ``table_id``'s columns and postings.

        Later columns are renumbered down and values whose posting
        list emptied leave the vocabulary.  Unknown ids return
        ``self``.
        """
        position = self.position_of.get(table_id)
        if position is None:
            return self
        first = int(np.searchsorted(self.col_table, position, side="left"))
        last = int(np.searchsorted(self.col_table, position, side="right"))
        dropped = np.flatnonzero(
            (self.post_cols >= first) & (self.post_cols < last)
        )
        post_cols = np.delete(self.post_cols, dropped)
        post_cols[post_cols >= last] -= last - first
        # The value id owning posting slot p is the last offset <= p.
        dropped_values = (
            np.searchsorted(self.post_offset, dropped, side="right") - 1
        )
        lengths = self.post_lengths - np.bincount(
            dropped_values, minlength=len(self.vocab)
        )
        alive = lengths > 0
        post_offset = np.zeros(int(alive.sum()) + 1, dtype=np.int64)
        np.cumsum(lengths[alive], out=post_offset[1:])
        return JoinCorpusIndex(
            table_ids=(
                self.table_ids[:position] + self.table_ids[position + 1:]
            ),
            col_table=np.concatenate(
                [self.col_table[:first], self.col_table[last:] - 1]
            ),
            col_sizes=np.delete(self.col_sizes, slice(first, last)),
            vocab=self.vocab[alive],
            post_offset=post_offset,
            post_cols=post_cols,
            fold_numeric=self.fold_numeric,
        )

    def with_table(self, table: Table) -> "JoinCorpusIndex":
        """A new index with ``table``'s columns appended last.

        A table already present under the same id is cut out first, so
        a re-add with different content replaces it.  The table's new
        values are merged into the sorted vocabulary and its postings
        inserted at the end of each value's CSR range.
        """
        base = self.without_table(table.table_id)
        value_sets = _table_value_sets(table, self.fold_numeric)
        first = base.num_columns
        columns = np.arange(first, first + len(value_sets), dtype=np.int32)
        col_sizes = np.asarray(
            [len(values) for values in value_sets], dtype=np.int64
        )
        values = np.asarray(
            [v for values in value_sets for v in values], dtype=np.str_
        )
        posting_cols = np.repeat(columns, col_sizes)
        fresh = np.unique(values)
        # A fixed-width unicode array silently truncates longer
        # strings on insert; widen to the longest value first.
        vocab = base.vocab.astype(
            np.result_type(base.vocab, fresh), copy=False
        )
        slots, known = _lookup(vocab, fresh)
        slots, fresh = slots[~known], fresh[~known]
        vocab = np.insert(vocab, slots, fresh)
        # Old posting counts laid out on the merged value ids; their
        # running sum is, per value, where its old range ends in
        # ``base.post_cols`` — the insertion point for its new postings
        # (for a fresh value: the end of its predecessor's range).
        lengths = np.zeros(len(vocab), dtype=np.int64)
        is_fresh = np.zeros(len(vocab), dtype=bool)
        is_fresh[slots + np.arange(len(fresh))] = True
        lengths[~is_fresh] = base.post_lengths
        old_end = np.cumsum(lengths)
        value_ids = np.searchsorted(vocab, values)
        order = np.lexsort((posting_cols, value_ids))
        post_cols = np.insert(
            base.post_cols, old_end[value_ids[order]], posting_cols[order]
        )
        lengths += np.bincount(value_ids, minlength=len(vocab))
        post_offset = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(lengths, out=post_offset[1:])
        return JoinCorpusIndex(
            table_ids=base.table_ids + [table.table_id],
            col_table=np.concatenate([
                base.col_table,
                np.full(len(value_sets), base.num_tables, dtype=np.int64),
            ]),
            col_sizes=np.concatenate([base.col_sizes, col_sizes]),
            vocab=vocab,
            post_offset=post_offset,
            post_cols=post_cols,
            fold_numeric=self.fold_numeric,
        )


def _table_value_sets(
    table: Table, fold_numeric: bool
) -> List[FrozenSet[str]]:
    """One table's normalized value set per column.

    The only per-table encoder: the cold :func:`compile_join_index`
    and the derive path (:meth:`JoinCorpusIndex.with_table`) both call
    it, so their postings agree by construction.
    """
    return [
        frozenset(
            v
            for v in (
                normalize_cell(cell, fold_numeric)
                for cell in table.column(column)
            )
            if v is not None
        )
        for column in range(table.num_columns)
    ]


def compile_join_index(
    lake: DataLake, fold_numeric: bool = False
) -> JoinCorpusIndex:
    """Cold build: intern every cell value and build the CSR postings.

    Mutations never come back here — they derive the next generation
    from the live one (:meth:`JoinCorpusIndex.with_table` /
    :meth:`~JoinCorpusIndex.without_table`).
    """
    table_ids: List[str] = []
    col_table: List[int] = []
    value_sets: List[FrozenSet[str]] = []
    for position, table in enumerate(lake):
        table_ids.append(table.table_id)
        table_sets = _table_value_sets(table, fold_numeric)
        col_table.extend([position] * len(table_sets))
        value_sets.extend(table_sets)
    vocabulary = sorted(set().union(*value_sets)) if value_sets else []
    id_of = {value: i for i, value in enumerate(vocabulary)}
    col_sizes = np.asarray(
        [len(values) for values in value_sets], dtype=np.int64
    )
    value_ids: List[int] = []
    posting_cols: List[int] = []
    for column, values in enumerate(value_sets):
        for value in values:
            value_ids.append(id_of[value])
            posting_cols.append(column)
    ids = np.asarray(value_ids, dtype=np.int64)
    cols = np.asarray(posting_cols, dtype=np.int32)
    order = np.argsort(ids, kind="stable")
    post_cols = cols[order]
    counts = np.bincount(ids, minlength=len(vocabulary))
    post_offset = np.zeros(len(vocabulary) + 1, dtype=np.int64)
    np.cumsum(counts, out=post_offset[1:])
    return JoinCorpusIndex(
        table_ids=table_ids,
        col_table=np.asarray(col_table, dtype=np.int64),
        col_sizes=col_sizes,
        vocab=np.asarray(vocabulary, dtype=np.str_),
        post_offset=post_offset,
        post_cols=post_cols,
        fold_numeric=fold_numeric,
    )


def _resolve_value_ids(
    index: JoinCorpusIndex, values: np.ndarray
) -> np.ndarray:
    """Map query values onto vocab ids, dropping out-of-vocab values."""
    if len(index.vocab) == 0 or len(values) == 0:
        return np.zeros(0, dtype=np.int64)
    ids, hits = _lookup(index.vocab, values)
    return ids[hits].astype(np.int64)


def _lookup(
    vocab: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(slots, hits)``: each value's sorted slot in ``vocab`` and
    whether the vocabulary holds it there."""
    slots = np.searchsorted(vocab, values)
    in_range = slots < len(vocab)
    hits = np.zeros(len(values), dtype=bool)
    hits[in_range] = vocab[slots[in_range]] == values[in_range]
    return slots, hits


class VectorizedJoinSearchEngine:
    """Whole-lake joinability scoring with scalar-baseline parity.

    Drop-in for :class:`~repro.baselines.join_search.JoinTableSearch`
    ``search``: identical scores (bit-exact — every score is the same
    int/int division) and ranking, plus ``candidates`` restriction for
    shard scatter and :meth:`search_batch` lane stacking.  The postings
    index is built lazily on first use and from then on derived per
    mutation (:meth:`invalidate_table`); serve snapshot clones adopt
    the live generation's instance by reference.
    """

    def __init__(
        self,
        lake: DataLake,
        graph: KnowledgeGraph,
        mode: str = "containment",
        fold_numeric: bool = False,
    ):
        if mode not in JOIN_MODES:
            raise ConfigurationError(f"unknown join mode: {mode!r}")
        if graph is None:
            raise ConfigurationError("join search requires a graph")
        self.lake = lake
        self.graph = graph
        self.mode = mode
        self.fold_numeric = fold_numeric
        self._lock = threading.RLock()
        self._compiled: Optional[JoinCorpusIndex] = None  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    def index(self) -> JoinCorpusIndex:
        # Double-checked build: racy first read, build under the lock.
        compiled = self._compiled  # lint: disable=guarded-attr-outside-lock
        if compiled is None:
            with self._lock:
                if self._compiled is None:
                    self._compiled = compile_join_index(
                        self.lake, self.fold_numeric
                    )
                compiled = self._compiled
        return compiled

    def invalidate_table(self, table_id: str) -> None:
        """Apply one table's change to the postings in O(delta).

        Mirrors the entity kernel's hook: a table (still) in the lake
        has its values merged in, a table that left the lake has its
        postings cut out; no other table's cells are re-read.  A
        never-built index stays unbuilt (nothing to update).
        """
        with self._lock:
            index = self._compiled
            if index is None:
                return
            table = self.lake.find(table_id)
            if table is not None:
                index = index.with_table(table)
            else:
                index = index.without_table(table_id)
            self._compiled = index

    def export_index(self) -> Optional[JoinCorpusIndex]:
        """The current index instance, or ``None`` when not yet built."""
        # Intentionally racy read: instances are immutable; a stale
        # reference is simply the previous (still valid) generation.
        return self._compiled  # lint: disable=guarded-attr-outside-lock

    def adopt_index(self, index: JoinCorpusIndex) -> None:
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
    def _column_scores(
        self, index: JoinCorpusIndex, query_column: FrozenSet[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(candidate columns, their scores) for one query column."""
        values = np.asarray(sorted(query_column), dtype=np.str_)
        ids = _resolve_value_ids(index, values)
        if len(ids) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0, dtype=np.float64)
        positions = _concat_ranges(
            index.post_offset[ids], index.post_lengths[ids]
        )
        intersections = np.bincount(
            index.post_cols[positions], minlength=index.num_columns
        )
        candidates = np.nonzero(intersections)[0]
        overlap = intersections[candidates]
        query_size = len(query_column)
        if self.mode == "jaccard":
            union = query_size + index.col_sizes[candidates] - overlap
            scores = overlap / union
        else:
            scores = overlap / query_size
        return candidates, scores.astype(np.float64, copy=False)

    def _collect(
        self,
        index: JoinCorpusIndex,
        column_best: np.ndarray,
        candidates: Optional[Iterable[str]],
        k: Optional[int],
    ) -> ResultSet:
        """Fold per-column bests into per-table results."""
        hit_columns = np.nonzero(column_best > 0.0)[0]
        table_best = np.zeros(index.num_tables, dtype=np.float64)
        np.maximum.at(
            table_best, index.col_table[hit_columns],
            column_best[hit_columns],
        )
        if candidates is not None:
            keep = np.zeros(index.num_tables, dtype=bool)
            for table_id in candidates:
                position = index.position_of.get(table_id)
                if position is not None:
                    keep[position] = True
            table_best[~keep] = 0.0
        return ResultSet.from_arrays(table_best, index.ids_array, k)

    def search(
        self,
        query: Query,
        k: Optional[int] = None,
        candidates: Optional[Iterable[str]] = None,
    ) -> ResultSet:
        """Rank tables by their best query-column overlap."""
        index = self.index()
        query_columns = [
            c
            for c in query_value_sets(query, self.graph, self.fold_numeric)
            if c
        ]
        if not query_columns or index.num_columns == 0:
            return ResultSet([])
        column_best = np.zeros(index.num_columns, dtype=np.float64)
        for query_column in query_columns:
            hit, scores = self._column_scores(index, query_column)
            if len(hit):
                np.maximum.at(column_best, hit, scores)
        return self._collect(index, column_best, candidates, k)

    def search_batch(
        self,
        queries: Sequence[Query],
        k: Optional[int] = None,
        candidates: Optional[Sequence[Optional[Iterable[str]]]] = None,
        batch_stats=None,
    ) -> List[ResultSet]:
        """Score a micro-batch with one stacked postings pass.

        All distinct queries' column value sets are concatenated into
        one ``searchsorted`` + one postings gather + one segmented
        ``bincount``; per-query folding then reads its own segment
        rows, so results are bit-identical to sequential
        :meth:`search`.  Identical ``(tuples, candidates)`` jobs are
        scored once.
        """
        queries = list(queries)
        cand_lists = aligned_candidates(queries, candidates)
        if not queries:
            return []
        index = self.index()
        job_of: Dict[Tuple, int] = {}
        jobs: List[Tuple[Query, Optional[List[str]]]] = []
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
                jobs.append((query, cands))
            fanout.append(slot)
        if batch_stats is not None:
            batch_stats.record_batched(len(queries), len(jobs))
        # One stacked pass: segment s is one (job, query column) lane.
        job_columns: List[List[FrozenSet[str]]] = [
            [
                c
                for c in query_value_sets(
                    query, self.graph, self.fold_numeric
                )
                if c
            ]
            for query, _ in jobs
        ]
        segment_sets: List[FrozenSet[str]] = []
        segment_range: List[Tuple[int, int]] = []
        for columns in job_columns:
            start = len(segment_sets)
            segment_sets.extend(columns)
            segment_range.append((start, len(segment_sets)))
        resolved: List[ResultSet] = []
        if segment_sets and index.num_columns:
            value_arrays = [
                np.asarray(sorted(column), dtype=np.str_)
                for column in segment_sets
            ]
            lengths = np.asarray(
                [len(a) for a in value_arrays], dtype=np.int64
            )
            stacked = (
                np.concatenate(value_arrays)
                if len(value_arrays)
                else np.zeros(0, dtype=np.str_)
            )
            segment_of = np.repeat(
                np.arange(len(value_arrays), dtype=np.int64), lengths
            )
            ids, hits = _lookup(index.vocab, stacked)
            ids = ids[hits].astype(np.int64)
            hit_segments = segment_of[hits]
            positions = _concat_ranges(
                index.post_offset[ids], index.post_lengths[ids]
            )
            posting_segments = np.repeat(
                hit_segments, index.post_lengths[ids]
            )
            flat = (
                posting_segments * np.int64(index.num_columns)
                + index.post_cols[positions]
            )
            intersections = np.bincount(
                flat,
                minlength=len(segment_sets) * index.num_columns,
            ).reshape(len(segment_sets), index.num_columns)
        else:
            intersections = np.zeros(
                (len(segment_sets), max(1, index.num_columns)),
                dtype=np.int64,
            )
        for (query, cands), columns, (start, stop) in zip(
            jobs, job_columns, segment_range
        ):
            if not columns or index.num_columns == 0:
                resolved.append(ResultSet([]))
                continue
            column_best = np.zeros(index.num_columns, dtype=np.float64)
            for lane, query_column in zip(range(start, stop), columns):
                overlap_row = intersections[lane]
                hit = np.nonzero(overlap_row)[0]
                if not len(hit):
                    continue
                overlap = overlap_row[hit]
                query_size = len(query_column)
                if self.mode == "jaccard":
                    union = (
                        query_size + index.col_sizes[hit] - overlap
                    )
                    scores = overlap / union
                else:
                    scores = overlap / query_size
                np.maximum.at(
                    column_best, hit,
                    scores.astype(np.float64, copy=False),
                )
            resolved.append(self._collect(index, column_best, cands, k))
        return [resolved[slot] for slot in fanout]
