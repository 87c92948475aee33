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
from repro.exceptions import ConfigurationError
from repro.kg.graph import KnowledgeGraph


class JoinCorpusIndex:
    """Read-only interned value postings over the lake's columns.

    Layout
    ------
    ``vocab``           sorted unique normalized values (numpy unicode)
    ``post_offset``     ``len == len(vocab) + 1`` CSR offsets
    ``post_cols``       global column positions, grouped by value id
    ``col_table[c]``    owning table position of global column ``c``
    ``col_sizes[c]``    value-set cardinality of column ``c``
    ``table_ids[t]``    table id of position ``t``

    Columns whose value sets are empty still occupy a position (sizes
    0, no postings) so column numbering matches the lake.
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
        self.position_of = {tid: t for t, tid in enumerate(table_ids)}
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


def compile_join_index(
    lake: DataLake, fold_numeric: bool = False
) -> JoinCorpusIndex:
    """Intern every normalized cell value and build the CSR postings."""
    table_ids: List[str] = []
    col_table: List[int] = []
    value_sets: List[FrozenSet[str]] = []
    for position, table in enumerate(lake):
        table_ids.append(table.table_id)
        for column in range(table.num_columns):
            values = frozenset(
                v
                for v in (
                    normalize_cell(cell, fold_numeric)
                    for cell in table.column(column)
                )
                if v is not None
            )
            col_table.append(position)
            value_sets.append(values)
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
    ids = np.searchsorted(index.vocab, values)
    in_range = ids < len(index.vocab)
    hits = np.zeros(len(values), dtype=bool)
    hits[in_range] = index.vocab[ids[in_range]] == values[in_range]
    return ids[hits].astype(np.int64)


class VectorizedJoinSearchEngine:
    """Whole-lake joinability scoring with scalar-baseline parity.

    Drop-in for :class:`~repro.baselines.join_search.JoinTableSearch`
    ``search``: identical scores (bit-exact — every score is the same
    int/int division) and ranking, plus ``candidates`` restriction for
    shard scatter and :meth:`search_batch` lane stacking.  The postings
    index is built lazily, invalidated whole on mutation, and rebuilt
    by :meth:`prepare` off the serve request path.
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

    def invalidate(self) -> None:
        """Drop the compiled postings; the next search recompiles."""
        with self._lock:
            self._compiled = None

    def invalidate_table(self, table_id: str) -> None:
        """Mutation hook: the interned vocabulary is corpus-global, so
        the whole index is dropped and rebuilt off the request path."""
        del table_id
        self.invalidate()

    def prepare(self) -> None:
        """Force the compile now (warm path / snapshot swap)."""
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
            ids = np.searchsorted(index.vocab, stacked)
            in_range = ids < len(index.vocab)
            hits = np.zeros(len(stacked), dtype=bool)
            if len(index.vocab):
                hits[in_range] = (
                    index.vocab[ids[in_range]] == stacked[in_range]
                )
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
