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

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.join_search import (
    JOIN_MODES,
    normalize_cell,
    query_value_sets,
)
from repro.core.kernel.engine import _concat_ranges
from repro.core.kernel.segments import SegmentedEngine
from repro.core.query import Query
from repro.core.result import ResultSet
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.exceptions import ConfigurationError
from repro.kg.graph import KnowledgeGraph


class JoinCorpusIndex:
    """One immutable segment: interned value postings over its columns.

    Layout
    ------
    ``vocab``           sorted unique normalized values (numpy unicode)
    ``post_offset``     ``len == len(vocab) + 1`` CSR offsets
    ``post_cols``       segment column positions, grouped by value id
    ``col_table[c]``    owning table position of segment column ``c``
    ``col_sizes[c]``    value-set cardinality of column ``c``
    ``table_ids[t]``    table id of position ``t``

    Columns whose value sets are empty still occupy a position (sizes
    0, no postings) so column numbering matches the tables.  A table's
    columns are contiguous and ``col_table`` is non-decreasing.

    A posting is a function of one column's value set and a score of
    one column's overlap with one query column, so a segment's scores
    are final: a mutation compiles a one-table segment and the
    container shares the rest.
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

    @property
    def has_links(self) -> np.ndarray:
        """Per table, whether any column holds a value to join on."""
        return np.bincount(
            self.col_table[self.col_sizes > 0], minlength=self.num_tables
        ) > 0

    def nbytes(self) -> int:
        return int(
            self.col_table.nbytes
            + self.col_sizes.nbytes
            + self.vocab.nbytes
            + self.post_offset.nbytes
            + self.post_cols.nbytes
        )

    def table_best(
        self,
        values: np.ndarray,
        value_lane: np.ndarray,
        lane_sizes: np.ndarray,
        lane_job: np.ndarray,
        jobs: int,
        jaccard: bool,
    ) -> np.ndarray:
        """``(jobs, num_tables)`` best lane score per job per table.

        ``values`` stacks every lane's (one query column's) values;
        ``value_lane`` names each value's lane, ``lane_sizes`` each
        lane's value count and ``lane_job`` its job.  One
        ``searchsorted``, one postings gather and one ``bincount`` give
        every lane's overlap with every column; containment divides it
        by the lane size, Jaccard by the union size — the scalar
        baseline's int/int division.
        """
        best = np.zeros(jobs * self.num_tables, dtype=np.float64)
        ids, hits = _lookup(self.vocab, values)
        if not hits.any():
            return best.reshape(jobs, self.num_tables)
        columns = self.num_columns
        ids = ids[hits]
        lengths = self.post_lengths[ids]
        posting_cols = self.post_cols[
            _concat_ranges(self.post_offset[ids], lengths)
        ]
        posting_lanes = np.repeat(value_lane[hits], lengths)
        overlap = np.bincount(
            posting_lanes * np.int64(columns) + posting_cols,
            minlength=len(lane_sizes) * columns,
        )
        hit = np.flatnonzero(overlap)
        lane, column = np.divmod(hit, columns)
        shared = overlap[hit]
        if jaccard:
            scores = shared / (
                lane_sizes[lane] + self.col_sizes[column] - shared
            )
        else:
            scores = shared / lane_sizes[lane]
        np.maximum.at(
            best, lane_job[lane] * self.num_tables + self.col_table[column],
            scores,
        )
        return best.reshape(jobs, self.num_tables)


def _table_value_sets(
    table: Table, fold_numeric: bool
) -> List[FrozenSet[str]]:
    """One table's normalized value set per column."""
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
    lake: Iterable[Table], fold_numeric: bool = False
) -> JoinCorpusIndex:
    """Intern every cell value of ``lake``'s tables: one segment."""
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


class VectorizedJoinSearchEngine(SegmentedEngine):
    """Whole-lake joinability scoring with scalar-baseline parity.

    Drop-in for :class:`~repro.baselines.join_search.JoinTableSearch`
    ``search``: identical scores (bit-exact — every score is the same
    int/int division) and ranking, plus ``candidates`` restriction for
    shard scatter and :meth:`search_batch` lane stacking.  The index is
    a :class:`~repro.core.kernel.segments.SegmentedCorpusIndex` of
    :class:`JoinCorpusIndex` segments with the
    :class:`~repro.core.kernel.segments.SegmentedEngine` lifecycle.
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
        super().__init__()
        self.lake = lake
        self.graph = graph
        self.mode = mode
        self.fold_numeric = fold_numeric

    def _compile_segment(self, tables: Sequence[Table]) -> JoinCorpusIndex:
        return compile_join_index(tables, self.fold_numeric)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def search_batch(
        self,
        queries: Sequence[Query],
        k: Optional[int] = None,
        candidates: Optional[Sequence[Optional[Iterable[str]]]] = None,
        batch_stats=None,
    ) -> List[ResultSet]:
        """Score a micro-batch with one stacked postings pass per segment.

        Every distinct job's query columns (its lanes) are stacked, and
        each segment scores all of them at once
        (:meth:`JoinCorpusIndex.table_best`); each job's best score per
        table lands on the layout's flat table axis and is ranked by
        ``(-score, table_id)`` over the job's candidate positions.  A
        table's score reads its own columns only, so results are
        bit-identical to sequential :meth:`search`.  Identical
        ``(tuples, candidates)`` jobs are scored once; ``candidates``
        entries are table ids or sorted table ordinals of the lake.
        """
        jobs, fanout = self._jobs(queries, candidates, batch_stats)
        index = self._read_index()
        job_columns = [
            [
                column
                for column in query_value_sets(
                    query, self.graph, self.fold_numeric
                )
                if column
            ]
            for query, _ in jobs
        ]
        scored = [slot for slot, columns in enumerate(job_columns) if columns]
        resolved = [ResultSet([]) for _ in jobs]
        if not scored:
            return [resolved[slot] for slot in fanout]
        lanes = [
            np.asarray(sorted(column), dtype=np.str_)
            for slot in scored for column in job_columns[slot]
        ]
        lane_sizes = np.asarray([len(lane) for lane in lanes], dtype=np.int64)
        lane_job = np.repeat(
            np.arange(len(scored), dtype=np.int64),
            [len(job_columns[slot]) for slot in scored],
        )
        values = np.concatenate(lanes)
        value_lane = np.repeat(
            np.arange(len(lanes), dtype=np.int64), lane_sizes
        )
        layout = index.layout()
        best = np.zeros(
            (len(scored), int(layout.seg_base[-1])), dtype=np.float64
        )
        for seg_index, segment in enumerate(index.segments):
            lo, hi = layout.seg_base[seg_index:seg_index + 2]
            best[:, lo:hi] = segment.table_best(
                values, value_lane, lane_sizes, lane_job, len(scored),
                self.mode == "jaccard",
            )
        for row, slot in enumerate(scored):
            positions = layout.positions(jobs[slot][1], linked_only=False)
            scores = np.zeros(len(layout.table_ids), dtype=np.float64)
            scores[positions] = best[row, positions]
            resolved[slot] = ResultSet.from_arrays(
                scores, layout.table_ids, layout.id_rank, k
            )
        return [resolved[slot] for slot in fanout]
