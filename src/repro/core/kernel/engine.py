"""The vectorized scoring engine: Algorithm 1 as array programs.

:class:`VectorizedTableSearchEngine` computes the scores of the scalar
:class:`~repro.core.search.TableSearchEngine` — same scoring settings,
same ``search`` / ``search_batch`` / ``score_table`` semantics, same
profile — but shares no code with it: it replaces the per-cell Python
loop with batched numpy passes over a compiled
:class:`~repro.core.kernel.index.CorpusIndex`:

1. per query entity, one kernel pass yields its similarity against
   every corpus entity (matmul for embeddings, bitmap popcount for
   type Jaccard);
2. the Section 5.1 column-relevance matrix is one ``bincount``
   reduction per query entity over the table's flattened column
   multiset, then assigned — a unique-best shortcut, exact enumeration
   for small tuples, the same Hungarian implementation for the rest;
3. per-row SemRel (Equations 2-3, both tuple semantics and both
   aggregations) is evaluated with numpy reductions — over the
   relevance pass's own gather under ``MAX``, over the table's id grid
   otherwise — instead of nested Python loops.

A search that carries a cut-off ``k`` does not score the lake: it is a
bound-ordered, early-terminating scan (filter by a vectorized upper
bound, verify by the exact kernel pass restricted to a chunk of
tables) whose ranking is bit-identical to the full pass truncated to
``k`` — see :meth:`VectorizedTableSearchEngine.search_batch`.  The
scan loop, :func:`pruned_topk`, is shared with the union kernel.

Scores are parity-checked against the scalar engine to <= 1e-9 (bit
equal for type similarity, BLAS-summation-order noise for cosine); the
randomized suite in ``tests/test_core_kernel.py`` pins this across
tuple semantics, aggregation modes, nulls, unlinked cells, and
entities missing embeddings.

The compiled index is **segmented**
(:class:`~repro.core.kernel.segments.SegmentedCorpusIndex`): lake
mutations apply O(delta) — ``invalidate_table`` compiles one
single-table segment (add/replace) or writes a tombstone (remove)
instead of discarding the whole compilation, and size-tiered
compaction merges small segments during :meth:`warm` — off the request
path, where serving snapshots already run it before the swap.  That
lifecycle, with the check that the index mirrors the lake, is
:class:`~repro.core.kernel.segments.SegmentedEngine`, shared with the
union and join kernels.  A disk-backed index (``index_dir``) is opened
zero-copy via ``np.memmap`` from :mod:`repro.core.kernel.storage`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import (
    QueryAggregation,
    RowAggregation,
    TupleSemantics,
)
from repro.core.assignment import (
    enumerate_assignments,
    enumeration_chunks,
    max_assignment,
)
from repro.core.cache import CacheStats
from repro.core.kernel.index import CorpusIndex, EntityPostings
from repro.core.kernel.segments import (
    SegmentedCorpusIndex,
    SegmentedEngine,
    SegmentedIndexStats,
)
from repro.core.query import Query
from repro.core.result import ResultSet, ScoredTable
from repro.core.search import ScoringProfile, TableScore
from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.exceptions import IndexStorageError
from repro.linking.mapping import EntityMapping
from repro.similarity.base import EntitySimilarity
from repro.similarity.informativeness import UniformInformativeness

#: Widths the batched search solves by exhaustive enumeration (the
#: tensor has up to ``(columns + 1) ** width`` cells; beyond 3 the
#: solver wins).
MAX_ENUM_WIDTH = 3

#: Slack added to a vectorized upper bound before the early-termination
#: cut-off compares it against the k-th best exact score.  The bound's
#: reductions (``np.max`` / ``np.mean`` over tuples, the lane sums of
#: :func:`lane_bounds`) may sum in a different order than the kernel's
#: exact pass, so strict FP dominance can miss by rounding noise; the
#: slack converts that into "score a few extra tables" instead of "drop
#: a true top-k member".
BOUND_SLACK = 1e-9

#: Smallest chunk the early-terminating scan verifies per pass.  The
#: pass is sized by its chunk, but a call has a fixed cost: for a fresh
#: 5-tuple query on the 2000-table WT2015 lake (2-vCPU x86_64 box), 1
#: table costs 0.7 ms and 32 random tables 2.0 ms (1.4 and 2.9 ms with
#: the per-tuple pass the lane-stacked one replaced), so very small
#: chunks would repeat that fixed cost.
MIN_PRUNE_CHUNK = 32

#: Most similar entities per query entity whose postings the first bound
#: pass follows (``m`` of the threshold algorithm); every other table
#: gets the ``(m + 1)``-th similarity as its ceiling.  The scan doubles
#: it for the tables left whenever a chunk does not end the scan.
BOUND_TOP_M = 4


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + lengths[i])`` index ranges.

    The vectorized equivalent of ``np.concatenate([np.arange(s, s + n)
    for s, n in zip(starts, lengths)])`` — used to slice the selected
    tables' contiguous nnz blocks out of a segment's global arrays
    while preserving their in-corpus order.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        ends - lengths, lengths
    )
    return np.repeat(starts, lengths) + within


def _holds_any(postings: EntityPostings, chosen: np.ndarray) -> np.ndarray:
    """Per table, whether it mentions any entity the ``chosen`` mask sets.

    Counts postings on whichever side of the mask is smaller: the
    chosen entities' own postings, or the others' — a table holds a
    chosen entity iff fewer than all its distinct entities are
    unchosen.  Either way at most half the postings are read.
    """
    if chosen.all():
        return postings.distinct > 0
    lengths = np.diff(postings.offsets)
    direct = 2 * int(lengths[chosen].sum()) <= len(postings.tables)
    ids = np.flatnonzero(chosen if direct else ~chosen)
    counts = np.bincount(
        postings.tables[_concat_ranges(postings.offsets[ids], lengths[ids])],
        minlength=len(postings.distinct),
    )
    return counts > 0 if direct else counts < postings.distinct


def _lane_pad(values: np.ndarray, widths: Sequence[int]) -> np.ndarray:
    """Lane-stacked ``values`` as a zero-padded ``(tuples, widest, ...)``.

    Tuple ``t`` owns the next ``widths[t]`` rows of ``values``.
    """
    if min(widths) == max(widths):  # no padding: a view
        return values.reshape((len(widths), widths[0]) + values.shape[1:])
    widths = np.asarray(widths, dtype=np.int64)
    valid = np.arange(widths.max()) < widths[:, None]
    padded = np.zeros(valid.shape + values.shape[1:], dtype=values.dtype)
    padded[valid] = values
    return padded


class _LaneStacks:
    """The lane rows of one tuple list, stacked at most once per segment.

    ``stacks(seg_index)`` is ``lane_rows(tuples, profile)`` of that
    segment, built on first use.  A scan reads a query's lanes in its
    bound pass, in every verify chunk and in every refine pass; all of
    them read this stack instead of re-stacking the row memo.  Each
    read after the first counts its lanes as row-memo hits
    (:meth:`~repro.core.kernel.index.CorpusIndex.reused_rows`), as the
    re-stack it replaces did, so the counters keep their meaning.
    """

    def __init__(
        self,
        index: SegmentedCorpusIndex,
        tuples: List[Tuple[str, ...]],
        profile: ScoringProfile,
    ):
        self.tuples = tuples
        self._index = index
        self._profile = profile
        self._stacks: Dict[int, np.ndarray] = {}

    def __call__(self, seg_index: int) -> np.ndarray:
        segment = self._index.segments[seg_index]
        stack = self._stacks.get(seg_index)
        if stack is None:
            stack = segment.lane_rows(self.tuples, self._profile)
            self._stacks[seg_index] = stack
        else:
            segment.reused_rows(len(stack), self._profile)
        return stack


def lane_bounds(
    coordinates: np.ndarray, weights: np.ndarray, widths: Sequence[int]
) -> np.ndarray:
    """Equation 2's ``1 / (distance + 1)`` for lane-stacked tuples.

    ``coordinates`` is ``(lanes, n)``: consecutive blocks of
    ``widths[t]`` lanes belong to tuple ``t``, each lane weighted by
    its entry of ``weights``.  Returns ``(len(widths), n)``.  Every
    tuple adds its lanes' terms in lane order, one tuple position at a
    time over the zero-padded ``(tuples, widest, n)`` stack (a padded
    ``+0.0`` changes no bit), so a column's value does not depend on
    ``n``, on the other columns or on the other tuples.
    """
    residual = 1.0 - np.minimum(coordinates, 1.0)
    terms = _lane_pad(weights[:, None] * residual * residual, widths)
    squared = np.zeros((len(widths), coordinates.shape[1]), dtype=np.float64)
    for position in range(terms.shape[1]):
        squared += terms[:, position]
    return 1.0 / (np.sqrt(squared) + 1.0)


def weighted_distances(
    coordinates: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Equation 2 along the last axis of a coordinate array.

    ``(n, width)`` coordinates take ``(width,)`` weights; a tuple stack
    ``(tuples, n, width)`` takes ``(tuples, width)``.  Accumulates
    ``weight * residual * residual`` into zeros in tuple order —
    :func:`repro.core.semrel.weighted_distance`'s exact operation order
    — so each distance is elementwise: bit-equal to the scalar Eq. 2
    and independent of ``n``, unlike a BLAS ``@``.  A zero-weight
    padded position adds ``+0.0``, which changes no bit.
    """
    residual = 1.0 - np.minimum(coordinates, 1.0)
    total = np.zeros(coordinates.shape[:-1], dtype=np.float64)
    for position, weight in enumerate(np.moveaxis(weights, -1, 0)):
        total += (
            weight[..., None] * residual[..., position]
            * residual[..., position]
        )
    return np.sqrt(total)


def pruned_topk(
    positions: np.ndarray,
    bound: np.ndarray,
    id_rank: np.ndarray,
    k: int,
    verify: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    refine: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Exact top-``k`` by a bound-ordered, early-terminating scan.

    Filter-and-verify, shared by the entity and union kernels:
    ``bound[i]`` is an upper bound on the exact score of candidate
    ``positions[i]``, and
    ``id_rank`` (indexed by position) orders positions by table id.
    Candidates are verified in ``(-bound, id rank)`` order, a
    position-sorted chunk at a time — ``verify(chunk)`` returns the
    chunk's exact ``(score, returnable)`` — and the scan stops once the
    k-th best exact score clears the next bound (plus
    :data:`BOUND_SLACK`), so a pruned table provably cannot enter the
    top ``k``.  The stop test is strict: a table that could only *tie*
    the k-th score is still verified, so the id tie-break sees every
    contender.  The chunk starts at ``max(MIN_PRUNE_CHUNK, 2k)`` and
    doubles, so a query whose bounds all tie costs O(log n) verify
    passes, and never runs past the tables the current k-th score still
    admits.

    ``refine(rest)``, when given, is called before every chunk but the
    first with the sorted positions left; it returns tighter valid
    bounds for them, or ``None`` when it has none.

    Returns ``(top_positions, top_scores, verified)``: the winners in
    ``(-score, id rank)`` order and how many candidates were verified.
    """
    order = np.lexsort((id_rank[positions], -bound))
    positions = positions[order]
    bound = bound[order] + BOUND_SLACK
    found_positions: List[np.ndarray] = []
    found_scores: List[np.ndarray] = []
    found = 0
    kth = -np.inf
    cursor = 0
    chunk_size = max(MIN_PRUNE_CHUNK, 2 * k)
    while cursor < len(positions) and not bound[cursor] < kth:
        if cursor and refine is not None:
            rest = np.sort(positions[cursor:])
            refined = refine(rest)
            if refined is not None:
                order = np.lexsort((id_rank[rest], -refined))
                positions[cursor:] = rest[order]
                bound[cursor:] = refined[order] + BOUND_SLACK
                if bound[cursor] < kth:
                    break
        # Never past the tables the current k-th score still admits:
        # if it stands, the scan ends after this chunk.
        admitted = int(np.count_nonzero(~(bound[cursor:] < kth)))
        chunk = np.sort(positions[cursor:cursor + min(chunk_size, admitted)])
        cursor += len(chunk)
        chunk_size *= 2
        score, returnable = verify(chunk)
        found_positions.append(chunk[returnable])
        found_scores.append(score[returnable])
        found += len(found_scores[-1])
        if found >= k:
            kth = np.partition(
                np.concatenate(found_scores), found - k
            )[found - k]
    if not found:
        return (
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64),
            cursor,
        )
    found_at = np.concatenate(found_positions)
    scores = np.concatenate(found_scores)
    top = np.lexsort((id_rank[found_at], -scores))[:k]
    return found_at[top], scores[top], cursor


def _assign_pairs(
    relevance: np.ndarray,
    col_offset: np.ndarray,
    table_columns: np.ndarray,
    lanes: np.ndarray,
    valid: np.ndarray,
) -> np.ndarray:
    """Section 5.1 column assignment of every (tuple, table) pair at once.

    ``relevance`` is the lane-stacked ``(lanes, columns)`` column
    relevance of the tables ``col_offset`` / ``table_columns`` lay out;
    ``lanes`` / ``valid`` (both ``(tuples, widest)``) give each tuple
    position's lane.  Returns ``(tuples, tables, widest)`` columns,
    local to each table, with ``-1`` for no column and for padding.

    One ``maximum.reduceat`` over the whole stack gives each lane its
    best column per table, with its tie count.  A pair whose positive
    lanes each have a strictly unique best column, pairwise distinct,
    takes those columns (a lane with no positive relevance takes
    ``-1``).  This is exactly where the full per-pair path —
    enumeration, then on a margin miss this greedy rule, then the
    solver — ends:

    * the best columns reach the sum of the lanes' maxima, and every
      other option is no greater at each lane, so by the monotonicity
      of rounded addition no cell of the enumeration out-totals them.
      An enumeration whose winner is ``unique`` (clears
      :data:`~repro.core.assignment.ASSIGNMENT_MARGIN`) strictly beats
      every other cell, so the winner is this cell;
    * an enumeration that misses the margin, and every tuple wider
      than :data:`MAX_ENUM_WIDTH`, reaches the greedy rule before the
      solver, and the rule returns these columns.

    Every other pair of a tuple up to :data:`MAX_ENUM_WIDTH` wide is
    enumerated, one :func:`~repro.core.assignment.enumerate_assignments`
    call per count of positive lanes and
    :func:`~repro.core.assignment.enumeration_chunks` chunk (gated on
    the table's full column count).  Pairs whose winner is not
    ``unique``, pairs over the per-pair element ceiling and wider
    tuples go to :func:`~repro.core.assignment.max_assignment` per
    pair.  A pair over the ceiling is scored as the enumeration would:
    a margin-clearing optimum is the solver's answer.
    """
    starts = col_offset[:-1]
    maxima = np.maximum.reduceat(relevance, starts, axis=1)
    tie = relevance == np.repeat(maxima, table_columns, axis=1)
    ties = np.add.reduceat(tie, starts, axis=1, dtype=np.int64)
    # The best column's local index, wherever it is the only tie.
    local = np.arange(relevance.shape[1]) - np.repeat(starts, table_columns)
    best = np.add.reduceat(tie * local, starts, axis=1)
    positive = np.swapaxes(maxima[lanes] > 0.0, 1, 2) & valid[:, None, :]
    assignment = np.where(positive, np.swapaxes(best[lanes], 1, 2), -1)
    # A lane without a positive best gets its own negative key, so only
    # two positive lanes sharing a column compare equal.
    keys = np.sort(
        np.where(positive, assignment, -1 - np.arange(lanes.shape[1])),
        axis=2,
    )
    unique = ~(
        (positive & (np.swapaxes(ties[lanes], 1, 2) > 1)).any(axis=2)
        | (keys[:, :, 1:] == keys[:, :, :-1]).any(axis=2)
    )
    widths = valid.sum(axis=1)
    small = (widths <= MAX_ENUM_WIDTH)[:, None]
    counts = positive.sum(axis=2)
    fallback = [np.nonzero(~unique & ~small)]
    for p in range(1, MAX_ENUM_WIDTH + 1):
        pt, pj = np.nonzero(~unique & small & (counts == p))
        if not pt.size:
            continue
        prows = np.nonzero(positive[pt, pj])[1].reshape(-1, p)
        # The compacted tensor is no larger than the full table's.
        solver, chunks = enumeration_chunks((table_columns[pj] + 1.0) ** p)
        fallback.append((pt[solver], pj[solver]))
        for chunk in chunks:
            tt, jj, rows = pt[chunk], pj[chunk], prows[chunk]
            chosen, _, ok, _ = enumerate_assignments(
                relevance, col_offset, table_columns,
                lanes[tt[:, None], rows], jj,
            )
            assignment[tt[ok][:, None], jj[ok][:, None], rows[ok]] = chosen[ok]
            fallback.append((tt[~ok], jj[~ok]))
    for tt, jj in fallback:
        for t, j in zip(tt.tolist(), jj.tolist()):
            rows = lanes[t, :widths[t]]
            block = relevance[rows, starts[j]:col_offset[j + 1]]
            assignment[t, j, :len(rows)] = max_assignment(block)[0]
    return assignment


class VectorizedTableSearchEngine(SegmentedEngine):
    """Algorithm 1 as a batched scoring kernel over a segmented index.

    Parameters
    ----------
    lake, mapping, sigma, informativeness, row_aggregation,
    query_aggregation, tuple_semantics, drop_irrelevant:
        The scoring settings, as on
        :class:`~repro.core.search.TableSearchEngine`.
    index_dir:
        Optional directory holding a persisted index
        (:mod:`repro.core.kernel.storage`).  When set, the first
        :meth:`index` call memmaps the on-disk arrays instead of
        compiling — cold start becomes mmap + header validation — and
        falls back to compiling if the directory is missing, stale
        (live table set differs from the lake), or was built for a
        different similarity configuration.

    Notes
    -----
    Every score — ``search``, ``search_batch`` and ``score_table`` —
    comes from one kernel pass, :meth:`_segment_tuples`.  Its only
    cache is each segment's similarity-row memo, bounded in bytes by
    :data:`~repro.core.kernel.index.ROW_MEMO_BYTES`.  The
    index lifecycle, its mirror of the lake included, is
    :class:`~repro.core.kernel.segments.SegmentedEngine`'s; this class
    adds the ``index_dir`` load, the postings built after a
    compaction, and the scoring.
    """

    def __init__(
        self,
        lake: DataLake,
        mapping: EntityMapping,
        sigma: EntitySimilarity,
        informativeness=None,
        row_aggregation: RowAggregation = RowAggregation.MAX,
        query_aggregation: QueryAggregation = QueryAggregation.MEAN,
        tuple_semantics: TupleSemantics = TupleSemantics.PER_ENTITY,
        drop_irrelevant: bool = True,
        index_dir: Optional[str] = None,
    ):
        super().__init__()
        self.lake = lake
        self.mapping = mapping
        self.sigma = sigma
        self.informativeness = (
            informativeness if informativeness is not None
            else UniformInformativeness()
        )
        self.row_aggregation = row_aggregation
        self.query_aggregation = query_aggregation
        self.tuple_semantics = tuple_semantics
        self.drop_irrelevant = drop_irrelevant
        self.index_dir = index_dir
        self.profile = ScoringProfile()

    # ------------------------------------------------------------------
    # Index lifecycle (SegmentedEngine, plus the disk index)
    # ------------------------------------------------------------------
    def _compile_segment(self, tables: Sequence[Table]) -> CorpusIndex:
        return CorpusIndex(tables, self.mapping, self.sigma)

    def _build_index(self) -> SegmentedCorpusIndex:
        """Load from disk when possible, else compile from the lake.

        Only called with the index lock held.  A disk index is adopted
        only when its live table set matches the lake exactly; anything
        else (missing files, version/sigma mismatch, drift) falls back
        to a full compile rather than guessing.
        """
        if self.index_dir is not None:
            from repro.core.kernel.storage import load_index

            try:
                loaded = load_index(self.index_dir, self.sigma, self.mapping)
            except IndexStorageError:
                loaded = None
            if loaded is not None and loaded.mirrors(
                [table.table_id for table in self.lake]
            ):
                return loaded.rebound(
                    self._compile_segment, ordinals=self.lake.ordinals
                )
        return SegmentedCorpusIndex.compile(
            self.lake, self.mapping, self.sigma, ordinals=self.lake.ordinals
        )

    def invalidate_cache(self) -> None:
        """Full reset: drops the compiled index for a from-scratch build."""
        with self._index_lock:
            self._index = None

    def compact(self) -> SegmentedIndexStats:
        """:meth:`SegmentedEngine.compact`, then the postings of the
        compacted segments, so no read builds them on the request
        path."""
        stats = super().compact()
        for segment in self.export_index().segments:
            segment.postings()
        return stats

    def cache_stats(self) -> Dict[str, CacheStats]:
        """The segments' row memos, sized in bytes (empty while cold)."""
        # Stats reporting must not serialize against an in-flight index
        # build; None just means "cold".
        index = self.export_index()
        if index is None:
            return {}
        return {"kernel_rows": index.row_cache_stats()}

    # ------------------------------------------------------------------
    # Vectorized Algorithm 1
    # ------------------------------------------------------------------
    def _lane_weights(self, tuples) -> np.ndarray:
        """Informativeness weight of every lane of ``tuples``, in order."""
        return np.array(
            [self.informativeness(uri) for query_tuple in tuples
             for uri in query_tuple],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # Batched scoring kernel
    # ------------------------------------------------------------------
    def _segment_tuples(
        self,
        segment: CorpusIndex,
        tuples: Sequence[Tuple[str, ...]],
        profile: ScoringProfile,
        selection: Optional[np.ndarray] = None,
        sims_stack: Optional[np.ndarray] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Fused scoring of selected segment tables against query tuples.

        The kernel primitive.  A *lane* is one query entity of one
        tuple; a query's lanes are stacked along one axis and every
        stage runs once over all of them: one similarity-row stack, one
        ``bincount`` over lane-offset bins for all column relevances,
        one assignment pass over every (tuple, table) pair
        (:func:`_assign_pairs`), and one Eq. 2 tail over zero-padded
        ``(tuples, tables, widest)`` coordinates.  Under
        ``RowAggregation.MAX`` with per-entity semantics no cell is
        gathered again: a lane's coordinate is the ``maximum.reduceat``
        of the ``bincount``'s own ``sims[:, nnz]`` gather over the
        column's (contiguous) nnz block, floored at ``0.0`` when the
        nnz counts show an unlinked or null cell — a maximum is exact
        in any order, so it is the maximum down the column's rows.
        ``AVG`` and ``PER_ROW`` gather the assigned columns' cells from
        ``flat_ids``, since their sums keep row order.

        ``selection`` (sorted table positions; ``None`` is the whole
        segment) has its tables' nnz triples gathered once and rebased
        onto local column offsets, so every array of the pass is sized
        by the selection, never by the segment.  Returns one ``(column,
        signal)`` pair per input tuple, aligned with ``selection``: the
        tuple score of every selected table plus its positive-coordinate
        flag.  A table's outputs depend neither on which other tables
        ride the pass nor on the other tuples, so any selection is
        bit-identical to the whole-segment pass, and to the scalar
        engine to <= 1e-9: ``bincount`` accumulates each bin in input
        order over compiled-order nnz blocks; assignments are per pair;
        ``reduceat`` segments span one column or one (lane, table,
        position) block; and the tail is :func:`weighted_distances`,
        elementwise, never a shape-dependent BLAS product.

        ``sims_stack`` is ``segment.lane_rows(tuples, profile)`` when
        the caller already holds it (see :class:`_LaneStacks`).
        """
        if not tuples:
            return []
        if selection is None:
            selection = np.arange(len(segment.table_ids), dtype=np.int64)
        row_agg_max = self.row_aggregation is RowAggregation.MAX
        per_row_semantics = self.tuple_semantics is TupleSemantics.PER_ROW
        table_rows = segment.table_rows[selection]
        table_columns = segment.table_columns[selection]
        col_offset = np.zeros(len(selection) + 1, dtype=np.int64)
        np.cumsum(table_columns, out=col_offset[1:])
        total_columns = int(col_offset[-1])
        seg_col_offset = segment.col_offset[selection]
        nnz_start = segment.nnz_toffset[selection]
        nnz_lengths = segment.nnz_toffset[selection + 1] - nnz_start
        entries = _concat_ranges(nnz_start, nnz_lengths)
        nnz_counts = segment.nnz_gcounts[entries]
        nnz_columns = segment.nnz_gcolumns[entries] + np.repeat(
            col_offset[:-1] - seg_col_offset, nnz_lengths
        )
        widths = [len(query_tuple) for query_tuple in tuples]
        stack = sum(widths)
        # (tuples, widest): each tuple position's lane (0 at padding).
        lanes = _lane_pad(np.arange(stack), widths)
        valid = _lane_pad(np.ones(stack, dtype=bool), widths)
        if sims_stack is None:
            sims_stack = segment.lane_rows(tuples, profile)
        map_start = time.perf_counter()
        lane_sims = sims_stack[:, segment.nnz_gids[entries]]
        keys = nnz_columns + (np.arange(stack) * total_columns)[:, None]
        # (An empty bincount comes back as ints.)
        relevance = np.bincount(
            keys.ravel(), weights=(lane_sims * nnz_counts).ravel(),
            minlength=stack * total_columns,
        ).astype(np.float64, copy=False).reshape(stack, total_columns)
        assignment = _assign_pairs(
            relevance, col_offset, table_columns, lanes, valid
        )
        profile.mapping_seconds += time.perf_counter() - map_start
        # (tuples, tables, widest): assigned positions of tables with rows.
        active = (assignment >= 0) & (table_rows > 0)[:, None]
        weights = _lane_pad(self._lane_weights(tuples), widths)
        if row_agg_max and not per_row_semantics:
            column_nnz = np.bincount(nnz_columns, minlength=total_columns)
            filled = np.flatnonzero(column_nnz)
            column_max = np.zeros((stack, total_columns), dtype=np.float64)
            if filled.size:
                column_max[:, filled] = np.maximum.reduceat(
                    lane_sims, (np.cumsum(column_nnz) - column_nnz)[filled],
                    axis=1,
                )
            unlinked = np.bincount(
                nnz_columns, weights=nnz_counts, minlength=total_columns
            ) < np.repeat(table_rows, table_columns)
            column_max[:, unlinked] = np.maximum(column_max[:, unlinked], 0.0)
            coordinates = np.where(active, column_max[
                lanes[:, None, :], col_offset[:-1, None] + assignment
            ], 0.0)
            columns = 1.0 / (weighted_distances(coordinates, weights) + 1.0)
            return list(zip(columns, coordinates.max(axis=2) > 0.0))
        # One gather serves every (tuple, table, assigned position): the
        # column-major flat_ids slice of each assigned column, pushed
        # through its lane's similarity row, in (tuple, table, position)
        # order.
        tuple_at, table_at, position_at = np.nonzero(active)
        lengths = table_rows[table_at]
        seg_starts = np.cumsum(lengths) - lengths
        within = np.arange(int(lengths.sum())) - np.repeat(seg_starts, lengths)
        ids = segment.flat_ids[np.repeat(segment.col_start[
            seg_col_offset[table_at]
            + assignment[tuple_at, table_at, position_at]
        ], lengths) + within]
        linked = ids >= 0
        gathered = np.where(linked, sims_stack[
            np.repeat(lanes[tuple_at, position_at], lengths),
            np.where(linked, ids, 0),
        ], 0.0)
        if not per_row_semantics:
            coordinates = np.zeros(assignment.shape, dtype=np.float64)
            if lengths.size:
                coordinates[tuple_at, table_at, position_at] = (
                    np.add.reduceat(gathered, seg_starts) / lengths
                )
            columns = 1.0 / (weighted_distances(coordinates, weights) + 1.0)
            return list(zip(columns, coordinates.max(axis=2) > 0.0))
        row_offset = np.zeros(len(selection) + 1, dtype=np.int64)
        np.cumsum(table_rows, out=row_offset[1:])
        total_rows = int(row_offset[-1])
        scores = np.zeros(
            (len(tuples), total_rows, lanes.shape[1]), dtype=np.float64
        )
        peak = np.zeros(active.shape[:2], dtype=np.float64)
        if lengths.size:
            scores[
                np.repeat(tuple_at, lengths),
                np.repeat(row_offset[table_at], lengths) + within,
                np.repeat(position_at, lengths),
            ] = gathered
            np.maximum.at(
                peak, (tuple_at, table_at),
                np.maximum.reduceat(gathered, seg_starts),
            )
        per_row = (1.0 / (weighted_distances(scores, weights) + 1.0)).ravel()
        columns = np.zeros(active.shape[:2], dtype=np.float64)
        populated = np.flatnonzero(table_rows > 0)
        if populated.size:
            # Flattened, so each (tuple, table) row block is a segment
            # of one 1-D reduceat, summed in 1-D order; zero-row tables
            # add no rows.
            starts = (
                np.arange(len(tuples))[:, None] * total_rows
                + row_offset[populated]
            ).ravel()
            if row_agg_max:
                reduced = np.maximum.reduceat(per_row, starts)
            else:
                reduced = np.add.reduceat(per_row, starts)
                reduced /= np.tile(table_rows[populated], len(tuples))
            columns[:, populated] = reduced.reshape(len(tuples), -1)
        return list(zip(columns, peak > 0.0))

    def _candidate_bounds(
        self,
        segment: CorpusIndex,
        tuples: Sequence[Tuple[str, ...]],
        positions: np.ndarray,
        profile: ScoringProfile,
        top_m: Optional[int] = None,
        sims_stack: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Postings-driven SemRel upper bounds of segment tables, per tuple.

        A table's coordinate for a query entity (a *lane*) bounds the
        best similarity any entity mentioned in it could provide,
        clamped at zero (an unassigned position scores zero, never
        negative).  The coordinates go through Equation 2's residual
        distance (:func:`lane_bounds`).  Dropping the
        distinct-column and injectivity constraints only raises the
        value, so ``bound >= exact`` up to the reduction-order noise
        :data:`BOUND_SLACK` absorbs.

        The maximum is taken the threshold-algorithm way over the
        segment's entity -> tables postings.  Each lane's ``top_m``
        most similar entities (default :data:`BOUND_TOP_M`) scatter
        their similarities onto the tables on their postings.  Every
        other table gets the lane's *ceiling*: its ``(m + 1)``-th
        similarity, clamped at zero, which no entity outside the top m
        exceeds.  So a coordinate is ``max(dense maximum, ceiling)``:
        exactly the dense maximum on every table the top-m postings
        touch, and an upper bound on the rest.  The cost is O(lanes x
        (entities + postings of the top m)) instead of O(lanes x nnz);
        ``top_m >= entities`` is the dense maximum itself.

        ``positions`` (sorted) selects the tables.  Returns ``(bounds,
        signals)``, both ``(len(tuples), len(positions))``.
        ``signals`` is whether any coordinate of the dense maximum is
        positive, exactly: under ``drop_irrelevant`` a table that is
        signal-free for every tuple of a query can never be relevant,
        so it is dropped before scoring.  A lane whose ceiling is zero
        has every positive entity in its top m, so the touched tables
        decide.  For the other lanes, see :func:`_holds_any`.
        ``sims_stack``, if given, is ``segment.lane_rows(tuples,
        profile)``.
        """
        postings = segment.postings()
        num_entities = segment.num_entities
        stack = (
            segment.lane_rows(tuples, profile) if sims_stack is None
            else sims_stack
        )
        lanes = np.arange(len(stack))
        m = min(BOUND_TOP_M if top_m is None else top_m, num_entities)
        if m < num_entities:
            order = np.argpartition(-stack, m, axis=1)
            head = order[:, :m]
            ceiling = np.maximum(stack[lanes, order[:, m]], 0.0)
        else:
            head = np.broadcast_to(np.arange(num_entities), stack.shape)
            ceiling = np.zeros(len(stack), dtype=np.float64)
        starts = postings.offsets[head]
        lengths = (postings.offsets[head + 1] - starts).ravel()
        hit_lanes = np.repeat(np.repeat(lanes, m), lengths)
        hit_values = np.repeat(stack[lanes[:, None], head].ravel(), lengths)
        # Hits on unselected tables drop out; the selected ones are
        # numbered by their index into ``positions``.
        slot = np.full(len(segment.table_ids), -1, dtype=np.int64)
        slot[positions] = np.arange(len(positions))
        hit_slots = slot[
            postings.tables[_concat_ranges(starts.ravel(), lengths)]
        ]
        kept = hit_slots >= 0
        hit_slots = hit_slots[kept]
        marked = np.zeros(len(positions), dtype=bool)
        marked[hit_slots] = True
        touched = np.flatnonzero(marked)
        columns = len(touched) + 1
        # One column per touched table, and a last one standing for
        # every untouched table: all lanes at their ceilings.
        coordinates = np.repeat(ceiling, columns)
        np.maximum.at(
            coordinates,
            hit_lanes[kept] * columns + (np.cumsum(marked) - 1)[hit_slots],
            hit_values[kept],
        )
        coordinates = coordinates.reshape(len(stack), columns)
        widths = [len(query_tuple) for query_tuple in tuples]
        column_bounds = lane_bounds(
            coordinates, self._lane_weights(tuples), widths
        )
        bounds = np.repeat(column_bounds[:, -1:], len(positions), axis=1)
        bounds[:, touched] = column_bounds[:, :-1]
        # Per tuple, an OR over its lanes: a zero-padded stack's ``any``.
        exact = ceiling == 0.0
        signals = np.zeros((len(tuples), len(positions)), dtype=bool)
        signals[:, touched] = _lane_pad(
            (coordinates[:, :-1] > 0.0) & exact[:, None], widths
        ).any(axis=1)
        inexact = _lane_pad((stack > 0.0) & ~exact[:, None], widths)
        for row in np.flatnonzero(_lane_pad(~exact, widths).any(axis=1)):
            signals[row] |= _holds_any(
                postings, inexact[row].any(axis=0)
            )[positions]
        return bounds, signals

    def search_candidates(
        self,
        query: Query,
        candidates: Iterable[str],
        k: Optional[int] = None,
        stats=None,
    ) -> ResultSet:
        """:meth:`search_batch` of one over an explicit candidate set.

        Same results as ``search(query, k=k,
        candidates=candidates)`` — deduplication, lake membership, the
        drop-irrelevant rule, and the ``(-score, table_id)`` ranking
        all match.  ``stats`` (a :class:`~repro.core.kernel.prefilter.
        PrefilterStats`) receives the shortlist size, the number of
        tables actually scored, and whether the cut-off fired.
        """
        return self.search_batch(
            [query], k=k, candidates=[candidates], stats=stats
        )[0]

    def search_batch(
        self,
        queries: Sequence[Query],
        k: Optional[int] = None,
        candidates: Optional[Sequence[Optional[Iterable[str]]]] = None,
        stats=None,
        batch_stats=None,
    ) -> List[ResultSet]:
        """Rank the lake for a whole micro-batch.

        Results are bit-identical per query to sequential
        :meth:`search` — same scores, same ``(-score, table_id)``
        tie-breaks — whatever rides the same batch.  Identical queries
        (same tuples, same canonical candidate list) are answered once
        and fan the shared :class:`ResultSet` out to every duplicate
        slot.

        With a cut-off ``k`` every job — whole lake, cluster shard or
        LSH shortlist alike — is a result-memo hit or one
        bound-ordered, early-terminating scan (:meth:`_scan_rankings`):
        filter by upper bound, verify by exact score, stop when no
        unscored table can enter the top ``k``.  ``k=None`` asks for
        the full ranking, which has nothing to prune: every job scores
        all its candidates (:meth:`_full_rankings`).

        Parameters
        ----------
        queries:
            The micro-batch, in request order.
        k:
            Optional shared cut-off.
        candidates:
            Optional per-query candidate restrictions aligned with
            ``queries`` (``None`` entries search the whole lake): table
            ids, or a sorted array of distinct table ordinals of the
            lake's :class:`~repro.datalake.lake.TableOrdinals` (what
            ``Thetis`` passes).  Ids are converted once, here.
        stats:
            Optional :class:`~repro.core.kernel.prefilter.
            PrefilterStats` fed one scoring record per candidate-
            restricted job: the shortlist size (candidates that
            survive the linkless / signal-free filter), how many of
            them were scored exactly, and whether the bound cut-off
            ended the scan early.  A full ranking (``k=None``) scores
            its whole shortlist.
        batch_stats:
            Optional :class:`~repro.core.kernel.batchstats.BatchStats`
            recording one batched dispatch covering ``len(queries)``
            queries (``len(queries) - unique`` of them deduplicated).
        """
        jobs, fanout = self._jobs(queries, candidates, batch_stats)
        if not jobs:
            return []
        profile = self.profile
        if k is not None and k < 1:
            if stats is not None:
                for _, cands in jobs:
                    if cands is not None:
                        stats.record_scoring(0, 0, False)
            return [ResultSet([]) for _ in fanout]
        index = self._read_index()
        start = time.perf_counter()
        if k is None:
            job_results = self._full_rankings(index, jobs, stats, profile)
        else:
            job_results = self._scan_rankings(index, jobs, k, stats, profile)
        profile.total_seconds += time.perf_counter() - start
        return [job_results[slot] for slot in fanout]

    def _aggregate_tuples(
        self, columns: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Combine a query's per-tuple score arrays, in tuple order.

        numpy elementwise max / zero-seeded sum match Python's
        ``max()`` / ``sum()`` bit for bit, so this is
        ``query_aggregation.aggregate`` per table.
        """
        if self.query_aggregation is QueryAggregation.MAX:
            score = columns[0].copy()
            for column in columns[1:]:
                np.maximum(score, column, out=score)
            return score
        score = np.zeros(len(columns[0]), dtype=np.float64)
        for column in columns:
            score += column
        score /= len(columns)
        return score

    def _query_columns(
        self,
        segment: CorpusIndex,
        query: Query,
        selection: np.ndarray,
        profile: ScoringProfile,
        sims_stack: Optional[np.ndarray] = None,
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """One :meth:`_segment_tuples` pass over a query's distinct tuples.

        Returns the per-tuple score columns in query order (repeated
        tuples repeat their column) and whether any tuple has a
        positive coordinate, both aligned with ``selection``.
        ``sims_stack`` is the distinct tuples' lane rows, if held.
        """
        tuples = list(dict.fromkeys(query.tuples))
        outputs = self._segment_tuples(
            segment, tuples, profile, selection=selection,
            sims_stack=sims_stack,
        )
        columns = [
            outputs[tuples.index(query_tuple)][0]
            for query_tuple in query.tuples
        ]
        return columns, np.logical_or.reduce(
            [signal for _, signal in outputs]
        )

    def _score_positions(
        self,
        index: SegmentedCorpusIndex,
        query: Query,
        positions: np.ndarray,
        profile: ScoringProfile,
        stacks: Optional[_LaneStacks] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact scores of one query at sorted flat ``positions``.

        One :meth:`_query_columns` pass per owning segment, restricted
        to the positions it owns — bit-identical per table whatever the
        selection, as :meth:`_segment_tuples` proves.  ``stacks`` holds
        the query's distinct tuples' lane rows across calls (a scan's
        chunks); by default they are stacked here.  Returns
        ``(score, returnable)`` aligned with ``positions``;
        ``returnable`` applies the positive-score and drop-irrelevant
        rules.
        """
        if stacks is None:
            stacks = _LaneStacks(
                index, list(dict.fromkeys(query.tuples)), profile
            )
        layout = index.layout()
        score = np.empty(len(positions), dtype=np.float64)
        signal = np.empty(len(positions), dtype=bool)
        for seg_index, lo, hi in layout.segment_slices(positions):
            columns, signal[lo:hi] = self._query_columns(
                index.segments[seg_index], query,
                positions[lo:hi] - layout.seg_base[seg_index], profile,
                sims_stack=stacks(seg_index),
            )
            score[lo:hi] = self._aggregate_tuples(columns)
        returnable = score > 0.0
        if self.drop_irrelevant:
            returnable &= signal
        return score, returnable

    def _scan_rankings(
        self,
        index: SegmentedCorpusIndex,
        jobs: Sequence[Tuple[Query, Optional[np.ndarray]]],
        k: int,
        stats,
        profile: ScoringProfile,
    ) -> List[ResultSet]:
        """Exact top-``k`` per job by a bound-ordered, pruned scan.

        Filter-and-verify over Algorithm 1: :meth:`_candidate_bounds`
        gives every candidate a cheap upper bound, candidates are
        verified (scored exactly) in descending bound order, and the
        scan stops once the k-th best exact score clears the next
        bound, so a pruned table provably cannot enter the top ``k``.
        The stop test is strict: a table that could only *tie* the k-th
        score has a bound at least that high and is still scored, so
        the id tie-break sees every contender.

        Whole-lake jobs are answered from the index instance's result
        memo when they repeat.  Jobs sharing a candidate list (every
        whole-lake job; every job of a cluster shard) share one
        lane-stacked bound pass per segment; each job then stacks its
        own lanes once per segment for its verify and refine passes
        (:class:`_LaneStacks`).
        """
        layout = index.layout()
        drop = self.drop_irrelevant
        token = (
            self.informativeness,
            self.row_aggregation,
            self.tuple_semantics,
            self.query_aggregation,
            drop,
        )
        results: List[Optional[ResultSet]] = [None] * len(jobs)
        groups: Dict[Optional[bytes], List[int]] = {}
        for slot, (query, cands) in enumerate(jobs):
            if cands is None:
                results[slot] = index.cached_result(query.tuples, k, token)
            if results[slot] is None:
                group = None if cands is None else cands.tobytes()
                groups.setdefault(group, []).append(slot)
        for slots in groups.values():
            cands = jobs[slots[0]][1]
            positions = layout.positions(cands, linked_only=drop)
            tuples = list(dict.fromkeys(
                query_tuple
                for slot in slots
                for query_tuple in jobs[slot][0].tuples
            ))
            stacks = _LaneStacks(index, tuples, profile)
            bounds, signals = self._lake_bounds(
                index, stacks, positions, profile
            )
            for slot in slots:
                query = jobs[slot][0]
                rows = [tuples.index(entry) for entry in query.tuples]
                result, shortlisted, scored, terminated = self._scan(
                    index, query, positions, bounds[rows], signals[rows],
                    k, profile, stacks,
                )
                results[slot] = result
                if cands is None:
                    index.store_result(query.tuples, k, token, result)
                elif stats is not None:
                    stats.record_scoring(shortlisted, scored, terminated)
        return results

    def _lake_bounds(
        self,
        index: SegmentedCorpusIndex,
        stacks: _LaneStacks,
        positions: np.ndarray,
        profile: ScoringProfile,
        top_m: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_candidate_bounds` of ``stacks.tuples`` at sorted flat
        ``positions``."""
        tuples = stacks.tuples
        layout = index.layout()
        bounds = np.empty((len(tuples), len(positions)), dtype=np.float64)
        signals = np.empty((len(tuples), len(positions)), dtype=bool)
        for seg_index, lo, hi in layout.segment_slices(positions):
            bounds[:, lo:hi], signals[:, lo:hi] = self._candidate_bounds(
                index.segments[seg_index], tuples,
                positions[lo:hi] - layout.seg_base[seg_index], profile,
                top_m=top_m, sims_stack=stacks(seg_index),
            )
        return bounds, signals

    def _job_bound(self, bounds: np.ndarray) -> np.ndarray:
        """A query's bound per table from its per-tuple bound rows."""
        if self.query_aggregation is QueryAggregation.MAX:
            return bounds.max(axis=0)
        return bounds.mean(axis=0)

    def _scan(
        self,
        index: SegmentedCorpusIndex,
        query: Query,
        positions: np.ndarray,
        bounds: np.ndarray,
        signals: np.ndarray,
        k: int,
        profile: ScoringProfile,
        stacks: _LaneStacks,
    ) -> Tuple[ResultSet, int, int, bool]:
        """One job of :meth:`_scan_rankings`, by :func:`pruned_topk`.

        ``bounds`` / ``signals`` hold one row per tuple of the query,
        aligned with the candidate ``positions``, from a
        :data:`BOUND_TOP_M` bound pass over ``stacks``, which the
        verify and refine passes reuse when the job is its group's
        only one.  Whenever a chunk leaves the
        scan going, the tables left are re-bounded with twice the top m
        before the next chunk: a ceiling the k-th score has not cleared
        drops, and the threshold algorithm reads deeper postings only
        for the queries that need them.  Every pass gives valid upper
        bounds, so the stop test and the ranking do not depend on m.
        Returns the ranking plus the ``(shortlisted, scored,
        terminated)`` triple ``PrefilterStats`` records.
        """
        layout = index.layout()
        bound = self._job_bound(bounds)
        if self.drop_irrelevant:
            # Signal-free for every tuple: no entity similarity is
            # positive, so the table is provably irrelevant.
            shortlist = np.flatnonzero(signals.any(axis=0))
            positions = positions[shortlist]
            bound = bound[shortlist]
        top_m = BOUND_TOP_M
        widest = max(
            (segment.num_entities for segment in index.segments), default=0
        )
        tuples = list(dict.fromkeys(query.tuples))
        rows = [tuples.index(query_tuple) for query_tuple in query.tuples]
        if tuples != stacks.tuples:
            # Not the only job of its group: its own lanes, once.
            stacks = _LaneStacks(index, tuples, profile)

        def verify(chunk: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return self._score_positions(
                index, query, chunk, profile, stacks
            )

        def refine(rest: np.ndarray) -> Optional[np.ndarray]:
            # The scan goes on: lower the ceilings of what is left.
            nonlocal top_m
            if top_m >= widest:
                return None
            top_m *= 2
            return self._job_bound(self._lake_bounds(
                index, stacks, rest, profile, top_m=top_m
            )[0][rows])

        top, scores, scored = pruned_topk(
            positions, bound, layout.id_rank, k, verify, refine
        )
        profile.tables_scored += scored
        result = ResultSet(
            ScoredTable(score, layout.table_ids[position])
            for score, position in zip(scores.tolist(), top.tolist())
        )
        return result, len(positions), scored, scored < len(positions)

    def _full_rankings(
        self,
        index: SegmentedCorpusIndex,
        jobs: Sequence[Tuple[Query, Optional[np.ndarray]]],
        stats,
        profile: ScoringProfile,
    ) -> List[ResultSet]:
        """Full rankings (``k=None``): each job scores all its candidates.

        There is nothing to prune, so this is a plain loop over
        :meth:`_score_positions` with every candidate position — the
        reference the scan is checked against.
        """
        layout = index.layout()
        job_results: List[ResultSet] = []
        for query, cands in jobs:
            positions = layout.positions(
                cands, linked_only=self.drop_irrelevant
            )
            score, returnable = self._score_positions(
                index, query, positions, profile
            )
            job_results.append(ResultSet(
                ScoredTable(value, layout.table_ids[position])
                for value, position in zip(
                    score[returnable].tolist(),
                    positions[returnable].tolist(),
                )
            ))
            profile.tables_scored += len(positions)
            if cands is not None and stats is not None:
                stats.record_scoring(len(positions), len(positions), False)
        return job_results

    def score_table(self, query: Query, table: Table) -> TableScore:
        """SemRel(Q, T) by the kernel pass every search uses.

        One :meth:`_segment_tuples` pass selecting just ``table``, so
        the score is bit-identical to the one :meth:`search` gives it.
        The index is read as every search reads it, reconciled with the
        lake if it changed behind the engine's back; a table it does
        not hold (one outside the lake) is compiled into a throwaway
        single-table segment, the compile
        :meth:`SegmentedCorpusIndex.with_table` performs when the table
        joins the lake.
        """
        profile = self.profile
        start = time.perf_counter()
        index = self._read_index()
        if table.table_id in index:
            seg_index, position = index.locate_position(table.table_id)
            segment = index.segments[seg_index]
        else:
            segment = CorpusIndex([table], self.mapping, self.sigma)
            position = 0
        columns, signal = self._query_columns(
            segment, query, np.array([position], dtype=np.int64), profile
        )
        score = float(self._aggregate_tuples(columns)[0])
        relevant = bool(signal[0]) or not self.drop_irrelevant
        if not relevant:
            score = 0.0
        profile.total_seconds += time.perf_counter() - start
        profile.tables_scored += 1
        return TableScore(
            table.table_id, score,
            [float(column[0]) for column in columns], relevant,
        )


__all__ = [
    "VectorizedTableSearchEngine",
]
