"""The lane-stacked verify pass against the per-tuple pass it replaced.

``VectorizedTableSearchEngine._segment_tuples`` scores a scan chunk's
tuples together: one assignment pass over every (tuple, table) pair,
with unique-best pairs resolved without enumeration, and under
``RowAggregation.MAX`` coordinates read off the relevance pass's own
gather.  The reference here is the pass it replaced, kept test-only
(:func:`reference_segment_tuples`): per tuple, the enumeration grouped
by positive-lane pattern, the greedy-then-solver fallback per table,
one ``flat_ids`` gather of every assigned column, and a per-tuple
Eq. 2 tail.  The load-bearing properties:

* the two passes agree byte for byte over random lakes with twin
  tables, both similarity families (and a custom sigma with negative
  values), both row aggregations, both tuple semantics, widths 1-7,
  random selections, zero-row tables and all-null columns;
* the assignment pass ends at the reference's columns in the pinned
  corner cases of the unique-best shortcut;
* under ``MAX`` the verify pass never reads ``segment.flat_ids``.
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import RowAggregation, TupleSemantics
from repro.core.assignment import (
    ASSIGNMENT_MARGIN,
    enumerate_assignments,
    max_assignment,
)
from repro.core.kernel import VectorizedTableSearchEngine
from repro.core.kernel import engine as engine_module
from repro.core.kernel.engine import _assign_pairs, _concat_ranges
from repro.core.query import Query
from repro.core.search import ScoringProfile
from repro.datalake import DataLake, Table
from repro.kg import Entity, KnowledgeGraph, TypeTaxonomy
from repro.linking import EntityMapping
from repro.similarity.base import EntitySimilarity
from repro.system import Thetis

from tests.test_core_kernel import ENTITIES, make_lake, make_sigma
from tests.test_kernel_scan import add_twins


# ----------------------------------------------------------------------
# The per-tuple reference pass
# ----------------------------------------------------------------------
def reference_distances(coordinates, weights):
    """Eq. 2 per row of an ``(n, width)`` matrix, in tuple order."""
    residual = 1.0 - np.minimum(coordinates, 1.0)
    total = np.zeros(len(coordinates), dtype=np.float64)
    for position, weight in enumerate(weights):
        total += weight * residual[:, position] * residual[:, position]
    return np.sqrt(total)


def fast_assignment(relevance):
    """Greedy columns when every positive lane's best is strict and free."""
    maxima = relevance.max(axis=1)
    best = relevance.argmax(axis=1)
    positive = maxima > 0.0
    active = best[positive]
    if len(set(active.tolist())) != active.size:
        return None
    ties = (relevance == maxima[:, None]).sum(axis=1)
    if np.any(ties[positive] > 1):
        return None
    return np.where(positive, best, -1)


def enumerate_pattern(col_offset, table_columns, relevance, rows, selection):
    """The null-augmented enumeration of one positive-lane pattern."""
    columns = table_columns[selection]
    cmax = int(columns.max())
    options = cmax + 1
    gather = col_offset[selection][:, None] + np.arange(cmax)
    np.minimum(gather, relevance.shape[1] - 1, out=gather)
    valid = np.arange(cmax) < columns[:, None]
    real = relevance[rows][:, gather]
    blocks = np.concatenate([
        np.where(valid[None, :, :] & (real > 0.0), real, -np.inf),
        np.zeros((len(rows), len(selection), 1), dtype=np.float64),
    ], axis=2)
    size = len(selection)
    if len(rows) == 1:
        flat = blocks[0]
    elif len(rows) == 2:
        flat = blocks[0][:, :, None] + blocks[1][:, None, :]
        diagonal = np.arange(cmax)
        flat[:, diagonal, diagonal] = -np.inf
        flat = flat.reshape(size, -1)
    else:
        totals = (
            blocks[0][:, :, None, None]
            + blocks[1][:, None, :, None]
            + blocks[2][:, None, None, :]
        )
        i, j, k = np.ix_(*[np.arange(options)] * 3)
        clash = (
            ((i == j) & (i != cmax))
            | ((i == k) & (i != cmax))
            | ((j == k) & (j != cmax))
        )
        totals[:, clash] = -np.inf
        flat = totals.reshape(size, -1)
    best = flat.argmax(axis=1)
    lanes = np.arange(size)
    best_totals = flat[lanes, best]
    flat[lanes, best] = -np.inf
    ok = best_totals - flat.max(axis=1) >= ASSIGNMENT_MARGIN
    if len(rows) == 1:
        chosen = best[:, None]
    elif len(rows) == 2:
        chosen = np.stack(np.divmod(best, options), axis=1)
    else:
        chosen = np.stack(
            np.unravel_index(best, (options, options, options)), axis=1
        )
    chosen = chosen.astype(np.int64)
    return np.where(chosen == cmax, -1, chosen), ok


def tuple_assignments(col_offset, table_columns, relevance, width):
    """One tuple's columns per table: enumeration, then greedy, then solver."""
    assignment = np.full((len(table_columns), width), -1, dtype=np.int64)
    maxima = np.maximum.reduceat(relevance, col_offset[:-1], axis=1)
    positive = maxima > 0.0
    need = positive.any(axis=0)
    fallback = []
    if width <= 3:
        codes = (
            positive * (1 << np.arange(width, dtype=np.int64))[:, None]
        ).sum(axis=0)
        codes = np.where(need, codes, 0)
        for code in np.unique(codes):
            if code == 0:
                continue
            rows = np.flatnonzero((int(code) >> np.arange(width)) & 1)
            selection = np.flatnonzero(codes == code)
            chosen, ok = enumerate_pattern(
                col_offset, table_columns, relevance, rows, selection
            )
            resolved = selection[ok]
            assignment[resolved[:, None], rows[None, :]] = chosen[ok]
            fallback.extend(selection[~ok].tolist())
    else:
        fallback.extend(np.flatnonzero(need).tolist())
    for table_index in fallback:
        block = np.ascontiguousarray(
            relevance[:, col_offset[table_index]:col_offset[table_index + 1]]
        )
        resolved = fast_assignment(block)
        if resolved is None:
            resolved = np.asarray(max_assignment(block)[0])
        assignment[table_index] = resolved
    return assignment


def reference_segment_tuples(engine, segment, tuples, selection):
    """The verify pass one tuple at a time, gathering from ``flat_ids``."""
    row_agg_max = engine.row_aggregation is RowAggregation.MAX
    per_row_semantics = engine.tuple_semantics is TupleSemantics.PER_ROW
    table_rows = segment.table_rows[selection]
    table_columns = segment.table_columns[selection]
    col_offset = np.zeros(len(selection) + 1, dtype=np.int64)
    np.cumsum(table_columns, out=col_offset[1:])
    total_columns = int(col_offset[-1])
    seg_col_offset = segment.col_offset[selection]
    nnz_start = segment.nnz_toffset[selection]
    nnz_lengths = segment.nnz_toffset[selection + 1] - nnz_start
    entries = _concat_ranges(nnz_start, nnz_lengths)
    nnz_ids = segment.nnz_gids[entries]
    nnz_columns = segment.nnz_gcolumns[entries] + np.repeat(
        col_offset[:-1] - seg_col_offset, nnz_lengths
    )
    num_tables = len(selection)
    row_offset = np.zeros(num_tables + 1, dtype=np.int64)
    np.cumsum(table_rows, out=row_offset[1:])
    populated = np.flatnonzero(table_rows > 0)
    outputs = []
    for query_tuple in tuples:
        width = len(query_tuple)
        sims = segment.lane_rows([query_tuple])
        relevance = np.zeros((width, total_columns), dtype=np.float64)
        if nnz_ids.size:
            keys = nnz_columns + (np.arange(width) * total_columns)[:, None]
            relevance = np.bincount(
                keys.ravel(),
                weights=(sims[:, nnz_ids]
                         * segment.nnz_gcounts[entries]).ravel(),
                minlength=width * total_columns,
            ).reshape(width, total_columns)
        assignment = tuple_assignments(
            col_offset, table_columns, relevance, width
        )
        active = (assignment >= 0) & (table_rows > 0)[:, None]
        sel_table, sel_pos = np.nonzero(active)
        lengths = table_rows[sel_table]
        seg_starts = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        weights = engine._lane_weights([query_tuple])
        if total:
            within = np.arange(total) - np.repeat(seg_starts, lengths)
            ids = segment.flat_ids[np.repeat(segment.col_start[
                seg_col_offset[sel_table] + assignment[sel_table, sel_pos]
            ], lengths) + within]
            linked = ids >= 0
            gathered = np.where(
                linked,
                sims[np.repeat(sel_pos, lengths), np.where(linked, ids, 0)],
                0.0,
            )
            seg_max = np.maximum.reduceat(gathered, seg_starts)
            seg_avg = np.add.reduceat(gathered, seg_starts) / lengths
        if per_row_semantics:
            scores = np.zeros((int(row_offset[-1]), width), dtype=np.float64)
            signal = np.zeros(num_tables, dtype=bool)
            if total:
                scores[
                    np.repeat(row_offset[sel_table], lengths) + within,
                    np.repeat(sel_pos, lengths),
                ] = gathered
                acc = np.zeros(num_tables, dtype=np.float64)
                np.maximum.at(acc, sel_table, seg_max)
                signal = acc > 0.0
            per_row = 1.0 / (reference_distances(scores, weights) + 1.0)
            column = np.zeros(num_tables, dtype=np.float64)
            if populated.size:
                offsets = row_offset[populated]
                if row_agg_max:
                    column[populated] = np.maximum.reduceat(per_row, offsets)
                else:
                    column[populated] = (
                        np.add.reduceat(per_row, offsets)
                        / table_rows[populated]
                    )
            outputs.append((column, signal))
            continue
        coordinates = np.zeros((num_tables, width), dtype=np.float64)
        if total:
            coordinates[sel_table, sel_pos] = (
                seg_max if row_agg_max else seg_avg
            )
        outputs.append((
            1.0 / (reference_distances(coordinates, weights) + 1.0),
            coordinates.max(axis=1) > 0.0,
        ))
    return outputs


def assert_same_outputs(got, want):
    assert len(got) == len(want)
    for (column, signal), (want_column, want_signal) in zip(got, want):
        assert column.dtype == np.float64
        assert column.tobytes() == want_column.tobytes()
        assert np.array_equal(signal, want_signal)


# ----------------------------------------------------------------------
# Property: byte-equal to the reference
# ----------------------------------------------------------------------
def add_hollow_tables(rng, lake, mapping):
    """A table with an all-null column and one with an unlinked column."""
    rows = [[None, f"h{r}", f"u{r}"] for r in range(rng.randint(1, 5))]
    lake.add(Table("Hollow", ["a0", "a1", "a2"], rows))
    for r in range(len(rows)):
        mapping.link("Hollow", r, 1, rng.choice(ENTITIES))


class SignedSimilarity(EntitySimilarity):
    """A custom sigma with negative values (scored by the scalar loop).

    Under ``MAX`` a column whose linked cells all score below zero
    takes ``0.0`` from an unlinked cell; the solver can hand such a
    column to a lane whose relevance is nowhere positive.
    """

    def similarity(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        return 0.5 if a[-1] == b[-1] else -0.25

    @property
    def is_symmetric(self) -> bool:
        return True


def random_tuples(rng):
    """Distinct tuples of widths 1-7, some with an unknown entity."""
    tuples = []
    for _ in range(rng.randint(1, 6)):
        width = rng.randint(1, 7)
        entities = rng.sample(ENTITIES[:rng.randint(width, 40)], width)
        if rng.random() < 0.2:
            entities[rng.randrange(width)] = "kg:not-in-the-corpus"
        tuples.append(tuple(entities))
    return list(dict.fromkeys(tuples))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    sigma_kind=st.sampled_from(["types", "embeddings", "combo", "signed"]),
    row_aggregation=st.sampled_from(list(RowAggregation)),
    tuple_semantics=st.sampled_from(list(TupleSemantics)),
)
def test_lane_stacked_pass_equals_the_per_tuple_pass(
    seed, sigma_kind, row_aggregation, tuple_semantics,
):
    rng = random.Random(seed)
    lake, mapping = make_lake(rng, num_tables=rng.randint(6, 24))
    add_twins(rng, lake, mapping, count=4)
    add_hollow_tables(rng, lake, mapping)
    sigma = (
        SignedSimilarity() if sigma_kind == "signed"
        else make_sigma(sigma_kind, rng)
    )
    engine = VectorizedTableSearchEngine(
        lake, mapping, sigma,
        row_aggregation=row_aggregation,
        tuple_semantics=tuple_semantics,
    )
    (segment,) = engine.index().segments
    tables = len(segment.table_ids)
    profile = ScoringProfile()
    for _ in range(4):
        tuples = random_tuples(rng)
        selection = np.array(
            sorted(rng.sample(range(tables), rng.randint(1, tables))),
            dtype=np.int64,
        )
        assert_same_outputs(
            engine._segment_tuples(segment, tuples, profile, selection),
            reference_segment_tuples(engine, segment, tuples, selection),
        )


# ----------------------------------------------------------------------
# Pinned assignment cases
# ----------------------------------------------------------------------
def stacked_assignment(relevances, table_columns):
    """``_assign_pairs`` over per-tuple ``(width, columns)`` matrices."""
    table_columns = np.asarray(table_columns, dtype=np.int64)
    col_offset = np.concatenate(([0], np.cumsum(table_columns)))
    widths = [len(relevance) for relevance in relevances]
    lane_offset = np.concatenate(([0], np.cumsum(widths)))
    positions = np.arange(max(widths))
    valid = positions < np.asarray(widths)[:, None]
    lanes = np.where(valid, lane_offset[:-1, None] + positions, 0)
    return _assign_pairs(
        np.concatenate(relevances).astype(np.float64), col_offset,
        table_columns, lanes, valid,
    )


def assert_pinned(relevances, table_columns):
    """The stacked pass ends at the per-tuple reference's columns."""
    got = stacked_assignment(relevances, table_columns)
    col_offset = np.concatenate(([0], np.cumsum(table_columns)))
    for t, relevance in enumerate(relevances):
        want = tuple_assignments(
            col_offset, np.asarray(table_columns), relevance, len(relevance)
        )
        assert np.array_equal(got[t, :, :len(relevance)], want)
        assert (got[t, :, len(relevance):] == -1).all()
    return got


def test_unique_best_pair_whose_margin_fails():
    # Lane 0's best is strict, but its runner-up column trails by
    # 5e-13: the enumeration misses the margin, the shortcut does not
    # need it.
    relevance = np.array([[0.5, 0.5 - 5e-13], [0.0, 0.0]])
    _, _, ok, _ = enumerate_assignments(
        relevance, np.array([0, 2]), np.array([2]),
        np.array([[0]]), np.array([0]),
    )
    assert not ok[0]
    got = assert_pinned([relevance], [2])
    assert got[0, 0].tolist() == [0, -1]


def test_tie_at_a_lanes_max():
    relevance = np.array([[0.4, 0.4, 0.1], [0.3, 0.0, 0.2]])
    got = assert_pinned([relevance], [3])
    assert got[0, 0].tolist() == [1, 0]


def test_two_lanes_sharing_a_best_column():
    relevance = np.array([[0.9, 0.1, 0.0], [0.8, 0.2, 0.0], [0.0, 0.0, 0.3]])
    got = assert_pinned([relevance], [3])
    assert got[0, 0].tolist() == [0, 1, 2]


def test_width_five_tuples_shortcut_and_solver():
    shortcut = np.array([
        [0.9, 0.1, 0.0, 0.0, 0.0, 0.2],
        [0.0, 0.7, 0.0, 0.1, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.2, 0.0, 0.0, 0.6, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.5, 0.4],
    ])
    # Lanes 0 and 1 both peak at column 0: only the solver decides.
    conflict = shortcut.copy()
    conflict[1, 0] = 0.8
    calls = []

    def counting(block):
        calls.append(np.array(block).tolist())
        return max_assignment(block)

    with mock.patch.object(engine_module, "max_assignment", counting):
        got = assert_pinned([shortcut, conflict], [6])
    assert calls == [conflict.tolist()]
    assert got[0, 0].tolist() == [0, 1, -1, 3, 4]
    assert got[1, 0, [0, 1]].tolist() == [0, 1]


def test_zero_relevance_pairs_take_no_column():
    relevance = np.zeros((3, 5))
    got = assert_pinned([relevance, np.zeros((1, 5))], [2, 3])
    assert (got == -1).all()


# ----------------------------------------------------------------------
# Under MAX, no row gather
# ----------------------------------------------------------------------
class Untouchable:
    """An array stand-in that fails the test when indexed."""

    def __getitem__(self, key):
        raise AssertionError("the verify pass indexed flat_ids")


def test_max_verify_pass_never_indexes_flat_ids():
    rng = random.Random(5)
    lake, mapping = make_lake(rng, num_tables=20)
    add_twins(rng, lake, mapping, count=3)
    engine = VectorizedTableSearchEngine(
        lake, mapping, make_sigma("types", rng)
    )
    (segment,) = engine.index().segments
    tuples = random_tuples(rng)
    selection = np.arange(len(segment.table_ids))
    want = reference_segment_tuples(engine, segment, tuples, selection)
    queries = [Query([list(entry) for entry in tuples])]
    ids = [lake.table_ids()]
    ranked = engine.search_batch(queries, k=5, candidates=ids)[0]
    flat_ids = segment.flat_ids
    segment.flat_ids = Untouchable()
    try:
        assert_same_outputs(
            engine._segment_tuples(
                segment, tuples, ScoringProfile(), selection
            ),
            want,
        )
        again = engine.search_batch(queries, k=5, candidates=ids)[0]
        assert [(s.score, s.table_id) for s in again] == [
            (s.score, s.table_id) for s in ranked
        ]
        # The stand-in does catch a pass that gathers rows.
        engine.row_aggregation = RowAggregation.AVG
        with pytest.raises(AssertionError, match="flat_ids"):
            engine._segment_tuples(
                segment, tuples, ScoringProfile(), selection
            )
    finally:
        segment.flat_ids = flat_ids


# ----------------------------------------------------------------------
# The enumeration element budget
# ----------------------------------------------------------------------
def tied_wide_lake(tables, columns):
    """``tables`` one-row tables whose ``columns`` cells all share the
    query entities' types, so every column ties for every lane."""
    taxonomy = TypeTaxonomy()
    taxonomy.add_type("Thing")
    taxonomy.add_type("Player", "Thing")
    graph = KnowledgeGraph(taxonomy)
    types = frozenset(taxonomy.ancestors("Player"))
    for i in range(columns + 3):
        graph.add_entity(Entity(f"kg:p{i}", f"P {i}", types))
    lake, mapping = DataLake(), EntityMapping()
    for t in range(tables):
        table_id = f"W{t:02d}"
        lake.add(Table(
            table_id, [f"c{j}" for j in range(columns)],
            [[f"P {j + 3}" for j in range(columns)]],
        ))
        for j in range(columns):
            mapping.link(table_id, 0, j, f"kg:p{j + 3}")
    return graph, lake, mapping


def test_wide_tied_lake_stays_inside_the_element_budget():
    """32 tables x 160 tied columns: a 3-tuple's pairs would each pad
    to 161**3 enumeration cells (~1 GB in one call) without the
    per-pair ceiling; over it they go to the solver instead."""
    graph, lake, mapping = tied_wide_lake(32, 160)
    query = Query([["kg:p0", "kg:p1", "kg:p2"]])
    with Thetis(lake, graph, mapping, engine_kind="scalar") as scalar:
        want = [(s.score, s.table_id) for s in scalar.search(query, k=10)]
    with Thetis(lake, graph, mapping, engine_kind="vectorized") as fast:
        fast.warm()
        tracemalloc.start()
        try:
            got = fast.search(query, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert [s.table_id for s in got] == [table_id for _, table_id in want]
    for scored, (score, _) in zip(got, want):
        assert scored.score == pytest.approx(score, abs=1e-9)
