"""The postings-driven bound pass of the exact top-k scan.

``VectorizedTableSearchEngine._candidate_bounds`` bounds every table
from the segment's entity -> tables postings: each lane's top-m
entities are exact, every other table gets the lane's ceiling.  The
reference here is the dense pass it replaced, kept test-only: every
nnz entity of every selected table through every lane, one
``maximum.reduceat`` per table.  The load-bearing properties, over
both similarity families plus exact match, whole / shard / shortlist
selections, tombstoned, single-table and memmap-loaded segments, and
m from 1 to past the entity count:

* the postings bound is ``>=`` the dense bound everywhere;
* it is the dense bound with every coordinate floored at its lane's
  ceiling, so it equals the dense bound on every table the top-m
  postings touch;
* ``signals`` are bit-equal;
* when the first ceiling admits untouched tables the scan doubles m,
  and the ranking is still the full pass truncated to k.
"""

import random
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import (
    PrefilterStats,
    SegmentedCorpusIndex,
    VectorizedTableSearchEngine,
)
from repro.core.kernel import engine as engine_module
from repro.core.kernel.engine import _concat_ranges, lane_bounds
from repro.core.kernel.storage import load_index, save_index
from repro.core.query import Query
from repro.datalake import DataLake, Table
from repro.linking import EntityMapping
from repro.similarity.types import MappingTypeSimilarity

from tests.test_core_kernel import ENTITIES, make_lake, make_queries, make_sigma
from tests.test_kernel_scan import add_twins, replacement
from tests.test_kernel_union_join import pairs


def dense_coordinates(segment, tuples, positions):
    """Per lane and selected table, the clamped best entity similarity.

    The bound pass before postings: the nnz entity ids gathered through
    every lane, then ``maximum.reduceat`` per table.  A selection of
    most of the segment reads the nnz arrays as they lie and picks its
    tables afterwards, as that pass did.
    """
    whole = 2 * len(positions) >= len(segment.table_ids)
    if whole:
        lengths = np.diff(segment.nnz_toffset)
        ids = segment.nnz_gids
    else:
        starts = segment.nnz_toffset[positions]
        lengths = segment.nnz_toffset[positions + 1] - starts
        ids = segment.nnz_gids[_concat_ranges(starts, lengths)]
    stack = segment.lane_rows(tuples)
    best = np.zeros((len(stack), len(lengths)), dtype=np.float64)
    nonempty = np.flatnonzero(lengths > 0)
    if nonempty.size:
        best[:, nonempty] = np.maximum.reduceat(
            np.take(stack, ids, axis=1),
            (np.cumsum(lengths) - lengths)[nonempty], axis=1,
        )
    np.maximum(best, 0.0, out=best)
    return best[:, positions] if whole else best


def through_residual(engine, tuples, coordinates):
    """``(bounds, signals)`` of per-lane coordinates, as the engine forms them."""
    widths = [len(t) for t in tuples]
    firsts = np.cumsum([0] + widths)[:-1]
    weights = engine._lane_weights(tuples)
    return (
        lane_bounds(coordinates, weights, widths),
        np.logical_or.reduceat(coordinates > 0.0, firsts, axis=0),
    )


def dense_bounds(engine, segment, tuples, positions):
    """The dense reference of ``_candidate_bounds``."""
    return through_residual(
        engine, tuples, dense_coordinates(segment, tuples, positions)
    )


def ceilings(segment, tuples, top_m):
    """Each lane's ``(m + 1)``-th similarity clamped at zero (0 past it)."""
    stack = segment.lane_rows(tuples)
    if top_m >= stack.shape[1]:
        return np.zeros(len(stack))
    return np.maximum(-np.sort(-stack, axis=1)[:, top_m], 0.0)


def build_index(rng, lake, mapping, sigma, directory=None):
    """A multi-segment index with tombstones and single-table segments.

    The first segment takes two removals and a replacement (the new
    copy is a single-table segment); with a ``directory`` the result
    round-trips through ``save_index`` / ``load_index`` (memmaps).
    """
    index = SegmentedCorpusIndex.compile(
        lake, mapping, sigma, segment_tables=rng.randint(4, 9)
    )
    *victims, replaced = rng.sample(lake.table_ids()[:4], 3)
    for victim in victims:
        index = index.without_table(victim)
    table = replacement(rng, replaced)
    lake.remove(replaced)
    mapping.unlink_table(replaced)
    lake.add(table)
    mapping.link(replaced, 0, 0, rng.choice(ENTITIES))
    index = index.with_table(table)
    for victim in victims:
        lake.remove(victim)
        mapping.unlink_table(victim)
    if directory is not None:
        save_index(index, directory)
        index = load_index(directory, sigma, mapping)
    return index


def selections(rng, index, kind):
    """``(segment, sorted in-segment positions)`` of live tables."""
    layout = index.layout()
    for seg_index, lo, hi in layout.segment_slices(layout.live):
        local = layout.live[lo:hi] - layout.seg_base[seg_index]
        if kind == "shard":
            local = np.sort(rng.sample(list(local), max(1, len(local) // 2)))
        elif kind == "shortlist":
            local = np.sort(rng.sample(
                list(local), rng.randint(0, min(2, len(local)))
            ))
        yield index.segments[seg_index], np.asarray(local, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    sigma_kind=st.sampled_from(["types", "embeddings", "exact"]),
    selection=st.sampled_from(["whole", "shard", "shortlist"]),
    storage=st.sampled_from(["compiled", "memmap"]),
    top_m=st.sampled_from([1, 2, 5, 10**6]),
)
def test_postings_bound_is_the_dense_bound_floored_at_the_ceiling(
    seed, sigma_kind, selection, storage, top_m,
):
    rng = random.Random(seed)
    lake, mapping = make_lake(rng, num_tables=rng.randint(6, 24))
    add_twins(rng, lake, mapping, count=4)
    sigma = make_sigma(sigma_kind, rng)
    engine = VectorizedTableSearchEngine(lake, mapping, sigma)
    with tempfile.TemporaryDirectory() as directory:
        index = build_index(
            rng, lake, mapping, sigma,
            directory if storage == "memmap" else None,
        )
        check_segments(rng, engine, index, selection, top_m)


def check_segments(rng, engine, index, selection, top_m):
    assert index.stats().tombstones == 3
    assert any(len(segment.table_ids) == 1 for segment in index.segments)
    tuples = list(dict.fromkeys(
        query_tuple
        for query in make_queries(rng)
        for query_tuple in query.tuples
    ))
    for segment, positions in selections(rng, index, selection):
        bounds, signals = engine._candidate_bounds(
            segment, tuples, positions, engine.profile, top_m=top_m
        )
        dense = dense_coordinates(segment, tuples, positions)
        want_bounds, want_signals = through_residual(engine, tuples, dense)
        assert np.all(bounds >= want_bounds)
        assert np.array_equal(signals, want_signals)
        ceiling = ceilings(segment, tuples, top_m)[:, None]
        floored, _ = through_residual(
            engine, tuples, np.maximum(dense, ceiling)
        )
        assert bounds.tobytes() == floored.tobytes()
        # Touched tables (top-m hits, so at or above the ceiling in
        # every lane of the tuple) keep the dense bound bit for bit.
        lane = 0
        for row, query_tuple in enumerate(tuples):
            block = slice(lane, lane + len(query_tuple))
            lane += len(query_tuple)
            touched = np.all(dense[block] >= ceiling[block], axis=0)
            assert np.array_equal(
                bounds[row, touched], want_bounds[row, touched]
            )
        if top_m >= segment.num_entities:
            assert bounds.tobytes() == want_bounds.tobytes()


def ladder_lake(tables):
    """One entity per table, similarities strictly falling with the id.

    ``e{i}`` has the first ``tables - i`` of the query entity's types,
    so its Jaccard similarity falls with ``i`` (capped near the top),
    and its table's id rises as the similarity falls — the least
    similar tables sort first among tied ceiling bounds.
    """
    names = [f"t{i}" for i in range(tables)]
    types = {"kg:q": frozenset(names)}
    lake, mapping = DataLake(), EntityMapping()
    for i in range(tables):
        uri = f"kg:e{i}"
        types[uri] = frozenset(names[:tables - i])
        table_id = f"T{tables - 1 - i:03d}"
        lake.add(Table(table_id, ["a"], [["x"]]))
        mapping.link(table_id, 0, 0, uri)
    return lake, mapping, MappingTypeSimilarity(types)


def test_a_ceiling_the_kth_score_has_not_cleared_doubles_m():
    tables = 60
    lake, mapping, sigma = ladder_lake(tables)
    engine = VectorizedTableSearchEngine(lake, mapping, sigma)
    query = Query.single("kg:q")
    full = engine.search(query, k=None)
    assert len(full) == tables
    calls = []
    bound_pass = engine._candidate_bounds

    def spy(segment, tuples, positions, profile, top_m=None, sims_stack=None):
        calls.append(top_m)
        return bound_pass(segment, tuples, positions, profile, top_m=top_m,
                          sims_stack=sims_stack)

    # Chunks of 2k = 12: the four exact tables plus eight of the least
    # similar ones, so the k-th score does not clear the ceiling.
    k = 6
    with mock.patch.object(engine_module, "MIN_PRUNE_CHUNK", 1), \
            mock.patch.object(engine, "_candidate_bounds", spy):
        stats = PrefilterStats()
        got = engine.search_candidates(
            query, lake.table_ids(), k=k, stats=stats
        )
    assert pairs(got) == pairs(full.top(k))
    assert calls[0] is None
    refined = calls[1:]
    assert refined and refined == [
        engine_module.BOUND_TOP_M * 2 ** (step + 1)
        for step in range(len(refined))
    ]
    # Without the refinement every tied ceiling would be verified.
    assert stats.as_dict()["scored_fraction"] < 1.0
    for top_m in (1, 2, 10**6):
        with mock.patch.object(engine_module, "BOUND_TOP_M", top_m):
            for k in (1, 6, 20, tables):
                got = engine.search_candidates(query, lake.table_ids(), k=k)
                assert pairs(got) == pairs(full.top(k)), (top_m, k)


def test_postings_are_the_distinct_tables_of_each_entity():
    rng = random.Random(3)
    lake, mapping = make_lake(rng, num_tables=30)
    index = SegmentedCorpusIndex.compile(
        lake, mapping, make_sigma("types", rng)
    )
    (segment,) = index.segments
    postings = segment.postings()
    assert segment.postings() is postings
    posted = [
        postings.tables[postings.offsets[entity]:postings.offsets[entity + 1]]
        for entity in range(segment.num_entities)
    ]
    for tables in posted:
        assert np.all(np.diff(tables) > 0)
    for position in range(len(segment.table_ids)):
        low, high = segment.nnz_toffset[position:position + 2]
        entities = set(segment.nnz_gids[low:high].tolist())
        assert postings.distinct[position] == len(entities)
        for entity, tables in enumerate(posted):
            assert (position in tables) == (entity in entities)
