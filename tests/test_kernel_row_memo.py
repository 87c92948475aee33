"""The kernel's one per-entity memo: similarity rows, bounded in bytes.

Each :class:`~repro.core.kernel.index.CorpusIndex` segment memoizes one
dense similarity row per query entity, and nothing else per entity.
The load-bearing properties:

* *sizing* — a segment holds ``max(1, ROW_MEMO_BYTES // (8 * entities))``
  rows, whether it was compiled or memmapped by ``load_index``, and it
  reports its footprint and ceiling in bytes;
* *lanes* — ``lane_rows`` is the stack of ``kernel.row`` over every
  lane, counted in the profile as one ``sims_row`` lookup per lane;
* *eviction is invisible* — with a budget of 1-2 rows per segment a
  multi-segment index ranks exactly as with a roomy memo, and as the
  scalar oracle, and no segment ever holds more than its budget.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import (
    ROW_MEMO_BYTES,
    CorpusIndex,
    SegmentedCorpusIndex,
    VectorizedTableSearchEngine,
    load_index,
    save_index,
)
from repro.core.kernel import index as index_module
from repro.core.search import ScoringProfile, TableSearchEngine
from repro.datalake import Table

from tests.test_core_kernel import (
    ENTITIES,
    make_lake,
    make_queries,
    make_sigma,
)
from tests.test_core_segments import assert_ranking_parity, rankings_of
from tests.test_kernel_union_join import pairs


def row_cap(num_entities):
    """The byte formula: rows of ``8 * entities`` bytes, at least one."""
    return max(1, index_module.ROW_MEMO_BYTES // (8 * max(1, num_entities)))


def within_budget(segment):
    """A segment holds its budget's bytes, or the one row it may exceed."""
    held = segment.row_cache_stats().size
    return held <= max(index_module.ROW_MEMO_BYTES, 8 * segment.num_entities)


@pytest.mark.parametrize("budget", [ROW_MEMO_BYTES, 200, 1])
def test_row_cap_is_the_byte_formula_compiled_and_loaded(tmp_path, budget):
    rng = random.Random(5)
    lake, mapping = make_lake(rng, num_tables=10)
    sigma = make_sigma("types", rng)
    with mock.patch.object(index_module, "ROW_MEMO_BYTES", budget):
        compiled = SegmentedCorpusIndex.compile(
            lake, mapping, sigma, segment_tables=4
        )
        save_index(compiled, str(tmp_path))
        loaded = load_index(str(tmp_path), sigma, mapping)
        assert len(compiled.segments) == len(loaded.segments) == 3
        for segment in compiled.segments + loaded.segments:
            assert segment.num_entities > 0
            assert segment._rows.maxsize == row_cap(segment.num_entities)
            assert segment.row_cache_stats().maxsize == budget


def test_row_memo_reports_bytes_and_the_index_sums_them():
    rng = random.Random(7)
    lake, mapping = make_lake(rng, num_tables=10)
    index = SegmentedCorpusIndex.compile(
        lake, mapping, make_sigma("types", rng), segment_tables=4
    )
    uris = ENTITIES[:3]
    for segment in index.segments:
        segment.lane_rows([tuple(uris)])
        stats = segment.row_cache_stats()
        assert stats.size == len(uris) * 8 * segment.num_entities
        assert stats.maxsize == ROW_MEMO_BYTES
        assert (stats.hits, stats.misses) == (0, len(uris))
    total = index.row_cache_stats()
    assert total.size == sum(
        len(uris) * 8 * segment.num_entities for segment in index.segments
    )
    assert total.maxsize == len(index.segments) * ROW_MEMO_BYTES


@pytest.mark.parametrize(
    "sigma_kind", ["exact", "types", "embeddings", "combo", "custom"]
)
def test_lane_rows_stack_kernel_rows_and_count_like_sims_row(sigma_kind):
    rng = random.Random(11)
    lake, mapping = make_lake(rng)
    index = CorpusIndex(lake, mapping, make_sigma(sigma_kind, rng))
    tuples = [
        tuple(rng.sample(ENTITIES, 3)),
        (ENTITIES[0], "kg:not-in-the-corpus"),
        (ENTITIES[0],),
    ]
    lanes = [uri for query_tuple in tuples for uri in query_tuple]
    profile = ScoringProfile()
    stack = index.lane_rows(tuples, profile)
    assert stack.shape == (len(lanes), index.num_entities)
    assert np.array_equal(
        stack, np.stack([index.kernel.row(uri) for uri in lanes])
    )
    # One sims_row lookup per lane: every lane counts a call per
    # entity, and each row computed counts a miss per entity.
    calls = len(lanes) * index.num_entities
    misses = len(set(lanes)) * index.num_entities
    assert (profile.similarity_calls, profile.similarity_misses) == (
        calls, misses,
    )
    again = index.lane_rows(tuples, profile)
    assert np.array_equal(again, stack)
    assert (profile.similarity_calls, profile.similarity_misses) == (
        2 * calls, misses,
    )
    stats = index.row_cache_stats()
    assert stats.misses == len(set(lanes))
    assert stats.hits == 2 * len(lanes) - len(set(lanes))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    budget_rows=st.sampled_from([1, 2]),
    sigma_kind=st.sampled_from(["exact", "types", "custom"]),
)
def test_rankings_under_eviction_equal_roomy_memo_and_oracle(
    seed, budget_rows, sigma_kind,
):
    rng = random.Random(seed)
    lake, mapping = make_lake(rng, num_tables=rng.randint(8, 16))
    sigma = make_sigma(sigma_kind, rng)
    segment_tables = rng.randint(2, 5)
    queries = make_queries(rng)
    roomy = VectorizedTableSearchEngine(lake, mapping, sigma)
    roomy.adopt_index(SegmentedCorpusIndex.compile(
        lake, mapping, sigma, segment_tables=segment_tables
    ))
    checked = CorpusIndex.sims_row

    def sims_row(segment, uri, profile=None):
        row = checked(segment, uri, profile)
        assert segment._rows.maxsize == row_cap(segment.num_entities)
        assert within_budget(segment)
        return row

    # A budget of ``8 * budget_rows`` bytes: a one-entity segment holds
    # ``budget_rows`` rows, and every larger segment a single row.
    with mock.patch.object(
        index_module, "ROW_MEMO_BYTES", 8 * budget_rows
    ), mock.patch.object(CorpusIndex, "sims_row", sims_row):
        tight = VectorizedTableSearchEngine(lake, mapping, sigma)
        tight.adopt_index(SegmentedCorpusIndex.compile(
            lake, mapping, sigma, segment_tables=segment_tables
        ))
        # A removal and an add: the new single-table segment is sized
        # under the same budget.
        victim = rng.choice(lake.table_ids())
        lake.remove(victim)
        mapping.unlink_table(victim)
        lake.add(Table("Tnew", ["a0", "a1"], [["x", "y"], ["z", None]]))
        for row, column in ((0, 0), (0, 1), (1, 0)):
            mapping.link("Tnew", row, column, rng.choice(ENTITIES))
        tight.invalidate_table(victim)
        tight.invalidate_table("Tnew")
        assert tight.index_stats().segments > 2
        # The second pass mixes hits and evictions.
        passes = [
            (tight.search_batch(queries, k=None),
             tight.search_batch(queries, k=3))
            for _ in range(2)
        ]
        for segment in tight.index().segments:
            assert within_budget(segment)
    assert tight.cache_stats()["kernel_rows"].evictions > 0
    roomy.invalidate_table(victim)
    roomy.invalidate_table("Tnew")
    roomy_full = roomy.search_batch(queries, k=None)
    for full, top in passes:
        assert [pairs(r) for r in full] == [pairs(r) for r in roomy_full]
        assert [pairs(r) for r in top] == [pairs(r.top(3)) for r in full]
    scalar = TableSearchEngine(lake, mapping, sigma)
    assert_ranking_parity(
        passes[-1][0], rankings_of(scalar, queries), exact=False
    )
