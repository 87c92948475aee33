"""Tests for the vectorized scoring kernel (corpus index + engine).

The load-bearing property is *parity*: the vectorized engine must score
every table within 1e-9 of the scalar engine across tuple semantics,
aggregation modes, similarity families, nulls, unlinked cells, tables
without rows, and entities missing embeddings.  The randomized suite
here pins that, plus the index lifecycle under dynamic lakes, snapshot
swaps, parallel sharding, and pickling.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    QueryAggregation,
    RowAggregation,
    TupleSemantics,
)
from repro.core.kernel import (
    ENGINE_KINDS,
    CorpusIndex,
    SegmentedCorpusIndex,
    VectorizedTableSearchEngine,
    compile_kernel,
)
from repro.core.kernel import index as index_module
from repro.core.kernel.index import (
    EmbeddingMatmulKernel,
    ScalarLoopKernel,
    TypeBitmapKernel,
)
from repro.core.query import Query
from repro.core.search import ScoringProfile, TableSearchEngine
from repro.datalake import DataLake, Table
from repro.embeddings import EmbeddingStore
from repro.exceptions import ConfigurationError
from repro.linking import EntityMapping
from repro.serve.snapshot import SnapshotManager
from repro.similarity.base import (
    EntitySimilarity,
    ExactMatchSimilarity,
    WeightedCombination,
)
from repro.similarity.embedding import EmbeddingCosineSimilarity
from repro.similarity.types import MappingTypeSimilarity
from repro.system import Thetis

TOLERANCE = 1e-9

ENTITIES = [f"kg:e{i}" for i in range(40)]


class SuffixSimilarity(EntitySimilarity):
    """Custom sigma with no batched form (exercises ScalarLoopKernel)."""

    def similarity(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        return 0.5 if a[-1] == b[-1] else 0.0

    @property
    def is_symmetric(self) -> bool:
        return True


def make_types(rng):
    pool = [f"Type{i}" for i in range(12)]
    types = {}
    for uri in ENTITIES:
        if rng.random() < 0.15:
            types[uri] = frozenset()  # typeless entity
        else:
            types[uri] = frozenset(rng.sample(pool, rng.randint(1, 5)))
    return types


def make_store(rng):
    npr = np.random.default_rng(rng.randint(0, 2**31))
    vectors = {
        uri: npr.normal(size=8)
        for uri in ENTITIES
        if rng.random() >= 0.2  # ~20% of entities miss an embedding
    }
    vectors["kg:anchor"] = npr.normal(size=8)  # store is never empty
    return EmbeddingStore(vectors)


def make_sigma(kind, rng):
    if kind == "exact":
        return ExactMatchSimilarity()
    if kind == "types":
        return MappingTypeSimilarity(make_types(rng))
    if kind == "embeddings":
        return EmbeddingCosineSimilarity(make_store(rng))
    if kind == "combo":
        return WeightedCombination(
            [MappingTypeSimilarity(make_types(rng)),
             EmbeddingCosineSimilarity(make_store(rng))],
            [0.6, 0.4],
        )
    assert kind == "custom"
    return SuffixSimilarity()


def make_lake(rng, num_tables=8):
    """Random lake with nulls, unlinked cells, a rowless table (T3),
    and a table with no links at all (T5)."""
    lake, mapping = DataLake(), EntityMapping()
    for t in range(num_tables):
        columns = rng.randint(1, 5)
        num_rows = 0 if t == 3 else rng.randint(1, 6)
        rows = [
            [f"v{r}.{c}" if rng.random() < 0.8 else None
             for c in range(columns)]
            for r in range(num_rows)
        ]
        table_id = f"T{t}"
        lake.add(Table(table_id, [f"a{c}" for c in range(columns)], rows))
        if t == 5:
            continue
        for r in range(num_rows):
            for c in range(columns):
                if rows[r][c] is not None and rng.random() < 0.6:
                    mapping.link(table_id, r, c, rng.choice(ENTITIES))
    return lake, mapping


def make_queries(rng):
    return [
        Query.single(rng.choice(ENTITIES)),
        Query([rng.sample(ENTITIES, 3), rng.sample(ENTITIES, 2)]),
        Query([rng.sample(ENTITIES, 7)]),  # wider than any table
        Query([[rng.choice(ENTITIES), "kg:not-in-the-corpus"]]),
    ]


def engine_pair(lake, mapping, sigma, **kwargs):
    scalar = TableSearchEngine(lake, mapping, sigma, **kwargs)
    vector = VectorizedTableSearchEngine(lake, mapping, sigma, **kwargs)
    return scalar, vector


def table_cells(index, table_id):
    """One compiled table read off a segment's corpus arrays.

    Returns its ``(rows, columns)`` id grid (the transpose of its
    column-major ``flat_ids`` block) and its nnz triples (the
    ``nnz_toffset`` slice) with table-local column numbers.
    """
    position = index.table_ids.index(table_id)
    rows = int(index.table_rows[position])
    columns = int(index.table_columns[position])
    first = int(index.col_offset[position])
    start = int(index.col_start[first])
    ids = index.flat_ids[start:start + rows * columns].reshape(columns, rows).T
    low = int(index.nnz_toffset[position])
    high = int(index.nnz_toffset[position + 1])
    return (
        ids,
        index.nnz_gcolumns[low:high] - first,
        index.nnz_gids[low:high],
        index.nnz_gcounts[low:high],
    )


def assert_score_parity(scalar, vector, queries, lake):
    for query in queries:
        for table in lake:
            a = scalar.score_table(query, table)
            b = vector.score_table(query, table)
            assert a.relevant == b.relevant, table.table_id
            assert abs(a.score - b.score) <= TOLERANCE, table.table_id
            assert len(a.tuple_scores) == len(b.tuple_scores)
            for x, y in zip(a.tuple_scores, b.tuple_scores):
                assert abs(x - y) <= TOLERANCE, table.table_id


# ----------------------------------------------------------------------
# Randomized scalar-vs-vectorized parity
# ----------------------------------------------------------------------
class TestScoreParity:
    @pytest.mark.parametrize("sigma_kind", ["exact", "types", "embeddings",
                                            "combo", "custom"])
    @pytest.mark.parametrize("semantics", [TupleSemantics.PER_ENTITY,
                                           TupleSemantics.PER_ROW])
    @pytest.mark.parametrize("row_agg", [RowAggregation.MAX,
                                         RowAggregation.AVG])
    def test_score_table_parity(self, sigma_kind, semantics, row_agg):
        seeds = {"exact": 3, "types": 5, "embeddings": 7, "combo": 11,
                 "custom": 13}
        rng = random.Random(seeds[sigma_kind])
        lake, mapping = make_lake(rng)
        sigma = make_sigma(sigma_kind, rng)
        scalar, vector = engine_pair(
            lake, mapping, sigma,
            tuple_semantics=semantics, row_aggregation=row_agg,
        )
        assert_score_parity(scalar, vector, make_queries(rng), lake)

    @pytest.mark.parametrize("drop_irrelevant", [True, False])
    def test_parity_without_dropping_irrelevant(self, drop_irrelevant):
        rng = random.Random(23)
        lake, mapping = make_lake(rng)
        scalar, vector = engine_pair(
            lake, mapping, make_sigma("types", rng),
            drop_irrelevant=drop_irrelevant,
        )
        assert_score_parity(scalar, vector, make_queries(rng), lake)

    def test_parity_on_fully_unlinked_lake(self):
        lake, mapping = DataLake(), EntityMapping()
        lake.add(Table("T0", ["a"], [["x"], ["y"]]))
        scalar, vector = engine_pair(
            lake, mapping, ExactMatchSimilarity(), drop_irrelevant=False
        )
        query = Query.single(ENTITIES[0])
        a = scalar.score_table(query, lake.get("T0"))
        b = vector.score_table(query, lake.get("T0"))
        assert abs(a.score - b.score) <= TOLERANCE

    def test_search_ranking_parity(self):
        rng = random.Random(29)
        lake, mapping = make_lake(rng, num_tables=10)
        scalar, vector = engine_pair(lake, mapping, make_sigma("combo", rng))
        for query in make_queries(rng):
            a = scalar.search(query)
            b = vector.search(query)
            assert {s.table_id: s.score for s in a}.keys() == \
                {s.table_id: s.score for s in b}.keys()
            scores_a = {s.table_id: s.score for s in a}
            for scored in b:
                assert abs(scores_a[scored.table_id] - scored.score) \
                    <= TOLERANCE

    def test_search_ranking_bit_identical_for_types(self):
        # The bitmap Jaccard path is integer arithmetic end to end, so
        # even the ranking order must match the scalar engine exactly.
        rng = random.Random(31)
        lake, mapping = make_lake(rng, num_tables=10)
        sigma = make_sigma("types", rng)
        scalar, vector = engine_pair(lake, mapping, sigma)
        for query in make_queries(rng):
            a = scalar.search(query)
            b = vector.search(query)
            assert [(s.table_id, s.score) for s in a] == \
                [(s.table_id, s.score) for s in b]

    def test_topk_search_parity(self):
        # The kernel's pruned scan against the scalar engine's brute
        # force, which scores every table and then truncates.
        rng = random.Random(37)
        lake, mapping = make_lake(rng, num_tables=10)
        scalar, vector = engine_pair(lake, mapping, make_sigma("types", rng))
        query = Query([rng.sample(ENTITIES, 3)])
        a = scalar.search(query, k=4)
        b = vector.search(query, k=4)
        assert [(s.table_id, s.score) for s in a] == \
            [(s.table_id, s.score) for s in b]

    @pytest.mark.parametrize("sigma_kind", ["exact", "types", "embeddings",
                                            "combo"])
    @pytest.mark.parametrize("semantics", [TupleSemantics.PER_ENTITY,
                                           TupleSemantics.PER_ROW])
    def test_batched_search_parity(self, sigma_kind, semantics):
        # search() takes the whole-lake batched path (one relevance
        # bincount + enumerated assignments for every table at once);
        # it must rank exactly like the scalar per-table loop across
        # semantics, tie-heavy sigmas (exact-match relevance is all 0/1
        # sums), and the wide tuple that skips enumeration entirely.
        rng = random.Random(41)
        lake, mapping = make_lake(rng, num_tables=12)
        scalar, vector = engine_pair(
            lake, mapping, make_sigma(sigma_kind, rng),
            tuple_semantics=semantics,
            row_aggregation=RowAggregation.AVG,
        )
        for query in make_queries(rng):
            a = {s.table_id: s.score for s in scalar.search(query)}
            b = {s.table_id: s.score for s in vector.search(query)}
            assert a.keys() == b.keys()
            for table_id, score in b.items():
                assert abs(a[table_id] - score) <= TOLERANCE, table_id

    def test_candidate_restricted_search_parity(self):
        # The LSH-prefilter path (candidates=...) bypasses the batch
        # and scores per table through the kernel.
        rng = random.Random(43)
        lake, mapping = make_lake(rng, num_tables=10)
        scalar, vector = engine_pair(lake, mapping, make_sigma("types", rng))
        query = Query([rng.sample(ENTITIES, 2)])
        candidates = [table.table_id for table in lake][::2]
        a = scalar.search(query, candidates=candidates)
        b = vector.search(query, candidates=candidates)
        assert [(s.table_id, s.score) for s in a] == \
            [(s.table_id, s.score) for s in b]

    def test_search_on_empty_lake(self):
        scalar, vector = engine_pair(
            DataLake(), EntityMapping(), ExactMatchSimilarity()
        )
        query = Query.single(ENTITIES[0])
        assert list(vector.search(query)) == list(scalar.search(query)) == []


class TestOneScorePerTable:
    """``score_table`` and ``search`` are one kernel: the same number.

    Bit for bit, not within a tolerance: a table's score must not
    depend on whether it was scored alone or ranked with the lake.
    """

    @pytest.mark.parametrize("sigma_kind", ["types", "embeddings"])
    @pytest.mark.parametrize("row_agg", list(RowAggregation))
    @pytest.mark.parametrize("semantics", list(TupleSemantics))
    @pytest.mark.parametrize("query_agg", list(QueryAggregation))
    def test_score_table_is_the_search_score(
        self, sigma_kind, row_agg, semantics, query_agg
    ):
        settings = dict(
            row_aggregation=row_agg,
            tuple_semantics=semantics,
            query_aggregation=query_agg,
        )
        for seed in range(8):
            rng = random.Random(seed)
            lake, mapping = make_lake(rng, num_tables=10)
            engine = VectorizedTableSearchEngine(
                lake, mapping, make_sigma(sigma_kind, rng), **settings
            )
            for query in make_queries(rng):
                for scored in engine.search(query, k=None):
                    single = engine.score_table(
                        query, lake.get(scored.table_id)
                    )
                    assert single.score == scored.score, (
                        seed, query, scored.table_id
                    )

            # A foreign table scores now exactly as it will once the
            # lake holds it.
            query = Query([rng.sample(ENTITIES, 3)])
            foreign = Table("GHOST", ["a", "b"], [["x", "y"], ["z", None]])
            mapping.link("GHOST", 0, 0, query.tuples[0][0])
            mapping.link("GHOST", 0, 1, rng.choice(ENTITIES))
            mapping.link("GHOST", 1, 0, rng.choice(ENTITIES))
            before = engine.score_table(query, foreign)
            assert "GHOST" not in engine.index()
            lake.add(foreign)
            engine.invalidate_table("GHOST")
            ranked = {
                s.table_id: s.score for s in engine.search(query, k=None)
            }
            assert before.score == ranked["GHOST"], seed


# ----------------------------------------------------------------------
# The compiled index and its kernels
# ----------------------------------------------------------------------
class TestCorpusIndex:
    def test_interning_and_views(self):
        rng = random.Random(41)
        lake, mapping = make_lake(rng)
        index = CorpusIndex(lake, mapping, ExactMatchSimilarity())
        assert index.uris == sorted(index.uris)
        assert index.num_entities == len(index.uris)
        assert len(index) == len(lake)
        assert "T0" in index and "nope" not in index
        assert "nope" not in index.table_ids
        ids, _, _, _ = table_cells(index, "T0")
        table = lake.get("T0")
        assert ids.shape == (table.num_rows, table.num_columns)
        # Every non-negative id round-trips through the interning.
        for r in range(table.num_rows):
            for c in range(table.num_columns):
                uri = mapping.entity_at("T0", r, c)
                if uri is None:
                    assert ids[r, c] == -1
                else:
                    assert index.uris[ids[r, c]] == uri

    def test_nnz_multiset_matches_mapping(self):
        rng = random.Random(43)
        lake, mapping = make_lake(rng)
        index = CorpusIndex(lake, mapping, ExactMatchSimilarity())
        for table in lake:
            _, nnz_columns, nnz_ids, nnz_counts = table_cells(
                index, table.table_id
            )
            for column in range(table.num_columns):
                expected = {}
                for uri in mapping.entities_in_column(
                    table.table_id, column
                ):
                    expected[uri] = expected.get(uri, 0) + 1
                mask = nnz_columns == column
                got = {
                    index.uris[i]: c
                    for i, c in zip(nnz_ids[mask], nnz_counts[mask])
                }
                assert got == expected

    def test_sims_row_memoized_and_read_only(self):
        rng = random.Random(47)
        lake, mapping = make_lake(rng)
        index = CorpusIndex(lake, mapping, make_sigma("types", rng))
        row = index.sims_row(ENTITIES[0])
        assert row is index.sims_row(ENTITIES[0])
        with pytest.raises(ValueError):
            row[0] = 99.0
        stats = index.row_cache_stats()
        assert stats.hits >= 1 and stats.misses >= 1

    def test_sims_row_profile_accounting(self):
        rng = random.Random(53)
        lake, mapping = make_lake(rng)
        index = CorpusIndex(lake, mapping, make_sigma("types", rng))
        profile = ScoringProfile()
        index.sims_row(ENTITIES[1], profile)
        assert profile.similarity_calls == index.num_entities
        assert profile.similarity_misses == index.num_entities
        index.sims_row(ENTITIES[1], profile)  # memo hit: calls only
        assert profile.similarity_calls == 2 * index.num_entities
        assert profile.similarity_misses == index.num_entities


# ----------------------------------------------------------------------
# The numpy compile against the grid walk it replaced
# ----------------------------------------------------------------------
COMPILED_ARRAYS = (
    "table_rows", "table_columns", "col_offset", "row_offset", "flat_ids",
    "col_start", "nnz_gcolumns", "nnz_gids", "nnz_gcounts", "nnz_toffset",
)


def grid_walk_compile(tables, mapping):
    """Reference compile: read every cell of every table through
    ``entity_row`` and count each column's entities in first-occurrence
    order, as ``CorpusIndex`` compiled before it read only the links."""
    grids = [
        (table, [mapping.entity_row(table.table_id, row, table.num_columns)
                 for row in range(table.num_rows)])
        for table in tables
    ]
    uris = sorted({
        uri for _, grid in grids for row in grid for uri in row
        if uri is not None
    })
    id_of = {uri: index for index, uri in enumerate(uris)}
    table_rows = np.array([t.num_rows for t in tables], dtype=np.int64)
    table_columns = np.array([t.num_columns for t in tables], dtype=np.int64)
    col_offset = np.concatenate(
        ([0], np.cumsum(table_columns))).astype(np.int64)
    flat_ids, nnz_gcolumns, nnz_gids, nnz_gcounts = [], [], [], []
    nnz_toffset = [0]
    for (table, grid), first in zip(grids, col_offset):
        for column in range(table.num_columns):
            counter = {}
            for row in grid:
                uri = row[column]
                flat_ids.append(-1 if uri is None else id_of[uri])
                if uri is not None:
                    counter[id_of[uri]] = counter.get(id_of[uri], 0) + 1
            nnz_gcolumns.extend([int(first) + column] * len(counter))
            nnz_gids.extend(counter)
            nnz_gcounts.extend(counter.values())
        nnz_toffset.append(len(nnz_gcolumns))
    arrays = {
        "table_rows": table_rows,
        "table_columns": table_columns,
        "col_offset": col_offset,
        "row_offset": np.concatenate(
            ([0], np.cumsum(table_rows))).astype(np.int64),
        "flat_ids": np.asarray(flat_ids, dtype=np.int32),
        "col_start": np.concatenate(
            ([0], np.cumsum(np.repeat(table_rows, table_columns)))
        ).astype(np.int64),
        "nnz_gcolumns": np.asarray(nnz_gcolumns, dtype=np.int64),
        "nnz_gids": np.asarray(nnz_gids, dtype=np.int32),
        "nnz_gcounts": np.asarray(nnz_gcounts, dtype=np.float64),
        "nnz_toffset": np.asarray(nnz_toffset, dtype=np.int64),
    }
    return arrays, uris, [table.table_id for table in tables]


def assert_compiles_like_the_grid_walk(tables, mapping):
    expected, uris, table_ids = grid_walk_compile(tables, mapping)
    index = CorpusIndex(tables, mapping, ExactMatchSimilarity())
    for name in COMPILED_ARRAYS:
        got = getattr(index, name)
        assert got.dtype == expected[name].dtype, name
        np.testing.assert_array_equal(got, expected[name], err_msg=name)
    assert index.uris == uris
    assert index.table_ids == table_ids


@st.composite
def linked_lakes(draw):
    """Small lakes with nulls, zero-row and linkless tables, an entity
    repeated down and across columns, and links outside the grid."""
    entities = [f"kg:e{i}" for i in range(draw(st.integers(1, 4)))]
    tables, mapping = [], EntityMapping()
    for t in range(draw(st.integers(1, 7))):
        columns = draw(st.integers(1, 4))
        num_rows = draw(st.integers(0, 5))
        rows = [
            [None if draw(st.booleans()) else f"v{r}.{c}"
             for c in range(columns)]
            for r in range(num_rows)
        ]
        tables.append(Table(f"T{t}", [f"a{c}" for c in range(columns)], rows))
        # Coordinates up to two past the grid: those links are skipped.
        cells = draw(st.dictionaries(
            st.tuples(st.integers(0, num_rows + 1),
                      st.integers(0, columns + 1)),
            st.sampled_from(entities), max_size=12,
        ))
        for (row, column), uri in cells.items():
            mapping.link(f"T{t}", row, column, uri)
    return tables, mapping


class TestCompileParity:
    @settings(max_examples=60, deadline=None)
    @given(lake=linked_lakes(), chunk=st.sampled_from([1, 2, 3, 256]))
    def test_arrays_equal_the_grid_walk(self, lake, chunk):
        tables, mapping = lake
        with mock.patch.object(index_module, "COMPILE_CHUNK_TABLES", chunk):
            assert_compiles_like_the_grid_walk(tables, mapping)
            for table in tables:
                assert_compiles_like_the_grid_walk([table], mapping)
            assert_compiles_like_the_grid_walk(tables[1:], mapping)
            assert_compiles_like_the_grid_walk([], mapping)

    def test_selection_straddling_the_default_chunk(self):
        rng = random.Random(53)
        lake, mapping = make_lake(
            rng, num_tables=index_module.COMPILE_CHUNK_TABLES + 9)
        tables = list(lake)
        assert_compiles_like_the_grid_walk(tables, mapping)
        assert_compiles_like_the_grid_walk(tables[3:260], mapping)


class TestKernels:
    def test_dispatch(self):
        rng = random.Random(59)
        uris = list(ENTITIES)
        id_of = {uri: i for i, uri in enumerate(uris)}
        assert isinstance(
            compile_kernel(make_sigma("types", rng), uris, id_of),
            TypeBitmapKernel,
        )
        assert isinstance(
            compile_kernel(make_sigma("embeddings", rng), uris, id_of),
            EmbeddingMatmulKernel,
        )
        assert isinstance(
            compile_kernel(SuffixSimilarity(), uris, id_of),
            ScalarLoopKernel,
        )

    @pytest.mark.parametrize("kind", ["exact", "types", "embeddings",
                                      "combo", "custom"])
    def test_kernel_row_matches_scalar_sigma(self, kind):
        rng = random.Random(61)
        uris = sorted(rng.sample(ENTITIES, 25))
        id_of = {uri: i for i, uri in enumerate(uris)}
        sigma = make_sigma(kind, rng)
        kernel = compile_kernel(sigma, uris, id_of)
        for uri in uris[:5] + ["kg:not-in-the-corpus"]:
            row = kernel.row(uri)
            for other, index in id_of.items():
                assert abs(row[index] - sigma.similarity(uri, other)) \
                    <= TOLERANCE, (uri, other)

    def test_type_bitmap_exact_across_word_boundary(self):
        # >64 distinct types forces multi-word uint64 bitmaps; the
        # integer popcount Jaccard must stay bit-equal to the scalar.
        rng = random.Random(67)
        pool = [f"Wide{i}" for i in range(130)]
        types = {
            uri: frozenset(rng.sample(pool, rng.randint(1, 40)))
            for uri in ENTITIES
        }
        sigma = MappingTypeSimilarity(types)
        uris = sorted(ENTITIES)
        id_of = {uri: i for i, uri in enumerate(uris)}
        kernel = compile_kernel(sigma, uris, id_of)
        assert isinstance(kernel, TypeBitmapKernel)
        for uri in uris[:10]:
            row = kernel.row(uri)
            for other, index in id_of.items():
                assert row[index] == sigma.similarity(uri, other)


# ----------------------------------------------------------------------
# Engine lifecycle: invalidation, pickling, sharding, serving
# ----------------------------------------------------------------------
class TestEngineLifecycle:
    def test_prepare_and_cache_stats(self):
        rng = random.Random(71)
        lake, mapping = make_lake(rng)
        engine = VectorizedTableSearchEngine(
            lake, mapping, make_sigma("types", rng)
        )
        assert "kernel_rows" not in engine.cache_stats()  # index unbuilt
        engine.prepare()
        assert engine._index is not None
        assert "kernel_rows" in engine.cache_stats()

    def test_invalidate_table_is_incremental(self):
        rng = random.Random(73)
        lake, mapping = make_lake(rng)
        engine = VectorizedTableSearchEngine(
            lake, mapping, make_sigma("types", rng)
        )
        first = engine.index()
        base_segment = first.segments[0]
        engine.invalidate_table("T0")
        # The index is updated in place of a teardown: a successor
        # instance exists immediately, shares the untouched segment by
        # reference, and carries a tombstone for the replaced copy.
        second = engine._index
        assert second is not None and second is not first
        assert second.segments[0] is base_segment
        assert second.stats().tombstones == 1
        assert "T0" in second
        # invalidate_cache stays the full-reset hammer.
        engine.invalidate_cache()
        assert engine._index is None

    def test_stale_view_triggers_rebuild(self):
        rng = random.Random(79)
        lake, mapping = make_lake(rng)
        sigma = make_sigma("types", rng)
        scalar, vector = engine_pair(lake, mapping, sigma)
        vector.prepare()
        # Mutate the lake behind the engine's back: the next score of
        # the unknown table reconciles the index once (the table gets a
        # single-table segment), scores through the kernel and agrees.
        lake.add(Table("T99", ["a"], [["x"], ["y"]]))
        mapping.link("T99", 0, 0, ENTITIES[0])
        mapping.link("T99", 1, 0, ENTITIES[1])
        scalar.invalidate_table("T99")
        query = Query.single(ENTITIES[0], ENTITIES[1])
        a = scalar.score_table(query, lake.get("T99"))
        b = vector.score_table(query, lake.get("T99"))
        assert abs(a.score - b.score) <= TOLERANCE
        assert "T99" in vector.index()

    def test_lake_is_listed_once_per_mutation(self, monkeypatch):
        """Searches over an unchanged lake skip the O(lake) mirror
        check; a lake mutated behind the engine's back still
        reconciles, because every add / remove bumps its version."""
        rng = random.Random(89)
        lake, mapping = make_lake(rng)
        sigma = make_sigma("types", rng)
        engine = VectorizedTableSearchEngine(lake, mapping, sigma)
        checks = []
        mirrors = SegmentedCorpusIndex.mirrors
        monkeypatch.setattr(
            SegmentedCorpusIndex, "mirrors",
            lambda index, ids: checks.append(len(ids)) or mirrors(index, ids),
        )
        query = Query.single(ENTITIES[0], ENTITIES[1])
        engine.search(query, k=3)
        listed = len(checks)
        for k in (3, 5, None):
            engine.search(query, k=k)
        assert len(checks) == listed

        def assert_mirrored():
            fresh = VectorizedTableSearchEngine(lake, mapping, sigma)
            got = engine.search(query, k=None)
            want = fresh.search(query, k=None)
            assert [(s.table_id, s.score) for s in got] == [
                (s.table_id, s.score) for s in want
            ]

        version = lake.version
        lake.add(Table("T99", ["a"], [["x"], ["y"]]))
        mapping.link("T99", 0, 0, ENTITIES[0])
        mapping.link("T99", 1, 0, ENTITIES[1])
        assert lake.version == version + 1
        assert_mirrored()
        assert "T99" in engine.index() and len(checks) > listed
        lake.remove("T99")
        mapping.unlink_table("T99")
        assert lake.version == version + 2
        assert_mirrored()
        assert "T99" not in engine.index()

    def test_mirror_advances_only_for_the_mutated_table(self, monkeypatch):
        """``invalidate_table`` carries a verified mirror across exactly
        the one lake change it applies; invalidating some other table
        after a change behind the engine's back still reconciles."""
        rng = random.Random(97)
        lake, mapping = make_lake(rng)
        sigma = make_sigma("types", rng)
        engine = VectorizedTableSearchEngine(lake, mapping, sigma)
        checks = []
        mirrors = SegmentedCorpusIndex.mirrors
        monkeypatch.setattr(
            SegmentedCorpusIndex, "mirrors",
            lambda index, ids: checks.append(len(ids)) or mirrors(index, ids),
        )
        query = Query.single(ENTITIES[0], ENTITIES[1])
        engine.search(query, k=3)
        listed = len(checks)
        # Applied: the add and its invalidation keep the mirror.
        lake.add(Table("T98", ["a"], [["x"]]))
        mapping.link("T98", 0, 0, ENTITIES[0])
        engine.invalidate_table("T98")
        engine.compact()
        engine.search(query, k=3)
        assert len(checks) == listed
        # Not applied: T99 joins behind the engine's back while T0 is
        # the table invalidated, so the next search lists and finds T99.
        lake.add(Table("T99", ["a"], [["x"]]))
        mapping.link("T99", 0, 0, ENTITIES[0])
        engine.invalidate_table("T0")
        got = engine.search(query, k=None)
        assert len(checks) > listed
        want = VectorizedTableSearchEngine(lake, mapping, sigma).search(
            query, k=None
        )
        assert [(s.table_id, s.score) for s in got] == [
            (s.table_id, s.score) for s in want
        ]
        assert "T99" in got.table_ids()

    def test_foreign_table_falls_back_to_scalar_path(self):
        rng = random.Random(83)
        lake, mapping = make_lake(rng)
        sigma = make_sigma("types", rng)
        scalar, vector = engine_pair(lake, mapping, sigma)
        # A table that is not in the lake at all: the vectorized engine
        # reconciles once, still misses it, and scores it through the
        # kernel over a throwaway single-table segment.
        foreign = Table("GHOST", ["a"], [["x"]])
        mapping.link("GHOST", 0, 0, ENTITIES[2])
        scalar.invalidate_cache()
        vector.invalidate_cache()
        query = Query.single(ENTITIES[2])
        a = scalar.score_table(query, foreign)
        b = vector.score_table(query, foreign)
        assert abs(a.score - b.score) <= TOLERANCE


class TestThetisIntegration:
    def test_engine_kind_selection(self, sports_lake, sports_graph,
                                   sports_mapping):
        assert set(ENGINE_KINDS) == {"scalar", "vectorized"}
        default = Thetis(sports_lake, sports_graph, sports_mapping)
        assert isinstance(default.engine("types"),
                          VectorizedTableSearchEngine)
        scalar = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind="scalar")
        assert type(scalar.engine("types")) is TableSearchEngine
        with pytest.raises(ConfigurationError):
            Thetis(sports_lake, sports_graph, sports_mapping,
                   engine_kind="quantum")

    def test_kernel_is_not_a_scalar_engine(self):
        assert not issubclass(VectorizedTableSearchEngine, TableSearchEngine)

    def test_explain_is_the_oracle_trail_under_both_kinds(
        self, sports_lake, sports_graph, sports_mapping, sports_embeddings
    ):
        systems = {
            kind: Thetis(sports_lake, sports_graph, sports_mapping,
                         embeddings=sports_embeddings, engine_kind=kind)
            for kind in ENGINE_KINDS
        }
        queries = [
            Query.single("kg:player0", "kg:team0"),
            # Wider than the sports tables' entity columns: some query
            # entity maps to no column.
            Query.single("kg:player0", "kg:player1", "kg:player2",
                         "kg:player3", "kg:player4"),
        ]
        unmapped = 0
        for method in ("types", "embeddings"):
            for query in queries:
                for table_id in ("T00", "T03"):
                    got = systems["vectorized"].explain(
                        query, table_id, method=method
                    )
                    assert got == systems["scalar"].explain(
                        query, table_id, method=method
                    )
                    unmapped += sum(
                        entity.column == -1
                        for tup in got.tuples for entity in tup.entities
                    )
        assert unmapped > 0

    def test_search_parity_through_facade(self, sports_lake, sports_graph,
                                          sports_mapping, sports_embeddings):
        query = Query.single("kg:player0", "kg:team0", "kg:city0")
        results = {}
        for kind in ENGINE_KINDS:
            thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                            embeddings=sports_embeddings, engine_kind=kind)
            for method in ("types", "embeddings"):
                results[(kind, method)] = thetis.search(
                    query, k=5, method=method
                )
        for method in ("types", "embeddings"):
            a = results[("scalar", method)]
            b = results[("vectorized", method)]
            assert [s.table_id for s in a] == [s.table_id for s in b]
            for x, y in zip(a, b):
                assert abs(x.score - y.score) <= TOLERANCE

    def test_add_remove_table_rebuilds_index(self, sports_lake,
                                             sports_graph, sports_mapping):
        reference = Thetis(sports_lake, sports_graph, sports_mapping)
        lake, mapping = reference.snapshot_inputs()
        thetis = Thetis(lake, sports_graph, mapping,
                        engine_kind="vectorized")
        query = Query.single("kg:player0", "kg:team0")
        baseline_ids = {s.table_id for s in thetis.search(query, k=100)}
        thetis.add_table(Table(
            "TNEW", ["Player", "Team"],
            [["Player 0", "Team 0"], ["Player 8", "Team 0"]],
        ))
        after_add = thetis.search(query, k=100)
        assert "TNEW" in {s.table_id for s in after_add}
        assert "TNEW" in thetis.engine("types").index()
        thetis.remove_table("TNEW")
        after_remove = {s.table_id for s in thetis.search(query, k=100)}
        assert after_remove == baseline_ids
        assert "TNEW" not in thetis.engine("types").index()

    def test_snapshot_swap_preserves_kind_and_warms_index(
        self, sports_lake, sports_graph, sports_mapping
    ):
        reference = Thetis(sports_lake, sports_graph, sports_mapping)
        lake, mapping = reference.snapshot_inputs()
        manager = SnapshotManager(
            Thetis(lake, sports_graph, mapping, engine_kind="vectorized"),
            warm_method="types",
        )
        try:
            manager.apply(lambda t: t.add_table(Table(
                "TSNAP", ["Player", "Team"],
                [["Player 0", "Team 0"]],
            )))
            current = manager.current.thetis
            assert current.engine_kind == "vectorized"
            engine = current.engine("types")
            assert isinstance(engine, VectorizedTableSearchEngine)
            # warm_method compiled the index off the request path.
            assert engine._index is not None
            assert "TSNAP" in engine.index()
            query = Query.single("kg:player0", "kg:team0")
            with manager.checkout() as snapshot:
                results = snapshot.thetis.search(query, k=100)
            assert "TSNAP" in {s.table_id for s in results}
            manager.apply(lambda t: t.remove_table("TSNAP"))
            assert "TSNAP" not in manager.current.thetis.engine(
                "types"
            ).index()
        finally:
            manager.close()

    def test_vectorized_warm_builds_no_scalar_views(
        self, sports_lake, sports_graph, sports_mapping
    ):
        reference = Thetis(sports_lake, sports_graph, sports_mapping,
                           engine_kind="scalar")
        lake, mapping = reference.snapshot_inputs()
        thetis = Thetis(lake, sports_graph, mapping, engine_kind="vectorized")
        manager = SnapshotManager(thetis, warm_method="types")

        def assert_index_only(system):
            stats = system.cache_stats("types")
            assert set(stats) == {"kernel_rows", "kernel_tuples"}
            engine = system.engine("types")
            assert engine.index_stats().live_tables == len(system.lake)
            index = engine.export_index()
            assert index.maybe_compacted(system.lake.get) is index

        try:
            assert thetis.warm("types") == len(lake)
            assert_index_only(thetis)
            manager.apply(lambda t: t.add_table(Table(
                "TWARM", ["Player", "Team"], [["Player 0", "Team 0"]],
            )))
            current = manager.current.thetis
            assert_index_only(current)
            # explain runs the oracle's trail on a throwaway scalar
            # engine, so it agrees with the oracle.
            query = Query.single("kg:player0", "kg:team0")
            got = current.explain(query, "T00").score
            assert abs(got - reference.explain(query, "T00").score) \
                <= TOLERANCE
        finally:
            manager.close()

    def test_profile_counts_under_vectorized_engine(
        self, sports_lake, sports_graph, sports_mapping
    ):
        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        engine_kind="vectorized")
        thetis.search(Query.single("kg:player0", "kg:team0"), k=5)
        engine = thetis.engine("types")
        profile = engine.profile
        assert profile.tables_scored > 0
        assert profile.similarity_calls > 0
        assert 0 < profile.similarity_misses <= profile.similarity_calls
        # A repeat query is answered from the row memo: calls keep
        # growing, misses do not.
        misses = profile.similarity_misses
        thetis.search(Query.single("kg:player0", "kg:team0"), k=5)
        assert profile.similarity_calls > 0
        assert profile.similarity_misses == misses
        assert 0.0 < profile.similarity_hit_rate <= 1.0
        stats = engine.cache_stats()
        assert stats["kernel_tuples"].hits > 0
        assert stats["kernel_rows"].misses > 0
