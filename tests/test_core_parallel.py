"""Parity and determinism tests for the sharded parallel engine.

The contract under test: for any query, candidate restriction, worker
count, and backend, :class:`ParallelSearchEngine` returns *bit-identical*
rankings (ids, scores, tie-breaks) to the sequential
:class:`TableSearchEngine`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ParallelSearchEngine,
    Query,
    TableSearchEngine,
    merge_topk,
    topk_search,
)
from repro.exceptions import ConfigurationError
from repro.similarity import Informativeness, TypeJaccardSimilarity


def assert_identical(left, right):
    """Rankings equal including exact (bit-identical) scores."""
    assert left.table_ids() == right.table_ids()
    for table_id in left.table_ids():
        assert left.score_of(table_id) == right.score_of(table_id), table_id


@pytest.fixture()
def engine(sports_lake, sports_mapping, sports_graph):
    return TableSearchEngine(
        sports_lake,
        sports_mapping,
        TypeJaccardSimilarity(sports_graph),
        informativeness=Informativeness.from_mapping(
            sports_mapping, len(sports_lake)
        ),
    )


QUERIES = [
    Query.single("kg:player0", "kg:team0", "kg:city0"),
    Query.single("kg:player7"),
    Query([("kg:player0", "kg:team0"), ("kg:player20", "kg:city1")]),
]


class TestThreadBackendParity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_full_ranking_matches_sequential(self, engine, workers):
        with ParallelSearchEngine(engine, workers=workers,
                                  chunk_size=2) as parallel:
            for query in QUERIES:
                assert_identical(parallel.search(query),
                                 engine.search(query))

    def test_k_truncation_matches(self, engine):
        with ParallelSearchEngine(engine, workers=3) as parallel:
            for k in (1, 3, 12):
                assert_identical(parallel.search(QUERIES[0], k=k),
                                 engine.search(QUERIES[0], k=k))

    def test_candidate_restriction_matches(self, engine):
        candidates = ["T03", "T01", "ghost", "T01", "T07"]
        with ParallelSearchEngine(engine, workers=2,
                                  chunk_size=1) as parallel:
            assert_identical(
                parallel.search(QUERIES[0], candidates=candidates),
                engine.search(QUERIES[0], candidates=candidates),
            )

    def test_search_many_matches(self, engine):
        queries = {f"q{i}": query for i, query in enumerate(QUERIES)}
        with ParallelSearchEngine(engine, workers=2) as parallel:
            sequential = engine.search_many(queries, k=5)
            fanned = dict(zip(
                queries, parallel.search_batch(list(queries.values()), k=5)
            ))
            assert sequential.keys() == fanned.keys()
            for query_id in queries:
                assert_identical(fanned[query_id], sequential[query_id])

    def test_two_parallel_runs_agree(self, engine):
        with ParallelSearchEngine(engine, workers=4,
                                  chunk_size=1) as parallel:
            first = parallel.search(QUERIES[2])
            second = parallel.search(QUERIES[2])
            assert_identical(first, second)

    def test_profile_shards_merge(self, engine):
        engine.profile.reset()
        with ParallelSearchEngine(engine, workers=3,
                                  chunk_size=2) as parallel:
            parallel.search(QUERIES[0])
        assert engine.profile.tables_scored == len(engine.lake)
        assert engine.profile.similarity_calls > 0
        assert engine.profile.total_seconds > 0.0
        assert parallel.profile is engine.profile

    def test_thread_workers_share_persistent_cache(self, engine):
        with ParallelSearchEngine(engine, workers=4) as parallel:
            parallel.search(QUERIES[0])
            engine.profile.reset()
            parallel.search(QUERIES[0])
        assert engine.profile.similarity_misses == 0
        assert engine.profile.similarity_calls > 0


class TestProcessBackendParity:
    def test_process_pool_matches_sequential(self, engine):
        with ParallelSearchEngine(engine, workers=2, backend="process",
                                  chunk_size=3) as parallel:
            for query in QUERIES[:2]:
                assert_identical(parallel.search(query, k=5),
                                 engine.search(query, k=5))

    def test_reset_workers_after_mutation(self, engine, sports_lake):
        with ParallelSearchEngine(engine, workers=2, backend="process",
                                  chunk_size=3) as parallel:
            before = parallel.search(QUERIES[1])
            parallel.reset_workers()
            after = parallel.search(QUERIES[1])
            assert_identical(before, after)


class TestConfiguration:
    def test_unknown_backend_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            ParallelSearchEngine(engine, backend="gpu")

    def test_invalid_workers_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            ParallelSearchEngine(engine, workers=0)

    def test_invalid_chunk_size_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            ParallelSearchEngine(engine, chunk_size=0)

    def test_default_workers_positive(self, engine):
        assert ParallelSearchEngine(engine).workers >= 1


class TestFacadeIntegration:
    def test_thetis_workers_match_sequential(self, sports_lake,
                                             sports_graph, sports_mapping):
        from repro import Thetis

        sequential = Thetis(sports_lake, sports_graph, sports_mapping)
        parallel = Thetis(sports_lake, sports_graph, sports_mapping,
                          workers=3)
        query = Query.single("kg:player3", "kg:team3")
        assert_identical(parallel.search(query, k=8),
                         sequential.search(query, k=8))
        stats = parallel.cache_stats("types")
        assert stats["similarity"].size > 0

    def test_thetis_parallel_engine_cached(self, sports_lake,
                                           sports_graph, sports_mapping):
        from repro import Thetis

        thetis = Thetis(sports_lake, sports_graph, sports_mapping,
                        workers=2)
        assert thetis.parallel_engine("types") is \
            thetis.parallel_engine("types")


class TestBenchgenCorpusParity:
    """The satellite parity matrix on a generated corpus: the same
    query set through sequential search, search_many, topk_search, and
    the parallel engine with 1 and N workers must agree everywhere."""

    @pytest.fixture()
    def bench_engine(self, small_benchmark):
        return TableSearchEngine(
            small_benchmark.lake,
            small_benchmark.mapping,
            TypeJaccardSimilarity(small_benchmark.graph),
            informativeness=Informativeness.from_mapping(
                small_benchmark.mapping, len(small_benchmark.lake)
            ),
        )

    def test_all_engines_agree(self, small_benchmark, bench_engine):
        queries = dict(
            list(small_benchmark.queries.one_tuple.items())[:2]
            + list(small_benchmark.queries.five_tuple.items())[:2]
        )
        k = 10
        sequential = {
            qid: bench_engine.search(query, k=k)
            for qid, query in queries.items()
        }
        batched = bench_engine.search_many(queries, k=k)
        topk = {
            qid: topk_search(bench_engine, query, k)
            for qid, query in queries.items()
        }
        with ParallelSearchEngine(bench_engine, workers=1) as single, \
                ParallelSearchEngine(bench_engine, workers=4,
                                     chunk_size=17) as fanned:
            one_worker = {qid: single.search(query, k=k)
                          for qid, query in queries.items()}
            n_workers = {qid: fanned.search(query, k=k)
                         for qid, query in queries.items()}
        for qid in queries:
            assert_identical(batched[qid], sequential[qid])
            assert_identical(topk[qid], sequential[qid])
            assert_identical(one_worker[qid], sequential[qid])
            assert_identical(n_workers[qid], sequential[qid])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 31), st.integers(0, 7), st.integers(1, 5))
def test_parallel_equivalence_property(player, team, workers):
    """Random queries and worker counts: parallel equals sequential."""
    from tests.conftest import make_sports_graph, make_sports_lake
    from repro.linking import LabelLinker

    store = test_parallel_equivalence_property.__dict__
    graph = store.setdefault("_graph", make_sports_graph())
    lake = store.setdefault("_lake", make_sports_lake())
    mapping = store.setdefault("_mapping",
                               LabelLinker(graph).link_lake(lake))
    engine = store.setdefault(
        "_engine",
        TableSearchEngine(lake, mapping, TypeJaccardSimilarity(graph)),
    )
    parallel = store.setdefault(
        "_parallel",
        ParallelSearchEngine(engine, workers=4, chunk_size=2),
    )
    parallel.workers = workers
    query = Query.single(f"kg:player{player}", f"kg:team{team}")
    assert_identical(parallel.search(query), engine.search(query))


class TestMergeTopk:
    """The shared partial-merge used by both the in-process sharded
    engine and the cluster coordinator's scatter-gather path."""

    def test_merges_and_orders_by_score_then_id(self):
        merged = merge_topk(
            [[(0.5, "b"), (0.25, "c")], [(0.75, "a"), (0.5, "aa")]]
        )
        assert merged == [
            (0.75, "a"), (0.5, "aa"), (0.5, "b"), (0.25, "c")
        ]

    def test_empty_partials_are_neutral(self):
        partial = [(1.0, "a"), (0.5, "b")]
        assert merge_topk([[], partial, []]) == merge_topk([partial])
        assert merge_topk([]) == []
        assert merge_topk([[], []]) == []

    def test_first_partial_wins_on_duplicate_ids(self):
        # Hedged retries can race a slow primary; the first-seen score
        # is kept so a duplicate can never change the ranking.
        merged = merge_topk([[(0.5, "a")], [(0.9, "a"), (0.4, "b")]])
        assert merged == [(0.5, "a"), (0.4, "b")]

    def test_k_truncates_and_none_keeps_all(self):
        partials = [[(0.1 * i, f"t{i}")] for i in range(8)]
        assert len(merge_topk(partials, k=3)) == 3
        assert len(merge_topk(partials, k=None)) == 8
        assert merge_topk(partials, k=0) == []
        assert merge_topk(partials, k=100) == merge_topk(partials)

    def test_partition_merge_equals_global_ranking(self, engine):
        # Score every table in one shot, then split the pairs across
        # arbitrary shards: the merge must reproduce the global order
        # bit-for-bit — the cluster-parity invariant in miniature.
        scored = engine.search(QUERIES[0], k=None)
        pairs = [(s.score, s.table_id) for s in scored]
        shards = [pairs[0::3], pairs[1::3], pairs[2::3]]
        assert merge_topk(shards) == sorted(
            pairs, key=lambda p: (-p[0], p[1])
        )
        assert merge_topk(shards, k=4) == merge_topk(shards)[:4]
