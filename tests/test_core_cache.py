"""Tests for the bounded LRU caches and the persistent similarity memo."""

import threading

import pytest

from repro.core import Query, ScoringProfile, TableSearchEngine
from repro.core.cache import (
    CacheStats,
    LRUCache,
    SimilarityCache,
    format_cache_stats,
)
from repro.datalake import DataLake, Table
from repro.exceptions import ConfigurationError
from repro.linking import EntityMapping
from repro.similarity import MappingTypeSimilarity, TypeJaccardSimilarity
from repro.similarity.base import EntitySimilarity


class CountingSimilarity(EntitySimilarity):
    """Test double recording every underlying evaluation."""

    def __init__(self, symmetric: bool):
        self.symmetric = symmetric
        self.calls = []

    def similarity(self, a: str, b: str) -> float:
        self.calls.append((a, b))
        if a == b:
            return 1.0
        # An asymmetric toy score so orientation is observable.
        return 0.25 if a < b else 0.75

    @property
    def is_symmetric(self) -> bool:
        return self.symmetric


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing", "fallback") == "fallback"
        assert "a" in cache and len(cache) == 1

    def test_bound_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")           # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_stats_counters(self):
        cache = LRUCache(1)
        cache.get("x")           # miss
        cache.put("x", 1)
        cache.get("x")           # hit
        cache.put("y", 2)        # evicts x
        stats = cache.stats()
        assert stats == CacheStats(hits=1, misses=1, evictions=1,
                                   size=1, maxsize=1)
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.lookups == 2

    def test_peek_does_not_count_or_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("nope") is None
        assert cache.stats().hits == 0 and cache.stats().misses == 0

    def test_clear_keeps_counters_reset_stats_zeroes(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1
        cache.reset_stats()
        assert cache.stats().hits == 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)

    def test_concurrent_access_stays_consistent(self):
        cache = LRUCache(64)

        def worker(offset):
            for i in range(200):
                cache.put((offset, i % 32), i)
                cache.get((offset, (i + 1) % 32))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 64
        stats = cache.stats()
        assert stats.hits + stats.misses == 4 * 200


class TestSimilarityCache:
    def test_symmetric_pair_evaluated_once(self):
        """Regression: (a, b) and (b, a) must share one evaluation."""
        sigma = CountingSimilarity(symmetric=True)
        cache = SimilarityCache(sigma, maxsize=16)
        first = cache.similarity("kg:a", "kg:b")
        second = cache.similarity("kg:b", "kg:a")
        assert len(sigma.calls) == 1
        assert first == second
        assert len(cache) == 1

    def test_asymmetric_pair_keeps_both_orientations(self):
        sigma = CountingSimilarity(symmetric=False)
        cache = SimilarityCache(sigma, maxsize=16)
        ab = cache.similarity("kg:a", "kg:b")
        ba = cache.similarity("kg:b", "kg:a")
        assert len(sigma.calls) == 2
        assert ab != ba
        assert len(cache) == 2

    def test_key_canonicalization(self):
        symmetric = SimilarityCache(CountingSimilarity(True), maxsize=4)
        assert symmetric.key_of("b", "a") == ("a", "b")
        assert symmetric.key_of("a", "b") == ("a", "b")
        ordered = SimilarityCache(CountingSimilarity(False), maxsize=4)
        assert ordered.key_of("b", "a") == ("b", "a")

    def test_profile_counts_calls_and_misses(self):
        cache = SimilarityCache(CountingSimilarity(True), maxsize=16)
        profile = ScoringProfile()
        cache.similarity("kg:a", "kg:b", profile)
        cache.similarity("kg:a", "kg:b", profile)
        cache.similarity("kg:b", "kg:a", profile)
        assert profile.similarity_calls == 3
        assert profile.similarity_misses == 1
        assert profile.similarity_hit_rate == pytest.approx(2 / 3)

    def test_builtin_similarities_declare_symmetry(self, sports_graph):
        assert TypeJaccardSimilarity(sports_graph).is_symmetric
        assert MappingTypeSimilarity({}).is_symmetric

    def test_format_cache_stats_lists_every_cache(self):
        cache = SimilarityCache(CountingSimilarity(True), maxsize=4)
        report = format_cache_stats({"similarity": cache.stats()})
        assert "similarity" in report and "hit rate" in report


@pytest.fixture()
def engine(sports_lake, sports_mapping, sports_graph):
    return TableSearchEngine(
        sports_lake, sports_mapping, TypeJaccardSimilarity(sports_graph)
    )


class TestEngineCaching:
    def test_cache_persists_across_search_calls(self, engine):
        """A repeated query must not re-evaluate any similarity."""
        query = Query.single("kg:player0", "kg:team0")
        engine.profile.reset()
        engine.search(query)
        cold_misses = engine.profile.similarity_misses
        assert cold_misses > 0
        engine.search(query)
        assert engine.profile.similarity_misses == cold_misses
        assert engine.profile.similarity_calls > cold_misses

    def test_cache_shared_by_search_many_and_topk(self, engine):
        query = Query.single("kg:player1", "kg:team1")
        engine.search(query)
        misses = engine.profile.similarity_misses
        engine.search_batch([query])
        engine.search(query, k=3)
        assert engine.profile.similarity_misses == misses

    def test_cache_stats_exposes_all_caches(self, engine):
        engine.search(Query.single("kg:player0"))
        stats = engine.cache_stats()
        assert set(stats) == {"similarity", "grids", "column_counts"}
        assert stats["similarity"].size > 0
        assert stats["grids"].size == len(engine.lake)

    def test_view_caches_are_bounded(self, sports_lake, sports_mapping,
                                     sports_graph):
        small = TableSearchEngine(
            sports_lake, sports_mapping,
            TypeJaccardSimilarity(sports_graph),
            view_cache_size=3,
        )
        unbounded = TableSearchEngine(
            sports_lake, sports_mapping, TypeJaccardSimilarity(sports_graph)
        )
        query = Query.single("kg:player0", "kg:team0")
        assert small.search(query).table_ids() == \
            unbounded.search(query).table_ids()
        stats = small.cache_stats()
        assert stats["grids"].size <= 3
        assert stats["column_counts"].size <= 3
        assert stats["grids"].evictions > 0

    def test_bounded_similarity_cache_keeps_results_exact(
        self, sports_lake, sports_mapping, sports_graph
    ):
        tiny = TableSearchEngine(
            sports_lake, sports_mapping,
            TypeJaccardSimilarity(sports_graph), cache_size=8,
        )
        reference = TableSearchEngine(
            sports_lake, sports_mapping, TypeJaccardSimilarity(sports_graph)
        )
        query = Query.single("kg:player0", "kg:team0", "kg:city0")
        assert tiny.search(query).table_ids() == \
            reference.search(query).table_ids()
        assert tiny.cache_stats()["similarity"].size <= 8

    def test_replaced_table_never_serves_stale_grid(self):
        """Dynamic lakes: invalidate_table must drop the old view."""
        lake = DataLake([Table("t", ["A"], [["Ada"]])])
        mapping = EntityMapping()
        mapping.link("t", 0, 0, "kg:a")
        sigma = MappingTypeSimilarity({
            "kg:a": frozenset({"Person"}),
            "kg:b": frozenset({"Place"}),
        })
        engine = TableSearchEngine(lake, mapping, sigma)
        query = Query.single("kg:a")
        assert engine.search(query).table_ids() == ["t"]
        # Replace the table: same id, different content and links.
        lake.remove("t")
        lake.add(Table("t", ["A"], [["Berlin"]]))
        mapping.unlink_table("t")
        mapping.link("t", 0, 0, "kg:b")
        engine.invalidate_table("t")
        result = engine.search(Query.single("kg:b"))
        assert result.table_ids() == ["t"]
        assert result.score_of("t") == pytest.approx(1.0)
        # The old entity no longer matches anything in the lake.
        assert len(engine.search(query)) == 0

    def test_invalidate_cache_can_include_similarities(self, engine):
        engine.search(Query.single("kg:player0"))
        assert engine.cache_stats()["similarity"].size > 0
        engine.invalidate_cache()
        assert engine.cache_stats()["similarity"].size > 0
        engine.invalidate_cache(include_similarities=True)
        assert engine.cache_stats()["similarity"].size == 0
