"""Tests for the Thetis facade."""

import pytest

from repro import Query, Thetis
from repro.core import RowAggregation
from repro.exceptions import ConfigurationError
from repro.lsh import LSHConfig


@pytest.fixture(scope="module")
def thetis(sports_lake, sports_mapping, sports_graph, sports_embeddings):
    return Thetis(sports_lake, sports_graph, sports_mapping,
                  embeddings=sports_embeddings)


class TestEngines:
    def test_types_engine_cached(self, thetis):
        assert thetis.engine("types") is thetis.engine("types")

    def test_embeddings_engine(self, thetis):
        engine = thetis.engine("embeddings")
        assert engine.sigma.name == "embeddings"

    def test_unknown_method(self, thetis):
        with pytest.raises(ConfigurationError):
            thetis.engine("bogus")

    def test_embeddings_required(self, sports_lake, sports_mapping,
                                 sports_graph):
        bare = Thetis(sports_lake, sports_graph, sports_mapping)
        with pytest.raises(ConfigurationError):
            bare.engine("embeddings")

    def test_train_embeddings_attaches(self, sports_lake, sports_mapping,
                                       sports_graph):
        bare = Thetis(sports_lake, sports_graph, sports_mapping)
        store = bare.train_embeddings(dimensions=8, epochs=1,
                                      walks_per_entity=3)
        assert bare.embeddings is store
        assert bare.engine("embeddings") is not None

    def test_retrain_drops_everything_built_over_the_old_store(
            self, small_benchmark):
        """After a retrain every embeddings answer — entity, union and
        prefilter — equals a cold build over the new store."""
        bench = small_benchmark
        queries = list(bench.queries.one_tuple.values())[:3]
        config = LSHConfig(32, 8)

        def answers(system):
            return [
                [(s.table_id, s.score) for s in system.search(
                    query, k=5, method="embeddings", **options)]
                for query in queries
                for options in (
                    {},
                    {"task": "union"},
                    {"mode": "prefilter", "lsh_config": config},
                )
            ]

        thetis = Thetis(bench.lake, bench.graph, bench.mapping)
        thetis.train_embeddings(dimensions=8, epochs=1, seed=1)
        stale = answers(thetis)  # builds all three over the first store
        store = thetis.train_embeddings(dimensions=12, epochs=1, seed=9)
        assert thetis.union_engine("embeddings").store is store
        cold = Thetis(bench.lake, bench.graph, bench.mapping,
                      embeddings=store)
        assert answers(thetis) == answers(cold) != stale


class TestSearch:
    def test_types_search_finds_exact_table(self, thetis):
        results = thetis.search(
            Query.single("kg:player0", "kg:team0", "kg:city0"), k=5
        )
        assert results.table_ids()[0] == "T00"

    def test_embeddings_search(self, thetis):
        results = thetis.search(
            Query.single("kg:player0", "kg:team0"), k=5,
            method="embeddings",
        )
        assert len(results) == 5

    def test_lsh_search_preserves_top_results(self, thetis):
        query = Query.single("kg:player0", "kg:team0", "kg:city0")
        exact = thetis.search(query, k=3)
        approx = thetis.search(query, k=3, mode="prefilter",
                               lsh_config=LSHConfig(32, 8))
        assert exact.table_ids()[0] == approx.table_ids()[0]

    def test_prefilter_cached_per_config(self, thetis):
        a = thetis.prefilter("types", LSHConfig(32, 8))
        b = thetis.prefilter("types", LSHConfig(32, 8))
        c = thetis.prefilter("types", LSHConfig(16, 8))
        assert a is b
        assert a is not c

    def test_prefilter_unknown_method(self, thetis):
        with pytest.raises(ConfigurationError):
            thetis.prefilter("bogus")

    def test_prefilter_requires_embeddings(self, sports_lake, sports_mapping,
                                           sports_graph):
        bare = Thetis(sports_lake, sports_graph, sports_mapping)
        with pytest.raises(ConfigurationError):
            bare.prefilter("embeddings")

    def test_row_aggregation_propagated(self, sports_lake, sports_mapping,
                                        sports_graph):
        avg = Thetis(sports_lake, sports_graph, sports_mapping,
                     row_aggregation=RowAggregation.AVG)
        assert avg.engine("types").row_aggregation is RowAggregation.AVG
