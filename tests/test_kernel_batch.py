"""Randomized bit-identity properties of the multi-query batched kernel.

``VectorizedTableSearchEngine.search_batch`` answers a whole
micro-batch in one call; the contract is that every query's
ranking is *bit-identical* (scores compared with ``==``, ties broken
``(-score, table_id)``) to what a sequential ``search`` /
``search_candidates`` call returns.  The properties here check that
over randomized batches of mixed tuple widths, in exact and prefilter
(candidate-restricted) mode, through the system-level ``search_many``
dispatch, across the canonical-dedup fan-out, and across an
add/remove corpus mutation between batches.
"""

import random

import pytest

from repro import Query, Table, Thetis
from repro.benchgen import WT2015_PROFILE, build_benchmark
from repro.core.kernel import BatchStats

SEED = 1234
K = 7


def _pairs(results):
    return [(scored.score, scored.table_id) for scored in results]


@pytest.fixture(scope="module")
def bench():
    return build_benchmark(
        WT2015_PROFILE, num_tables=150, num_query_pairs=6, seed=29
    )


@pytest.fixture(scope="module")
def thetis(bench):
    with Thetis(bench.lake, bench.graph, bench.mapping,
                engine_kind="vectorized") as system:
        yield system


@pytest.fixture(scope="module")
def entity_pool(bench):
    pool = []
    for query in bench.queries.all_queries().values():
        for entry in query.tuples:
            pool.extend(entry)
    return sorted(set(pool))


def _random_queries(rng, entity_pool, count, max_width=3):
    """Batches mix tuple widths 1..max_width and query sizes 1..3."""
    queries = []
    for _ in range(count):
        tuples = []
        for _tuple in range(rng.randint(1, 3)):
            width = rng.randint(1, max_width)
            tuples.append(tuple(rng.sample(entity_pool, width)))
        queries.append(Query(tuples))
    return queries


class TestExactParity:
    def test_batch_matches_sequential_search(self, thetis, entity_pool):
        rng = random.Random(SEED)
        engine = thetis.engine("types")
        for _round in range(5):
            queries = _random_queries(rng, entity_pool, rng.randint(1, 9))
            batched = engine.search_batch(queries, k=K)
            for query, results in zip(queries, batched):
                assert _pairs(results) == _pairs(engine.search(query, k=K))

    def test_system_search_many_matches_search(self, thetis, entity_pool):
        rng = random.Random(SEED + 1)
        queries = {
            f"q{index}": query
            for index, query in enumerate(
                _random_queries(rng, entity_pool, 6)
            )
        }
        batched = thetis.search_many(queries, k=K)
        for query_id, query in queries.items():
            assert _pairs(batched[query_id]) == \
                _pairs(thetis.search(query, k=K))


class TestCandidateParity:
    def test_batch_matches_search_candidates(self, thetis, entity_pool,
                                             bench):
        rng = random.Random(SEED + 2)
        engine = thetis.engine("types")
        table_ids = sorted(bench.lake.table_ids())
        for _round in range(4):
            queries = _random_queries(rng, entity_pool, rng.randint(2, 8))
            shortlists = []
            for _query in queries:
                size = rng.randint(0, 40)
                shortlist = [rng.choice(table_ids) for _ in range(size)]
                if rng.random() < 0.3:
                    shortlist.append("no-such-table")  # dropped, not fatal
                shortlists.append(shortlist)
            batched = engine.search_batch(queries, k=K,
                                          candidates=shortlists)
            for query, shortlist, results in zip(queries, shortlists,
                                                 batched):
                solo = engine.search_candidates(query, shortlist, k=K)
                assert _pairs(results) == _pairs(solo)

    def test_prefilter_mode_matches_sequential(self, thetis, bench):
        queries = {
            f"q{index}": query
            for index, query in enumerate(
                list(bench.queries.all_queries().values())[:5]
            )
        }
        batched = thetis.search_many(queries, k=K, mode="prefilter")
        for query_id, query in queries.items():
            solo = thetis.search(query, k=K, mode="prefilter")
            assert _pairs(batched[query_id]) == _pairs(solo)


class TestDedupFanout:
    def test_duplicates_score_once_and_fan_out(self, thetis, entity_pool):
        rng = random.Random(SEED + 3)
        engine = thetis.engine("types")
        base = _random_queries(rng, entity_pool, 3)
        batch = base + [Query(base[0].tuples), base[1], base[0]]
        stats = BatchStats()
        batched = engine.search_batch(batch, k=K, batch_stats=stats)
        counts = stats.as_dict()
        assert counts["batched_passes"] == 1
        assert counts["batched_queries"] == len(batch)
        assert counts["deduped_queries"] == 3
        for query, results in zip(batch, batched):
            assert _pairs(results) == _pairs(engine.search(query, k=K))
        # Duplicate slots share the very same ResultSet object.
        assert batched[3] is batched[0]
        assert batched[5] is batched[0]

    def test_candidate_order_is_part_of_the_key(self, thetis, entity_pool,
                                                bench):
        rng = random.Random(SEED + 4)
        engine = thetis.engine("types")
        query = _random_queries(rng, entity_pool, 1)[0]
        table_ids = sorted(bench.lake.table_ids())[:20]
        forward, backward = list(table_ids), list(reversed(table_ids))
        batched = engine.search_batch(
            [query, query], k=K, candidates=[forward, backward]
        )
        assert _pairs(batched[0]) == \
            _pairs(engine.search_candidates(query, forward, k=K))
        assert _pairs(batched[1]) == \
            _pairs(engine.search_candidates(query, backward, k=K))


class TestOneRecordPoint:
    """Every engine's ``search_batch`` records through ``record_batched``."""

    def test_scalar_batch_records_one_pass(self, sports_lake, sports_graph,
                                           sports_mapping):
        from repro.serve.metrics import ServerMetrics

        with Thetis(sports_lake, sports_graph, sports_mapping,
                    engine_kind="scalar") as scalar:
            engine = scalar.engine("types")
            first = Query.single("kg:player0", "kg:team0")
            second = Query.single("kg:player5")
            stats = BatchStats()
            engine.search_batch([first, second, first], k=K,
                                batch_stats=stats)
        counts = stats.as_dict()
        assert counts["batched_passes"] == 1
        assert counts["batched_queries"] == 3
        assert counts["deduped_queries"] == 1
        block = ServerMetrics().to_json(batch_stats=counts)["batch"]
        assert not [key for key in block if key.startswith("looped")]
        fleet = BatchStats()
        fleet.merge_counts(counts)
        fleet.merge_counts(counts)
        merged = fleet.as_dict()
        assert merged["batched_passes"] == 2
        assert merged["batched_queries"] == 6
        assert merged["deduped_queries"] == 2


class TestMutationBetweenBatches:
    def _fresh_thetis(self):
        from tests.conftest import make_sports_graph, make_sports_lake
        from repro.linking import LabelLinker

        graph = make_sports_graph()
        lake = make_sports_lake()
        mapping = LabelLinker(graph).link_lake(lake)
        return Thetis(lake, graph, mapping, engine_kind="vectorized")

    def test_parity_survives_add_and_remove(self):
        rng = random.Random(SEED + 5)
        with self._fresh_thetis() as thetis:
            engine = thetis.engine("types")
            pool = [f"kg:player{i}" for i in range(32)] + \
                [f"kg:team{i}" for i in range(8)]

            def check_round():
                queries = _random_queries(rng, pool, 6, max_width=2)
                batched = engine.search_batch(queries, k=K)
                for query, results in zip(queries, batched):
                    assert _pairs(results) == \
                        _pairs(engine.search(query, k=K))

            check_round()
            thetis.add_table(Table(
                "T99", ["Player", "Team"],
                [["Player 31", "Team 0"], ["Player 23", "Team 0"]],
            ))
            check_round()
            exact = Query.single("kg:player31", "kg:team0")
            assert engine.search_batch([exact], k=1)[0].table_ids() == \
                ["T99"]
            thetis.remove_table("T99")
            check_round()
            assert "T99" not in \
                engine.search_batch([exact], k=K)[0].table_ids()
