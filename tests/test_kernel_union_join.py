"""Parity and serving tests for the vectorized union/join kernels.

The contract under test: the vectorized engines
(:class:`~repro.core.kernel.union.VectorizedUnionSearchEngine`,
:class:`~repro.core.kernel.join.VectorizedJoinSearchEngine`) return the
*same ranking* as the scalar baselines — scores within 1e-9 for the
embeddings encoder, bit-exact everywhere else — over randomized lakes
and queries, through candidate restriction (the cluster shard path),
through ``search_batch`` lane stacking (the serve micro-batch path),
after mutations, and end-to-end over the HTTP wire via the ``task``
request field.
"""

import random
from unittest import mock

import numpy as np
import pytest

from repro.baselines import (
    JOIN_MODES,
    JoinTableSearch,
    UnionTableSearch,
    normalize_cell,
    query_value_sets,
)
from repro.core.assignment import max_assignment
from repro.core.kernel import (
    VectorizedJoinSearchEngine,
    VectorizedUnionSearchEngine,
)
from repro.core.kernel import union as union_module
from repro.core.parallel import merge_topk
from repro.core.query import Query
from repro.datalake import DataLake, Table
from repro.exceptions import ConfigurationError, ProtocolError
from repro.kg import Entity, KnowledgeGraph
from repro.linking import LabelLinker
from repro.serve import ServeConfig, ServerThread
from repro.serve.protocol import SearchRequest
from repro.system import Thetis

from tests.test_serve_server import build_served_thetis, http_request

TOLERANCE = 1e-9

URIS = (
    [f"kg:player{i}" for i in range(32)]
    + [f"kg:team{i}" for i in range(8)]
    + [f"kg:city{i}" for i in range(4)]
)

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def random_query(rng, max_width=5):
    width = rng.randint(1, max_width)
    return Query([
        [rng.choice(URIS) for _ in range(width)]
        for _ in range(rng.randint(1, 3))
    ])


def make_random_lake(rng, tables=10):
    """A lake mixing linkable labels, free text, and numeric formats."""
    lake = DataLake()
    cells = (
        [f"Player {i}" for i in range(32)]
        + [f"Team {i}" for i in range(8)]
        + [f"City {i}" for i in range(4)]
        + WORDS
        + ["1", "1.0", "01", "2.5", " 2.5 ", "3", 3, 4.0, "", None]
    )
    for t in range(tables):
        width = rng.randint(1, 6)
        rows = [
            [rng.choice(cells) for _ in range(width)]
            for _ in range(rng.randint(1, 6))
        ]
        lake.add(Table(f"R{t:02d}", [f"c{i}" for i in range(width)], rows))
    return lake


def make_long_label_graph(sports_graph, label):
    """The sports entities plus ``kg:longname`` labelled ``label``."""
    graph = KnowledgeGraph(sports_graph.taxonomy)
    for entity in sports_graph.entities():
        graph.add_entity(entity)
    graph.add_entity(Entity(
        "kg:longname", label, sports_graph.get("kg:player0").types
    ))
    return graph


def pairs(results):
    return [(scored.table_id, scored.score) for scored in results]


def assert_same_ranking(actual, expected, exact=True):
    """Identical table order; identical (or 1e-9-close) scores."""
    actual, expected = pairs(actual), pairs(expected)
    assert [t for t, _ in actual] == [t for t, _ in expected]
    if exact:
        assert [s for _, s in actual] == [s for _, s in expected]
    else:
        assert all(
            abs(a - e) <= TOLERANCE
            for (_, a), (_, e) in zip(actual, expected)
        )


# ----------------------------------------------------------------------
# Shared canonicalization (normalize_cell) and its numeric folding
# ----------------------------------------------------------------------
class TestNormalizeCell:
    def test_default_is_strip_lower(self):
        assert normalize_cell("  Foo Bar ") == "foo bar"
        assert normalize_cell(None) is None
        assert normalize_cell("   ") is None
        # Historical byte-level behavior: numeric formats stay distinct.
        assert normalize_cell("1.0") == "1.0"
        assert normalize_cell("1") == "1"

    def test_fold_numeric_unifies_representations(self):
        assert normalize_cell("1", fold_numeric=True) == "1"
        assert normalize_cell("1.0", fold_numeric=True) == "1"
        assert normalize_cell(" 01 ", fold_numeric=True) == "1"
        assert normalize_cell(1, fold_numeric=True) == "1"
        assert normalize_cell(4.0, fold_numeric=True) == "4"
        assert normalize_cell("2.5", fold_numeric=True) == "2.5"

    def test_fold_numeric_keeps_text_and_non_finite(self):
        assert normalize_cell("abc", fold_numeric=True) == "abc"
        assert normalize_cell("nan", fold_numeric=True) == "nan"
        assert normalize_cell("inf", fold_numeric=True) == "inf"

    def test_query_value_sets_fold(self, sports_graph):
        query = Query([["kg:player0", "kg:team0"]])
        plain = query_value_sets(query, sports_graph)
        folded = query_value_sets(query, sports_graph, fold_numeric=True)
        assert plain == [
            frozenset({"player 0"}), frozenset({"team 0"}),
        ]
        assert folded == plain  # labels are non-numeric here


# ----------------------------------------------------------------------
# Lazy postings index of the scalar join baseline
# ----------------------------------------------------------------------
class TestJoinLazyIndex:
    def test_one_build_for_many_searches(self, sports_lake, sports_graph):
        searcher = JoinTableSearch(sports_lake)
        assert searcher.index_builds == 0  # construction builds nothing
        rng = random.Random(3)
        for _ in range(5):
            searcher.search(random_query(rng), sports_graph, k=5)
        assert searcher.index_builds == 1

    def test_invalidate_forces_one_rebuild(self, sports_lake, sports_graph):
        searcher = JoinTableSearch(sports_lake)
        query = Query([["kg:player0"]])
        searcher.search(query, sports_graph)
        searcher.invalidate()
        searcher.search(query, sports_graph)
        searcher.search(query, sports_graph)
        assert searcher.index_builds == 2

    def test_bad_mode_is_rejected(self, sports_lake):
        with pytest.raises(ConfigurationError):
            JoinTableSearch(sports_lake, mode="cosine")


# ----------------------------------------------------------------------
# Randomized union parity (both encoders)
# ----------------------------------------------------------------------
class TestUnionParity:
    def test_types_parity_on_sports_lake(
        self, sports_lake, sports_graph, sports_mapping
    ):
        scalar = UnionTableSearch(
            sports_lake, sports_mapping, graph=sports_graph
        )
        fast = VectorizedUnionSearchEngine(
            sports_lake, sports_mapping, graph=sports_graph
        )
        rng = random.Random(17)
        for _ in range(12):
            query = random_query(rng)
            assert_same_ranking(
                fast.search(query), scalar.search(query), exact=True
            )

    def test_embeddings_parity_on_sports_lake(
        self, sports_lake, sports_graph, sports_mapping, sports_embeddings
    ):
        scalar = UnionTableSearch(
            sports_lake, sports_mapping, store=sports_embeddings,
            column_encoder="embeddings",
        )
        fast = VectorizedUnionSearchEngine(
            sports_lake, sports_mapping, store=sports_embeddings,
            column_encoder="embeddings",
        )
        rng = random.Random(23)
        for _ in range(10):
            query = random_query(rng)
            assert_same_ranking(
                fast.search(query), scalar.search(query), exact=False
            )

    def test_types_parity_on_random_lakes(self, sports_graph):
        rng = random.Random(41)
        for _ in range(4):
            lake = make_random_lake(rng)
            mapping = LabelLinker(sports_graph).link_lake(lake)
            scalar = UnionTableSearch(lake, mapping, graph=sports_graph)
            fast = VectorizedUnionSearchEngine(
                lake, mapping, graph=sports_graph
            )
            for _ in range(4):
                query = random_query(rng)
                assert_same_ranking(
                    fast.search(query), scalar.search(query), exact=True
                )

    def test_top_k_matches(self, sports_lake, sports_graph, sports_mapping):
        scalar = UnionTableSearch(
            sports_lake, sports_mapping, graph=sports_graph
        )
        fast = VectorizedUnionSearchEngine(
            sports_lake, sports_mapping, graph=sports_graph
        )
        query = Query([["kg:player0", "kg:team0", "kg:city0"]])
        assert_same_ranking(
            fast.search(query, k=3), scalar.search(query, k=3)
        )

    def test_constructor_validation_matches_baseline(
        self, sports_lake, sports_mapping
    ):
        with pytest.raises(ConfigurationError):
            VectorizedUnionSearchEngine(
                sports_lake, sports_mapping, column_encoder="bm25"
            )
        with pytest.raises(ConfigurationError):
            VectorizedUnionSearchEngine(sports_lake, sports_mapping)
        with pytest.raises(ConfigurationError):
            VectorizedUnionSearchEngine(
                sports_lake, sports_mapping, column_encoder="embeddings"
            )


# ----------------------------------------------------------------------
# Union's tie-trust rule: a table is enumerated when its near-optimal
# totals agree bitwise, even without a unique winner
# ----------------------------------------------------------------------
def union_totals_and_solver_calls(relevance):
    """``_assignment_totals`` of one table, and the solver blocks it ran."""
    relevance = np.asarray(relevance, dtype=np.float64)
    columns = relevance.shape[1]
    calls = []

    def counting(block):
        calls.append(np.array(block).tolist())
        return max_assignment(block)

    with mock.patch.object(union_module, "max_assignment", counting):
        totals = union_module._assignment_totals(
            relevance, np.array([columns]), np.array([0, columns])
        )
    return totals, calls


class TestUnionTieTrust:
    def test_bitwise_equal_optima_skip_the_solver(self):
        # Both optima, (0, 1) and (1, 0), total exactly 1.0.
        totals, calls = union_totals_and_solver_calls(
            [[0.5, 0.5], [0.5, 0.5]]
        )
        assert calls == []
        assert totals.tolist() == [1.0]

    def test_optima_apart_in_the_last_bits_reach_the_solver(self):
        # 0.1 + 0.2 and 0.15 + 0.15 are both 0.3, but round apart by
        # one ulp: well inside ASSIGNMENT_MARGIN, so only the solver
        # knows which float the scalar baseline sums.
        relevance = [[0.1, 0.15], [0.15, 0.2]]
        assert 0.1 + 0.2 != 0.15 + 0.15
        totals, calls = union_totals_and_solver_calls(relevance)
        assert calls == [relevance]
        assert totals.tolist() == [max_assignment(relevance)[1]]


# ----------------------------------------------------------------------
# Randomized join parity (both modes, both fold flags)
# ----------------------------------------------------------------------
class TestJoinParity:
    @pytest.mark.parametrize("mode", ["containment", "jaccard"])
    @pytest.mark.parametrize("fold_numeric", [False, True])
    def test_parity_on_random_lakes(self, sports_graph, mode, fold_numeric):
        rng = random.Random(hash((mode, fold_numeric)) & 0xFFFF)
        for _ in range(4):
            lake = make_random_lake(rng)
            scalar = JoinTableSearch(
                lake, mode=mode, fold_numeric=fold_numeric
            )
            fast = VectorizedJoinSearchEngine(
                lake, sports_graph, mode=mode, fold_numeric=fold_numeric
            )
            for _ in range(4):
                query = random_query(rng)
                assert_same_ranking(
                    fast.search(query),
                    scalar.search(query, sports_graph),
                    exact=True,  # every score is the same int/int division
                )

    def test_parity_on_sports_lake(self, sports_lake, sports_graph):
        scalar = JoinTableSearch(sports_lake)
        fast = VectorizedJoinSearchEngine(sports_lake, sports_graph)
        rng = random.Random(5)
        for _ in range(8):
            query = random_query(rng)
            assert_same_ranking(
                fast.search(query), scalar.search(query, sports_graph)
            )

    def test_fold_numeric_changes_matches(self, sports_graph):
        lake = DataLake()
        lake.add(Table("N0", ["n"], [["1.0"], ["2.0"]]))
        query = Query([["kg:missing"]])
        # Entity label falls back to the URI, which is non-numeric; use
        # a table-derived query instead: values "1" vs stored "1.0".
        strict = VectorizedJoinSearchEngine(lake, sports_graph)
        folded = VectorizedJoinSearchEngine(
            lake, sports_graph, fold_numeric=True
        )
        assert strict.index().segments[0].vocab.tolist() == ["1.0", "2.0"]
        assert folded.index().segments[0].vocab.tolist() == ["1", "2"]
        assert len(strict.search(query)) == 0
        assert len(folded.search(query)) == 0


# ----------------------------------------------------------------------
# Candidate restriction: the cluster shard-scatter contract
# ----------------------------------------------------------------------
class TestCandidates:
    def test_union_candidates_equal_post_filter(
        self, sports_lake, sports_graph, sports_mapping
    ):
        fast = VectorizedUnionSearchEngine(
            sports_lake, sports_mapping, graph=sports_graph
        )
        rng = random.Random(9)
        shard = [f"T{t:02d}" for t in range(0, 12, 2)]
        for _ in range(6):
            query = random_query(rng)
            full = [p for p in pairs(fast.search(query)) if p[0] in shard]
            restricted = pairs(fast.search(query, candidates=shard))
            assert restricted == full

    def test_join_candidates_equal_post_filter(
        self, sports_lake, sports_graph
    ):
        fast = VectorizedJoinSearchEngine(sports_lake, sports_graph)
        rng = random.Random(13)
        shard = [f"T{t:02d}" for t in range(1, 12, 2)]
        for _ in range(6):
            query = random_query(rng)
            full = [p for p in pairs(fast.search(query)) if p[0] in shard]
            restricted = pairs(fast.search(query, candidates=shard))
            assert restricted == full

    def test_unknown_candidates_are_ignored(
        self, sports_lake, sports_graph, sports_mapping
    ):
        fast = VectorizedUnionSearchEngine(
            sports_lake, sports_mapping, graph=sports_graph
        )
        query = Query([["kg:player0"]])
        assert pairs(fast.search(query, candidates=["nope"])) == []


# ----------------------------------------------------------------------
# Lane-stacked micro-batches: bit-equal to sequential search
# ----------------------------------------------------------------------
class TestSearchBatch:
    def test_union_batch_is_bit_equal(
        self, sports_lake, sports_graph, sports_mapping
    ):
        fast = VectorizedUnionSearchEngine(
            sports_lake, sports_mapping, graph=sports_graph
        )
        rng = random.Random(29)
        queries = [random_query(rng) for _ in range(6)]
        queries.append(queries[0])  # duplicate: dedup must not change it
        batched = fast.search_batch(queries, k=5)
        sequential = [fast.search(query, k=5) for query in queries]
        for got, want in zip(batched, sequential):
            assert pairs(got) == pairs(want)

    def test_join_batch_is_bit_equal(self, sports_lake, sports_graph):
        fast = VectorizedJoinSearchEngine(sports_lake, sports_graph)
        rng = random.Random(31)
        queries = [random_query(rng) for _ in range(6)]
        queries.append(queries[1])
        batched = fast.search_batch(queries, k=5)
        sequential = [fast.search(query, k=5) for query in queries]
        for got, want in zip(batched, sequential):
            assert pairs(got) == pairs(want)

    def test_batch_with_candidates_matches(self, sports_lake, sports_graph):
        fast = VectorizedJoinSearchEngine(sports_lake, sports_graph)
        query = Query([["kg:player0", "kg:team0"]])
        shard = ["T00", "T03", "T07"]
        batched = fast.search_batch([query, query], candidates=[shard, None])
        assert pairs(batched[0]) == pairs(fast.search(query, candidates=shard))
        assert pairs(batched[1]) == pairs(fast.search(query))

    def test_empty_batch(self, sports_lake, sports_graph):
        fast = VectorizedJoinSearchEngine(sports_lake, sports_graph)
        assert fast.search_batch([]) == []


# ----------------------------------------------------------------------
# Mutation parity: rebuilt indexes equal fresh scalar baselines
# ----------------------------------------------------------------------
class TestMutationParity:
    def test_add_then_remove_keeps_parity(
        self, sports_lake, sports_graph, sports_mapping
    ):
        served = build_served_thetis(
            sports_lake, sports_graph, sports_mapping
        )
        query = Query([["kg:player2", "kg:team2", "kg:city2"]])
        with served:
            before_union = pairs(served.search(query, task="union"))
            before_join = pairs(served.search(query, task="join"))
            served.add_table(Table(
                "TNEW",
                ["Player", "Team"],
                [["Player 2", "Team 2"], ["Player 10", "Team 2"]],
            ))
            assert_same_ranking(
                served.search(query, task="union"),
                UnionTableSearch(
                    served.lake, served.mapping, graph=sports_graph
                ).search(query, k=10),
            )
            assert_same_ranking(
                served.search(query, task="join"),
                JoinTableSearch(served.lake).search(
                    query, sports_graph, k=10
                ),
            )
            served.remove_table("TNEW")
            assert pairs(served.search(query, task="union")) == before_union
            assert pairs(served.search(query, task="join")) == before_join

    def test_derived_join_vocab_widens_for_a_longer_value(
        self, sports_lake, sports_graph
    ):
        """Regression: ``vocab`` is a fixed-width unicode array, and
        merging a longer value into it unwidened truncates the value
        silently — after which lookups of it mis-resolve."""
        lake = DataLake(iter(sports_lake))
        engine = VectorizedJoinSearchEngine(lake, sports_graph)
        compiled = engine.index()
        longest = max(len(value) for value in compiled.segments[0].vocab)
        long_label = "Player 0" + " of the very long name" * 3
        assert len(long_label) > longest
        # The graph is session-shared: a private copy gets the entity
        # whose label is the long cell value.
        graph = make_long_label_graph(sports_graph, long_label)
        lake.add(Table(
            "TLONG", ["Player", "Team"],
            [[long_label, "Team 0"], ["Player 1", "Team 1"]],
        ))
        engine.invalidate_table("TLONG")
        derived = engine.index()
        assert derived is not compiled
        assert long_label.lower() in derived.segments[-1].vocab
        for mode in JOIN_MODES:
            fast = VectorizedJoinSearchEngine(lake, graph, mode=mode)
            fast.adopt_index(derived)
            fresh = VectorizedJoinSearchEngine(lake, graph, mode=mode)
            scalar = JoinTableSearch(lake, mode=mode)
            for query in (
                Query([["kg:longname"]]),
                Query([["kg:longname", "kg:team0"], ["kg:player1", "kg:team1"]]),
            ):
                ranking = fast.search(query)
                assert "TLONG" in ranking.table_ids()
                assert_same_ranking(ranking, fresh.search(query))
                assert_same_ranking(
                    ranking, scalar.search(query, graph, k=None)
                )

    def test_invalidate_replaces_a_table_in_place(
        self, sports_lake, sports_graph, sports_mapping
    ):
        """One ``invalidate_table`` after swapping a table's content
        under the same id re-encodes that table only, and both task
        indexes then score like a cold compile."""
        lake = DataLake(iter(sports_lake))
        mapping = sports_mapping.copy()
        union = VectorizedUnionSearchEngine(lake, mapping, graph=sports_graph)
        join = VectorizedJoinSearchEngine(lake, sports_graph)
        before = (union.index(), join.index())
        replacement = Table(
            "T03", ["Team", "note", "Player"],
            [["Team 5", "swapped", "Player 30"], ["Team 6", None, "Player 31"]],
        )
        lake.remove("T03")
        mapping.unlink_table("T03")
        lake.add(replacement)
        LabelLinker(sports_graph).link_table(replacement, mapping)
        union.invalidate_table("T03")
        join.invalidate_table("T03")
        assert union.index() is not before[0]
        assert join.index() is not before[1]
        assert sorted(union.index().live_table_ids()) == sorted(
            lake.table_ids()
        )
        cold_union = VectorizedUnionSearchEngine(
            lake, mapping, graph=sports_graph
        )
        cold_join = VectorizedJoinSearchEngine(lake, sports_graph)
        rng = random.Random(57)
        for _ in range(8):
            query = random_query(rng)
            assert_same_ranking(union.search(query), cold_union.search(query))
            assert_same_ranking(join.search(query), cold_join.search(query))


# ----------------------------------------------------------------------
# Thetis task dispatch
# ----------------------------------------------------------------------
class TestThetisTasks:
    def test_search_dispatches_to_task_engines(
        self, sports_lake, sports_graph, sports_mapping
    ):
        query = Query([["kg:player0", "kg:team0"]])
        with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
            union = pairs(thetis.search(query, task="union"))
            join = pairs(thetis.search(query, task="join"))
            assert union == pairs(thetis.union_engine().search(query, k=10))
            assert join == pairs(thetis.join_engine().search(query, k=10))
            entity = pairs(thetis.search(query))
            assert entity != union  # different rankings, different tasks

    def test_unknown_task_is_rejected(
        self, sports_lake, sports_graph, sports_mapping
    ):
        query = Query([["kg:player0"]])
        with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
            with pytest.raises(ConfigurationError):
                thetis.search(query, task="clustering")

    def test_task_excludes_lsh_and_prefilter(
        self, sports_lake, sports_graph, sports_mapping
    ):
        query = Query([["kg:player0"]])
        with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
            with pytest.raises(ConfigurationError):
                thetis.search(query, task="union", mode="prefilter")
            with pytest.raises(ConfigurationError):
                thetis.search(query, task="join", mode="prefilter")

    def test_union_embeddings_requires_training(
        self, sports_lake, sports_graph, sports_mapping
    ):
        query = Query([["kg:player0"]])
        with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
            with pytest.raises(ConfigurationError):
                thetis.search(query, task="union", method="embeddings")
            thetis.train_embeddings(dimensions=8, epochs=1, seed=0)
            thetis.search(query, task="union", method="embeddings")

    def test_search_many_matches_search(
        self, sports_lake, sports_graph, sports_mapping
    ):
        rng = random.Random(37)
        queries = {f"q{i}": random_query(rng) for i in range(4)}
        queries["dup"] = queries["q0"]
        with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
            for task in ("union", "join"):
                many = thetis.search_many(queries, k=5, task=task)
                for qid, query in queries.items():
                    assert pairs(many[qid]) == pairs(
                        thetis.search(query, k=5, task=task)
                    )

    def test_search_shard_equals_restricted_search(
        self, sports_lake, sports_graph, sports_mapping
    ):
        shard = [f"T{t:02d}" for t in range(6)]
        rng = random.Random(43)
        with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
            for task in ("union", "join"):
                query = random_query(rng)
                (sharded,) = thetis.search_shard_batch(
                    [query], shard, k=12, task=task
                )
                full = thetis.search(query, k=12, task=task)
                expected = [p for p in pairs(full) if p[0] in shard]
                assert pairs(sharded) == expected

    def test_search_shard_batch_matches(
        self, sports_lake, sports_graph, sports_mapping
    ):
        shard = [f"T{t:02d}" for t in range(6, 12)]
        rng = random.Random(47)
        queries = [random_query(rng) for _ in range(3)]
        with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
            for task in ("union", "join"):
                batched = thetis.search_shard_batch(
                    queries, shard, k=12, task=task
                )
                for query, got in zip(queries, batched):
                    (want,) = thetis.search_shard_batch(
                        [query], shard, k=12, task=task
                    )
                    assert pairs(got) == pairs(want)


    @pytest.mark.parametrize("engine_kind", ["scalar", "vectorized"])
    @pytest.mark.parametrize("task,mode", [
        ("entity", "exact"),
        ("entity", "prefilter"),
        ("union", "exact"),
        ("join", "exact"),
    ])
    def test_one_query_one_batch_and_merged_shards_agree(
        self, sports_lake, sports_graph, sports_mapping,
        task, mode, engine_kind,
    ):
        """A single query is a batch of one and a shard is a candidate
        restriction: all three routes give the same ids and scores."""
        rng = random.Random(53)
        table_ids = sports_lake.table_ids()
        shards = [table_ids[i::3] for i in range(3)]
        with Thetis(sports_lake, sports_graph, sports_mapping,
                    engine_kind=engine_kind) as thetis:
            for _ in range(6):
                query = random_query(rng)
                for k in (3, 12):
                    single = thetis.search(query, k=k, mode=mode, task=task)
                    many = thetis.search_many(
                        {"q": query}, k=k, mode=mode, task=task
                    )["q"]
                    merged = merge_topk(
                        [
                            [(scored.score, scored.table_id) for scored in
                             thetis.search_shard_batch(
                                 [query], shard, k=k, mode=mode, task=task
                             )[0]]
                            for shard in shards
                        ],
                        k,
                    )
                    assert pairs(single) == pairs(many)
                    assert pairs(single) == [
                        (table_id, score) for score, table_id in merged
                    ]


# ----------------------------------------------------------------------
# Wire protocol: the task field
# ----------------------------------------------------------------------
class TestProtocol:
    def test_task_defaults_to_entity(self):
        request = SearchRequest.from_json({"tuples": [["kg:a"]]})
        assert request.task == "entity"

    def test_batch_key_splits_by_task(self):
        entity = SearchRequest.from_json({"tuples": [["kg:a"]]})
        union = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "task": "union"}
        )
        join = SearchRequest.from_json(
            {"tuples": [["kg:a"]], "task": "join"}
        )
        assert len({entity.batch_key(), union.batch_key(),
                    join.batch_key()}) == 3
        assert union.batch_key()[0] == "union"

    def test_task_rejected_off_search_endpoint(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "task": "union"}, mode="topk"
            )

    def test_task_rejected_with_prefilter_or_lsh(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "task": "union",
                 "mode": "prefilter"}
            )
        with pytest.raises(ProtocolError):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "task": "join", "mode": "prefilter"}
            )

    def test_unknown_task_rejected(self):
        with pytest.raises(ProtocolError):
            SearchRequest.from_json(
                {"tuples": [["kg:a"]], "task": "fusion"}
            )


# ----------------------------------------------------------------------
# End-to-end over the wire: POST /search {"task": ...}
# ----------------------------------------------------------------------
class TestServeRoundTrip:
    @pytest.fixture()
    def server(self, sports_lake, sports_graph, sports_mapping):
        served = build_served_thetis(
            sports_lake, sports_graph, sports_mapping
        )
        handle = ServerThread(
            served,
            ServeConfig(port=0, max_batch_size=8),
        )
        handle.start().wait_ready()
        yield handle
        handle.stop()

    @pytest.fixture()
    def reference(self, sports_lake, sports_graph, sports_mapping):
        with Thetis(sports_lake, sports_graph, sports_mapping,
                    engine_kind="scalar") as thetis:
            yield thetis

    def test_union_and_join_round_trip(self, server, reference):
        query = Query([["kg:player0", "kg:team0", "kg:city0"]])
        for task in ("union", "join"):
            status, body = http_request(
                server.port, "POST", "/search",
                {"tuples": [["kg:player0", "kg:team0", "kg:city0"]],
                 "k": 10, "task": task},
            )
            assert status == 200
            assert body["task"] == task
            served = [
                (entry["table_id"], entry["score"])
                for entry in body["results"]
            ]
            assert served == pairs(reference.search(query, k=10, task=task))

    def test_entity_default_unchanged(self, server, reference):
        query = Query([["kg:player0", "kg:team0"]])
        status, body = http_request(
            server.port, "POST", "/search",
            {"tuples": [["kg:player0", "kg:team0"]], "k": 5},
        )
        assert status == 200
        assert body["task"] == "entity"
        served = [
            (entry["table_id"], entry["score"])
            for entry in body["results"]
        ]
        assert served == pairs(reference.search(query, k=5))

    def test_metrics_report_per_task_counts(self, server):
        for task in ("union", "join", "union"):
            http_request(
                server.port, "POST", "/search",
                {"tuples": [["kg:player1"]], "task": task},
            )
        status, body = http_request(server.port, "GET", "/metrics")
        assert status == 200
        tasks = body["tasks"]
        assert tasks["union"] == 2
        assert tasks["join"] == 1

    def test_task_validation_maps_to_400(self, server):
        status, _ = http_request(
            server.port, "POST", "/topk",
            {"tuples": [["kg:player0"]], "task": "union"},
        )
        assert status == 400
        status, _ = http_request(
            server.port, "POST", "/search",
            {"tuples": [["kg:player0"]], "task": "join",
             "mode": "prefilter"},
        )
        assert status == 400
