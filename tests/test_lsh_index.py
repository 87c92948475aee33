"""Tests for the banded LSH index and the table prefilter (LSEI)."""

import numpy as np
import pytest

from repro.core import Query
from repro.exceptions import ConfigurationError
from repro.lsh import (
    EmbeddingSignatureScheme,
    LSHConfig,
    LSHIndex,
    TablePrefilter,
    TypeSignatureScheme,
    frequent_types,
)


class TestLSHIndex:
    def test_add_and_lookup_same_signature(self):
        index = LSHIndex(LSHConfig(8, 4))
        sig = np.arange(8)
        index.add("a", sig)
        index.add("b", sig)
        buckets = index.lookup_signature(sig)
        assert len(buckets) == 2  # bands
        assert all(set(bucket) == {"a", "b"} for bucket in buckets)

    def test_partial_band_agreement(self):
        index = LSHIndex(LSHConfig(8, 4))
        sig_a = np.array([1, 2, 3, 4, 5, 6, 7, 8])
        sig_b = np.array([1, 2, 3, 4, 9, 9, 9, 9])  # shares band 0 only
        index.add("a", sig_a)
        buckets = index.lookup_signature(sig_b)
        assert buckets[0] == ["a"]
        assert buckets[1] == []

    def test_duplicate_add_ignored(self):
        index = LSHIndex(LSHConfig(4, 2))
        index.add("a", np.arange(4))
        index.add("a", np.arange(4))
        assert len(index) == 1

    def test_wrong_signature_width(self):
        index = LSHIndex(LSHConfig(8, 4))
        with pytest.raises(ConfigurationError):
            index.add("a", np.arange(6))

    def test_lookup_unknown_key(self):
        index = LSHIndex(LSHConfig(4, 2))
        assert index.lookup("ghost") == [[], []]

    def test_bucket_count(self):
        index = LSHIndex(LSHConfig(4, 2))
        index.add("a", np.array([1, 2, 3, 4]))
        index.add("b", np.array([1, 2, 9, 9]))
        assert index.bucket_count() == 3  # shared band-0 bucket + 2 distinct

    def test_remove_prunes_signature_and_buckets(self):
        index = LSHIndex(LSHConfig(4, 2))
        index.add("a", np.array([1, 2, 3, 4]))
        index.add("b", np.array([1, 2, 9, 9]))
        index.remove("b")
        assert len(index) == 1
        assert "b" not in index
        # b's private band-1 bucket is gone; the shared band-0 bucket
        # shrank to just a.
        assert index.bucket_count() == 2
        assert index.lookup("a") == [["a"], ["a"]]

    def test_remove_unknown_key_is_noop(self):
        index = LSHIndex(LSHConfig(4, 2))
        index.add("a", np.arange(4))
        index.remove("ghost")
        assert len(index) == 1

    def test_remove_then_add_rehashes(self):
        index = LSHIndex(LSHConfig(4, 2))
        index.add("a", np.array([1, 2, 3, 4]))
        index.remove("a")
        # Without the removal, add() would silently keep the old
        # signature; after it, the fresh signature must win.
        index.add("a", np.array([7, 7, 7, 7]))
        buckets = index.lookup_signature(np.array([7, 7, 7, 7]))
        assert all(bucket == ["a"] for bucket in buckets)
        assert index.lookup_signature(np.array([1, 2, 3, 4])) == [[], []]


class TestFrequentTypes:
    def test_ubiquitous_types_detected(self, sports_graph, sports_mapping,
                                       sports_lake):
        frequent = frequent_types(
            sports_mapping, sports_graph, sports_lake.table_ids()
        )
        # Every fixture table holds players, teams, and cities: the types
        # shared by all of them are ubiquitous.
        assert "Thing" in frequent
        assert "Agent" in frequent

    def test_threshold_one_keeps_everything(self, sports_graph,
                                            sports_mapping, sports_lake):
        assert frequent_types(
            sports_mapping, sports_graph, sports_lake.table_ids(),
            threshold=1.0,
        ) == frozenset()

    def test_empty_tables(self, sports_graph, sports_mapping):
        assert frequent_types(sports_mapping, sports_graph, []) == frozenset()


class TestTablePrefilter:
    @pytest.fixture()
    def type_prefilter(self, sports_graph, sports_mapping, sports_lake):
        excluded = frequent_types(
            sports_mapping, sports_graph, sports_lake.table_ids()
        )
        scheme = TypeSignatureScheme(sports_graph, 32, excluded_types=excluded)
        return TablePrefilter(scheme, LSHConfig(32, 8), sports_mapping)

    def test_scheme_config_width_mismatch(self, sports_graph, sports_mapping):
        scheme = TypeSignatureScheme(sports_graph, 16)
        with pytest.raises(ConfigurationError):
            TablePrefilter(scheme, LSHConfig(32, 8), sports_mapping)

    def test_candidates_contain_exact_match_tables(self, type_prefilter,
                                                   sports_mapping):
        query = Query.single("kg:player0", "kg:team0")
        candidates = type_prefilter.candidate_tables(query)
        # Tables actually containing the query entities must survive.
        for uri in ("kg:player0", "kg:team0"):
            assert sports_mapping.tables_with_entity(uri) <= candidates

    def test_votes_shrink_candidates(self, type_prefilter):
        query = Query.single("kg:player0", "kg:team0")
        low = type_prefilter.candidate_tables(query, votes=1)
        high = type_prefilter.candidate_tables(query, votes=50)
        assert high <= low

    def test_invalid_votes(self, type_prefilter):
        with pytest.raises(ConfigurationError):
            type_prefilter.candidate_tables(Query.single("kg:player0"),
                                            votes=0)

    def test_unhashable_query_returns_all_indexed(self, type_prefilter):
        # An entity with no types cannot be hashed -> fall back to all.
        query = Query.single("kg:ghost")
        assert type_prefilter.candidate_tables(query) == \
            set(type_prefilter.indexed_tables)

    def test_aggregate_query_mode(self, type_prefilter):
        query = Query([("kg:player0", "kg:team0"),
                       ("kg:player1", "kg:team1")])
        candidates = type_prefilter.candidate_tables(query,
                                                     aggregate_query=True)
        assert isinstance(candidates, set)

    def test_reduction(self, type_prefilter):
        assert type_prefilter.reduction(10, {"a", "b"}) == 0.8
        assert type_prefilter.reduction(0, set()) == 0.0
        assert type_prefilter.reduction(4, ["x", "x", "y"]) == 0.5

    def test_embedding_prefilter(self, sports_embeddings, sports_mapping):
        scheme = EmbeddingSignatureScheme(sports_embeddings, 32)
        prefilter = TablePrefilter(scheme, LSHConfig(32, 8), sports_mapping)
        query = Query.single("kg:player0", "kg:team0")
        candidates = prefilter.candidate_tables(query)
        assert sports_mapping.tables_with_entity("kg:player0") <= candidates

    def test_column_aggregation_mode(self, sports_graph, sports_mapping):
        scheme = TypeSignatureScheme(sports_graph, 32)
        prefilter = TablePrefilter(
            scheme, LSHConfig(32, 8), sports_mapping, column_aggregation=True
        )
        # Keys are (table, column) groups: 12 tables x 3 entity columns.
        assert prefilter.num_indexed_keys() == 36
        query = Query.single("kg:player0", "kg:team0")
        candidates = prefilter.candidate_tables(query)
        assert candidates <= set(prefilter.indexed_tables)

    def test_indexed_tables_cover_linked_tables(self, type_prefilter,
                                                sports_lake):
        assert set(type_prefilter.indexed_tables) == set(
            sports_lake.table_ids()
        )


class TestPrefilterLifecycle:
    """remove_table / add_table round trips (the serve mutation path)."""

    @staticmethod
    def _column_prefilter(sports_graph, mapping):
        scheme = TypeSignatureScheme(sports_graph, 32)
        return TablePrefilter(
            scheme, LSHConfig(32, 8), mapping, column_aggregation=True
        )

    def test_remove_prunes_column_keys(self, sports_graph, sports_mapping):
        prefilter = self._column_prefilter(
            sports_graph, sports_mapping.copy()
        )
        keys_before = prefilter.num_indexed_keys()
        buckets_before = prefilter._index.bucket_count()
        prefilter.remove_table("T00")
        # T00's three (table, column) groups are gone everywhere: the
        # key count, the postings, and the bucket structure.
        assert prefilter.num_indexed_keys() == keys_before - 3
        assert not any(
            key.startswith("T00#") for key in prefilter._postings
        )
        assert "T00#0" not in prefilter._index
        assert prefilter._index.bucket_count() <= buckets_before
        assert "T00" not in prefilter.indexed_tables
        query = Query.single("kg:player0", "kg:team0")
        assert "T00" not in prefilter.candidate_tables(query)

    def test_remove_readd_round_trip(self, sports_graph, sports_mapping):
        prefilter = self._column_prefilter(
            sports_graph, sports_mapping.copy()
        )
        keys_before = prefilter.num_indexed_keys()
        snapshot_before = prefilter.to_dict()
        prefilter.remove_table("T00")
        prefilter.add_table("T00")
        assert prefilter.num_indexed_keys() == keys_before
        assert "T00" in prefilter.indexed_tables
        query = Query.single("kg:player0", "kg:team0")
        assert "T00" in prefilter.candidate_tables(query)
        # The persisted form is identical to the pre-removal snapshot:
        # nothing leaked, nothing went stale.
        assert prefilter.to_dict() == snapshot_before

    def test_readd_rehashes_changed_columns(self, sports_graph,
                                            sports_mapping):
        mapping = sports_mapping.copy()
        prefilter = self._column_prefilter(sports_graph, mapping)
        old_signature = np.array(
            prefilter._index._signatures["T00#0"], copy=True
        )
        prefilter.remove_table("T00")
        # The table's contents change while it is out of the index:
        # column 0 now holds cities instead of players.
        mapping.unlink_table("T00")
        for row in range(4):
            mapping.link("T00", row, 0, f"kg:city{row}")
        prefilter.add_table("T00")
        new_signature = prefilter._index._signatures["T00#0"]
        assert not np.array_equal(old_signature, new_signature), (
            "re-added table reused its stale pre-removal signature"
        )
        # And the behavioral consequence: a city query now votes for
        # T00 through the re-hashed column group.
        votes = prefilter._table_votes(new_signature)
        (ordinal,) = prefilter.ordinals.lookup(["T00"])
        assert votes[ordinal] >= 1

    def test_remove_missing_table_is_noop(self, sports_graph,
                                          sports_mapping):
        prefilter = self._column_prefilter(
            sports_graph, sports_mapping.copy()
        )
        keys_before = prefilter.num_indexed_keys()
        prefilter.remove_table("ghost")
        assert prefilter.num_indexed_keys() == keys_before
