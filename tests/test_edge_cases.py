"""Edge-case battery across the stack.

Degenerate lakes, unicode mentions, duplicate query entities, width
extremes — situations a production deployment meets on day one.
"""

import pytest

from repro.core import Query, TableSearchEngine
from repro.datalake import (
    DataLake,
    Table,
    load_table_csv,
    save_table_csv,
)
from repro.kg import Entity, KnowledgeGraph
from repro.linking import EntityMapping, LabelLinker
from repro.lsh import LSHConfig, TablePrefilter, TypeSignatureScheme
from repro.similarity import TypeJaccardSimilarity


class TestEmptyAndTinyCorpora:
    def test_search_on_empty_lake(self, sports_graph):
        engine = TableSearchEngine(
            DataLake(), EntityMapping(), TypeJaccardSimilarity(sports_graph)
        )
        results = engine.search(Query.single("kg:player0"))
        assert len(results) == 0

    def test_topk_on_empty_lake(self, sports_graph):
        engine = TableSearchEngine(
            DataLake(), EntityMapping(), TypeJaccardSimilarity(sports_graph)
        )
        assert len(engine.search(Query.single("kg:player0"), k=5)) == 0

    def test_prefilter_on_empty_mapping(self, sports_graph):
        prefilter = TablePrefilter(
            TypeSignatureScheme(sports_graph, 16),
            LSHConfig(16, 8),
            EntityMapping(),
        )
        assert prefilter.candidate_tables(Query.single("kg:player0")) == \
            set()

    def test_single_table_lake(self, sports_graph):
        lake = DataLake([Table("only", ["P"], [["Player 0"]])])
        mapping = LabelLinker(sports_graph).link_lake(lake)
        engine = TableSearchEngine(
            lake, mapping, TypeJaccardSimilarity(sports_graph)
        )
        results = engine.search(Query.single("kg:player0"))
        assert results.table_ids() == ["only"]
        assert results.score_of("only") == pytest.approx(1.0)

    def test_zero_row_table_is_irrelevant(self, sports_graph):
        lake = DataLake([Table("empty", ["P"], [])])
        engine = TableSearchEngine(
            lake, EntityMapping(), TypeJaccardSimilarity(sports_graph)
        )
        assert len(engine.search(Query.single("kg:player0"))) == 0

    def test_all_numeric_table_never_linked(self, sports_graph):
        lake = DataLake([Table("nums", ["A", "B"], [[1, 2.5], [3, 4.5]])])
        mapping = LabelLinker(sports_graph).link_lake(lake)
        assert len(mapping) == 0


class TestUnicodeAndOddMentions:
    @pytest.fixture()
    def unicode_graph(self):
        graph = KnowledgeGraph()
        graph.add_entity(
            Entity("kg:zlatan", "Žlåtan Ibrahimović",
                   frozenset({"Person"}))
        )
        graph.add_entity(
            Entity("kg:tokyo", "東京", frozenset({"City"}))
        )
        return graph

    def test_unicode_labels_link_exactly(self, unicode_graph):
        linker = LabelLinker(unicode_graph)
        assert linker.link_value("Žlåtan Ibrahimović") == "kg:zlatan"
        assert linker.link_value("東京") == "kg:tokyo"

    def test_unicode_survives_csv(self, unicode_graph, tmp_path):
        table = Table("u", ["Name"], [["Žlåtan Ibrahimović"], ["東京"]])
        path = tmp_path / "u.csv"
        save_table_csv(table, path)
        loaded = load_table_csv(path)
        assert loaded.rows == table.rows

    def test_unicode_end_to_end_search(self, unicode_graph):
        lake = DataLake(
            [Table("u", ["Name"], [["Žlåtan Ibrahimović"]])]
        )
        mapping = LabelLinker(unicode_graph).link_lake(lake)
        engine = TableSearchEngine(
            lake, mapping, TypeJaccardSimilarity(unicode_graph)
        )
        results = engine.search(Query.single("kg:zlatan"))
        assert results.table_ids() == ["u"]


class TestQueryExtremes:
    def test_duplicate_entities_in_tuple(self, sports_lake, sports_mapping,
                                         sports_graph):
        engine = TableSearchEngine(
            sports_lake, sports_mapping, TypeJaccardSimilarity(sports_graph)
        )
        # The same entity twice: injectivity forces two different
        # columns, so the duplicate maps weakly - no crash, sane score.
        query = Query.single("kg:player0", "kg:player0")
        results = engine.search(query, k=3)
        assert len(results) == 3
        assert all(0.0 < st.score <= 1.0 for st in results)

    def test_query_wider_than_any_table(self, sports_lake, sports_mapping,
                                        sports_graph):
        engine = TableSearchEngine(
            sports_lake, sports_mapping, TypeJaccardSimilarity(sports_graph)
        )
        wide = Query.single(*[f"kg:player{i}" for i in range(10)])
        results = engine.search(wide, k=3)
        assert len(results) == 3
        # With only 4 entity-bearing columns, at most 4 of 10 query
        # entities can map: the score is far from perfect.
        assert results.top(1).table_ids()  # non-empty
        assert max(st.score for st in results) < 0.9

    def test_many_tuples_query(self, sports_lake, sports_mapping,
                               sports_graph):
        engine = TableSearchEngine(
            sports_lake, sports_mapping, TypeJaccardSimilarity(sports_graph)
        )
        query = Query([(f"kg:player{i}",) for i in range(20)])
        results = engine.search(query, k=5)
        assert len(results) == 5

    def test_query_of_unlinked_entity(self, sports_lake, sports_mapping,
                                      sports_graph):
        # city3 entities exist in the KG and tables; an entity that is
        # in the KG but never linked anywhere behaves like a pure
        # semantic probe.
        graph = sports_graph
        engine = TableSearchEngine(
            sports_lake, sports_mapping, TypeJaccardSimilarity(graph)
        )
        # kg:team7 is linked; use a query mixing linked + never-linked.
        query = Query.single("kg:team7", "kg:ghost-entity")
        results = engine.search(query, k=3)
        assert len(results) == 3


class TestMetadataEdgeCases:
    def test_table_with_no_metadata_still_searchable(self, sports_graph):
        from repro.baselines import BM25TableSearch

        lake = DataLake([Table("t", ["P"], [["Player 0"]])])
        bm25 = BM25TableSearch(lake)
        assert bm25.search(["player"]).table_ids() == ["t"]

    def test_ground_truth_without_category_metadata(self, sports_graph):
        from repro.eval import build_ground_truth

        lake = DataLake([Table("t", ["P"], [["Player 0"]])])
        mapping = LabelLinker(sports_graph).link_lake(lake)
        truth = build_ground_truth(
            lake, mapping, Query.single("kg:player0"),
            query_category="whatever/topic", query_domain="whatever",
        )
        # No metadata on the table: only the entity component fires.
        assert truth.gain("t") == pytest.approx(2.0)
