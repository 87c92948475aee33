"""Tests for SemRel score explanations."""

import pytest

from repro.core import Query, TableSearchEngine, explain_table
from repro.datalake import Table
from repro.similarity import Informativeness, TypeJaccardSimilarity


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


class TestExplainTable:
    def test_score_matches_engine(self, engine, sports_lake):
        """The explanation must reproduce Algorithm 1's score exactly,
        the relevance rule included: ``TX`` links nothing, so search
        drops it and its score is 0.0."""
        unlinked = Table("TX", ["Who", "What"], [["nobody", "nothing"]])
        tables = list(sports_lake) + [unlinked]
        for query in (
            Query.single("kg:player0", "kg:team0", "kg:city0"),
            Query.single("kg:player0", "kg:team0"),
        ):
            for table in tables:
                explanation = explain_table(engine, query, table)
                expected = engine.score_table(query, table).score
                assert explanation.score == pytest.approx(expected)

    def test_multi_tuple_breakdown(self, engine, sports_lake):
        query = Query([("kg:player0", "kg:team0"), ("kg:player9",)])
        explanation = explain_table(engine, query, sports_lake.get("T00"))
        assert len(explanation.tuples) == 2
        assert explanation.tuples[0].query_tuple == ("kg:player0", "kg:team0")
        assert len(explanation.tuples[1].entities) == 1

    def test_exact_match_entity_details(self, engine, sports_lake):
        query = Query.single("kg:player0", "kg:team0")
        explanation = explain_table(engine, query, sports_lake.get("T00"))
        by_entity = {
            e.entity: e for e in explanation.tuples[0].entities
        }
        player = by_entity["kg:player0"]
        assert player.column == 0
        assert player.column_name == "Player"
        assert player.coordinate == pytest.approx(1.0)
        assert player.best_row == 0  # first fixture row holds Player 0
        assert player.best_row_entity == "kg:player0"
        assert player.best_row_similarity == pytest.approx(1.0)
        assert 0.0 < player.weight <= 1.0

    def test_unmappable_entity_reported(self, engine, sports_lake):
        # Width-5 query against 3 entity columns: someone gets no column
        # (Year carries no entities).
        query = Query.single("kg:player0", "kg:player1", "kg:player2",
                             "kg:player3", "kg:player4")
        explanation = explain_table(engine, query, sports_lake.get("T00"))
        entities = explanation.tuples[0].entities
        unassigned_or_zero = [
            e for e in entities if e.column == -1 or e.coordinate == 0.0
        ]
        assert unassigned_or_zero  # the surplus entities carry no signal
        for entity in unassigned_or_zero:
            if entity.column == -1:
                assert entity.column_name is None
                assert entity.best_row == -1
                assert entity.best_row_entity is None

    def test_distance_consistent_with_score(self, engine, sports_lake):
        query = Query.single("kg:player5", "kg:team5")
        explanation = explain_table(engine, query, sports_lake.get("T01"))
        for tup in explanation.tuples:
            assert tup.score == pytest.approx(1.0 / (tup.distance + 1.0))

    def test_render_with_and_without_graph(self, engine, sports_lake,
                                           sports_graph):
        query = Query.single("kg:player0", "kg:team0")
        explanation = explain_table(engine, query, sports_lake.get("T00"))
        plain = explanation.render()
        labeled = explanation.render(sports_graph)
        assert "T00" in plain
        assert "kg:player0" in plain
        assert "Player 0" in labeled
        assert "SemRel" in labeled

    def test_facade_explain(self, sports_lake, sports_mapping, sports_graph):
        from repro import Thetis

        thetis = Thetis(sports_lake, sports_graph, sports_mapping)
        query = Query.single("kg:player0", "kg:team0")
        explanation = thetis.explain(query, "T00")
        assert explanation.table_id == "T00"
        assert explanation.score == pytest.approx(
            thetis.search(query, k=1).score_of("T00")
        )
