"""Tests for over-specialized query relaxation."""

import pytest

from benchmarks.relaxation import (
    RelaxingSearcher,
    drop_least_informative,
    split_tuples,
)
from repro.core import Query, TableSearchEngine
from repro.exceptions import ConfigurationError
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


class TestRelaxationPrimitives:
    def test_split_tuples(self):
        query = Query([("a", "b"), ("c",)])
        parts = split_tuples(query)
        assert len(parts) == 2
        assert parts[0].tuples == (("a", "b"),)
        assert parts[1].tuples == (("c",),)

    def test_drop_least_informative(self, engine):
        # Teams appear in fewer fixture tables than players here?  Use
        # the actual weights: the weakest entity per tuple goes.
        query = Query.single("kg:player0", "kg:team0")
        relaxed = drop_least_informative(query, engine.informativeness)
        assert relaxed is not None
        assert len(relaxed.tuples[0]) == 1
        kept = relaxed.tuples[0][0]
        dropped = ({"kg:player0", "kg:team0"} - {kept}).pop()
        assert engine.informativeness(kept) >= \
            engine.informativeness(dropped)

    def test_drop_handles_width_one(self, engine):
        query = Query.single("kg:player0")
        assert drop_least_informative(query, engine.informativeness) is None

    def test_drop_mixed_widths(self, engine):
        query = Query([("kg:player0", "kg:team0"), ("kg:player1",)])
        relaxed = drop_least_informative(query, engine.informativeness)
        assert relaxed is not None
        assert len(relaxed.tuples[0]) == 1
        assert relaxed.tuples[1] == ("kg:player1",)


class TestRelaxingSearcher:
    def test_validation(self, engine):
        with pytest.raises(ConfigurationError):
            RelaxingSearcher(engine, strategy="bogus")
        with pytest.raises(ConfigurationError):
            RelaxingSearcher(engine, threshold=1.5)

    def test_strong_query_not_relaxed(self, engine):
        searcher = RelaxingSearcher(engine, threshold=0.5)
        outcome = searcher.search(
            Query.single("kg:player0", "kg:team0"), k=3
        )
        assert not outcome.relaxed
        assert outcome.strategy is None
        assert outcome.head_score > 0.5
        assert outcome.results.table_ids() == \
            engine.search(Query.single("kg:player0", "kg:team0"),
                          k=3).table_ids()

    def test_weak_query_split_relaxed(self, engine):
        # A threshold of 1.0 forces relaxation for any imperfect head.
        searcher = RelaxingSearcher(engine, threshold=1.0,
                                    strategy="split")
        query = Query([("kg:player0", "kg:team1"),
                       ("kg:player9", "kg:team2")])
        outcome = searcher.search(query, k=5)
        assert outcome.relaxed
        assert outcome.strategy == "split"
        assert len(outcome.results) == 5

    def test_single_entity_query_cannot_split(self, engine):
        searcher = RelaxingSearcher(engine, threshold=1.0,
                                    strategy="split")
        outcome = searcher.search(Query.single("kg:player0"), k=3)
        # One tuple of width one: nothing to split into.
        assert not outcome.relaxed

    def test_drop_strategy(self, engine):
        searcher = RelaxingSearcher(engine, threshold=1.0, strategy="drop")
        query = Query.single("kg:player0", "kg:city1")
        outcome = searcher.search(query, k=3)
        assert outcome.relaxed
        assert outcome.strategy == "drop"
        assert len(outcome.results) > 0

    def test_drop_strategy_width_one_falls_back(self, engine):
        searcher = RelaxingSearcher(engine, threshold=1.0, strategy="drop")
        outcome = searcher.search(Query.single("kg:player0"), k=3)
        assert not outcome.relaxed

    def test_split_relaxation_recovers_partial_matches(self, engine):
        """The motivating case: a conjunction nothing satisfies.

        No fixture table pairs player0 with team5 in one row grid; the
        split relaxation still surfaces the tables strong for either
        tuple member.
        """
        searcher = RelaxingSearcher(engine, threshold=0.99,
                                    strategy="split")
        query = Query([("kg:player0",), ("kg:player21",)])
        outcome = searcher.search(query, k=5)
        ids = set(outcome.results.table_ids())
        player0_tables = set(
            engine.mapping.tables_with_entity("kg:player0")
        )
        player21_tables = set(
            engine.mapping.tables_with_entity("kg:player21")
        )
        assert ids & player0_tables
        assert ids & player21_tables
