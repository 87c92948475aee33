"""Tests for dynamic data-lake updates across the whole stack.

The paper motivates semantic data lakes with "effortless addition of
new datasets" (Sections 2.3 / 3.2): adding or removing a table must
flow through the mapping, the engine caches, the LSEI postings, and
the informativeness weights.
"""

import pytest

from repro import Query, Table, Thetis
from repro.linking import EntityMapping
from repro.lsh import LSHConfig


@pytest.fixture()
def thetis(sports_graph):
    # Fresh mutable copies: the session fixtures must stay pristine.
    from tests.conftest import make_sports_lake
    from repro.linking import LabelLinker

    lake = make_sports_lake()
    mapping = LabelLinker(sports_graph).link_lake(lake)
    return Thetis(lake, sports_graph, mapping)


def _new_table(table_id="T99"):
    return Table(
        table_id,
        ["Player", "Team"],
        # A pairing no fixture table contains (players 31/23 never
        # co-occur with Team 0), so T99 is the unique exact match.
        [["Player 31", "Team 0"], ["Player 23", "Team 0"]],
    )


class TestMappingUnlinkTable:
    def test_unlink_table_removes_all(self):
        mapping = EntityMapping()
        mapping.link("A", 0, 0, "kg:x")
        mapping.link("A", 1, 0, "kg:y")
        mapping.link("B", 0, 0, "kg:x")
        removed = mapping.unlink_table("A")
        assert removed == 2
        assert mapping.entities_in_table("A") == frozenset()
        assert mapping.tables_with_entity("kg:x") == {"B"}
        assert len(mapping) == 1

    def test_unlink_unknown_table_noop(self):
        mapping = EntityMapping()
        assert mapping.unlink_table("nope") == 0


class TestThetisAddTable:
    def test_added_table_becomes_searchable(self, thetis):
        query = Query.single("kg:player31", "kg:team0")
        before = thetis.search(query, k=1)
        created = thetis.add_table(_new_table())
        assert created == 4  # both rows fully linkable
        after = thetis.search(query, k=1)
        assert after.table_ids()[0] == "T99"
        assert after.score_of("T99") == pytest.approx(1.0)
        assert before.score_of("T99") is None

    def test_added_table_reaches_lsh_prefilter(self, thetis):
        prefilter = thetis.prefilter("types", LSHConfig(32, 8))
        query = Query.single("kg:player31", "kg:team0")
        thetis.add_table(_new_table())
        candidates = prefilter.candidate_tables(query)
        assert "T99" in candidates
        results = thetis.search(query, k=1, mode="prefilter",
                                lsh_config=LSHConfig(32, 8))
        assert results.table_ids()[0] == "T99"

    def test_informativeness_refreshed(self, thetis):
        before = thetis.informativeness
        thetis.add_table(_new_table())
        assert thetis.informativeness is not before
        assert thetis.engine("types").informativeness is \
            thetis.informativeness

    def test_add_without_linking(self, thetis):
        created = thetis.add_table(_new_table("T98"), link=False)
        assert created == 0
        assert thetis.mapping.entities_in_table("T98") == frozenset()

    def test_add_rejects_non_table(self, thetis):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            thetis.add_table("not a table")


class TestThetisRemoveTable:
    def test_removed_table_vanishes_from_results(self, thetis):
        query = Query.single("kg:player0", "kg:team0", "kg:city0")
        assert thetis.search(query, k=1).table_ids() == ["T00"]
        thetis.remove_table("T00")
        results = thetis.search(query, k=5)
        assert "T00" not in results.table_ids()

    def test_removed_table_leaves_lsh_candidates(self, thetis):
        prefilter = thetis.prefilter("types", LSHConfig(32, 8))
        query = Query.single("kg:player0", "kg:team0")
        assert "T00" in prefilter.candidate_tables(query)
        thetis.remove_table("T00")
        assert "T00" not in prefilter.candidate_tables(query)

    def test_mapping_cleaned(self, thetis):
        thetis.remove_table("T05")
        assert thetis.mapping.entities_in_table("T05") == frozenset()
        assert "T05" not in thetis.lake

    def test_add_then_remove_round_trip(self, thetis):
        query = Query.single("kg:player31", "kg:team0")
        thetis.add_table(_new_table())
        assert thetis.search(query, k=1).table_ids() == ["T99"]
        thetis.remove_table("T99")
        assert "T99" not in thetis.search(query, k=12).table_ids()


class TestPrefilterColumnAggDynamic:
    def test_column_agg_add_and_remove(self, thetis):
        prefilter = thetis.prefilter(
            "types", LSHConfig(32, 8), column_aggregation=True
        )
        query = Query.single("kg:player31", "kg:team0")
        table = _new_table()
        thetis.lake.add(table)
        from repro.linking import LabelLinker

        LabelLinker(thetis.graph).link_table(table, thetis.mapping)
        prefilter.add_table("T99")
        assert "T99" in prefilter.candidate_tables(query)
        prefilter.remove_table("T99")
        assert "T99" not in prefilter.candidate_tables(query)
