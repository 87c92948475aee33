"""Unit tests for the bidirectional entity mapping Phi."""

import random

import pytest

from repro.exceptions import LinkingError
from repro.linking import EntityMapping, mapping_from_dict, mapping_to_dict


@pytest.fixture()
def mapping():
    m = EntityMapping()
    m.link("T1", 0, 0, "kg:a")
    m.link("T1", 0, 1, "kg:b")
    m.link("T1", 1, 0, "kg:a")
    m.link("T2", 0, 0, "kg:a")
    return m


class TestForward:
    def test_entity_at(self, mapping):
        assert mapping.entity_at("T1", 0, 0) == "kg:a"
        assert mapping.entity_at("T1", 5, 5) is None

    def test_entity_row(self, mapping):
        assert mapping.entity_row("T1", 0, 3) == ["kg:a", "kg:b", None]
        assert mapping.entity_row("T9", 0, 2) == [None, None]

    def test_entities_in_table(self, mapping):
        assert mapping.entities_in_table("T1") == {"kg:a", "kg:b"}
        assert mapping.entities_in_table("T9") == frozenset()

    def test_entities_in_column(self, mapping):
        assert mapping.entities_in_column("T1", 0) == ["kg:a", "kg:a"]
        assert mapping.entities_in_column("T1", 2) == []


class TestInverse:
    def test_cells_of(self, mapping):
        assert mapping.cells_of("kg:a") == {
            ("T1", 0, 0), ("T1", 1, 0), ("T2", 0, 0),
        }
        assert mapping.cells_of("kg:z") == frozenset()

    def test_tables_with_entity(self, mapping):
        assert mapping.tables_with_entity("kg:a") == {"T1", "T2"}
        assert mapping.tables_with_entity("kg:b") == {"T1"}

    def test_table_frequency(self, mapping):
        assert mapping.table_frequency("kg:a") == 2
        assert mapping.table_frequency("kg:b") == 1
        assert mapping.table_frequency("kg:z") == 0


class TestMutation:
    def test_relink_same_entity_idempotent(self, mapping):
        mapping.link("T1", 0, 0, "kg:a")
        assert len(mapping) == 4

    def test_relink_conflict_rejected(self, mapping):
        with pytest.raises(LinkingError):
            mapping.link("T1", 0, 0, "kg:other")

    def test_negative_coordinates_rejected(self):
        with pytest.raises(LinkingError):
            EntityMapping().link("T", -1, 0, "kg:a")

    def test_unlink(self, mapping):
        assert mapping.unlink("T2", 0, 0) == "kg:a"
        assert mapping.entity_at("T2", 0, 0) is None
        assert mapping.tables_with_entity("kg:a") == {"T1"}
        assert mapping.unlink("T2", 0, 0) is None

    def test_unlink_keeps_entity_if_still_in_table(self, mapping):
        mapping.unlink("T1", 0, 0)
        # kg:a still linked at (T1, 1, 0)
        assert "kg:a" in mapping.entities_in_table("T1")

    def test_linked_cell_count(self, mapping):
        assert mapping.linked_cell_count("T1") == 3
        assert mapping.linked_cell_count("T9") == 0

    def test_copy_is_independent(self, mapping):
        clone = mapping.copy()
        clone.link("T3", 0, 0, "kg:new")
        assert len(clone) == len(mapping) + 1
        assert mapping.entity_at("T3", 0, 0) is None

    def test_merge(self):
        a = EntityMapping()
        a.link("T1", 0, 0, "kg:a")
        b = EntityMapping()
        b.link("T2", 0, 0, "kg:b")
        a.merge(b)
        assert len(a) == 2
        assert a.entity_at("T2", 0, 0) == "kg:b"

    def test_contains_and_iteration(self, mapping):
        assert ("T1", 0, 0) in mapping
        assert ("T1", 9, 9) not in mapping
        assert set(mapping.all_entities()) == {"kg:a", "kg:b"}
        assert len(list(mapping.all_links())) == 4


def replayed(links):
    """The reference load: one ``link()`` call per entry, in order."""
    mapping = EntityMapping()
    for table_id, row, column, uri in links:
        mapping.link(table_id, row, column, uri)
    return mapping


def assert_same_mapping(got, expected):
    assert len(got) == len(expected)
    assert list(got.all_links()) == list(expected.all_links())
    assert list(got.table_frequencies().items()) == list(
        expected.table_frequencies().items()
    )
    tables = {cell[0] for cell, _uri in expected.all_links()}
    for table_id in tables:
        assert list(got.table_cells(table_id).items()) == list(
            expected.table_cells(table_id).items()
        )
        assert got.entities_by_column(table_id) == (
            expected.entities_by_column(table_id)
        )


class TestBulkLoad:
    def test_equals_link_replay_on_the_sports_mapping(self, sports_mapping):
        links = mapping_to_dict(sports_mapping)["links"]
        assert_same_mapping(mapping_from_dict({"links": links}),
                            replayed(links))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_link_replay_on_a_shuffled_payload(
        self, sports_mapping, seed
    ):
        links = mapping_to_dict(sports_mapping)["links"]
        random.Random(seed).shuffle(links)
        # Shuffled, a table's links are no longer contiguous.
        firsts = [entry[0] for entry in links]
        assert any(
            firsts[i] != firsts[i + 1] and firsts[i] in firsts[i + 2:]
            for i in range(len(firsts) - 2)
        )
        loaded = mapping_from_dict({"links": links})
        assert_same_mapping(loaded, replayed(links))
        assert dict(loaded.all_links()) == dict(sports_mapping.all_links())

    def test_identical_duplicate_is_ignored(self):
        links = [["T1", 0, 0, "kg:a"], ["T2", 1, 0, "kg:a"],
                 ["T1", 0, 0, "kg:a"], ["T1", 2, 1, "kg:b"]]
        loaded = mapping_from_dict({"links": links})
        assert len(loaded) == 3
        assert loaded.table_frequency("kg:a") == 2
        assert_same_mapping(loaded, replayed(links))

    @pytest.mark.parametrize("links", [
        [["T1", 0, 0, "kg:a"], ["T1", -1, 0, "kg:b"]],
        [["T1", 0, 0, "kg:a"], ["T2", 0, -3, "kg:b"]],
    ])
    def test_negative_coordinate_rejected(self, links):
        with pytest.raises(LinkingError, match="non-negative"):
            mapping_from_dict({"links": links})

    @pytest.mark.parametrize("links", [
        [["T1", 0, 0, "kg:a"], ["T1", 0, 0, "kg:b"]],
        [["T1", 0, 0, "kg:a"], ["T2", 0, 0, "kg:c"], ["T1", 0, 0, "kg:b"]],
    ])
    def test_relink_conflict_rejected_like_link(self, links):
        with pytest.raises(LinkingError) as replay_error:
            replayed(links)
        with pytest.raises(LinkingError) as bulk_error:
            mapping_from_dict({"links": links})
        assert str(bulk_error.value) == str(replay_error.value)

    def test_write_to_a_copy_leaves_the_loaded_mapping(self, sports_mapping):
        loaded = mapping_from_dict(mapping_to_dict(sports_mapping))
        before = list(loaded.all_links())
        frequencies = loaded.table_frequencies()
        (table_id, row, column), uri = before[0]
        clone = loaded.copy()
        clone.unlink(table_id, row, column)
        clone.link(table_id, 999, 0, "kg:new")
        clone.unlink_table(before[-1][0][0])
        assert list(loaded.all_links()) == before
        assert loaded.table_frequencies() == frequencies
        assert loaded.entity_at(table_id, 999, 0) is None
        # And the other way round: the loaded side writes privately too.
        loaded.link(table_id, 998, 0, "kg:other")
        assert clone.entity_at(table_id, 998, 0) is None
