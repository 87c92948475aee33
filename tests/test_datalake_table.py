"""Unit tests for the table model."""

import pytest

from repro.datalake import Table
from repro.exceptions import DataLakeError


@pytest.fixture()
def table():
    return Table(
        "T1",
        ["Player", "Team", "Year"],
        [
            ["Tony Giarratano", "Detroit Tigers", 2005],
            ["Ron Santo", "Chicago Cubs", None],
            [None, "Chicago Cubs", 1970],
        ],
        metadata={"caption": "Players"},
    )


class TestConstruction:
    def test_requires_id_and_attributes(self):
        with pytest.raises(DataLakeError):
            Table("", ["A"], [])
        with pytest.raises(DataLakeError):
            Table("T", [], [])

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(DataLakeError):
            Table("T", ["A", "A"], [])

    def test_rejects_ragged_rows(self):
        with pytest.raises(DataLakeError) as exc:
            Table("T", ["A", "B"], [["x"]])
        assert "row 0" in str(exc.value)

    def test_names_the_first_ragged_row_of_any_iterable(self):
        with pytest.raises(DataLakeError, match="row 2 has 1 values"):
            Table("T", ["A", "B"], [["a", "b"], ("c", "d"), ["e"], [1, 2, 3]])
        table = Table("T", ["A", "B"], iter([["a", "b"], ("c", None)]))
        assert table.rows == [("a", "b"), ("c", None)]

    def test_empty_table_allowed(self):
        table = Table("T", ["A"], [])
        assert table.num_rows == 0
        assert table.num_cells == 0

    def test_metadata_copied(self):
        meta = {"caption": "x"}
        table = Table("T", ["A"], [], metadata=meta)
        meta["caption"] = "mutated"
        assert table.metadata["caption"] == "x"


class TestShapeAndAccess:
    def test_shape(self, table):
        assert table.num_rows == 3
        assert table.num_columns == 3
        assert table.num_cells == 9
        assert len(table) == 3

    def test_iteration(self, table):
        rows = list(table)
        assert rows[0][0] == "Tony Giarratano"

    def test_cell(self, table):
        assert table.cell(1, 1) == "Chicago Cubs"
        assert table.cell(1, 2) is None
        with pytest.raises(DataLakeError):
            table.cell(5, 0)

    def test_column_access(self, table):
        assert table.column(2) == [2005, None, 1970]
        assert table.column_by_name("Team") == [
            "Detroit Tigers", "Chicago Cubs", "Chicago Cubs",
        ]
        with pytest.raises(DataLakeError):
            table.column(9)
        with pytest.raises(DataLakeError):
            table.column_by_name("Nope")

    def test_column_index(self, table):
        assert table.column_index("Year") == 2


class TestTextView:
    def test_text_values_skip_nulls_include_metadata(self, table):
        texts = table.text_values()
        assert "Tony Giarratano" in texts
        assert "2005" in texts
        assert "Players" in texts
        assert None not in texts
        assert len(texts) == 7 + 1  # 7 non-null cells + 1 metadata value

    def test_non_null_cells(self, table):
        assert table.non_null_cells() == 7

    def test_repr(self, table):
        assert "3 rows x 3 cols" in repr(table)
