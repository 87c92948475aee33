"""The table model of Section 2.1.

A table is a set of tuples (rows) sharing the same schema, i.e. the same
ordered list of attributes.  Cell values come from an infinite set of
strings and numbers plus the special null value, represented here by
``None``.  Tables carry optional free-form metadata (page title, caption)
that keyword baselines such as BM25 may index but that Thetis itself
deliberately ignores.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import DataLakeError

CellValue = Optional[Any]  # str | int | float | None (the null value)


class Table:
    """An immutable-by-convention relational table.

    Parameters
    ----------
    table_id:
        Unique identifier within a data lake.
    attributes:
        Ordered column names (the schema ``A_i``).
    rows:
        Sequence of rows; each row must have exactly one value per
        attribute.  Values are strings, numbers, or ``None``.
    metadata:
        Optional descriptive metadata (e.g. ``{"caption": ...}``).
    """

    __slots__ = ("table_id", "attributes", "rows", "metadata")

    def __init__(
        self,
        table_id: str,
        attributes: Sequence[str],
        rows: Sequence[Sequence[CellValue]],
        metadata: Optional[Dict[str, Any]] = None,
    ):
        if not table_id:
            raise DataLakeError("table_id must be non-empty")
        if not attributes:
            raise DataLakeError(f"table {table_id!r} must have at least one attribute")
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise DataLakeError(f"table {table_id!r} has duplicate attribute names")
        materialized: List[Tuple[CellValue, ...]] = list(map(tuple, rows))
        width = len(attrs)
        if set(map(len, materialized)) - {width}:
            bad = next(
                index for index, row in enumerate(materialized)
                if len(row) != width
            )
            raise DataLakeError(
                f"table {table_id!r} row {bad} has "
                f"{len(materialized[bad])} values, expected {width}"
            )
        self.table_id = table_id
        self.attributes = attrs
        self.rows = materialized
        self.metadata = dict(metadata) if metadata else {}

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of tuples in the table."""
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        """Number of attributes in the schema."""
        return len(self.attributes)

    @property
    def num_cells(self) -> int:
        """Total number of cells (rows x columns)."""
        return self.num_rows * self.num_columns

    def __len__(self) -> int:
        return self.num_rows

    def __iter__(self) -> Iterator[Tuple[CellValue, ...]]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return (
            f"Table({self.table_id!r}, {self.num_rows} rows x "
            f"{self.num_columns} cols)"
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def cell(self, row: int, column: int) -> CellValue:
        """Return the value at ``(row, column)`` (0-based indices)."""
        try:
            return self.rows[row][column]
        except IndexError:
            raise DataLakeError(
                f"cell ({row}, {column}) out of range for {self!r}"
            ) from None

    def column_index(self, attribute: str) -> int:
        """Return the position of ``attribute`` in the schema."""
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise DataLakeError(
                f"table {self.table_id!r} has no attribute {attribute!r}"
            ) from None

    def column(self, column: int) -> List[CellValue]:
        """Return all values of the column at position ``column``."""
        if not 0 <= column < self.num_columns:
            raise DataLakeError(
                f"column {column} out of range for {self!r}"
            )
        return [row[column] for row in self.rows]

    def column_by_name(self, attribute: str) -> List[CellValue]:
        """Return all values of the named column."""
        return self.column(self.column_index(attribute))

    def text_values(self) -> List[str]:
        """Return every non-null cell rendered as text.

        This is the document view used by keyword baselines; table
        metadata values are included as the paper's *text queries* match
        against captions and cell contents alike.
        """
        texts = [str(v) for row in self.rows for v in row if v is not None]
        texts.extend(str(v) for v in self.metadata.values() if v is not None)
        return texts

    def non_null_cells(self) -> int:
        """Count cells holding an actual value."""
        return sum(1 for row in self.rows for v in row if v is not None)
