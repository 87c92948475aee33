"""The data-lake repository: a keyed collection of tables.

Matching Section 2.1, a data lake is simply a set of tables with no
referential constraints between them; the repository therefore offers
only identity lookup, iteration, and bulk statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.exceptions import DataLakeError, DuplicateTableError
from repro.datalake.table import Table


class DataLake:
    """An ordered, keyed collection of :class:`~repro.datalake.table.Table`.

    Iteration order is insertion order, which keeps experiments
    deterministic.  ``version`` counts mutations (every :meth:`add` and
    :meth:`remove`), so a reader can tell in O(1) that the table set
    has not changed since it last looked.
    """

    def __init__(self, tables: Optional[Iterable[Table]] = None):
        self._tables: Dict[str, Table] = {}
        self.version = 0
        if tables is not None:
            for table in tables:
                self.add(table)

    def add(self, table: Table) -> None:
        """Insert ``table``; raises on duplicate identifiers."""
        if table.table_id in self._tables:
            raise DuplicateTableError(table.table_id)
        self._tables[table.table_id] = table
        self.version += 1

    def add_all(self, tables: Iterable[Table]) -> None:
        """Insert every table from ``tables``."""
        for table in tables:
            self.add(table)

    def get(self, table_id: str) -> Table:
        """Return the table with ``table_id`` or raise :class:`DataLakeError`."""
        try:
            return self._tables[table_id]
        except KeyError:
            raise DataLakeError(f"no table with id {table_id!r}") from None

    def find(self, table_id: str) -> Optional[Table]:
        """Return the table with ``table_id`` or ``None``."""
        return self._tables.get(table_id)

    def remove(self, table_id: str) -> Table:
        """Remove and return the table with ``table_id``."""
        try:
            table = self._tables.pop(table_id)
        except KeyError:
            raise DataLakeError(f"no table with id {table_id!r}") from None
        self.version += 1
        return table

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def table_ids(self) -> List[str]:
        """Return all table identifiers in insertion order."""
        return list(self._tables.keys())

    def subset(self, table_ids: Iterable[str]) -> "DataLake":
        """Return a new lake restricted to ``table_ids``.

        Unknown identifiers are ignored, which lets LSH prefilter output
        (which may reference stale tables) drive a search directly.
        """
        lake = DataLake()
        for table_id in table_ids:
            table = self._tables.get(table_id)
            if table is not None and table.table_id not in lake:
                lake.add(table)
        return lake

    def total_rows(self) -> int:
        """Total number of tuples across all tables."""
        return sum(t.num_rows for t in self._tables.values())

    def total_cells(self) -> int:
        """Total number of cells across all tables."""
        return sum(t.num_cells for t in self._tables.values())
