"""The data-lake repository: a keyed collection of tables.

Matching Section 2.1, a data lake is simply a set of tables with no
referential constraints between them; the repository therefore offers
only identity lookup, iteration, and bulk statistics.

This module also owns the lake's one integer table space,
:class:`TableOrdinals`: every table id a lake has held gets a stable
ordinal, and the search stack (the LSEI postings, the kernel's flat
table axis, candidate restrictions) speaks ordinals instead of strings.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.exceptions import DataLakeError, DuplicateTableError
from repro.datalake.table import Table


class TableOrdinals:
    """Stable int ids for table ids, shared by a lake and its copies.

    Append-only: an id keeps its ordinal for the registry's lifetime,
    through removal and re-add, and an ordinal never names another id.
    :meth:`DataLake.copy` shares the registry instead of copying it, so
    every generation of a serving lineage agrees on every ordinal and
    int state built over one generation (the LSEI postings, the
    kernel's table layout) stays valid in the next.  Reads are plain
    dict / list reads; interning a new id takes a lock.
    """

    def __init__(self) -> None:
        self._of: Dict[str, int] = {}
        self._ids: List[str] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """One past the largest ordinal handed out."""
        return len(self._ids)

    def intern(self, table_id: str) -> int:
        """The ordinal of ``table_id``, assigned on first sight."""
        ordinal = self._of.get(table_id)
        if ordinal is None:
            with self._lock:
                ordinal = self._of.get(table_id)
                if ordinal is None:
                    ordinal = len(self._ids)
                    self._ids.append(table_id)
                    self._of[table_id] = ordinal
        return ordinal

    def intern_all(self, table_ids: Iterable[str]) -> np.ndarray:
        """:meth:`intern` of every id, in order (duplicates kept)."""
        ids = list(table_ids)
        return np.fromiter(
            map(self.intern, ids), dtype=np.int64, count=len(ids)
        )

    def lookup(self, table_ids: Iterable[str]) -> np.ndarray:
        """Sorted, distinct ordinals of ``table_ids``; unknown ids drop out."""
        found = np.fromiter(
            (ordinal for ordinal in map(self._of.get, table_ids)
             if ordinal is not None),
            dtype=np.int64,
        )
        return np.unique(found)

    def ids_of(self, ordinals: Iterable[int]) -> List[str]:
        """The table id of every ordinal, in order."""
        return list(map(self._ids.__getitem__, np.asarray(ordinals).tolist()))


class DataLake:
    """An ordered, keyed collection of :class:`~repro.datalake.table.Table`.

    Iteration order is insertion order, which keeps experiments
    deterministic.  ``version`` counts mutations (every :meth:`add` and
    :meth:`remove`), so a reader can tell in O(1) that the table set
    has not changed since it last looked.  ``ordinals`` is the lake's
    integer table space (:class:`TableOrdinals`); :meth:`add` interns
    every table it inserts.
    """

    def __init__(self, tables: Optional[Iterable[Table]] = None):
        self._tables: Dict[str, Table] = {}
        self.version = 0
        self.ordinals = TableOrdinals()
        if tables is not None:
            for table in tables:
                self.add(table)

    def copy(self) -> "DataLake":
        """A lake holding the same tables, independent from now on.

        One dict copy: tables are immutable by convention and shared.
        The copy starts at this lake's ``version`` and shares its
        ``ordinals`` registry (see :class:`TableOrdinals`).
        """
        clone = DataLake.__new__(DataLake)
        clone._tables = dict(self._tables)
        clone.version = self.version
        clone.ordinals = self.ordinals
        return clone

    def add(self, table: Table) -> None:
        """Insert ``table``; raises on duplicate identifiers."""
        if table.table_id in self._tables:
            raise DuplicateTableError(table.table_id)
        self._tables[table.table_id] = table
        self.ordinals.intern(table.table_id)
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
