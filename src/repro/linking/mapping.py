"""The partial mapping ``Phi`` of Definition 2.1.

An :class:`EntityMapping` records which data-lake cells mention which KG
entities: the forward direction maps a cell coordinate
``(table_id, row, column)`` to an entity URI, the inverse maps an entity
URI to the set of cells mentioning it.  The mapping is *partial* by
design — most cells of a real lake are not linked — and the library is
required to behave well at any coverage level (Section 7.5).
"""

from __future__ import annotations

from itertools import groupby, islice
from operator import itemgetter
from types import MappingProxyType
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

from repro.cow import CopyOnWriteDict
from repro.exceptions import LinkingError

CellRef = Tuple[str, int, int]  # (table_id, row index, column index)

_NO_CELLS = MappingProxyType({})


def _relink_error(
    table_id: str, row: int, column: int, existing: str, uri: str
) -> LinkingError:
    return LinkingError(
        f"cell {(table_id, row, column)} already linked to {existing!r}, "
        f"cannot relink to {uri!r}"
    )


class EntityMapping:
    """Bidirectional partial mapping between cells and KG entities.

    Links are stored per table, so that one table's change touches only
    that table's containers:

    * ``_cells`` — table id -> ``{(row, column): uri}``, the forward
      direction;
    * ``_counts`` — table id -> ``{uri: linked cells}``, the table's
      entities;
    * ``_frequency`` — uri -> number of tables linking it, kept current
      by every link and unlink (the ``df`` of the ``I(e)`` weight).

    :meth:`copy` shares the per-table containers (see
    :class:`~repro.cow.CopyOnWriteDict`), so it costs a dict copy per
    direction, and each side copies a table's containers the first time
    it writes to them.
    """

    def __init__(self) -> None:
        self._cells: CopyOnWriteDict = CopyOnWriteDict(dict)
        self._counts: CopyOnWriteDict = CopyOnWriteDict(dict)
        self._frequency: Dict[str, int] = {}
        self._size = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @classmethod
    def from_links(cls, links: Iterable[Sequence]) -> "EntityMapping":
        """A mapping of ``(table_id, row, column, uri)`` entries, in bulk.

        Equal to calling :meth:`link` on every entry in order: the same
        cells, counts, iteration orders and errors.  Each run of one
        table's consecutive entries is linked by one :meth:`_link_run`
        (a mapping file keeps a table's links together), so the cost is
        a dict pass over the links rather than a method call per link;
        :meth:`link` stays the one-cell form for incremental linking.
        """
        mapping = cls()
        for table_id, run in groupby(links, key=itemgetter(0)):
            mapping._link_run(table_id, run)
        return mapping

    def link(self, table_id: str, row: int, column: int, uri: str) -> None:
        """Record that cell ``(row, column)`` of ``table_id`` mentions ``uri``.

        Re-linking an already linked cell to a different entity is an
        error: a cell holds one mention.
        """
        if row < 0 or column < 0:
            raise LinkingError("cell coordinates must be non-negative")
        existing = self.entity_at(table_id, row, column)
        if existing is not None:
            if existing != uri:
                raise _relink_error(table_id, row, column, existing, uri)
            return
        self._cells.writable(table_id)[(row, column)] = uri
        counts = self._counts.writable(table_id)
        count = counts.get(uri, 0)
        counts[uri] = count + 1
        if not count:
            self._frequency[uri] = self._frequency.get(uri, 0) + 1
        self._size += 1

    def _link_run(self, table_id: str, run: Iterable[Sequence]) -> None:
        """Link ``(table_id, row, column, uri)`` entries of one table.

        Writes the table's containers through the copy-on-write
        ownership record once, and moves each entity's table frequency
        once, however many of the run's cells link it.
        """
        cells = self._cells.writable(table_id)
        counts = self._counts.writable(table_id)
        linked, known = len(cells), len(counts)
        for _table, row, column, uri in run:
            row, column = int(row), int(column)
            if row < 0 or column < 0:
                raise LinkingError("cell coordinates must be non-negative")
            existing = cells.get((row, column))
            if existing is None:
                cells[row, column] = uri
                counts[uri] = counts.get(uri, 0) + 1
            elif existing != uri:
                raise _relink_error(table_id, row, column, existing, uri)
        # The entities this run brought to the table come last in its
        # counts, in the order a per-link replay would have met them.
        frequency = self._frequency
        for uri in islice(counts, known, None):
            frequency[uri] = frequency.get(uri, 0) + 1
        self._size += len(cells) - linked

    def unlink(self, table_id: str, row: int, column: int) -> Optional[str]:
        """Remove the link of a cell; returns the URI it pointed to, if any."""
        if self.entity_at(table_id, row, column) is None:
            return None
        cells = self._cells.writable(table_id)
        uri = cells.pop((row, column))
        if not cells:
            self._cells.drop(table_id)
        counts = self._counts.writable(table_id)
        counts[uri] -= 1
        if not counts[uri]:
            del counts[uri]
            self._leave(uri)
            if not counts:
                self._counts.drop(table_id)
        self._size -= 1
        return uri

    def unlink_table(self, table_id: str) -> int:
        """Remove every link of ``table_id``; returns how many were cut.

        Supports dynamic data lakes: dropping a table must also drop its
        contribution to entity postings and frequencies.  Costs the
        table's entity count, whatever the size of the lake.
        """
        cells = self._cells.drop(table_id)
        counts = self._counts.drop(table_id)
        if not cells:
            return 0
        for uri in counts:
            self._leave(uri)
        self._size -= len(cells)
        return len(cells)

    def _leave(self, uri: str) -> None:
        """One table fewer links ``uri``."""
        frequency = self._frequency[uri] - 1
        if frequency:
            self._frequency[uri] = frequency
        else:
            del self._frequency[uri]

    # ------------------------------------------------------------------
    # Forward direction (Phi)
    # ------------------------------------------------------------------
    def entity_at(self, table_id: str, row: int, column: int) -> Optional[str]:
        """Return the entity URI linked at a cell, or ``None``."""
        return self._cells.get(table_id, _NO_CELLS).get((row, column))

    def table_cells(self, table_id: str) -> Mapping[Tuple[int, int], str]:
        """A read-only view of one table's links, ``(row, column) -> uri``.

        Live: a later write to this mapping's links of ``table_id`` shows
        through.  Empty for a table without links.
        """
        cells = self._cells.get(table_id)
        return _NO_CELLS if cells is None else MappingProxyType(cells)

    def entity_row(self, table_id: str, row: int, num_columns: int) -> List[Optional[str]]:
        """Return the row's per-column entity URIs (``None`` where unlinked).

        This is how the search algorithm views a table tuple: only the
        entity mentions extracted by ``Phi`` (Section 4.1).
        """
        cells = self._cells.get(table_id, _NO_CELLS)
        return [cells.get((row, column)) for column in range(num_columns)]

    def entities_in_table(self, table_id: str) -> FrozenSet[str]:
        """Return the distinct entity URIs mentioned anywhere in a table."""
        return frozenset(self._counts.get(table_id, ()))

    def entities_in_column(self, table_id: str, column: int) -> List[str]:
        """Return entity URIs linked in one column (with duplicates)."""
        return self.entities_by_column(table_id).get(column, [])

    def entities_by_column(self, table_id: str) -> Dict[int, List[str]]:
        """Group a table's linked URIs by column in one pass.

        Each column's list is in sorted-cell (row) order with
        duplicates kept; columns without a linked cell are absent.
        """
        columns: Dict[int, List[str]] = {}
        for (_row, column), uri in sorted(
            self._cells.get(table_id, _NO_CELLS).items()
        ):
            columns.setdefault(column, []).append(uri)
        return columns

    # ------------------------------------------------------------------
    # Inverse direction (Phi^-1)
    # ------------------------------------------------------------------
    def cells_of(self, uri: str) -> FrozenSet[CellRef]:
        """Return all cells linked to ``uri`` (the inverse mapping)."""
        return frozenset(
            (table_id, row, column)
            for table_id in self.tables_with_entity(uri)
            for (row, column), linked in self._cells[table_id].items()
            if linked == uri
        )

    def tables_with_entity(self, uri: str) -> FrozenSet[str]:
        """Return identifiers of tables containing a mention of ``uri``.

        One scan of the linked tables; :meth:`entity_tables` answers
        for every entity in one pass.
        """
        return frozenset(
            table_id for table_id, counts in self._counts.items()
            if uri in counts
        )

    def entity_tables(self) -> Dict[str, Set[str]]:
        """Every linked entity's tables, built fresh in one pass."""
        tables: Dict[str, Set[str]] = {}
        for table_id, counts in self._counts.items():
            for uri in counts:
                tables.setdefault(uri, set()).add(table_id)
        return tables

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def linked_cell_count(self, table_id: str) -> int:
        """Number of linked cells in ``table_id``."""
        return len(self._cells.get(table_id, _NO_CELLS))

    def table_frequency(self, uri: str) -> int:
        """Number of distinct tables mentioning ``uri``, in O(1).

        This is the document frequency driving the informativeness
        weight ``I(e)`` of Section 5.2.
        """
        return self._frequency.get(uri, 0)

    def table_frequencies(self) -> Dict[str, int]:
        """Every linked entity's table frequency, as a new dict.

        One C-level dict copy, so a caller may keep it while this
        mapping changes.
        """
        return dict(self._frequency)

    def all_entities(self) -> Iterator[str]:
        """Iterate over every linked entity URI."""
        return iter(self._frequency)

    def all_links(self) -> Iterator[Tuple[CellRef, str]]:
        """Iterate over ``(cell, uri)`` pairs."""
        return (
            ((table_id, row, column), uri)
            for table_id, cells in self._cells.items()
            for (row, column), uri in cells.items()
        )

    def __len__(self) -> int:
        return self._size

    def __contains__(self, ref: CellRef) -> bool:
        return self.entity_at(*ref) is not None

    def copy(self) -> "EntityMapping":
        """Return an independent copy (snapshot swaps, noise simulators).

        Copy-on-write: the copy shares every table's containers with
        this mapping, and whichever side next writes to a table copies
        that table's containers first.  The cost is a dict copy per
        direction plus the frequency table, not one per link.
        """
        clone = EntityMapping.__new__(EntityMapping)
        clone._cells = self._cells.fork()
        clone._counts = self._counts.fork()
        clone._frequency = dict(self._frequency)
        clone._size = self._size
        return clone

    def merge(self, other: "EntityMapping") -> None:
        """Add every link from ``other`` into this mapping."""
        for (table_id, row, column), uri in other.all_links():
            self.link(table_id, row, column, uri)
