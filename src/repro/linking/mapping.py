"""The partial mapping ``Phi`` of Definition 2.1.

An :class:`EntityMapping` records which data-lake cells mention which KG
entities: the forward direction maps a cell coordinate
``(table_id, row, column)`` to an entity URI, the inverse maps an entity
URI to the set of cells mentioning it.  The mapping is *partial* by
design — most cells of a real lake are not linked — and the library is
required to behave well at any coverage level (Section 7.5).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.exceptions import LinkingError

CellRef = Tuple[str, int, int]  # (table_id, row index, column index)


def _copy_sets(source: Dict) -> Dict:
    return defaultdict(
        set, {key: set(members) for key, members in source.items()}
    )


class EntityMapping:
    """Bidirectional partial mapping between cells and KG entities."""

    def __init__(self) -> None:
        self._cell_to_entity: Dict[CellRef, str] = {}
        self._entity_to_cells: Dict[str, Set[CellRef]] = defaultdict(set)
        self._table_entities: Dict[str, Set[str]] = defaultdict(set)
        self._table_cells: Dict[str, Set[CellRef]] = defaultdict(set)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def link(self, table_id: str, row: int, column: int, uri: str) -> None:
        """Record that cell ``(row, column)`` of ``table_id`` mentions ``uri``.

        Re-linking an already linked cell to a different entity is an
        error: a cell holds one mention.
        """
        if row < 0 or column < 0:
            raise LinkingError("cell coordinates must be non-negative")
        ref: CellRef = (table_id, row, column)
        existing = self._cell_to_entity.get(ref)
        if existing is not None and existing != uri:
            raise LinkingError(
                f"cell {ref} already linked to {existing!r}, cannot relink to {uri!r}"
            )
        self._cell_to_entity[ref] = uri
        self._entity_to_cells[uri].add(ref)
        self._table_entities[table_id].add(uri)
        self._table_cells[table_id].add(ref)

    def unlink(self, table_id: str, row: int, column: int) -> Optional[str]:
        """Remove the link of a cell; returns the URI it pointed to, if any."""
        ref: CellRef = (table_id, row, column)
        uri = self._cell_to_entity.pop(ref, None)
        if uri is None:
            return None
        self._entity_to_cells[uri].discard(ref)
        if not self._entity_to_cells[uri]:
            del self._entity_to_cells[uri]
        self._table_cells[table_id].discard(ref)
        # Rebuild the table's entity set only if the entity vanished there.
        if not any(
            self._cell_to_entity.get(other) == uri
            for other in self._table_cells[table_id]
        ):
            self._table_entities[table_id].discard(uri)
        return uri

    def unlink_table(self, table_id: str) -> int:
        """Remove every link of ``table_id``; returns how many were cut.

        Supports dynamic data lakes: dropping a table must also drop its
        contribution to entity postings and frequencies.
        """
        refs = sorted(self._table_cells.get(table_id, ()))
        for table, row, column in refs:
            self.unlink(table, row, column)
        self._table_cells.pop(table_id, None)
        self._table_entities.pop(table_id, None)
        return len(refs)

    # ------------------------------------------------------------------
    # Forward direction (Phi)
    # ------------------------------------------------------------------
    def entity_at(self, table_id: str, row: int, column: int) -> Optional[str]:
        """Return the entity URI linked at a cell, or ``None``."""
        return self._cell_to_entity.get((table_id, row, column))

    def entity_row(self, table_id: str, row: int, num_columns: int) -> List[Optional[str]]:
        """Return the row's per-column entity URIs (``None`` where unlinked).

        This is how the search algorithm views a table tuple: only the
        entity mentions extracted by ``Phi`` (Section 4.1).
        """
        return [
            self._cell_to_entity.get((table_id, row, column))
            for column in range(num_columns)
        ]

    def entities_in_table(self, table_id: str) -> FrozenSet[str]:
        """Return the distinct entity URIs mentioned anywhere in a table."""
        return frozenset(self._table_entities.get(table_id, ()))

    def entities_in_column(self, table_id: str, column: int) -> List[str]:
        """Return entity URIs linked in one column (with duplicates)."""
        return self.entities_by_column(table_id).get(column, [])

    def entities_by_column(self, table_id: str) -> Dict[int, List[str]]:
        """Group a table's linked URIs by column in one pass.

        Each column's list is in sorted-cell (row) order with
        duplicates kept; columns without a linked cell are absent.
        """
        columns: Dict[int, List[str]] = {}
        for ref in sorted(self._table_cells.get(table_id, ())):
            columns.setdefault(ref[2], []).append(self._cell_to_entity[ref])
        return columns

    # ------------------------------------------------------------------
    # Inverse direction (Phi^-1)
    # ------------------------------------------------------------------
    def cells_of(self, uri: str) -> FrozenSet[CellRef]:
        """Return all cells linked to ``uri`` (the inverse mapping)."""
        return frozenset(self._entity_to_cells.get(uri, ()))

    def tables_with_entity(self, uri: str) -> FrozenSet[str]:
        """Return identifiers of tables containing a mention of ``uri``."""
        return frozenset(ref[0] for ref in self._entity_to_cells.get(uri, ()))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def linked_cell_count(self, table_id: str) -> int:
        """Number of linked cells in ``table_id``."""
        return len(self._table_cells.get(table_id, ()))

    def table_frequency(self, uri: str) -> int:
        """Number of distinct tables mentioning ``uri``.

        This is the document frequency driving the informativeness
        weight ``I(e)`` of Section 5.2.
        """
        return len(self.tables_with_entity(uri))

    def all_entities(self) -> Iterator[str]:
        """Iterate over every linked entity URI."""
        return iter(self._entity_to_cells.keys())

    def all_links(self) -> Iterator[Tuple[CellRef, str]]:
        """Iterate over ``(cell, uri)`` pairs."""
        return iter(self._cell_to_entity.items())

    def __len__(self) -> int:
        return len(self._cell_to_entity)

    def __contains__(self, ref: CellRef) -> bool:
        return ref in self._cell_to_entity

    def copy(self) -> "EntityMapping":
        """Return an independent copy (snapshot swaps, noise simulators).

        The four containers are copied structurally: every cell here
        already passed :meth:`link`'s checks, so replaying them would
        only re-derive the same sets.
        """
        clone = EntityMapping()
        clone._cell_to_entity = dict(self._cell_to_entity)
        clone._entity_to_cells = _copy_sets(self._entity_to_cells)
        clone._table_entities = _copy_sets(self._table_entities)
        clone._table_cells = _copy_sets(self._table_cells)
        return clone

    def merge(self, other: "EntityMapping") -> None:
        """Add every link from ``other`` into this mapping."""
        for (table_id, row, column), uri in other.all_links():
            self.link(table_id, row, column, uri)
