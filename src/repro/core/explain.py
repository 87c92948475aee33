"""Human-readable explanations of SemRel scores.

Search results are easier to trust when the system can show *why* a
table ranked where it did: which table column each query entity was
mapped to, which rows carried the strongest evidence, how the
informativeness weights skewed the distance, and what each query tuple
contributed.  This module re-runs Algorithm 1 for a single table while
recording every intermediate quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.aggregation import TupleSemantics
from repro.core.query import Query
from repro.core.search import TableSearchEngine
from repro.core.semrel import semrel_tuple_score, weighted_distance
from repro.datalake.table import Table


@dataclass(frozen=True)
class EntityExplanation:
    """How one query entity fared against the table."""

    entity: str
    column: int                 # -1 when no column was assigned
    column_name: Optional[str]
    coordinate: float           # aggregated similarity (Algorithm 1 l.13)
    weight: float               # informativeness I(e)
    best_row: int               # row with the highest similarity (-1: none)
    best_row_entity: Optional[str]
    best_row_similarity: float


@dataclass(frozen=True)
class TupleExplanation:
    """How one query tuple scored against the table (lines 5-14)."""

    query_tuple: Tuple[str, ...]
    entities: List[EntityExplanation]
    distance: float             # weighted Euclidean distance (Eq. 2)
    score: float                # SemRel of the tuple (Eq. 3)


@dataclass(frozen=True)
class TableExplanation:
    """Full per-table explanation: every tuple's breakdown plus Eq. 1."""

    table_id: str
    score: float
    tuples: List[TupleExplanation] = field(default_factory=list)

    def render(self, graph=None) -> str:
        """Render a compact text report.

        Pass the knowledge graph to print entity labels instead of URIs.
        """

        def label(uri: Optional[str]) -> str:
            if uri is None:
                return "-"
            if graph is not None:
                entity = graph.find(uri)
                if entity is not None and entity.label:
                    return entity.label
            return uri

        lines = [f"Table {self.table_id!r}: SemRel = {self.score:.4f}"]
        for index, tup in enumerate(self.tuples):
            lines.append(
                f"  tuple {index}: score={tup.score:.4f} "
                f"(distance {tup.distance:.4f})"
            )
            for ent in tup.entities:
                column = (
                    f"column {ent.column} ({ent.column_name})"
                    if ent.column >= 0 else "no column"
                )
                lines.append(
                    f"    {label(ent.entity):<24} -> {column:<24} "
                    f"coord={ent.coordinate:.3f} weight={ent.weight:.3f} "
                    f"best row={ent.best_row} "
                    f"({label(ent.best_row_entity)}, "
                    f"{ent.best_row_similarity:.3f})"
                )
        return "\n".join(lines)


def explain_table(
    engine: TableSearchEngine, query: Query, table: Table
) -> TableExplanation:
    """Score ``table`` against ``query`` recording every intermediate.

    Produces exactly the same final score as
    :meth:`TableSearchEngine.score_table` (asserted in the test suite)
    while exposing the full decision trail — including its relevance
    rule: under ``drop_irrelevant`` a table with no positive similarity
    signal scores 0.0, as search drops it.
    """
    grid = engine._entity_grid(table)
    per_row_semantics = engine.tuple_semantics is TupleSemantics.PER_ROW
    any_signal = False
    tuple_explanations: List[TupleExplanation] = []
    for query_tuple in query:
        assignment = engine.column_mapping(query_tuple, table)
        entities: List[EntityExplanation] = []
        coordinates: List[float] = []
        for position, query_entity in enumerate(query_tuple):
            column = assignment[position]
            per_row: List[float] = []
            best_row, best_uri, best_sim = -1, None, 0.0
            for row_index, row in enumerate(grid):
                target = row[column] if column >= 0 else None
                if target is None:
                    per_row.append(0.0)
                    continue
                similarity = engine.similarity(query_entity, target)
                per_row.append(similarity)
                if similarity > best_sim:
                    best_row, best_uri, best_sim = (
                        row_index, target, similarity
                    )
            coordinate = engine.row_aggregation.aggregate(per_row)
            coordinates.append(coordinate)
            if per_row_semantics:
                any_signal |= any(score > 0.0 for score in per_row)
            else:
                any_signal |= coordinate > 0.0
            entities.append(
                EntityExplanation(
                    entity=query_entity,
                    column=column,
                    column_name=(
                        table.attributes[column] if column >= 0 else None
                    ),
                    coordinate=coordinate,
                    weight=engine.informativeness(query_entity),
                    best_row=best_row,
                    best_row_entity=best_uri,
                    best_row_similarity=best_sim,
                )
            )
        if not coordinates:
            coordinates = [0.0] * len(query_tuple)
        distance = weighted_distance(
            query_tuple, coordinates, engine.informativeness
        )
        score = semrel_tuple_score(
            query_tuple, coordinates, engine.informativeness
        )
        tuple_explanations.append(
            TupleExplanation(
                query_tuple=tuple(query_tuple),
                entities=entities,
                distance=distance,
                score=score,
            )
        )
    final = engine.query_aggregation.aggregate(
        [t.score for t in tuple_explanations]
    )
    if engine.drop_irrelevant and not any_signal:
        final = 0.0
    return TableExplanation(
        table_id=table.table_id, score=final, tuples=tuple_explanations
    )
