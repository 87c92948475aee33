"""The kernel's selection-local scoring pass and its distance tail.

``VectorizedTableSearchEngine._segment_tuples`` scores any sorted
selection of a segment's tables in a table and column space sized by
the selection.  The load-bearing properties:

* a table's tuple scores and signals do not depend on which other
  tables ride the pass: any selection equals the all-positions pass at
  every selected table, bit for bit;
* the residual-distance tail is Equation 2 in the scalar operation
  order, bit for bit, so no tail depends on the shape of the pass.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import RowAggregation, TupleSemantics
from repro.core.kernel import VectorizedTableSearchEngine
from repro.core.kernel.engine import weighted_distances
from repro.core.search import ScoringProfile
from repro.core.semrel import weighted_distance

from tests.test_core_kernel import make_lake, make_queries, make_sigma
from tests.test_kernel_scan import add_twins


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    sigma_kind=st.sampled_from(["types", "embeddings"]),
    row_aggregation=st.sampled_from(list(RowAggregation)),
    tuple_semantics=st.sampled_from(list(TupleSemantics)),
)
def test_any_selection_scores_like_the_whole_segment(
    seed, sigma_kind, row_aggregation, tuple_semantics,
):
    rng = random.Random(seed)
    lake, mapping = make_lake(rng, num_tables=rng.randint(6, 24))
    add_twins(rng, lake, mapping, count=4)
    engine = VectorizedTableSearchEngine(
        lake, mapping, make_sigma(sigma_kind, rng),
        row_aggregation=row_aggregation,
        tuple_semantics=tuple_semantics,
    )
    (segment,) = engine.index().segments
    # Widths 1-7 and an entity outside the corpus: every assignment
    # path (enumeration, solver fallback, all-zero relevance) runs.
    tuples = list(dict.fromkeys(
        query_tuple
        for query in make_queries(rng)
        for query_tuple in query.tuples
    ))
    profile = ScoringProfile()
    tables = len(segment.table_ids)
    whole = engine._segment_tuples(
        segment, tuples, profile, selection=np.arange(tables)
    )
    for _ in range(6):
        selection = np.array(
            sorted(rng.sample(range(tables), rng.randint(1, tables))),
            dtype=np.int64,
        )
        part = engine._segment_tuples(
            segment, tuples, profile, selection=selection
        )
        for (column, signal), (whole_column, whole_signal) in zip(
            part, whole
        ):
            assert column.tobytes() == whole_column[selection].tobytes()
            assert np.array_equal(signal, whole_signal[selection])


def test_distance_tail_is_the_scalar_equation_2():
    npr = np.random.default_rng(7)
    for width in range(1, 8):
        uris = [f"kg:e{position}" for position in range(width)]
        weights = npr.uniform(0.0, 3.0, width)
        coordinates = npr.uniform(0.0, 1.0, (200, width))
        coordinates[npr.random((200, width)) < 0.2] = 0.0
        coordinates[npr.random((200, width)) < 0.1] = 1.0
        weight_of = dict(zip(uris, weights.tolist()))
        distances = weighted_distances(coordinates, weights)
        for row, distance in zip(coordinates.tolist(), distances.tolist()):
            assert distance == weighted_distance(
                uris, row, weight_of.__getitem__
            )
        # Row by row, so a sub-selection changes no row's distance.
        rows = npr.random(200) < 0.3
        assert np.array_equal(
            weighted_distances(coordinates[rows], weights), distances[rows]
        )
