"""Tests for the Hungarian assignment solver, verified against scipy,
and for the enumeration both vectorized kernels run, verified against
the solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core import assignment_score, max_assignment
from repro.core.assignment import (
    ASSIGNMENT_MARGIN,
    ENUM_BUDGET,
    MAX_ENUM_ELEMENTS,
    enumerate_assignments,
    enumeration_chunks,
)
from repro.exceptions import SearchError


class TestMaxAssignment:
    def test_simple_square(self):
        scores = [[1.0, 0.0], [0.0, 1.0]]
        assignment, total = max_assignment(scores)
        assert assignment == [0, 1]
        assert total == 2.0

    def test_prefers_global_optimum_over_greedy(self):
        # Greedy would take (0,0)=9 then (1,1)=1 for 10; optimal is 8+7=15.
        scores = [[9.0, 7.0], [8.0, 1.0]]
        assignment, total = max_assignment(scores)
        assert total == 15.0
        assert assignment == [1, 0]

    def test_rectangular_wide(self):
        scores = [[0.1, 0.9, 0.5]]
        assignment, total = max_assignment(scores)
        assert assignment == [1]
        assert total == pytest.approx(0.9)

    def test_rectangular_tall_pads_with_dummy(self):
        # 3 query entities, 1 column: two entities get no real column.
        scores = [[0.2], [0.9], [0.5]]
        assignment, total = max_assignment(scores)
        assert total == pytest.approx(0.9)
        assert assignment.count(-1) == 2
        assert assignment[1] == 0

    def test_distinct_columns_enforced(self):
        scores = [[1.0, 0.4], [1.0, 0.4]]
        assignment, _ = max_assignment(scores)
        assert len(set(assignment)) == 2

    def test_empty_matrix(self):
        assignment, total = max_assignment(np.zeros((0, 5)))
        assert assignment == []
        assert total == 0.0

    def test_zero_columns(self):
        assignment, total = max_assignment(np.zeros((2, 0)))
        assert assignment == [-1, -1]
        assert total == 0.0

    def test_non_2d_rejected(self):
        with pytest.raises(SearchError):
            max_assignment(np.zeros(3))

    def test_assignment_score_helper(self):
        assert assignment_score([[2.0, 1.0], [1.0, 3.0]]) == 5.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 10_000),
)
def test_matches_scipy_on_random_matrices(rows, cols, seed):
    """Optimal totals must agree with scipy's reference solver."""
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.0, 1.0, size=(rows, cols))
    _, ours = max_assignment(scores)
    row_idx, col_idx = linear_sum_assignment(scores, maximize=True)
    theirs = float(scores[row_idx, col_idx].sum())
    assert ours == pytest.approx(theirs, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
def test_assignment_is_injective_and_consistent(rows, cols, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.0, 1.0, size=(rows, cols))
    assignment, total = max_assignment(scores)
    real = [c for c in assignment if c >= 0]
    assert len(real) == len(set(real))  # injective
    assert all(0 <= c < cols for c in real)
    recomputed = sum(scores[i][c] for i, c in enumerate(assignment) if c >= 0)
    assert total == pytest.approx(recomputed)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 70), max_size=60))
def test_enumeration_chunks_gate_and_budget(columns):
    elements = (np.asarray(columns, dtype=np.float64) + 1) ** 3
    solver, chunks = enumeration_chunks(elements)
    assert set(solver) == set(np.nonzero(elements > MAX_ENUM_ELEMENTS)[0])
    lanes = np.arange(len(elements))
    covered = np.concatenate([solver] + [lanes[c] for c in chunks])
    assert sorted(covered.tolist()) == lanes.tolist()
    for chunk in chunks:
        assert len(lanes[chunk]) * elements[chunk].max() <= ENUM_BUDGET


def tie_heavy_relevance(rng, lanes, columns):
    """Non-negative relevance (a union kernel's is clipped at 0.0) thick
    with exact ties, near-ties below the margin and margin-sized gaps."""
    base = rng.choice([0.0, 0.25, 1 / 3, 0.5, 0.7], size=(lanes, columns))
    nudge = rng.choice(
        [0.0, 0.0, 5e-13, -5e-13, ASSIGNMENT_MARGIN, -ASSIGNMENT_MARGIN],
        size=(lanes, columns),
    )
    return np.where(base > 0.0, base + nudge, 0.0)


def row_order_total(relevance, lanes, columns, start):
    """The chosen cells summed in row order, the null slot adding 0.0."""
    total = 0.0
    for lane, column in zip(lanes.tolist(), columns.tolist()):
        total += float(relevance[lane, start + column]) if column >= 0 else 0.0
    return total


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    columns=st.lists(st.integers(0, 5), min_size=1, max_size=6),
)
def test_enumeration_agrees_with_the_solver(seed, p, columns):
    rng = np.random.default_rng(seed)
    # The last table is the widest: every other pair also rides a batch
    # with a wider table than its own.
    table_columns = np.asarray(columns + [6], dtype=np.int64)
    col_offset = np.concatenate(([0], np.cumsum(table_columns)))
    relevance = tie_heavy_relevance(rng, 6, int(col_offset[-1]))
    for table in np.flatnonzero(rng.random(len(columns)) < 0.25):
        relevance[:, col_offset[table]:col_offset[table + 1]] = 0.0
    tables = np.arange(len(table_columns))
    lanes = np.stack([
        np.sort(rng.choice(6, size=p, replace=False)) for _ in tables
    ])
    batched = enumerate_assignments(
        relevance, col_offset, table_columns, lanes, tables
    )
    chosen, optimum, unique, settled = batched
    assert not (unique & ~settled).any()
    for i, table in enumerate(tables.tolist()):
        start = int(col_offset[table])
        block = relevance[lanes[i], start:col_offset[table + 1]]
        if settled[i]:
            assert max_assignment(block)[1].hex() == optimum[i].hex()
        if unique[i]:
            real = chosen[i][chosen[i] >= 0]
            assert len(set(real.tolist())) == real.size
            assert (
                row_order_total(relevance, lanes[i], chosen[i], start).hex()
                == optimum[i].hex()
            )
        alone = enumerate_assignments(
            relevance, col_offset, table_columns,
            lanes[i:i + 1], tables[i:i + 1],
        )
        for whole, single in zip(batched, alone):
            assert whole[i:i + 1].tobytes() == single.tobytes()
