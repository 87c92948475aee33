"""Tests for the Hungarian assignment solver, verified against scipy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core import assignment_score, max_assignment
from repro.core.assignment import (
    ENUM_BUDGET,
    MAX_ENUM_ELEMENTS,
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
