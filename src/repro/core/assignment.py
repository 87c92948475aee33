"""Rectangular assignment solver (the Hungarian Method of Section 5.1).

The query-to-column mapping ``tau`` maximizes the summed column-relevance
score under the constraint that each query entity maps to a distinct
column.  This module implements the O(n^2 m) shortest-augmenting-path
formulation of the Hungarian algorithm with dual potentials, operating
directly on rectangular matrices (rows <= columns after internal
padding).  Its output is verified against ``scipy.optimize`` in the test
suite but the library never depends on scipy at runtime for this path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import SearchError

_INF = float("inf")

#: Minimum gap between the best and second-best enumerated total before
#: the enumerated assignment is trusted over the Hungarian solver.
#: Well above the ~1e-13 rounding the solver's potentials can
#: accumulate, so a margin-clearing optimum is provably the solver's
#: answer too; anything closer falls back to the exact solver.
ASSIGNMENT_MARGIN = 1e-9

#: Upper bound on the cells of one enumerated option tensor (float64:
#: ~32 MB).  The vectorized kernels chunk their lanes to stay inside it.
ENUM_BUDGET = 4_000_000

#: Per-lane enumeration ceiling: beyond this many option-tensor cells a
#: single :func:`max_assignment` call on the lane's block is cheaper
#: than its slice of the tensor, so the lane goes to the solver.
MAX_ENUM_ELEMENTS = 262_144

_NO_LANES = np.empty(0, dtype=np.int64)


def _solve_min(cost: np.ndarray) -> List[int]:
    """Minimum-cost assignment for an ``n x m`` matrix with ``n <= m``.

    Returns ``assignment`` where ``assignment[i]`` is the column assigned
    to row ``i``.  Classic potentials-based Hungarian (e-maxx variant).
    """
    n, m = cost.shape
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # match[j] = row (1-based) assigned to column j
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [_INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = _INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = [-1] * n
    for j in range(1, m + 1):
        if match[j] != 0:
            assignment[match[j] - 1] = j - 1
    return assignment


def max_assignment(scores: Sequence[Sequence[float]]) -> Tuple[List[int], float]:
    """Maximum-score assignment of rows to distinct columns.

    Parameters
    ----------
    scores:
        A ``k x n`` matrix of non-negative scores (query entities by
        table columns).  When ``k > n`` the matrix is padded with zero
        columns, so surplus rows map to "no real column" and are reported
        as ``-1``.

    Returns
    -------
    assignment, total:
        ``assignment[i]`` is the column index for row ``i`` (or ``-1``
        when the row was assigned to a zero-padding column), and
        ``total`` is the summed score of the chosen real cells.
    """
    matrix = np.asarray(scores, dtype=np.float64)
    if matrix.ndim != 2:
        raise SearchError("scores must be a 2-D matrix")
    k, n = matrix.shape
    if k == 0 or n == 0:
        return [-1] * k, 0.0
    padded = matrix
    if k > n:
        padded = np.concatenate(
            [matrix, np.zeros((k, k - n), dtype=np.float64)], axis=1
        )
    assignment = _solve_min(-padded)
    total = 0.0
    result: List[int] = []
    for row, column in enumerate(assignment):
        if column >= n:
            result.append(-1)
        else:
            result.append(column)
            total += float(matrix[row, column])
    return result, total


def enumeration_chunks(
    elements: np.ndarray,
) -> Tuple[np.ndarray, List[Union[slice, np.ndarray]]]:
    """Gate and chunk the lanes of an exhaustive assignment enumeration.

    ``elements[i]`` is the option-tensor cell count of lane ``i`` (one
    assignment problem).  Returns ``(solver, chunks)``: the positions
    of lanes over :data:`MAX_ENUM_ELEMENTS`, which go to
    :func:`max_assignment`, and indexes covering every other lane, one
    enumeration call each.  A call pads its tensor to its widest lane,
    so lanes that do not fit :data:`ENUM_BUDGET` in one call are sorted
    by size and each chunk ends where its lane count times its widest
    member would pass the budget (monotone once sorted: the first
    failure ends the chunk).  When every lane fits one call, that call
    is ``slice(None)``, all lanes in order.  A lane's answer must not
    depend on its chunk-mates.
    """
    widest = elements.max(initial=0.0)
    if widest <= MAX_ENUM_ELEMENTS and len(elements) * widest <= ENUM_BUDGET:
        return _NO_LANES, [slice(None)] if len(elements) else []
    enumerable = elements <= MAX_ENUM_ELEMENTS
    solver = np.nonzero(~enumerable)[0]
    selection = np.nonzero(enumerable)[0]
    order = np.argsort(elements[selection], kind="stable")
    selection = selection[order]
    sizes = elements[selection]
    chunks: List[np.ndarray] = []
    cursor = 0
    while cursor < len(selection):
        remaining = sizes[cursor:]
        fits = np.arange(1, len(remaining) + 1) * remaining <= ENUM_BUDGET
        step = (
            len(remaining) if bool(fits.all())
            else max(1, int(np.argmin(fits)))
        )
        chunks.append(selection[cursor:cursor + step])
        cursor += step
    return solver, chunks


#: ``(options,) * lanes`` boolean masks, keyed by ``(lanes, options)``:
#: True where two lanes pick the same real column (the last option is
#: the conflict-exempt null slot).  Bounded: cleared when full.
_CLASHES: Dict[Tuple[int, int], np.ndarray] = {}


def _clashes(lanes: int, options: int) -> np.ndarray:
    mask = _CLASHES.get((lanes, options))
    if mask is None:
        if len(_CLASHES) >= 32:
            _CLASHES.clear()
        picks = np.indices((options,) * lanes)
        mask = np.zeros((options,) * lanes, dtype=bool)
        for i in range(lanes):
            for j in range(i + 1, lanes):
                mask |= (picks[i] == picks[j]) & (picks[i] != options - 1)
        _CLASHES[(lanes, options)] = mask
    return mask


def enumerate_assignments(
    relevance: np.ndarray,
    col_offset: np.ndarray,
    table_columns: np.ndarray,
    lanes: np.ndarray,
    tables: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact column assignments by null-augmented enumeration.

    ``col_offset`` / ``table_columns`` lay the tables out along the
    column axis of ``relevance``.  Pair ``i`` assigns the ``p`` rows
    ``lanes[i]`` of ``relevance`` (in row order) to distinct columns
    of table ``tables[i]``.  Each lane's options are the table's
    *positive* columns (positive for some lane of the pair) plus one
    conflict-exempt null slot worth ``0.0``; a lane's non-positive
    entries are ``-inf``.  A zero relevance adds nothing the solver's
    padding would not, so the ``(positive columns + 1) ** p`` tensor of
    totals, summed in row order as the solver's caller sums its picks,
    holds one cell per distinct positive support, and its maximum is
    the Hungarian optimum.

    Returns ``(chosen, optimum, unique, settled)`` per pair: the first
    optimal cell's column per lane (``-1`` = null slot), its total,
    whether it clears :data:`ASSIGNMENT_MARGIN` over every other cell
    (then the solver's columns score to it), and whether every total
    within the margin equals it bitwise (then the solver's *total* is
    it, whichever optimum the solver takes; always true for one lane,
    whose optimum is a plain max).  ``unique`` implies ``settled``.  A
    pair's outputs do not depend on the other pairs: a wider table only
    appends ``-inf`` options before the null slot.
    """
    size, p = lanes.shape
    columns = table_columns[tables]
    cmax = int(columns.max(initial=0))
    gather = col_offset[tables][:, None] + np.arange(cmax)
    np.minimum(gather, relevance.shape[1] - 1, out=gather)
    real = relevance[lanes.T[:, :, None], gather[None, :, :]]
    positive = (np.arange(cmax) < columns[:, None]) & (real > 0.0)
    real = np.where(positive, real, -np.inf)
    # Compact each pair to its positive columns, in column order.
    support = positive.any(axis=0)
    width = int(support.sum(axis=1).max(initial=0))
    order = np.argsort(~support, axis=1, kind="stable")[:, :width]
    blocks = np.concatenate(
        [
            np.take_along_axis(real, order[None, :, :], axis=2),
            np.zeros((p, size, 1), dtype=np.float64),
        ],
        axis=2,
    )
    options = width + 1
    totals = blocks[0].reshape((size, options) + (1,) * (p - 1))
    for lane in range(1, p):
        shape = [size] + [1] * p
        shape[1 + lane] = options
        totals = totals + blocks[lane].reshape(shape)
    if p > 1:
        totals[:, _clashes(p, options)] = -np.inf
    flat = totals.reshape(size, -1)
    best = flat.argmax(axis=1)
    pairs = np.arange(size)
    optimum = flat[pairs, best]
    if p == 1:
        settled = np.ones(size, dtype=bool)
    else:
        near = flat >= (optimum - ASSIGNMENT_MARGIN)[:, None]
        settled = np.where(near, flat, np.inf).min(axis=1) == optimum
    # The runner-up, by masking the winner.  The all-null cell keeps
    # the optimum finite, so the gap is +inf, never NaN.
    flat[pairs, best] = -np.inf
    unique = settled & (optimum - flat.max(axis=1) >= ASSIGNMENT_MARGIN)
    picks = np.stack(np.unravel_index(best, (options,) * p), axis=1)
    slots = np.concatenate(
        [order, np.full((size, 1), -1, dtype=np.int64)], axis=1
    )
    return np.take_along_axis(slots, picks, axis=1), optimum, unique, settled


def assignment_score(scores: Sequence[Sequence[float]]) -> float:
    """Return only the optimal total of :func:`max_assignment`."""
    _, total = max_assignment(scores)
    return total
