"""Minimum-cost rectangular assignment (the linear sum assignment problem).

:func:`linear_sum_assignment` runs the shortest-augmenting-path method of
Crouse ("On implementing 2D rectangular assignment algorithms", IEEE TAES
2016) step for step as ``scipy.optimize.linear_sum_assignment`` 1.17 runs
it, so both return the same indices for every finite matrix, ties
included.  Rows are augmented in order; a tall matrix is solved transposed
and its result sorted by row.  Each search scans the columns it has not
reached in the order ``n-1, ..., 0``, kept by swap-removal, and among tied
minima takes the last free column in scan order, else the first tied one.
Matching scipy's tie rule keeps every track, trained parameter and
CLEAR-MOT report equal to what the scipy matcher gave.

Every row's first search step looks only at ``cost[row] - v``: its own dual
is still 0.  While ``v`` does not move, those steps are one vectorized min
for all remaining rows, and a row whose first choice is free is assigned
directly (that step leaves ``v`` unchanged).  Only a row whose first choice
is taken runs the scalar search, which can move ``v``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a minimum-cost assignment of ``cost``.

    ``cost`` is a 2-D array of finite numbers; every row of a wide matrix
    (every column of a tall one) is assigned.  Returns ``(rows, cols)``,
    two integer arrays sorted by row, as scipy's function of that name does.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ContractError(
            f"cost matrix must be 2-D, got shape {cost.shape}")
    finite = np.isfinite(cost)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NumericError(f"cost matrix entry ({i}, {j}) is {cost[i, j]}; "
                           "every entry must be finite")
    if cost.shape[1] < cost.shape[0]:
        col4row = _assign_rows(cost.T)
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(cost.shape[0]), _assign_rows(cost)


def _assign_rows(cost: np.ndarray) -> np.ndarray:
    """The column assigned to each row of a cost matrix with no more rows
    than columns."""
    cost = np.ascontiguousarray(cost)       # contiguous rows step faster
    n_rows, n_cols = cost.shape
    u = [0.0] * n_rows
    v = np.zeros(n_cols)
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    row = 0
    while row < n_rows:
        # the first step of every row from `row` on, valid while v holds
        base = row
        reduced = cost[base:] - v
        first = reduced.argmin(axis=1)
        best = reduced[np.arange(n_rows - base), first]
        # a row's minimum is tied when its last occurrence is not its first
        tied = reduced[:, ::-1].argmin(axis=1) != n_cols - 1 - first
        steps = zip(range(base, n_rows), first.tolist(), best.tolist(),
                    tied.tolist())
        for row, col, value, is_tied in steps:
            if is_tied:
                cols = (reduced[row - base] == value).nonzero()[0].tolist()
                col = next((c for c in cols if row4col[c] < 0), cols[-1])
            if row4col[col] < 0 and value < np.inf:
                u[row] = 0.0 + value
                col4row[row] = col
                row4col[col] = row
            elif _augment(cost, u, v, col4row, row4col, row):
                break           # v moved: recompute the later first steps
        row += 1
    return np.array(col4row, dtype=np.intp)


def _augment(cost: np.ndarray, u: list, v: np.ndarray,
             col4row: list, row4col: list, cur: int) -> bool:
    """Assign row ``cur`` along a shortest augmenting path, updating the
    duals ``u``, ``v`` and the matching in place; returns whether ``v``
    moved."""
    n_cols = cost.shape[1]
    # the columns not reached yet, in scan order, and each one's place in it
    order = list(range(n_cols - 1, -1, -1))
    place = order.copy()                    # order is its own inverse
    open_cost = np.full(n_cols, np.inf)     # reached columns stay at inf
    open_v = v.copy()                       # -inf at reached columns
    path = np.empty(n_cols, dtype=np.intp)  # set before a column is reached
    rows, cols, reached = [], [], []        # visited rows, reached columns
    min_val = 0.0
    i = cur
    while True:
        reach = min_val + cost[i]
        reach -= u[i]
        reach -= open_v                     # inf at the reached columns
        better = reach < open_cost
        np.minimum(open_cost, reach, out=open_cost)
        path[better] = i
        col = int(open_cost.argmin())
        min_val = float(open_cost[col])
        if not min_val < np.inf:
            raise NumericError("assignment path costs overflow: the cost "
                               "matrix spans more than the float range")
        if open_cost[::-1].argmin() != n_cols - 1 - col:
            # tied: the last free column in scan order, else the first
            tied = (open_cost == min_val).nonzero()[0].tolist()
            free = [c for c in tied if row4col[c] < 0]
            col = (max(free, key=place.__getitem__) if free
                   else min(tied, key=place.__getitem__))
        last = order.pop()
        if last != col:
            order[place[col]] = last
            place[last] = place[col]
        open_cost[col] = np.inf
        open_v[col] = -np.inf
        cols.append(col)
        reached.append(min_val)
        if row4col[col] < 0:
            break
        i = row4col[col]
        rows.append(i)

    u[cur] += min_val
    for i, value in zip(rows, reached):
        u[i] += min_val - value
    v[cols] -= min_val - np.array(reached)
    while True:
        i = int(path[col])
        row4col[col] = i
        col4row[i], col = col, col4row[i]
        if i == cur:
            return any(value != min_val for value in reached)
