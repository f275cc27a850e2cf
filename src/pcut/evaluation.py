"""Clustering-error scoring via minimum-cost cluster matching.

The matching is an exact min-cost assignment solved with numpy alone
(_min_cost_columns), so scoring a partition against a truth imports nothing
beyond numpy and the package's own modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import DENSE_MAX_NODES, Partition


@dataclass(frozen=True)
class ErrorReport:
    error_rate: float
    matching: dict
    confusion: np.ndarray


def _min_cost_columns(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of the square `cost`.

    Shortest augmenting paths with row and column potentials: each row in
    turn grows a Dijkstra tree over the columns, on reduced costs, until it
    reaches a free column, then flips the path. O(size^3). Rows and columns
    are 1-based; column 0 is the root of every tree.
    """
    size = cost.shape[0]
    c = np.zeros((size + 1, size + 1))
    c[1:, 1:] = cost
    u = np.zeros(size + 1)                       # row potentials
    v = np.zeros(size + 1)                       # column potentials
    row_of = np.zeros(size + 1, dtype=np.int64)  # matched row per column, 0 if free
    way = np.zeros(size + 1, dtype=np.int64)     # previous column on the path
    for i in range(1, size + 1):
        row_of[0] = i
        j0 = 0
        dist = np.full(size + 1, np.inf)
        used = np.zeros(size + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            free = ~used
            reduced = c[i0] - u[i0] - v
            closer = free & (reduced < dist)
            dist[closer] = reduced[closer]
            way[closer] = j0
            j0 = int(np.argmin(np.where(free, dist, np.inf)))
            delta = dist[j0]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[free] -= delta
        while j0:
            prev = way[j0]
            row_of[j0] = row_of[prev]
            j0 = prev
    cols = np.empty(size, dtype=np.int64)
    cols[row_of[1:] - 1] = np.arange(size)
    return cols


def hungarian_match(cost: np.ndarray):
    """Minimum-cost assignment of rows to columns.

    Rectangular matrices are padded with zero-cost dummy rows/columns. Among
    equal-cost optima the lexicographically smallest assignment (by row
    order) is returned: each row takes the first free column that a
    completion of the remaining rows keeps optimal (to 1e-9). Every optimum
    comes from the Hungarian method (Kuhn 1955) in the shortest augmenting
    path form of Jonker and Volgenant (1987), in _min_cost_columns. Gives
    (columns per original row, total cost).
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise InputError("cost must be a nonempty 2-D matrix")
    if not np.isfinite(cost).all():
        raise InputError("cost matrix contains non-finite values")
    rows, cols = cost.shape
    size = max(rows, cols)
    padded = np.zeros((size, size))
    padded[:rows, :cols] = cost

    def optimum(matrix):
        return float(matrix[np.arange(matrix.shape[0]), _min_cost_columns(matrix)].sum())

    total = optimum(padded)
    assigned = []
    used = np.zeros(size, dtype=bool)
    remaining_total = total
    for row in range(size):
        sub_rows = np.arange(row + 1, size)
        free_cols = np.flatnonzero(~used)
        chosen = None
        for col in free_cols:
            rest_cols = free_cols[free_cols != col]
            rest = padded[np.ix_(sub_rows, rest_cols)] if sub_rows.size else None
            completion = optimum(rest) if rest is not None and rest.size else 0.0
            if abs(padded[row, col] + completion - remaining_total) <= 1e-9:
                chosen = int(col)
                break
        if chosen is None:  # numerical fallback: take the plain optimum
            rest = padded[np.ix_(np.arange(row, size), free_cols)]
            chosen = int(free_cols[_min_cost_columns(rest)[0]])
        used[chosen] = True
        assigned.append(chosen)
        remaining_total -= padded[row, chosen]
    return np.asarray(assigned[:rows], dtype=np.int64), total


def clustering_error(found: Partition, truth: Partition) -> ErrorReport:
    """Fraction of nodes outside the optimally matched cluster intersections.

    The matching cost between clusters is |union| - |intersection|; when the
    cluster counts differ, missing clusters act as empty sets, so a cluster
    matched to nothing counts all of its nodes as errors. More than
    DENSE_MAX_NODES clusters raise InputError before any allocation.
    """
    if found.n != truth.n:
        raise InputError(f"partitions disagree on n: {found.n} vs {truth.n}")
    n = found.n
    kf, kt = found.K, truth.K
    size = max(kf, kt)
    if size > DENSE_MAX_NODES:
        raise InputError(f"dense s x s matching for s = {size} clusters exceeds "
                         f"the limit of DENSE_MAX_NODES = {DENSE_MAX_NODES}")
    confusion = np.zeros((kf, kt), dtype=np.int64)
    np.add.at(confusion, (found.assignment, truth.assignment), 1)
    conf = np.zeros((size, size), dtype=np.int64)
    conf[:kf, :kt] = confusion
    fsizes = conf.sum(axis=1)
    tsizes = conf.sum(axis=0)
    cost = fsizes[:, None] + tsizes[None, :] - 2 * conf
    cols, _ = hungarian_match(cost)
    correct = int(conf[np.arange(size), cols].sum())
    matching = {int(i): (int(cols[i]) if cols[i] < kt else None) for i in range(kf)}
    return ErrorReport(error_rate=1.0 - correct / n, matching=matching,
                       confusion=confusion)
