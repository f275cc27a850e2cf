"""Clustering-error scoring via minimum-cost cluster matching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Partition


@dataclass(frozen=True)
class ErrorReport:
    error_rate: float
    matching: dict
    confusion: np.ndarray


def hungarian_match(cost: np.ndarray):
    """Minimum-cost assignment of rows to columns.

    Rectangular matrices are padded with zero-cost dummy rows/columns. Among
    equal-cost optima the lexicographically smallest assignment (by row
    order) is returned. Gives (columns per original row, total cost).
    """
    # imported here: a network run never scores against a truth, and scipy's
    # optimize package is a large share of the package's import time
    from scipy.optimize import linear_sum_assignment

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
        r, c = linear_sum_assignment(matrix)
        return float(matrix[r, c].sum())

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
            r, c = linear_sum_assignment(padded[np.ix_(np.arange(row, size), free_cols)])
            chosen = int(free_cols[c[list(r).index(0)]])
        used[chosen] = True
        assigned.append(chosen)
        remaining_total -= padded[row, chosen]
    return np.asarray(assigned[:rows], dtype=np.int64), total


def clustering_error(found: Partition, truth: Partition) -> ErrorReport:
    """Fraction of nodes outside the optimally matched cluster intersections.

    The matching cost between clusters is |union| - |intersection|; when the
    cluster counts differ, missing clusters act as empty sets, so a cluster
    matched to nothing counts all of its nodes as errors.
    """
    if found.n != truth.n:
        raise InputError(f"partitions disagree on n: {found.n} vs {truth.n}")
    n = found.n
    kf, kt = found.K, truth.K
    confusion = np.zeros((kf, kt), dtype=np.int64)
    np.add.at(confusion, (found.assignment, truth.assignment), 1)
    size = max(kf, kt)
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
