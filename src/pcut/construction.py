"""Similarity-network graph construction from feature data.

Every nearest-neighbor search reads one neighbor table per FeatureMatrix
(`FeatureMatrix.neighbors`): each node's nearest other nodes, nearest first
with ties to the lower id, with their distances, memoised on the instance.
The table is built by brute force, one block of rows at a time, so no n x n
array is ever formed:

- a block of at most _NEIGHBOR_BLOCK_ELEMENTS distances (rows x n) takes
  cdist against every point, with each row's self-distance set to inf;
- argpartition keeps each row's `width` smallest entries, and lexsort
  orders them by (distance, id);
- a row where an entry left out ties the largest kept distance is cut
  between tied entries; only such rows (duplicate points, integer grids)
  fall back to a stable argsort of the whole row.

FeatureMatrix refuses coordinates whose squared distances could overflow,
so every distance but the self-distance is finite.

The table equals one full stable argsort, ids exactly and distances bit for
bit, since each distance is cdist's own (tests/test_construction.py). On a
2-core Xeon with one BLAS thread it took 5-6 ms at n = 600 (width 60),
against 20-24 ms for the full argsort; at n = 5000 (width 300) 0.25-0.27 s
and a tracemalloc peak of 32 MiB, against 2.1-2.6 s and 393 MiB; and at
n = 10^4 (width 300) 0.74-0.76 s and 54 MiB, of which the table holds
46 MiB. Its time is still O(n^2 d); a tree query (ROADMAP item 3) is the
next step for n >> 10^4. Edge sets and RBF weights are array expressions
over the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError
from .graph import WeightedGraph

# Cap on rows * n distances per block of FeatureMatrix.neighbors. A block's
# distances and its argpartition indices take 16 bytes per element, 8 MiB at
# 2**19, and the whole table is one block up to n = 724. Timed on a 2-core
# Xeon with one BLAS thread (median of 5, width 300): n = 5000 took 257 ms
# at 2**19, 282 ms at 2**20 and 420 ms at 2**22, n = 10^4 747, 782 and
# 1303 ms; the tracemalloc peak grows with the block, 32 MiB at n = 5000.
_NEIGHBOR_BLOCK_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class FeatureMatrix:
    """n points in d-dimensional real feature space."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        object.__setattr__(self, "x", x)
        if x.shape[0] < 2:
            raise InputError("feature matrix needs at least two samples")
        if not np.isfinite(x).all():
            raise InputError("feature matrix contains non-finite values")
        # the sum over columns of squared spans bounds every pairwise squared
        # distance, so a finite sum keeps cdist and eta_similarity finite
        with np.errstate(over="ignore"):
            span = x.max(axis=0) - x.min(axis=0)
            bound = (span * span).sum()
        if not np.isfinite(bound):
            raise InputError("feature coordinates span too wide a range: "
                             "squared distances overflow")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def neighbors(self, width: int):
        """(ids, dists), each n x width and read-only: row v lists the
        `width` nearest other nodes of v, nearest first, ties to the lower
        id, and their distances.

        Memoised on the instance. A call for more columns than the memo holds
        recomputes it, so a caller that makes several searches asks for the
        widest first.
        """
        if not 1 <= width < self.n:
            raise ParameterError(
                f"width must satisfy 1 <= width < n, got {width}, n={self.n}")
        table = self.__dict__.get("_neighbors")
        if table is None or table[0].shape[1] < width:
            table = _neighbor_table(self.x, width)
            for a in table:
                a.flags.writeable = False
            object.__setattr__(self, "_neighbors", table)
        ids, dists = table
        return ids[:, :width], dists[:, :width]


def _neighbor_table(x, width: int):
    """(ids, dists) of FeatureMatrix.neighbors, one block of rows at a time
    (see the module docstring)."""
    n = x.shape[0]
    ids = np.empty((n, width), dtype=np.int64)
    dists = np.empty((n, width))
    step = max(1, _NEIGHBOR_BLOCK_ELEMENTS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        ids[lo:hi], dists[lo:hi] = _neighbor_rows(x, lo, hi, width)
    return ids, dists


def _neighbor_rows(x, lo: int, hi: int, width: int):
    """Rows lo..hi-1 of the neighbor table; its block arrays are freed on
    return, before the next block allocates."""
    # imported here, so that network runs do not load scipy.spatial
    from scipy.spatial.distance import cdist
    rows = np.arange(hi - lo)
    d = cdist(x[lo:hi], x)
    d[rows, rows + lo] = np.inf
    # the `width` smallest entries of each row, then the smallest entry
    # left out, at column `width`
    part = np.argpartition(d, width, axis=1)
    kept = part[:, :width]
    near = np.take_along_axis(d, kept, axis=1)
    order = np.lexsort((kept, near), axis=1)
    ids = np.take_along_axis(kept, order, axis=1)
    dists = np.take_along_axis(near, order, axis=1)
    # where a left-out entry ties the largest kept one, the cut falls
    # between tied entries; the stable sort keeps the lower ids there
    tied = np.flatnonzero(near.max(axis=1) == d[rows, part[:, width]])
    if tied.size:
        d = d[tied]
        full = np.argsort(d, axis=1, kind="stable")[:, :width]
        ids[tied], dists[tied] = full, np.take_along_axis(d, full, axis=1)
    return ids, dists


def _round_half_up(x):
    """floor(x + 0.5): an int for a scalar x, an int64 array for an array."""
    out = np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)
    return int(out) if out.ndim == 0 else out


def as_features(f) -> FeatureMatrix:
    if isinstance(f, FeatureMatrix):
        return f
    return FeatureMatrix(np.asarray(f))


def rbf_weight(dist, sigma: float):
    """exp(-dist^2 / (2 sigma^2)); lies in (0, 1] and decreases in dist.

    An infinite sigma gives the unit weights; None or NaN is refused.
    """
    if sigma is None or not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    dist = np.asarray(dist, dtype=float)
    return np.exp(-(dist * dist) / (2.0 * sigma * sigma))


def _edges_from_selection(ids, dists, k_per_node):
    """Union-symmetrized nearest-neighbor edges with per-node counts.

    Node v selects the first k_per_node[v] entries of its row of the
    neighbor table (ids, dists). Returns (u, v, dist) arrays with u < v,
    sorted by (u, v).
    """
    n = ids.shape[0]
    picked = np.arange(ids.shape[1]) < k_per_node[:, None]
    src = np.repeat(np.arange(n), k_per_node)
    dst = ids[picked]
    e = src.size
    # one sort of (pair, selection index) keys, below n^2 * e < 2^63: a pair
    # both ends select keeps its first selection, i.e. the lower id's row
    key = np.sort((np.minimum(src, dst) * n + np.maximum(src, dst)) * e
                  + np.arange(e))
    pairs = key // e
    first = np.ones(e, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    pairs = pairs[first]
    return pairs // n, pairs % n, dists[picked][key[first] % e]


def _weighted_graph(n, u, v, dist, weights, sigma) -> WeightedGraph:
    if weights == "unit":
        return WeightedGraph.from_arrays(n, u, v)
    if weights == "rbf":
        w = rbf_weight(dist, sigma)
        keep = w > 0.0  # exp underflow at extreme distances means "no edge"
        return WeightedGraph.from_arrays(n, u[keep], v[keep], w[keep])
    raise ParameterError(f"unknown weighting {weights!r}")


def _k_nearest(f, k: int):
    """(features, ids, dists): f as a FeatureMatrix and the first k columns
    of its neighbor table."""
    f = as_features(f)
    if not 1 <= k < f.n:
        raise ParameterError(f"k must satisfy 1 <= k < n, got k={k}, n={f.n}")
    return f, *f.neighbors(k)


def knn_graph(f, k: int, weights: str = "unit", sigma: float | None = None) -> WeightedGraph:
    """k-nearest-neighbor graph, union-symmetrized."""
    f, ids, dists = _k_nearest(f, k)
    u, v, dist = _edges_from_selection(ids, dists, np.full(f.n, k))
    return _weighted_graph(f.n, u, v, dist, weights, sigma)


def avg_knn_distance(f, k: int) -> float:
    """Mean over all nodes of the distance to the k-th nearest neighbor."""
    _, _, dists = _k_nearest(f, k)
    return float(dists[:, k - 1].mean())


def construction_k0(n: int) -> int:
    """Neighbor count for the rank-stage baseline graph: round(sqrt(n))."""
    return max(1, min(_round_half_up(np.sqrt(n)), n - 1))


def selection_k0(n: int) -> int:
    """Neighbor count for the model-selection baseline graph."""
    return min(30, n - 1)


def baseline_graph(f, kind: str = "construction") -> WeightedGraph:
    """Baseline k-NN graphs used by the selection pipeline.

    "construction": unit-weight k0-NN graph with k0 = round(sqrt(n)); this is
    the graph the density ranks are computed on.
    "selection": k0 = min(30, n-1) with RBF weights at sigma equal to the
    average k0-NN distance; candidate cut values are compared on this graph.
    """
    f = as_features(f)
    if f.n < 4:
        raise ParameterError(f"baseline graphs need n >= 4, got {f.n}")
    if kind == "construction":
        return knn_graph(f, construction_k0(f.n))
    if kind == "selection":
        k0 = selection_k0(f.n)
        sigma = avg_knn_distance(f, k0)
        if sigma <= 0.0:
            raise InputError("all points coincide; selection baseline undefined")
        return knn_graph(f, k0, weights="rbf", sigma=sigma)
    raise ParameterError(f"unknown baseline kind {kind!r}")
