"""Similarity-network graph construction from feature data.

Every nearest-neighbor search reads one neighbor table per FeatureMatrix
(`FeatureMatrix.neighbors`): each node's nearest other nodes in stable
distance order with their distances, found by brute force (one distance
matrix, one stable argsort) and memoised on the instance. At the sample
sizes this package targets (a few thousand points) brute force is faster
and simpler than a spatial index, and the stable order keeps results
exactly reproducible. Only the table's first columns are kept, so no n x n
array outlives the call that builds it; no other code forms a distance
matrix. Edge sets and RBF weights are array expressions over the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError, ParameterError
from .graph import WeightedGraph


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
            d = cdist(self.x, self.x)
            np.fill_diagonal(d, np.inf)
            ids = np.argsort(d, axis=1, kind="stable")[:, :width].copy()
            table = (ids, np.take_along_axis(d, ids, axis=1))
            for a in table:
                a.flags.writeable = False
            object.__setattr__(self, "_neighbors", table)
        ids, dists = table
        return ids[:, :width], dists[:, :width]


def as_features(f) -> FeatureMatrix:
    if isinstance(f, FeatureMatrix):
        return f
    return FeatureMatrix(np.asarray(f))


def rbf_weight(dist, sigma: float):
    """exp(-dist^2 / (2 sigma^2)); lies in (0, 1] and decreases in dist."""
    if sigma <= 0:
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


def knn_graph(f, k: int, weights: str = "unit", sigma: float | None = None) -> WeightedGraph:
    """k-nearest-neighbor graph, union-symmetrized."""
    f = as_features(f)
    if not 1 <= k < f.n:
        raise ParameterError(f"k must satisfy 1 <= k < n, got k={k}, n={f.n}")
    ids, dists = f.neighbors(k)
    u, v, dist = _edges_from_selection(ids, dists, np.full(f.n, k))
    return _weighted_graph(f.n, u, v, dist, weights, sigma)


def avg_knn_distance(f, k: int) -> float:
    """Mean over all nodes of the distance to the k-th nearest neighbor."""
    f = as_features(f)
    if not 1 <= k < f.n:
        raise ParameterError(f"k must satisfy 1 <= k < n, got k={k}, n={f.n}")
    _, dists = f.neighbors(k)
    return float(dists[:, k - 1].mean())


def construction_k0(n: int) -> int:
    """Neighbor count for the rank-stage baseline graph: round(sqrt(n))."""
    return max(1, min(int(np.floor(np.sqrt(n) + 0.5)), n - 1))


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
