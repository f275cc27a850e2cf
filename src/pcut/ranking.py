"""Density surrogates and empirical ranks.

The rank of a node is the fraction of nodes whose density surrogate is at
least as large as its own (self included), so the densest node has rank 1
and ranks live in {1/n, ..., 1} when surrogates are distinct.

Feature surrogates are distances: the mean distance to each node's
neighbors in a baseline graph, one distance per edge (`eta_similarity`,
used by the pipeline), and a weighted average of order statistics from the
neighbor table (`weighted_nn_surrogate`, used to check rank consistency).
Network surrogates come from common-neighbor counts, one per edge in edge
order (`common_neighbor_counts`). None of them forms an n x n array.
"""

from __future__ import annotations

import numpy as np

from .construction import as_features
from .errors import InputError, ParameterError
from .graph import WeightedGraph


def eta_similarity(f, g0: WeightedGraph) -> np.ndarray:
    """Mean Euclidean distance to each node's neighbors in the baseline g0.

    Smaller means denser. Each node adds its edge distances in ascending
    order, so nodes with equal multisets of distances get equal eta.
    """
    f = as_features(f)
    if g0.n != f.n:
        raise InputError(f"baseline graph has {g0.n} nodes, features have {f.n}")
    u, v, _ = g0.edge_arrays()
    ends = np.concatenate([u, v])
    counts = np.bincount(ends, minlength=f.n)
    if (counts == 0).any():
        isolated = np.flatnonzero(counts == 0).tolist()
        raise InputError(f"baseline graph has isolated nodes {isolated}")
    # summed in coordinate order as scipy does: the neighbor table's bits
    sq = np.zeros(u.size)
    for column in f.x.T:
        sq += (column[u] - column[v]) ** 2
    dist = np.tile(np.sqrt(sq), 2)
    order = np.lexsort((dist, ends))
    return np.bincount(ends[order], weights=dist[order], minlength=f.n) / counts


def weighted_nn_surrogate(f, l: int, dim: int) -> np.ndarray:
    """Weighted nearest-neighbor density surrogate with a fixed window l.

    Each node averages its i-th nearest-neighbor distances for i from
    l - floor((l-1)/2) to l + floor(l/2), weighted by (l/i)^(1/dim) and
    divided by l. The rank-consistency check drives l with the sample size.
    """
    f = as_features(f)
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    if not 1 <= l <= f.n - 1 or l + l // 2 > f.n - 1:
        raise ParameterError(
            f"window l={l} needs l + floor(l/2) <= n-1 = {f.n - 1}")
    lo = l - (l - 1) // 2
    hi = l + l // 2
    profile = f.neighbors(hi)[1]  # row v: v's distances to the others, ascending
    i_vals = np.arange(lo, hi + 1)
    w = (l / i_vals) ** (1.0 / dim)
    return (profile[:, i_vals - 1] * w[None, :]).sum(axis=1) / l


def common_neighbor_counts(g: WeightedGraph) -> np.ndarray:
    """Common-neighbor count of every edge, in edge order (weights ignored).

    Entry i is the number of nodes adjacent to both ends of the i-th edge of
    g.edge_arrays(), i.e. the (u, v) entry of A @ A for the adjacency A,
    without forming any n x n array: each edge scans the shorter of its two
    neighbor lists and looks every entry up among the edges at the other
    end, in O(sum of squared degrees) time.
    """
    u, v, _ = g.edge_arrays()
    if u.size == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.concatenate([u, v])
    nbrs = np.concatenate([v, u])[np.argsort(ends, kind="stable")]
    deg = np.bincount(ends, minlength=g.n)
    first = np.cumsum(deg) - deg  # start of each node's list in nbrs
    short = deg[u] <= deg[v]
    a, b = np.where(short, u, v), np.where(short, v, u)
    da = deg[a]
    edge = np.repeat(np.arange(u.size), da)
    x = nbrs[np.repeat(first[a] - (np.cumsum(da) - da), da) + np.arange(edge.size)]
    y = b[edge]
    # edges are sorted by (u, v), so their keys u * n + v are too
    keys = u * g.n + v
    probe = np.minimum(x, y) * g.n + np.maximum(x, y)
    found = keys[np.minimum(np.searchsorted(keys, probe), keys.size - 1)] == probe
    return np.bincount(edge[found], minlength=u.size)


def eta_connectivity(g: WeightedGraph,
                     counts: np.ndarray | None = None) -> np.ndarray:
    """Negated mean common-neighbor count over each node's neighbors.

    Isolated nodes get 0: every other node's value is nonpositive, so they
    sort as the lowest-density nodes. Pass `counts` (one per edge) when the
    caller already holds common_neighbor_counts(g).
    """
    u, v, _ = g.edge_arrays()
    s = common_neighbor_counts(g) if counts is None else counts
    ends = np.concatenate([u, v])
    deg = np.bincount(ends, minlength=g.n)
    # float sums of integer counts are exact; the int64 division matches
    # the mean over a dense row bit for bit
    total = np.bincount(ends, weights=np.concatenate([s, s]),
                        minlength=g.n).astype(np.int64)
    eta = np.zeros(g.n)
    nz = deg > 0
    eta[nz] = -total[nz] / deg[nz]
    return eta


def rank(eta) -> np.ndarray:
    """R(v) = (1/n) * #{w : eta(v) <= eta(w)}, self included.

    Ties share the same rank; only the ordering of eta matters.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.isfinite(eta).all():
        raise InputError("eta contains non-finite values")
    n = eta.size
    ordered = np.sort(eta)
    strictly_less = np.searchsorted(ordered, eta, side="left")
    return (n - strictly_less) / n

