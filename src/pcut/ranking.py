"""Density surrogates and empirical ranks.

The rank of a node is the fraction of nodes whose density surrogate is at
least as large as its own (self included), so the densest node has rank 1
and ranks live in {1/n, ..., 1} when surrogates are distinct.

Network surrogates come from common-neighbor counts, held as one count per
edge in edge order (`common_neighbor_counts`), never as an n x n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .construction import as_features, pairwise_distances
from .errors import InputError, ParameterError
from .graph import WeightedGraph


def eta_similarity(f, g0: WeightedGraph, weighted: bool = False,
                   dim: int | None = None) -> np.ndarray:
    """Per-node density surrogate from feature distances.

    Default: mean Euclidean distance to the node's neighbors in the baseline
    graph g0 (smaller = denser). The weighted form averages order statistics
    of the full nearest-neighbor distance profile around l = |N(v)| with
    weights (l/i)^(1/dim); it is used by the rank-consistency harness, not by
    the production pipeline.
    """
    f = as_features(f)
    if g0.n != f.n:
        raise InputError(f"baseline graph has {g0.n} nodes, features have {f.n}")
    dist = pairwise_distances(f)
    adj = g0.adjacency()
    counts = adj.sum(axis=1)
    if (counts == 0).any():
        isolated = np.flatnonzero(counts == 0).tolist()
        raise InputError(f"baseline graph has isolated nodes {isolated}")
    if not weighted:
        return (dist * adj).sum(axis=1) / counts
    if dim is None or dim < 1:
        raise ParameterError("weighted surrogate needs the feature dimension")
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    profile = np.sort(d, axis=1)  # profile[:, i-1] = i-th NN distance
    eta = np.empty(f.n)
    for v in range(f.n):
        l = int(counts[v])
        lo = l - (l - 1) // 2
        hi = l + l // 2
        if hi > f.n - 1:
            raise ParameterError(
                f"node {v}: order statistics up to {hi} requested with only "
                f"{f.n - 1} other points")
        i_vals = np.arange(lo, hi + 1)
        w = (l / i_vals) ** (1.0 / dim)
        eta[v] = float((w * profile[v, i_vals - 1]).sum() / l)
    return eta


def weighted_nn_surrogate(f, l: int, dim: int) -> np.ndarray:
    """Weighted nearest-neighbor density surrogate with a fixed window l.

    Same order-statistic average as the weighted eta_similarity form but
    with one l for every node; the rank-consistency harness drives l with
    the sample size.
    """
    f = as_features(f)
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    if not 1 <= l <= f.n - 1 or l + l // 2 > f.n - 1:
        raise ParameterError(
            f"window l={l} needs l + floor(l/2) <= n-1 = {f.n - 1}")
    d = pairwise_distances(f)
    np.fill_diagonal(d, np.inf)
    profile = np.sort(d, axis=1)
    lo = l - (l - 1) // 2
    hi = l + l // 2
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


# -- analytic 1-D densities for the rank-consistency harness ----------------


@dataclass(frozen=True)
class GaussianDensity:
    """Standard or shifted/scaled 1-D Gaussian."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise ParameterError("std must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * np.sqrt(2.0 * np.pi))

    def support(self):
        return self.mean - 12.0 * self.std, self.mean + 12.0 * self.std


@dataclass(frozen=True)
class GaussianMixtureDensity:
    """Two-component 1-D Gaussian mixture."""

    weights: tuple
    means: tuple
    stds: tuple

    def __post_init__(self):
        if len(self.weights) != 2 or len(self.means) != 2 or len(self.stds) != 2:
            raise ParameterError("mixture takes exactly two components")
        if abs(sum(self.weights) - 1.0) > 1e-12 or min(self.weights) <= 0:
            raise ParameterError("component weights must be positive and sum to 1")
        if min(self.stds) <= 0:
            raise ParameterError("stds must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x, dtype=float)
        for w, m, s in zip(self.weights, self.means, self.stds):
            z = (x - m) / s
            total = total + w * np.exp(-0.5 * z * z) / (s * np.sqrt(2.0 * np.pi))
        return total

    def support(self):
        lo = min(m - 12.0 * s for m, s in zip(self.means, self.stds))
        hi = max(m + 12.0 * s for m, s in zip(self.means, self.stds))
        return lo, hi


def level_set_mass(density, y: float, tol: float = 1e-6) -> float:
    """Probability mass of {x : f(x) <= f(y)} for an analytic 1-D density.

    Computed as 1 minus the mass of the super-level region, whose boundary
    points are located by bracketing on a fine grid and refined with Brent's
    method; each piece is integrated adaptively.
    """
    if not isinstance(density, (GaussianDensity, GaussianMixtureDensity)):
        raise ParameterError(f"unsupported density {type(density).__name__}")
    t = float(density.pdf(y))
    lo, hi = density.support()
    grid = np.linspace(lo, hi, 8001)
    vals = density.pdf(grid) - t
    crossings = []
    for i in range(grid.size - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            crossings.append(grid[i])
        elif a * b < 0:
            crossings.append(brentq(lambda x: float(density.pdf(x)) - t,
                                    grid[i], grid[i + 1], xtol=1e-12))
    bounds = [lo, *crossings, hi]
    above = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a <= 0:
            continue
        mid = 0.5 * (a + b)
        if float(density.pdf(mid)) > t:
            val, _ = quad(density.pdf, a, b, epsabs=tol * 1e-3, limit=200)
            above += val
    return float(min(max(1.0 - above, 0.0), 1.0))
