"""Rank-modulated-degree graph families.

Similarity networks rebuild a k-NN graph with a per-node neighbor count
scaled by the node's density rank, selected from the feature matrix's
neighbor table. Lambda and k choose the edges (rmd_similarity_edges);
sigma only sets their RBF weights. Connectivity networks only remove
edges: each node marks its weakest ties (fewest common neighbors) down to
a rank-scaled degree target, and an edge is dropped when either endpoint
marks it. The common-neighbor counts are one entry per edge, in edge
order (`ranking.common_neighbor_counts`). The order in which a node marks
its edges does not depend on lambda: `rmd_connectivity_family` sorts it
once per input graph, and each lambda then sets only how many edges every
node marks.
"""

from __future__ import annotations

import numpy as np

from .construction import as_features, _edges_from_selection, _weighted_graph
from .errors import ParameterError
from .graph import WeightedGraph
from .ranking import common_neighbor_counts


def _round_half_up(x):
    return np.floor(x + 0.5).astype(np.int64)


def _scalar_or_array(out: np.ndarray):
    return int(out) if out.ndim == 0 else out


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")


def modulated_k(k: int, lam: float, r, n_nodes: int):
    """Per-node neighbor count k * (lam + 2 (1-lam) r), rounded and clamped.

    lam = 1 means no modulation; rank 0.5 reproduces k for any lam. `r` is
    one rank (the result is an int) or an array of ranks (an int array).
    """
    _check_lambda(lam)
    r = np.asarray(r, dtype=float)
    bad = ~((r > 0.0) & (r <= 1.0))
    if bad.any():
        raise ParameterError(f"rank must lie in (0, 1], got {r[bad].flat[0]}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    raw = k * (lam + 2.0 * (1.0 - lam) * r)
    return _scalar_or_array(np.maximum(1, np.minimum(_round_half_up(raw), n_nodes - 1)))


def rmd_similarity_edges(f, ranks, lam: float, k: int):
    """(u, v, dist) of the modulated k-NN graph, u < v sorted by (u, v).

    Node v selects its modulated_k nearest neighbors from the neighbor
    table. The selection does not depend on sigma, so a sigma run weighs
    one selection (rmd_similarity_graph's weighting, construction's
    _weighted_graph) at each of its bandwidths.
    """
    f = as_features(f)
    ranks = np.asarray(ranks, dtype=float)
    if ranks.size != f.n:
        raise ParameterError(f"got {ranks.size} ranks for {f.n} samples")
    k_per_node = modulated_k(k, lam, ranks.reshape(-1), f.n)
    ids, dists = f.neighbors(int(k_per_node.max()))
    return _edges_from_selection(ids, dists, k_per_node)


def rmd_similarity_graph(f, ranks, lam: float, k: int,
                         weights: str = "unit",
                         sigma: float | None = None) -> WeightedGraph:
    """Modulated k-NN graph: node v selects its modulated_k nearest neighbors.

    With lam = 1 (or all ranks 0.5) this reproduces knn_graph bit for bit.
    """
    f = as_features(f)
    return _weighted_graph(f.n, *rmd_similarity_edges(f, ranks, lam, k),
                           weights, sigma)


def degree_target(d, lam: float, r):
    """Connectivity-side retained degree d * (lam + (1-lam) r), clamped to [1, d].

    Degree 0 keeps 0. Takes one degree and rank (an int comes back) or
    arrays of them (an int array).
    """
    d = np.asarray(d)
    raw = d * (lam + (1.0 - lam) * np.asarray(r, dtype=float))
    kept = np.maximum(1, np.minimum(_round_half_up(raw), d))
    return _scalar_or_array(np.where(d <= 0, 0, kept))


def rmd_connectivity_family(g: WeightedGraph, ranks,
                            counts: np.ndarray | None = None):
    """The function lam -> rmd_connectivity_graph(g, ranks, lam, counts).

    The marking order does not depend on lambda, so it is computed here,
    once: every edge once from each endpoint, grouped by node, then by
    common-neighbor count and neighbor id, and each half-edge's slot in its
    node's group. A lambda then only sets how many slots each node marks.
    """
    ranks = np.asarray(ranks, dtype=float).reshape(-1)
    if ranks.size != g.n:
        raise ParameterError(f"got {ranks.size} ranks for {g.n} nodes")
    u, v, _ = g.edge_arrays()
    s = common_neighbor_counts(g) if counts is None else np.asarray(counts)
    if s.shape != u.shape:
        raise ParameterError(f"got counts of shape {s.shape} for {g.m} edges")
    node = np.concatenate([u, v])
    order = np.lexsort((np.concatenate([v, u]), np.concatenate([s, s]), node))
    deg = np.bincount(node, minlength=g.n)
    slot = np.empty(2 * g.m, dtype=np.int64)
    slot[order] = np.arange(order.size) - (np.cumsum(deg) - deg)[node[order]]
    slot_u, slot_v = slot[:g.m], slot[g.m:]

    def graph(lam: float) -> WeightedGraph:
        _check_lambda(lam)
        drop = deg - degree_target(deg, lam, ranks)
        return g._edge_subset((slot_u >= drop[u]) & (slot_v >= drop[v]))

    return graph


def rmd_connectivity_graph(g: WeightedGraph, ranks, lam: float,
                           counts: np.ndarray | None = None) -> WeightedGraph:
    """Sparsify g by per-node marking of lowest-common-neighbor edges.

    Node v keeps degree_target(d(v), lam, R(v)) of its edges and marks the
    rest, choosing the smallest common-neighbor counts first (ties to the
    lower neighbor id). An edge is removed when at least one endpoint marks
    it, so realized degrees may undershoot the per-node targets. Counts are
    taken on the original graph, never on the partially sparsified one;
    pass them in, one per edge as common_neighbor_counts(g) returns them,
    when sweeping many lambdas over the same graph, or sweep them with
    rmd_connectivity_family, which also computes the marking order once.
    """
    _check_lambda(lam)  # reported before bad ranks or counts
    return rmd_connectivity_family(g, ranks, counts)(lam)
