"""Undirected weighted graphs, partitions, and cut queries.

Graphs are immutable after construction: edges are stored once per unordered
pair, sorted by node ids, so every downstream computation iterates them in
the same order and reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .errors import InputError


@dataclass(frozen=True)
class Partition:
    """Assignment of n nodes to clusters 0..K-1."""

    assignment: np.ndarray
    K: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if self.K < 1:
            raise InputError(f"cluster count must be >= 1, got {self.K}")
        if a.ndim != 1:
            raise InputError("assignment must be a 1-D vector")
        if a.size and (a.min() < 0 or a.max() >= self.K):
            raise InputError("cluster indices must lie in [0, K)")

    @property
    def n(self) -> int:
        return self.assignment.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.K)

    def min_size(self) -> int:
        return int(self.sizes().min())


class WeightedGraph:
    """Immutable undirected graph with strictly positive edge weights.

    Self-loops are rejected and each unordered pair may appear at most once;
    an absent edge is weight zero.
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise InputError(f"node count must be >= 1, got {n}")
        self.n = int(n)
        us, vs, ws = [], [], []
        seen = set()
        for item in edges:
            if len(item) == 2:
                u, v = item
                w = 1.0
            else:
                u, v, w = item
            u, v = int(u), int(v)
            if u == v:
                raise InputError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) outside node range [0,{n})")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u},{v})")
            w = float(w)
            if not np.isfinite(w) or w <= 0.0:
                raise InputError(f"edge ({u},{v}) has non-positive weight {w}")
            seen.add((u, v))
            us.append(u)
            vs.append(v)
            ws.append(w)
        order = np.lexsort((np.asarray(vs, dtype=np.int64),
                            np.asarray(us, dtype=np.int64)))
        self._u = np.asarray(us, dtype=np.int64)[order]
        self._v = np.asarray(vs, dtype=np.int64)[order]
        self._w = np.asarray(ws, dtype=np.float64)[order]
        self._degrees = None
        self._adjacency = None
        self._weight_matrix = None

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return self._u.size

    def edges(self):
        """Iterate (u, v, w) with u < v, sorted by (u, v)."""
        for u, v, w in zip(self._u, self._v, self._w):
            yield int(u), int(v), float(w)

    def edge_arrays(self):
        return self._u, self._v, self._w

    def total_weight(self) -> float:
        return float(self._w.sum())

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node (sum of incident weights)."""
        if self._degrees is None:
            d = np.zeros(self.n)
            np.add.at(d, self._u, self._w)
            np.add.at(d, self._v, self._w)
            self._degrees = d
        return self._degrees.copy()

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix (weights ignored)."""
        if self._adjacency is None:
            a = np.zeros((self.n, self.n), dtype=bool)
            a[self._u, self._v] = True
            a[self._v, self._u] = True
            self._adjacency = a
        return self._adjacency

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        if self._weight_matrix is None:
            m = np.zeros((self.n, self.n))
            m[self._u, self._v] = self._w
            m[self._v, self._u] = self._w
            self._weight_matrix = m
        return self._weight_matrix

    def subgraph(self, keep) -> "WeightedGraph":
        """Induced subgraph on `keep` (old ids remapped to 0..len(keep)-1)."""
        keep = np.asarray(sorted(int(k) for k in keep), dtype=np.int64)
        pos = -np.ones(self.n, dtype=np.int64)
        pos[keep] = np.arange(keep.size)
        mask = (pos[self._u] >= 0) & (pos[self._v] >= 0)
        edges = zip(pos[self._u[mask]], pos[self._v[mask]], self._w[mask])
        return WeightedGraph(keep.size, edges)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


def cut_value(g: WeightedGraph, p: Partition) -> float:
    """Cut value of a partition.

    For K=2 this is the total weight crossing the bipartition. For K>2 it is
    the sum over clusters of the weight leaving each cluster, i.e. twice the
    total inter-cluster weight.
    """
    if p.assignment.size != g.n:
        raise InputError(
            f"partition has {p.assignment.size} entries for a graph on {g.n} nodes")
    u, v, w = g.edge_arrays()
    a = p.assignment
    crossing = float(w[a[u] != a[v]].sum())
    if p.K <= 2:
        return crossing
    return 2.0 * crossing


def degrees(g: WeightedGraph) -> np.ndarray:
    """Weighted degrees as a vector (module-level form of g.degrees())."""
    return g.degrees()


def connected_components(g: WeightedGraph) -> Partition:
    """Label the maximal connected subgraphs, numbered by first occurrence."""
    u, v, w = g.edge_arrays()
    a = sparse.coo_matrix((w, (u, v)), shape=(g.n, g.n))
    # scipy starts a new component at each unlabelled node in id order,
    # which is first-occurrence numbering (pinned by tests/test_graph.py)
    count, label = _csgraph_components(a, directed=False)
    return Partition(assignment=label, K=count)


def largest_component_nodes(g: WeightedGraph) -> np.ndarray:
    """Node ids of the largest connected component (ties to lowest label)."""
    comps = connected_components(g)
    sizes = comps.sizes()
    giant = int(sizes.argmax())
    return np.flatnonzero(comps.assignment == giant)
