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
    an absent edge is weight zero. `edges` is an iterable of (u, v) or
    (u, v, w) tuples, a missing weight meaning 1.0; `from_arrays` takes the
    same edges as arrays. Both go through one validation, which raises
    EdgeError naming the first offending edge.
    """

    def __init__(self, n: int, edges):
        rows = list(edges)
        bad = next((e for e in rows if len(e) not in (2, 3)), None)
        if bad is not None:
            raise InputError(f"edge {tuple(bad)} is not (u, v) or (u, v, w)")
        self._set_edges(n, [e[0] for e in rows], [e[1] for e in rows],
                        [1.0 if len(e) == 2 else e[2] for e in rows])

    @classmethod
    def from_arrays(cls, n: int, u, v, w=None) -> "WeightedGraph":
        """Graph with edges (u[i], v[i]) of weight w[i] (1.0 when w is None)."""
        g = cls.__new__(cls)
        g._set_edges(n, u, v, np.ones(len(u)) if w is None else w)
        return g

    def _set_edges(self, n, u, v, w):
        if n < 1:
            raise InputError(f"node count must be >= 1, got {n}")
        self.n = int(n)
        u = np.asarray(u).astype(np.int64, copy=False).reshape(-1)
        v = np.asarray(v).astype(np.int64, copy=False).reshape(-1)
        w = np.array(w, dtype=np.float64).reshape(-1)
        if not u.size == v.size == w.size:
            raise InputError(f"edge arrays differ in length: {u.size}, {v.size}, {w.size}")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        repeat = np.zeros(lo.size, dtype=bool)
        order = None
        if ((lo[1:] < lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] <= hi[:-1]))).any():
            order = np.lexsort((hi, lo))  # stable: a repeat sorts after its first
            slo, shi = lo[order], hi[order]
            repeat[order[1:]] = (slo[1:] == slo[:-1]) & (shi[1:] == shi[:-1])
        bad = ((u == v) | (lo < 0) | (hi >= self.n) | repeat
               | ~(np.isfinite(w) & (w > 0.0)))
        if bad.any():
            i = int(bad.argmax())
            reason = ("self-loop" if u[i] == v[i]
                      else "range" if lo[i] < 0 or hi[i] >= self.n
                      else "duplicate" if repeat[i] else "weight")
            raise EdgeError(edge_message(reason, self.n, u[i], v[i], w[i]),
                            i, reason)
        if order is not None:
            lo, hi, w = lo[order], hi[order], w[order]
        self._u, self._v, self._w = lo, hi, w
        self._degrees = None

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
            self._degrees = np.bincount(
                np.concatenate([self._u, self._v]),
                weights=np.concatenate([self._w, self._w]), minlength=self.n)
        return self._degrees.copy()

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        return _dense_weights(self.n, self._u, self._v, self._w)

    def subgraph(self, keep) -> "WeightedGraph":
        """Induced subgraph on `keep` (old ids remapped to 0..len(keep)-1)."""
        keep = np.sort(np.asarray(keep).astype(np.int64).reshape(-1))
        pos = -np.ones(self.n, dtype=np.int64)
        pos[keep] = np.arange(keep.size)
        mask = (pos[self._u] >= 0) & (pos[self._v] >= 0)
        return WeightedGraph.from_arrays(keep.size, pos[self._u[mask]],
                                         pos[self._v[mask]], self._w[mask])

    def _edge_subset(self, keep) -> "WeightedGraph":
        """This graph with only the edges where the mask `keep` holds.

        A subset of valid edges, kept in order, is valid and sorted, so it
        is not checked again; from_arrays would return the same arrays.
        """
        g = WeightedGraph.__new__(WeightedGraph)
        g.n = self.n
        g._u, g._v, g._w = self._u[keep], self._v[keep], self._w[keep]
        g._degrees = None
        return g

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


class EdgeError(InputError):
    """InputError for the edge at position `index` of the input; `reason` is
    the check it fails: "self-loop", "range", "duplicate" or "weight"."""

    def __init__(self, message: str, index: int, reason: str):
        super().__init__(message)
        self.index = index
        self.reason = reason


def edge_message(reason: str, n: int, u, v, w) -> str:
    """Message for an edge (u, v, w) that fails the check `reason`."""
    if reason == "self-loop":
        return f"self-loop on node {u} is not allowed"
    if reason == "range":
        return f"edge ({u},{v}) outside node range [0,{n})"
    u, v = min(u, v), max(u, v)
    if reason == "duplicate":
        return f"duplicate edge ({u},{v})"
    return f"edge ({u},{v}) has weight {float(w)}; weights must be finite and positive"


def _dense_weights(n: int, u, v, w) -> np.ndarray:
    """Dense symmetric n x n matrix with weight w[i] at (u[i], v[i])."""
    m = np.zeros((n, n))
    m[u, v] = w
    m[v, u] = w
    return m


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
