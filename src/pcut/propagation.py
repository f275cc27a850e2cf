"""Harmonic label propagation over Gaussian random fields.

Unlabeled scores solve L_uu F_u = W_ul F_l with one-hot labeled rows, so each
unlabeled node's score is the weighted mean of its neighbors' scores.

The system is solved in one of two ways:

- **Sparse LU** (SuperLU `splu` in symmetric mode, no pivoting off the
  diagonal, minimum-degree ordering of the symmetric pattern). L_uu is
  built as a CSC matrix from the edge arrays and W_ul F_l from the edges
  that join unlabeled to labeled nodes, so no n x n array is formed.
- **Dense Cholesky** of L_uu taken from the n x n weight matrix, when
  - the unlabeled subgraph is dense: 2 m_uu / n_u^2 > SPARSE_MAX_DENSITY,
    where m_uu counts its edges. On crescent k-NN RBF graphs (one BLAS
    thread) the LU fill then costs more than dense Cholesky: at n = 600
    the two break even near density 0.11, at n = 1200 near 0.12-0.13;
  - or the LU is ill-conditioned: its smallest U pivot is below
    PIVOT_RATIO_MIN times its largest (zero and negative pivots included),
    or SuperLU reports an exactly singular factor.
  Dense Cholesky failure raises NumericError, so whether a system is
  singular is decided by the dense path alone.

What does not depend on the edge weights, a HarmonicPattern holds: the
component check's outcome, the unlabeled nodes, the density decision and
the sparse layout. Inside shared_patterns(), consecutive graphs with equal
edge arrays, such as the graphs of one sigma run, share one pattern.

The two paths agree to rounding, not to the bit: on crescent grids the
scores differed by at most 2e-9 and every argmax matched
(tests/test_grf_parity.py).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from .errors import ConstraintError, InputError, NumericError
from .graph import Partition, WeightedGraph, connected_components

SPARSE_MAX_DENSITY = 0.1
PIVOT_RATIO_MIN = 1e-8


@dataclass(frozen=True)
class LabelSet:
    """Seed labels: (node id, class) pairs covering every class at least once."""

    labeled: tuple
    K: int

    def __post_init__(self):
        pairs = tuple((int(n), int(c)) for n, c in self.labeled)
        object.__setattr__(self, "labeled", pairs)
        if self.K < 2:
            raise InputError(f"class count must be >= 2, got {self.K}")
        nodes = [n for n, _ in pairs]
        if len(set(nodes)) != len(nodes):
            raise InputError("a node appears twice in the label set")
        classes = {c for _, c in pairs}
        if not classes <= set(range(self.K)):
            raise InputError("class indices must lie in [0, K)")
        missing = set(range(self.K)) - classes
        if missing:
            raise InputError(f"classes {sorted(missing)} have no labeled node")

    def nodes(self) -> np.ndarray:
        return np.asarray([n for n, _ in self.labeled], dtype=np.int64)

    def classes(self) -> np.ndarray:
        return np.asarray([c for _, c in self.labeled], dtype=np.int64)


# a one-entry list inside shared_patterns(): the last HarmonicPattern built
_SHARED: ContextVar[list | None] = ContextVar("harmonic_pattern", default=None)


@contextmanager
def shared_patterns():
    """Let consecutive grf_scores calls in the block share their pattern.

    The slot belongs to the context that enters the block, so the threads
    of a pool that each enter their own block never share a pattern.
    """
    token = _SHARED.set([None])
    try:
        yield
    finally:
        _SHARED.reset(token)


def grf_scores(g: WeightedGraph, labels: LabelSet) -> np.ndarray:
    """Per-node class scores; labeled rows are one-hot.

    Inside shared_patterns(), a graph whose edge pattern and labels equal
    those of the previous call reuses that call's HarmonicPattern.
    """
    slot = _SHARED.get()
    pattern = slot[0] if slot else None
    if pattern is None or not pattern.fits(g, labels):
        pattern = HarmonicPattern(g, labels)
        if slot:
            slot[0] = pattern
    return pattern.scores(g)


class HarmonicPattern:
    """The part of a harmonic system that the edge weights do not change.

    It depends on the node count, the edge pattern (u, v) and the labels:
    the component check's outcome, the unlabeled nodes, the density
    decision and, for the sparse path, the CSC layout of L_uu and the bins
    of W_ul F_l. Along a sigma run only the RBF weights change, so its
    graphs share one pattern until an edge whose weight underflows drops
    out. scores() then takes the weights through degrees, CSC data, SuperLU
    and the pivot gate to the solve, or to the dense fallback.
    """

    def __init__(self, g: WeightedGraph, labels: LabelSet):
        nodes = labels.nodes()
        if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
            raise InputError("labeled node id outside the graph")
        self.n, self.labels = g.n, labels
        self.u, self.v, _ = g.edge_arrays()
        self.stranded = _stranded_component(g, nodes)
        self.unlabeled = np.setdiff1d(np.arange(g.n), nodes)
        self.sparse = (self.stranded is None and self.unlabeled.size > 0
                       and self._sparse_layout())

    def fits(self, g: WeightedGraph, labels: LabelSet) -> bool:
        u, v, _ = g.edge_arrays()
        return (g.n == self.n and labels == self.labels
                and np.array_equal(u, self.u) and np.array_equal(v, self.v))

    def _sparse_layout(self) -> bool:
        """Lay out the sparse system; False when the unlabeled subgraph is
        too dense for it."""
        u, v, nu = self.u, self.v, self.unlabeled.size
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[self.unlabeled] = np.arange(nu)
        pu, pv = pos[u], pos[v]
        inner = np.flatnonzero((pu >= 0) & (pv >= 0))
        if 2 * inner.size > SPARSE_MAX_DENSITY * nu * nu:
            return False
        # L_uu holds -w of each inner edge in both halves and the degrees on
        # the diagonal; CSC stores them by column, then row, which is the
        # order scipy's COO conversion gives, so SuperLU sees the same arrays.
        # No (row, column) pair repeats, so any sort of the keys gives it
        diag = np.arange(nu)
        rows = np.concatenate((pu[inner], pv[inner], diag))
        cols = np.concatenate((pv[inner], pu[inner], diag))
        order = np.argsort(cols * nu + rows)
        self.indices = rows[order].astype(np.int32)
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cols, minlength=nu)))).astype(np.int32)
        # each stored entry's position in concatenate((-w, degrees[unlabeled]))
        self.source = np.concatenate((inner, inner, u.size + diag))[order]
        # an edge with one unlabeled end adds its weight to that end's row in
        # the column of the other end's class
        cls = np.full(self.n, -1, dtype=np.int64)
        cls[self.labels.nodes()] = self.labels.classes()
        K = self.labels.K
        cross_u = np.flatnonzero((pu >= 0) & (pv < 0))
        cross_v = np.flatnonzero((pv >= 0) & (pu < 0))
        self.cross = np.concatenate((cross_u, cross_v))
        self.bins = np.concatenate((pu[cross_u] * K + cls[v[cross_u]],
                                    pv[cross_v] * K + cls[u[cross_v]]))
        return True

    def scores(self, g: WeightedGraph) -> np.ndarray:
        """grf_scores of g, a graph that fits this pattern."""
        if self.stranded is not None:
            raise ConstraintError(self.stranded)
        nodes = self.labels.nodes()
        scores = np.zeros((g.n, self.labels.K))
        scores[nodes, self.labels.classes()] = 1.0
        if self.unlabeled.size:
            solved = self._sparse_harmonic(g) if self.sparse else None
            if solved is None:
                solved = _dense_harmonic(g, nodes, self.unlabeled, scores)
            scores[self.unlabeled] = solved
        return scores

    def _sparse_harmonic(self, g: WeightedGraph):
        """F_u by sparse LU, or None when the LU is ill-conditioned.

        The factor is dropped on return, before a dense fallback allocates.
        """
        _, _, w = g.edge_arrays()
        nu, K = self.unlabeled.size, self.labels.K
        data = np.concatenate((-w, g.degrees()[self.unlabeled]))[self.source]
        l_uu = sparse.csc_matrix((data, self.indices, self.indptr), shape=(nu, nu))
        rhs = np.bincount(self.bins, weights=w[self.cross],
                          minlength=nu * K).reshape(nu, K)
        try:
            lu = splu(l_uu, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        except RuntimeError:  # exactly singular factor
            return None
        pivots = lu.U.diagonal()
        if not (pivots.max() > 0.0 and pivots.min() >= PIVOT_RATIO_MIN * pivots.max()):
            return None
        return lu.solve(rhs)


def _stranded_component(g: WeightedGraph, nodes) -> str | None:
    """The ConstraintError message for the first connected component of g
    without a labeled node, or None when every component has one."""
    comps = connected_components(g)
    labeled_comps = set(comps.assignment[nodes].tolist())
    for comp in range(comps.K):
        if comp not in labeled_comps:
            members = np.flatnonzero(comps.assignment == comp).tolist()
            return f"connected component {comp} (nodes {members}) has no labeled node"
    return None


def _dense_harmonic(g: WeightedGraph, nodes, unlabeled, scores):
    """F_u by dense Cholesky; NumericError when L_uu is not positive definite."""
    w = g.weight_matrix()
    deg = w.sum(axis=1)
    l_uu = -w[np.ix_(unlabeled, unlabeled)]
    np.fill_diagonal(l_uu, deg[unlabeled])
    w_ul = w[np.ix_(unlabeled, nodes)]
    rhs = w_ul @ scores[nodes]
    try:
        factor = cho_factor(l_uu)
        return cho_solve(factor, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"harmonic system is singular: {exc}") from exc


def grf_propagate(g: WeightedGraph, labels: LabelSet) -> Partition:
    """Assign every node the argmax class of the harmonic scores.

    Ties resolve to the lower class index; labeled nodes keep their labels.
    """
    scores = grf_scores(g, labels)
    assignment = scores.argmax(axis=1)  # argmax takes the first maximum
    assignment[labels.nodes()] = labels.classes()
    return Partition(assignment=assignment, K=labels.K)
