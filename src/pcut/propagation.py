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

The two paths agree to rounding, not to the bit: on crescent grids the
scores differed by at most 2e-9 and every argmax matched
(tests/test_grf_parity.py).
"""

from __future__ import annotations

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


def grf_scores(g: WeightedGraph, labels: LabelSet) -> np.ndarray:
    """Per-node class scores; labeled rows are one-hot."""
    nodes = labels.nodes()
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
        raise InputError("labeled node id outside the graph")
    comps = connected_components(g)
    labeled_comps = set(comps.assignment[nodes].tolist())
    for comp in range(comps.K):
        if comp not in labeled_comps:
            members = np.flatnonzero(comps.assignment == comp).tolist()
            raise ConstraintError(
                f"connected component {comp} (nodes {members}) has no labeled node")
    scores = np.zeros((g.n, labels.K))
    scores[nodes, labels.classes()] = 1.0
    unlabeled = np.setdiff1d(np.arange(g.n), nodes)
    if unlabeled.size:
        solved = _sparse_harmonic(g, labels, unlabeled)
        if solved is None:
            solved = _dense_harmonic(g, nodes, unlabeled, scores)
        scores[unlabeled] = solved
    return scores


def _sparse_harmonic(g: WeightedGraph, labels: LabelSet, unlabeled):
    """F_u by sparse LU, or None when the system is dense or ill-conditioned."""
    u, v, w = g.edge_arrays()
    nu = unlabeled.size
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[unlabeled] = np.arange(nu)
    pu, pv = pos[u], pos[v]
    inner = (pu >= 0) & (pv >= 0)
    if 2 * np.count_nonzero(inner) > SPARSE_MAX_DENSITY * nu * nu:
        return None
    diag = np.arange(nu)
    l_uu = sparse.csc_matrix(
        (np.concatenate((-w[inner], -w[inner], g.degrees()[unlabeled])),
         (np.concatenate((pu[inner], pv[inner], diag)),
          np.concatenate((pv[inner], pu[inner], diag)))), shape=(nu, nu))
    # an edge with one unlabeled end adds its weight to that end's row in
    # the column of the other end's class
    cls = np.full(g.n, -1, dtype=np.int64)
    cls[labels.nodes()] = labels.classes()
    cross_u, cross_v = (pu >= 0) & (pv < 0), (pv >= 0) & (pu < 0)
    rhs = np.bincount(
        np.concatenate((pu[cross_u] * labels.K + cls[v[cross_u]],
                        pv[cross_v] * labels.K + cls[u[cross_v]])),
        weights=np.concatenate((w[cross_u], w[cross_v])),
        minlength=nu * labels.K).reshape(nu, labels.K)
    try:
        lu = splu(l_uu, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular factor
        return None
    pivots = lu.U.diagonal()
    if not (pivots.max() > 0.0 and pivots.min() >= PIVOT_RATIO_MIN * pivots.max()):
        return None
    return lu.solve(rhs)


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
