"""The harmonic solve as it was before edge patterns were shared and before
the banded Cholesky: a reference for tests.

grf_scores, _sparse_harmonic, _dense_harmonic and grf_propagate below are
kept verbatim from that propagation module: every call checks components
and lays out its own SuperLU system, and unlabeled subgraphs denser than
SPARSE_MAX_DENSITY go to dense Cholesky. reference_engine propagates with
them, so the per-point reference loop shares none of the package's
harmonic patterns and none of its solver.
"""

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from pcut.errors import ConstraintError, InputError, NumericError
from pcut.graph import Partition, WeightedGraph, connected_components
from pcut.propagation import PIVOT_RATIO_MIN, LabelSet

# the density above which the replaced module solved dense
SPARSE_MAX_DENSITY = 0.1
# largest score difference allowed between the package's banded Cholesky
# and these references or dense Cholesky; the crescent grids stay under 3e-9
SCORE_TOL = 1e-8


def grf_scores(g: WeightedGraph, labels: LabelSet) -> np.ndarray:
    """Per-node class scores; labeled rows are one-hot."""
    nodes = labels.nodes()
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
        raise InputError("labeled node id outside the graph")
    comps = connected_components(g)
    labeled_comps = set(comps.assignment[nodes].tolist())
    for comp in range(comps.K):
        if comp not in labeled_comps:
            members = np.flatnonzero(comps.assignment == comp)
            shown = ", ".join(map(str, members[:10].tolist()))
            if members.size > 10:
                shown += ", ..."
            raise ConstraintError(
                f"connected component {comp} (size {members.size}, nodes [{shown}]) "
                "has no labeled node")
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
