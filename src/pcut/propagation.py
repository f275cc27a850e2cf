"""Harmonic label propagation over Gaussian random fields.

Unlabeled scores solve L_uu F_u = W_ul F_l with one-hot labeled rows, so each
unlabeled node's score is the weighted mean of its neighbors' scores.

The system is solved in one of two ways:

- **Banded Cholesky** (LAPACK pbtrf through scipy's cholesky_banded) of
  L_uu in the reverse Cuthill-McKee order of the unlabeled subgraph, which
  gives the nearly tree-like k-NN systems a narrow band. The band and
  W_ul F_l are scattered from the edge arrays, so no n x n array is formed.
- **Dense Cholesky** of L_uu taken from the n x n weight matrix, when the
  banded factorisation finds L_uu not positive definite, or when its
  smallest LDL^T pivot (the squared diagonal of the factor) is below
  PIVOT_RATIO_MIN times its largest. Dense Cholesky failure raises
  NumericError, so whether a system is singular is decided by the dense
  path alone. A graph of more than DENSE_MAX_NODES nodes has no dense
  fallback: it raises NumericError before allocating, so the engine skips
  that grid point as it skips a singular one, and only a run whose every
  point is skipped fails.

What does not depend on the edge weights, a HarmonicPattern holds: the
component check's outcome, the unlabeled nodes, their band order and the
band layout. grf_scores and grf_propagate build one per call; the engine
keeps one along a sigma run for as long as it fits the graphs.

The two paths agree to rounding, not to the bit: on crescent grids the
scores differed by at most 3e-9 and every argmax matched
(tests/test_grf_parity.py).

scipy is imported on first use: the band layout loads scipy.sparse and its
reverse Cuthill-McKee, the two solves scipy.linalg's Cholesky routines, and
the component check (graph.connected_components) csgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, InputError, NumericError
from .graph import (DENSE_MAX_NODES, Partition, WeightedGraph,
                    connected_components)

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
    return HarmonicPattern(g, labels).scores(g)


def grf_propagate(g: WeightedGraph, labels: LabelSet) -> Partition:
    """Assign every node the argmax class of the harmonic scores.

    Ties resolve to the lower class index; labeled nodes keep their labels.
    """
    return HarmonicPattern(g, labels).propagate(g)


class HarmonicPattern:
    """The part of a harmonic system that the edge weights do not change.

    It depends on the node count, the edge pattern (u, v) and the labels:
    the component check's outcome, the unlabeled nodes, their reverse
    Cuthill-McKee order and its bandwidth, each inner edge's slot in the
    lower band of L_uu, and the bins of W_ul F_l. Along a sigma run only the
    RBF weights change, so its graphs share one pattern until an edge whose
    weight underflows drops out. scores() then takes the weights through the
    band, its Cholesky factor and the pivot gate to the solve, or to the
    dense fallback.
    """

    def __init__(self, g: WeightedGraph, labels: LabelSet):
        nodes = labels.nodes()
        if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
            raise InputError("labeled node id outside the graph")
        self.n, self.labels = g.n, labels
        self.u, self.v, _ = g.edge_arrays()
        self.stranded = _stranded_component(g, nodes)
        self.unlabeled = np.setdiff1d(np.arange(g.n), nodes)
        if self.stranded is None and self.unlabeled.size:
            self._band_layout()

    def fits(self, g: WeightedGraph) -> bool:
        """Whether g has this pattern's node count and edges (u, v)."""
        u, v, _ = g.edge_arrays()
        return (g.n == self.n and np.array_equal(u, self.u)
                and np.array_equal(v, self.v))

    def _band_layout(self):
        """Order the unlabeled nodes by reverse Cuthill-McKee and lay out
        the band of L_uu and the bins of W_ul F_l in that order."""
        # imported here, so that importing pcut does not load scipy.sparse
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        u, v, nu = self.u, self.v, self.unlabeled.size
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[self.unlabeled] = np.arange(nu)
        inner = np.flatnonzero((pos[u] >= 0) & (pos[v] >= 0))
        a, b = pos[u[inner]], pos[v[inner]]
        adjacency = csr_matrix(
            (np.ones(2 * inner.size), (np.concatenate((a, b)), np.concatenate((b, a)))),
            shape=(nu, nu))
        perm = reverse_cuthill_mckee(adjacency, symmetric_mode=True)
        # from here on pos is each unlabeled node's place in the RCM order
        self.order = self.unlabeled[perm]
        pos[self.order] = np.arange(nu)
        pu, pv = pos[u], pos[v]
        # an inner edge's -w sits at (row, col), row > col, of the lower
        # band, which holds it at [row - col, col]
        row, col = np.maximum(pu[inner], pv[inner]), np.minimum(pu[inner], pv[inner])
        self.inner = inner
        self.bandwidth = int((row - col).max(initial=0))
        self.slots = (row - col) * nu + col
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

    def scores(self, g: WeightedGraph) -> np.ndarray:
        """grf_scores of g, a graph that fits this pattern."""
        if self.stranded is not None:
            raise ConstraintError(self.stranded)
        nodes = self.labels.nodes()
        scores = np.zeros((g.n, self.labels.K))
        scores[nodes, self.labels.classes()] = 1.0
        if self.unlabeled.size:
            solved = self._banded_harmonic(g)
            if solved is None:
                scores[self.unlabeled] = _dense_harmonic(g, nodes, self.unlabeled, scores)
            else:
                scores[self.order] = solved
        return scores

    def propagate(self, g: WeightedGraph) -> Partition:
        """grf_propagate of g, a graph that fits this pattern."""
        assignment = self.scores(g).argmax(axis=1)  # argmax takes the first maximum
        assignment[self.labels.nodes()] = self.labels.classes()
        return Partition(assignment=assignment, K=self.labels.K)

    def _banded_harmonic(self, g: WeightedGraph):
        """F_u in RCM order by banded Cholesky, or None when L_uu is not
        positive definite or its factor is ill-conditioned.

        The band is dropped on return, before a dense fallback allocates.
        """
        # imported here, so that importing pcut does not load scipy.linalg
        from scipy.linalg import cho_solve_banded, cholesky_banded
        _, _, w = g.edge_arrays()
        nu, K = self.unlabeled.size, self.labels.K
        band = np.zeros((self.bandwidth + 1, nu))
        band[0] = g.degrees()[self.order]
        band.flat[self.slots] = -w[self.inner]
        rhs = np.bincount(self.bins, weights=w[self.cross],
                          minlength=nu * K).reshape(nu, K)
        try:
            factor = cholesky_banded(band, overwrite_ab=True, lower=True)
        except np.linalg.LinAlgError:  # not positive definite
            return None
        # the LDL^T pivots are the squares of the factor's diagonal
        pivots = factor[0] ** 2
        if pivots.min() < PIVOT_RATIO_MIN * pivots.max():
            return None
        return cho_solve_banded((factor, True), rhs)


def _stranded_component(g: WeightedGraph, nodes) -> str | None:
    """The ConstraintError message for the first connected component of g
    without a labeled node (its index, size and first 10 node ids), or None
    when every component has one."""
    comps = connected_components(g)
    labeled_comps = set(comps.assignment[nodes].tolist())
    for comp in range(comps.K):
        if comp not in labeled_comps:
            members = np.flatnonzero(comps.assignment == comp)
            shown = ", ".join(map(str, members[:10].tolist()))
            if members.size > 10:
                shown += ", ..."
            return (f"connected component {comp} (size {members.size}, nodes [{shown}]) "
                    "has no labeled node")
    return None


def _dense_harmonic(g: WeightedGraph, nodes, unlabeled, scores):
    """F_u by dense Cholesky; NumericError when L_uu is not positive definite,
    or, before any allocation, when g has more than DENSE_MAX_NODES nodes."""
    if g.n > DENSE_MAX_NODES:
        raise NumericError(
            f"harmonic system needs the dense fallback, but dense n x n "
            f"storage for n = {g.n} nodes exceeds the limit of "
            f"DENSE_MAX_NODES = {DENSE_MAX_NODES} nodes")
    # imported here, so that importing pcut does not load scipy.linalg
    from scipy.linalg import cho_factor, cho_solve
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
