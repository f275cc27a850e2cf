"""Dense references and graph constructors that only the tests use.

`pairwise_distances` and `adjacency` are the n x n views of a feature set
and a graph; the package works on neighbor tables and edge arrays, and the
tests compare it against these dense forms.

The epsilon-neighbourhood graph and the complete RBF graph are the other two
classic similarity graphs (von Luxburg 2007). The pipeline builds only k-NN
graphs, so these live here, next to the tests that check the shared edge
and weight conventions on them.
"""

import numpy as np
from scipy.spatial.distance import cdist

from pcut.construction import _weighted_graph, as_features
from pcut.errors import ParameterError
from pcut.graph import WeightedGraph


def pairwise_distances(f) -> np.ndarray:
    """Euclidean distance matrix with an exactly zero diagonal."""
    f = as_features(f)
    d = cdist(f.x, f.x)
    np.fill_diagonal(d, 0.0)
    return d


def adjacency(g: WeightedGraph) -> np.ndarray:
    """Boolean adjacency matrix of g (weights ignored)."""
    u, v, _ = g.edge_arrays()
    a = np.zeros((g.n, g.n), dtype=bool)
    a[u, v] = True
    a[v, u] = True
    return a


def epsilon_graph(f, eps: float, weights: str = "unit", sigma: float | None = None) -> WeightedGraph:
    """Graph joining every pair at distance <= eps."""
    f = as_features(f)
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    iu, iv = np.triu_indices(f.n, 1)
    dist = pairwise_distances(f)[iu, iv]
    mask = dist <= eps
    return _weighted_graph(f.n, iu[mask], iv[mask], dist[mask], weights, sigma)


def full_rbf_graph(f, sigma: float) -> WeightedGraph:
    """Complete graph with RBF weights."""
    f = as_features(f)
    iu, iv = np.triu_indices(f.n, 1)
    return _weighted_graph(f.n, iu, iv, pairwise_distances(f)[iu, iv], "rbf", sigma)


def reference_neighbors(f, width: int):
    """FeatureMatrix.neighbors by one full distance matrix and one stable
    argsort: nearest first, ties to the lower id."""
    d = pairwise_distances(f)
    np.fill_diagonal(d, np.inf)
    ids = np.argsort(d, axis=1, kind="stable")[:, :width]
    return ids, np.take_along_axis(d, ids, axis=1)
