"""Graph constructors that only the tests use.

The epsilon-neighbourhood graph and the complete RBF graph are the other two
classic similarity graphs (von Luxburg 2007). The pipeline builds only k-NN
graphs, so these live here, next to the tests that check the shared edge
and weight conventions on them.
"""

import numpy as np

from pcut.construction import _weighted_graph, as_features, pairwise_distances
from pcut.errors import ParameterError
from pcut.graph import WeightedGraph


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
