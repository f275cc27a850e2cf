import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from scipy.stats import gaussian_kde

from pcut.construction import as_features, baseline_graph
from pcut.errors import InputError, ParameterError
from pcut.experiments import CRESCENTS_N, CRESCENTS_NOISE, CRESCENTS_SEED
from pcut.graph import WeightedGraph
from pcut.ranking import (common_neighbor_counts, eta_connectivity,
                          eta_similarity, rank, weighted_nn_surrogate)
from pcut.synth import crescent_dataset, gaussian_mixture

from benchmark_instances import crescents_ssl
from graph_builders import adjacency, pairwise_distances


def reference_eta_similarity(f, g0):
    """The dense eta_similarity that the edge-array one replaced, verbatim
    apart from the adjacency call."""
    f = as_features(f)
    if g0.n != f.n:
        raise InputError(f"baseline graph has {g0.n} nodes, features have {f.n}")
    dist = pairwise_distances(f)
    adj = adjacency(g0)
    counts = adj.sum(axis=1)
    if (counts == 0).any():
        isolated = np.flatnonzero(counts == 0).tolist()
        raise InputError(f"baseline graph has isolated nodes {isolated}")
    return (dist * adj).sum(axis=1) / counts


def reference_weighted_nn_surrogate(f, l, dim):
    """The weighted_nn_surrogate that sorted a full distance matrix."""
    f = as_features(f)
    d = pairwise_distances(f)
    np.fill_diagonal(d, np.inf)
    profile = np.sort(d, axis=1)
    lo = l - (l - 1) // 2
    hi = l + l // 2
    i_vals = np.arange(lo, hi + 1)
    w = (l / i_vals) ** (1.0 / dim)
    return (profile[:, i_vals - 1] * w[None, :]).sum(axis=1) / l


def grid_points(side):
    """The side x side integer grid: many exactly equal distances."""
    return np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)


class TestEtaSimilarity:
    def test_single_neighbor(self):
        x = np.array([[0.0], [2.0]])
        g = WeightedGraph(2, [(0, 1)])
        eta = eta_similarity(x, g)
        assert eta[0] == pytest.approx(2.0)

    def test_mean_of_two_neighbors(self):
        x = np.array([[0.0], [1.0], [-3.0]])
        g = WeightedGraph(3, [(0, 1), (0, 2)])
        assert eta_similarity(x, g)[0] == pytest.approx(2.0)

    def test_denser_region_smaller_eta(self):
        # kernel density estimate as an independent ordering oracle
        f, _ = gaussian_mixture(
            500, [(0.5, [0.0, 0.0], [0.1, 0.1]), (0.5, [4.0, 4.0], [1.5, 1.5])],
            seed=5)
        g0 = baseline_graph(f, "construction")
        eta = eta_similarity(f, g0)
        kde = gaussian_kde(f.x.T)(f.x.T)
        top_density = np.argsort(kde)[-50:]
        low_density = np.argsort(kde)[:50]
        assert eta[top_density].mean() < eta[low_density].mean()

    def test_isolated_node_rejected(self):
        x = np.array([[0.0], [1.0], [2.0]])
        g = WeightedGraph(3, [(0, 1)])
        with pytest.raises(InputError):
            eta_similarity(x, g)

    def test_isolated_node_message(self):
        x = np.zeros((5, 2))
        x[:, 0] = np.arange(5)
        g = WeightedGraph(5, [(0, 1), (1, 3)])
        with pytest.raises(InputError,
                           match=r"^baseline graph has isolated nodes \[2, 4\]$"):
            eta_similarity(x, g)

    def test_node_count_mismatch(self):
        with pytest.raises(InputError, match="baseline graph has 2 nodes, features have 3"):
            eta_similarity(np.zeros((3, 1)), WeightedGraph(2, [(0, 1)]))


class TestEtaSimilarityParity:
    """The edge-array eta against the dense one it replaced: the summation
    order differs, so eta may differ in the last bits, but ranks agree."""

    @pytest.mark.parametrize("instance", range(16))
    def test_ranks_match_dense_on_crescents_ssl(self, instance):
        (x, _), = crescents_ssl(instance)[0]
        g0 = baseline_graph(x, "construction")
        eta = eta_similarity(x, g0)
        dense = reference_eta_similarity(x, g0)
        np.testing.assert_allclose(eta, dense, rtol=1e-13, atol=0.0)
        assert np.array_equal(rank(eta), rank(dense))

    def test_ranks_match_dense_on_crescents_preset(self):
        f, _ = crescent_dataset(CRESCENTS_N, noise=CRESCENTS_NOISE,
                                seed=CRESCENTS_SEED)
        g0 = baseline_graph(f, "construction")
        assert np.array_equal(rank(eta_similarity(f, g0)),
                              rank(reference_eta_similarity(f, g0)))

    @pytest.mark.parametrize("d", (1, 3, 10))
    def test_edge_distances_are_the_matrix_entries(self, d):
        # a graph whose nodes each have one edge: eta is that edge's distance
        rng = np.random.default_rng(d)
        x = rng.normal(size=(60, d)) * rng.uniform(0.1, 100.0, size=d)
        pairs = rng.permutation(60).reshape(30, 2)
        g = WeightedGraph.from_arrays(60, pairs[:, 0], pairs[:, 1])
        dist = pairwise_distances(x)
        assert np.array_equal(eta_similarity(x, g)[pairs[:, 0]],
                              dist[pairs[:, 0], pairs[:, 1]])

    def test_equal_distance_multisets_get_equal_eta_and_rank(self):
        x = grid_points(20)
        g0 = baseline_graph(x, "construction")
        dist, adj = pairwise_distances(x), adjacency(g0)
        groups = defaultdict(list)
        for node in range(g0.n):
            groups[tuple(np.sort(dist[node, adj[node]]))].append(node)
        shared = [nodes for nodes in groups.values() if len(nodes) > 1]
        assert len(shared) == 29
        eta = eta_similarity(x, g0)
        ranks = rank(eta)
        for nodes in shared:
            assert np.unique(eta[nodes]).size == 1
            assert np.unique(ranks[nodes]).size == 1

    def test_peak_memory_at_n_3000(self):
        f, _ = crescent_dataset(3000, seed=0)
        g0 = baseline_graph(f, "construction")
        tracemalloc.start()
        try:
            eta_similarity(f, g0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense form held three n x n arrays, 146 MiB here
        assert peak < 32 * 2**20


class TestWeightedNnSurrogate:
    @pytest.mark.parametrize("points, l, dim", [
        (np.random.default_rng(0).standard_normal((200, 1)), 60, 1),
        (np.random.default_rng(1).standard_normal((150, 3)), 7, 3),
        (crescent_dataset(300, seed=2)[0].x, 40, 2),
        (grid_points(12), 25, 2),   # exact ties
        (np.repeat(np.arange(30.0), 3)[:, None], 10, 1),  # duplicate points
    ])
    def test_bit_identical_to_sorted_distance_matrix(self, points, l, dim):
        assert np.array_equal(weighted_nn_surrogate(points, l, dim),
                              reference_weighted_nn_surrogate(points, l, dim))

    def test_window_checked(self):
        with pytest.raises(ParameterError, match="window l=8"):
            weighted_nn_surrogate(np.arange(12.0)[:, None], 8, 1)


class TestEtaConnectivity:
    def test_triangle(self):
        g = WeightedGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert eta_connectivity(g).tolist() == [-1.0, -1.0, -1.0]

    def test_star_center_zero(self):
        g = WeightedGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert eta_connectivity(g)[0] == 0.0

    def test_bridge_endpoints_sparser(self):
        clique_a = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        clique_b = [(u + 5, v + 5) for u, v in clique_a]
        g = WeightedGraph(10, clique_a + clique_b + [(4, 5)])
        eta = eta_connectivity(g)
        interior = [0, 1, 2, 3, 6, 7, 8, 9]
        assert eta[4] > max(eta[i] for i in interior)
        assert eta[5] > max(eta[i] for i in interior)

    def test_isolated_node_gets_zero(self):
        g = WeightedGraph(4, [(0, 1), (0, 2), (1, 2)])
        eta = eta_connectivity(g)
        assert eta[3] == 0.0
        assert eta[3] >= eta[:3].max()

    @pytest.mark.parametrize("seed", range(5))
    def test_passed_counts_give_identical_ranks(self, seed):
        rng = np.random.default_rng(seed)
        edges = [(u, v) for u in range(60) for v in range(u + 1, 60)
                 if rng.random() < 0.1]
        g = WeightedGraph(60, edges)
        eta = eta_connectivity(g, counts=common_neighbor_counts(g))
        assert np.array_equal(eta, eta_connectivity(g))
        assert np.array_equal(rank(eta), rank(eta_connectivity(g)))


class TestCommonNeighborCounts:
    @pytest.mark.parametrize("seed", range(20))
    def test_per_edge_counts_equal_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        p = rng.uniform(0.0, 0.5)
        edges = [(u, v, rng.uniform(0.1, 2.0)) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < p]
        g = WeightedGraph(n, edges)
        a = adjacency(g).astype(np.int64)
        u, v, _ = g.edge_arrays()
        counts = common_neighbor_counts(g)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, (a @ a)[u, v])


class TestRank:
    def test_two_values(self):
        assert rank([1.0, 5.0]).tolist() == [1.0, 0.5]

    def test_all_equal(self):
        assert rank([2.0, 2.0, 2.0]).tolist() == [1.0, 1.0, 1.0]

    def test_distinct_sorted_values(self):
        r = rank([0.4, 0.1, 0.9, 0.6])
        assert sorted(r.tolist()) == [0.25, 0.5, 0.75, 1.0]

    def test_monotone_against_increasing_transform(self):
        rng = np.random.default_rng(6)
        eta = rng.normal(size=40)
        assert np.array_equal(rank(eta), rank(np.exp(eta)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        eta = rng.normal(size=25)
        perm = rng.permutation(25)
        assert np.array_equal(rank(eta)[perm], rank(eta[perm]))

    def test_strict_order_inverts(self):
        eta = np.array([3.0, 1.0])
        r = rank(eta)
        assert r[0] < r[1]
