import numpy as np
import pytest

from pcut.construction import knn_graph
from pcut.graph import WeightedGraph
from pcut.ranking import common_neighbor_counts, eta_similarity, rank
from pcut.construction import baseline_graph
from pcut.rmd import (degree_target, modulated_k, rmd_connectivity_graph,
                      rmd_similarity_graph)
from pcut.synth import gaussian_mixture


class TestModulatedK:
    def test_lambda_one_identity(self):
        for r in (0.01, 0.4, 1.0):
            assert modulated_k(30, 1.0, r, 1000) == 30

    def test_half_rank_identity(self):
        for lam in (0.0, 0.3, 0.7, 1.0):
            assert modulated_k(30, lam, 0.5, 1000) == 30

    def test_formula_extremes(self):
        assert modulated_k(20, 0.5, 1.0, 1000) == 30
        assert modulated_k(20, 0.5, 1e-9, 1000) == 10

    def test_clamping(self):
        assert modulated_k(1, 0.0, 1e-9, 100) == 1
        assert modulated_k(80, 0.0, 1.0, 100) == 99


class TestSimilarityRmd:
    def rig(self, seed=8, n=60):
        f, _ = gaussian_mixture(
            n, [(0.3, [0.0, 0.0], [0.2, 0.2]), (0.7, [3.0, 0.0], [1.0, 1.0])],
            seed=seed)
        ranks = rank(eta_similarity(f, baseline_graph(f, "construction")))
        return f, ranks

    def test_lambda_one_equals_knn_bit_for_bit(self):
        f, ranks = self.rig()
        plain = knn_graph(f, 5, weights="rbf", sigma=0.9)
        modulated = rmd_similarity_graph(f, ranks, 1.0, 5, weights="rbf", sigma=0.9)
        assert list(plain.edges()) == list(modulated.edges())

    def test_constant_half_ranks_equals_knn(self):
        f, _ = self.rig()
        plain = knn_graph(f, 5)
        modulated = rmd_similarity_graph(f, np.full(f.n, 0.5), 0.2, 5)
        assert list(plain.edges()) == list(modulated.edges())

    def test_low_rank_nodes_select_fewer_neighbors(self):
        f, ranks = self.rig(n=120)
        k_of = np.array([modulated_k(6, 0.5, r, f.n) for r in ranks])
        # weakly monotone in rank everywhere
        order = np.argsort(ranks)
        assert np.all(np.diff(k_of[order]) >= 0)
        # strictly fewer for clearly low-rank nodes than clearly high-rank ones
        low = ranks <= np.quantile(ranks, 0.25)
        high = ranks >= np.quantile(ranks, 0.75)
        assert k_of[low].max() < k_of[high].min()


def two_cliques_bridge(size=4):
    a = [(u, v) for u in range(size) for v in range(u + 1, size)]
    b = [(u + size, v + size) for u, v in a]
    return WeightedGraph(2 * size, a + b + [(size - 1, size)])


class TestConnectivityRmd:
    def test_lambda_one_unchanged(self):
        g = two_cliques_bridge()
        ranks = rank(np.arange(g.n, dtype=float))
        out = rmd_connectivity_graph(g, ranks, 1.0)
        assert list(out.edges()) == list(g.edges())

    def test_rank_one_marks_nothing(self):
        assert degree_target(7, 0.3, 1.0) == 7

    def test_bridge_edge_removed(self):
        g = two_cliques_bridge()
        s = common_neighbor_counts(g)
        u, v, _ = g.edge_arrays()
        bridge = np.flatnonzero((u == 3) & (v == 4))
        assert s[bridge] == 0  # bridge endpoints share nobody
        ranks = np.full(g.n, 0.25)  # every node drops edges at lambda=0.5
        out = rmd_connectivity_graph(g, ranks, 0.5)
        assert not out.adjacency()[3, 4]

    def test_never_adds_edges(self):
        g = two_cliques_bridge(5)
        rng = np.random.default_rng(9)
        ranks = rng.uniform(0.05, 1.0, g.n)
        out = rmd_connectivity_graph(g, ranks, 0.6)
        before = {(u, v) for u, v, _ in g.edges()}
        after = {(u, v) for u, v, _ in out.edges()}
        assert after <= before

    def test_removals_nested_across_lambda(self):
        g = two_cliques_bridge(6)
        rng = np.random.default_rng(10)
        ranks = rng.uniform(0.05, 1.0, g.n)
        before = {(u, v) for u, v, _ in g.edges()}
        removed = {}
        for lam in (0.5, 0.7, 0.9):
            after = {(u, v) for u, v, _ in rmd_connectivity_graph(g, ranks, lam).edges()}
            removed[lam] = before - after
        assert removed[0.9] <= removed[0.7] <= removed[0.5]

    def test_each_node_keeps_at_least_one_own_edge(self):
        # every node's own marking leaves >= 1 edge; removals by the other
        # endpoint may still undershoot, which the union rule permits
        for lam in (0.0, 0.5):
            for d in range(1, 9):
                assert degree_target(d, lam, 0.01) >= 1
