import numpy as np
import pytest

import pcut
from pcut.construction import knn_graph
from pcut.engine import DEFAULT_CONNECTIVITY_LAMBDAS
from pcut.errors import ParameterError
from pcut.experiments import load_bundled_network
from pcut.graph import WeightedGraph
from pcut.ranking import (common_neighbor_counts, eta_connectivity,
                          eta_similarity, rank)
from pcut.construction import baseline_graph
from pcut.rmd import (degree_target, modulated_k, rmd_connectivity_family,
                      rmd_connectivity_graph, rmd_similarity_graph)
from pcut.synth import gaussian_mixture

from graph_builders import adjacency


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
        assert not adjacency(out)[3, 4]

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


def per_lambda_connectivity_graph(g, ranks, lam, counts=None):
    """rmd_connectivity_graph as it was before the marking order was computed
    once per input, kept verbatim apart from its name and docstring."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")
    ranks = np.asarray(ranks, dtype=float)
    if ranks.size != g.n:
        raise ParameterError(f"got {ranks.size} ranks for {g.n} nodes")
    u, v, w = g.edge_arrays()
    s = common_neighbor_counts(g) if counts is None else np.asarray(counts)
    if s.shape != u.shape:
        raise ParameterError(f"got counts of shape {s.shape} for {g.m} edges")
    # every edge once from each endpoint, grouped by node, then by count
    # and neighbor id; node v marks the first `drop[v]` of its group
    node = np.concatenate([u, v])
    order = np.lexsort((np.concatenate([v, u]), np.concatenate([s, s]), node))
    deg = np.bincount(node, minlength=g.n)
    drop = deg - degree_target(deg, lam, ranks.reshape(-1))
    slot = np.arange(order.size) - (np.cumsum(deg) - deg)[node[order]]
    half = np.zeros(2 * g.m, dtype=bool)
    half[order[slot < drop[node[order]]]] = True
    marked = half[:g.m] | half[g.m:]
    return WeightedGraph.from_arrays(g.n, u[~marked], v[~marked], w[~marked])


@pytest.fixture(scope="module")
def networks():
    sbm, _ = pcut.sbm_generate(pcut.SbmSpec(n=800, alpha=0.1, p1=0.1, q=0.01,
                                            equalize_degrees=True, seed=3))
    return {"karate": load_bundled_network("karate")[0],
            "dolphins": load_bundled_network("dolphins")[0],
            "sbm800": sbm}


@pytest.mark.parametrize("name", ("karate", "dolphins", "sbm800"))
def test_marking_order_once_per_input_matches_per_lambda(networks, name):
    g = networks[name]
    counts = common_neighbor_counts(g)
    ranks = rank(eta_connectivity(g, counts=counts))
    graph_at = rmd_connectivity_family(g, ranks, counts=counts)
    for lam in DEFAULT_CONNECTIVITY_LAMBDAS + (0.0, 1.0):
        want = per_lambda_connectivity_graph(g, ranks, lam, counts=counts)
        for got in (graph_at(lam), rmd_connectivity_graph(g, ranks, lam, counts=counts),
                    rmd_connectivity_graph(g, ranks, lam)):
            assert got.n == want.n
            for a, b in zip(got.edge_arrays(), want.edge_arrays()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("call, match", [
    (lambda g: rmd_connectivity_graph(g, np.full(3, 0.5), 1.5),
     r"^lambda must lie in \[0, 1\], got 1\.5$"),
    (lambda g: rmd_connectivity_family(g, np.full(g.n, 0.5))(-0.1),
     r"^lambda must lie in \[0, 1\], got -0\.1$"),
    (lambda g: rmd_connectivity_family(g, np.full(3, 0.5)),
     r"^got 3 ranks for 8 nodes$"),
    (lambda g: rmd_connectivity_family(g, np.full(g.n, 0.5), counts=np.zeros(2)),
     r"^got counts of shape \(2,\) for 13 edges$"),
])
def test_connectivity_family_checks_its_inputs(call, match):
    with pytest.raises(ParameterError, match=match):
        call(two_cliques_bridge())
