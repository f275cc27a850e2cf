import numpy as np
import pytest
from scipy.stats import gaussian_kde, norm

from pcut.construction import baseline_graph
from pcut.errors import InputError, ParameterError
from pcut.graph import WeightedGraph
from pcut.ranking import (GaussianDensity, GaussianMixtureDensity,
                          common_neighbor_counts, eta_connectivity,
                          eta_similarity, level_set_mass, rank)
from pcut.synth import gaussian_mixture


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


class TestLevelSetMass:
    def test_gaussian_mode(self):
        assert level_set_mass(GaussianDensity(), 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_far_tail(self):
        assert level_set_mass(GaussianDensity(), 11.0) == pytest.approx(0.0, abs=1e-5)

    def test_gaussian_unit_point(self):
        expected = 2.0 * norm.cdf(-1.0)
        assert level_set_mass(GaussianDensity(), 1.0) == pytest.approx(expected, abs=1e-6)

    def test_mixture_against_riemann_oracle(self):
        density = GaussianMixtureDensity(weights=(0.3, 0.7), means=(-2.0, 1.5),
                                         stds=(0.5, 1.0))
        xs = np.linspace(-15, 15, 400001)
        pdf = density.pdf(xs)
        dx = xs[1] - xs[0]
        for y in (-2.0, -1.0, 0.2, 1.5, 3.0):
            t = density.pdf(y)
            oracle = float(pdf[pdf <= t].sum() * dx)
            assert level_set_mass(density, y) == pytest.approx(oracle, abs=5e-4)

    def test_unsupported_density(self):
        with pytest.raises(ParameterError):
            level_set_mass(object(), 0.0)
