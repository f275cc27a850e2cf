import numpy as np
import pytest

from pcut.construction import (FeatureMatrix, avg_knn_distance, baseline_graph,
                               construction_k0, knn_graph, rbf_weight,
                               selection_k0)
from pcut.errors import InputError, ParameterError

from graph_builders import (adjacency, epsilon_graph, full_rbf_graph,
                            pairwise_distances)


def line_points(*xs):
    return np.asarray(xs, dtype=float)[:, None]


class TestDistances:
    def test_identical_points(self):
        d = pairwise_distances(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert d[0, 1] == 0.0

    def test_3_4_5(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == pytest.approx(5.0)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        d = pairwise_distances(x)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            pairwise_distances(np.array([[0.0], [np.nan]]))


class TestKnnGraph:
    def test_two_points(self):
        g = knn_graph(line_points(0, 1), k=1)
        assert list(g.edges()) == [(0, 1, 1.0)]

    def test_rbf_weight_properties(self):
        assert rbf_weight(0.0, 1.0) == 1.0
        d = np.linspace(0, 5, 50)
        w = rbf_weight(d, 0.7)
        assert np.all(np.diff(w) < 0)
        assert np.all((w > 0) & (w <= 1))

    def test_collinear_union_symmetrization(self):
        # nearest neighbors: 0->1, 1->0 or 2 (tie broken to 0), 2->1, 3->2
        g = knn_graph(line_points(0, 1, 2, 10), k=1)
        pairs = {(u, v) for u, v, _ in g.edges()}
        assert pairs == {(0, 1), (1, 2), (2, 3)}
        assert adjacency(g)[2].sum() == 2

    def test_contains_k_nearest(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        k = 4
        g = knn_graph(x, k)
        d = pairwise_distances(x)
        np.fill_diagonal(d, np.inf)
        adj = adjacency(g)
        for v in range(30):
            nearest = np.argsort(d[v], kind="stable")[:k]
            assert adj[v, nearest].all()

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            knn_graph(line_points(0, 1, 2), k=3)


class TestEpsilonGraph:
    def test_below_min_distance_edgeless(self):
        g = epsilon_graph(line_points(0, 1, 3), eps=0.5)
        assert g.m == 0

    def test_above_max_distance_complete(self):
        g = epsilon_graph(line_points(0, 1, 3), eps=10.0)
        assert g.m == 3

    def test_line_example(self):
        g = epsilon_graph(line_points(0, 1, 3), eps=1.5)
        assert {(u, v) for u, v, _ in g.edges()} == {(0, 1)}

    def test_nested_in_eps(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, 2))
        smaller = {(u, v) for u, v, _ in epsilon_graph(x, 0.4).edges()}
        larger = {(u, v) for u, v, _ in epsilon_graph(x, 0.9).edges()}
        assert smaller <= larger


class TestFullRbf:
    def test_three_points_complete(self):
        g = full_rbf_graph(np.array([[0.0], [1.0], [2.5]]), sigma=1.0)
        assert g.m == 3
        assert all(0 < w <= 1 for _, _, w in g.edges())

    def test_coincident_weight_one(self):
        g = full_rbf_graph(np.array([[1.0, 1.0], [1.0, 1.0]]), sigma=2.0)
        assert list(g.edges()) == [(0, 1, 1.0)]

    def test_exp_minus_one(self):
        sigma = 0.8
        x = np.array([[0.0, 0.0], [0.0, sigma * np.sqrt(2.0)]])
        g = full_rbf_graph(x, sigma=sigma)
        assert list(g.edges())[0][2] == pytest.approx(np.exp(-1.0))


class TestAvgKnnDistance:
    def test_two_points(self):
        assert avg_knn_distance(line_points(0, 2), k=1) == pytest.approx(2.0)

    def test_equilateral_triangle(self):
        s = 1.7
        x = np.array([[0, 0], [s, 0], [s / 2, s * np.sqrt(3) / 2]])
        assert avg_knn_distance(x, k=1) == pytest.approx(s)

    def test_line_example(self):
        assert avg_knn_distance(line_points(0, 1, 3), k=1) == pytest.approx((1 + 1 + 2) / 3)


class TestBaselines:
    def test_construction_k0_values(self):
        assert construction_k0(100) == 10
        assert construction_k0(900) == 30

    def test_selection_k0_cap(self):
        assert selection_k0(100) == 30
        assert selection_k0(20) == 19

    def test_selection_baseline_degree_floor(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2))
        g = baseline_graph(x, "selection")
        # union symmetrization only adds edges beyond each node's own 30
        assert adjacency(g).sum(axis=1).min() >= 30

    def test_all_graphs_obey_invariants(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 2))
        for g in (knn_graph(x, 3), epsilon_graph(x, 1.0),
                  full_rbf_graph(x, 1.0), baseline_graph(x, "construction")):
            w = g.weight_matrix()
            assert np.array_equal(w, w.T)
            assert np.all(np.diag(w) == 0.0)
            assert all(wt > 0 for _, _, wt in g.edges())

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            baseline_graph(np.zeros((5, 1)), "nope")
