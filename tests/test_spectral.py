import itertools

import numpy as np
import pytest

from pcut.errors import InputError, NumericError, ParameterError
from pcut.graph import Partition, WeightedGraph, connected_components, cut_value
from pcut.spectral import (SpectralConfig, _wcss, kmeans, laplacian,
                           smallest_eigenvectors, spectral_clustering,
                           sweep_min_cut)


def clique_edges(nodes):
    return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]


def disjoint_cliques(sizes):
    edges = []
    start = 0
    for s in sizes:
        edges += clique_edges(list(range(start, start + s)))
        start += s
    return WeightedGraph(start, edges)


class TestLaplacian:
    def test_edgeless_zero_matrix(self):
        lap = laplacian(WeightedGraph(3, []), "rcut_unnormalized")
        assert np.all(lap == 0.0)

    def test_triangle_unnormalized(self):
        lap = laplacian(disjoint_cliques([3]), "rcut_unnormalized")
        assert np.allclose(np.diag(lap), 2.0)
        off = lap[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -1.0)

    def test_row_sums_zero(self):
        rng = np.random.default_rng(11)
        edges = [(u, v, rng.uniform(0.5, 2)) for u in range(7)
                 for v in range(u + 1, 7) if rng.random() < 0.6]
        lap = laplacian(WeightedGraph(7, edges), "rcut_unnormalized")
        assert np.allclose(lap.sum(axis=1), 0.0)

    def test_normalized_isolated_diagonal_zero(self):
        g = WeightedGraph(3, [(0, 1)])
        lap = laplacian(g, "ncut_normalized")
        assert lap[2, 2] == 0.0
        assert lap[0, 0] == 1.0


class TestSmallestEigenvectors:
    def test_identity(self):
        vecs, vals = smallest_eigenvectors(np.eye(4), 2)
        assert np.allclose(vals, 1.0)

    def test_connected_graph_kernel(self):
        lap = laplacian(disjoint_cliques([5]), "rcut_unnormalized")
        vecs, vals = smallest_eigenvectors(lap, 2)
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(vecs[:, 0], vecs[0, 0])

    @pytest.mark.parametrize("sizes", [[3, 4], [3, 3, 4]])
    def test_zero_multiplicity_matches_components(self, sizes):
        g = disjoint_cliques(sizes)
        lap = laplacian(g, "rcut_unnormalized")
        _, vals = smallest_eigenvectors(lap, len(sizes) + 1)
        assert np.sum(np.abs(vals) < 1e-9) == len(sizes)
        assert connected_components(g).K == len(sizes)

    def test_psd_and_residual(self):
        rng = np.random.default_rng(12)
        edges = [(u, v, rng.uniform(0.2, 3)) for u in range(10)
                 for v in range(u + 1, 10) if rng.random() < 0.5]
        lap = laplacian(WeightedGraph(10, edges), "rcut_unnormalized")
        vecs, vals = smallest_eigenvectors(lap, 10)
        assert vals.min() >= -1e-9
        residual = np.linalg.norm(lap @ vecs - vecs * vals[None, :], axis=0)
        assert residual.max() <= 1e-8 * max(1.0, np.abs(vals).max())

    def test_sign_convention(self):
        lap = laplacian(disjoint_cliques([4]), "rcut_unnormalized")
        vecs, _ = smallest_eigenvectors(lap, 3)
        for j in range(3):
            nz = np.flatnonzero(np.abs(vecs[:, j]) > 1e-12)
            assert vecs[nz[0], j] >= 0

    def test_nonsymmetric_rejected(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(InputError):
            smallest_eigenvectors(m, 1)


class TestKmeans:
    def test_k_equals_n(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(6, 2)) * 3
        p = kmeans(pts, 6, seed=0)
        assert p.min_size() == 1
        # zero within-cluster scatter
        for k in range(6):
            cluster = pts[p.assignment == k]
            assert np.allclose(cluster, cluster.mean(axis=0))

    def test_two_separated_pairs_matches_bruteforce(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        p = kmeans(pts, 2, seed=1)

        def wcss(labels):
            total = 0.0
            for k in (0, 1):
                m = labels == k
                if m.any():
                    c = pts[m].mean(axis=0)
                    total += ((pts[m] - c) ** 2).sum()
            return total

        best = min((wcss(np.asarray(lab)) for lab in
                    itertools.product([0, 1], repeat=4)), default=None)
        assert wcss(p.assignment) == pytest.approx(best)

    def test_duplicated_dataset_same_grouping(self):
        pts = np.array([[0.0, 0.0], [0.2, 0.1], [6.0, 6.0], [6.2, 6.1]])
        doubled = np.vstack([pts, pts])
        p = kmeans(doubled, 2, seed=2)
        a = p.assignment
        assert np.array_equal(a[:4], a[4:])
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(40, 3))
        a = kmeans(pts, 3, seed=7).assignment
        b = kmeans(pts, 3, seed=7).assignment
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kwargs,match", [
        ({"restarts": 0}, "restarts must be >= 1, got 0"),
        ({"restarts": -3}, "restarts must be >= 1, got -3"),
        ({"max_iters": 0}, "iterations must be >= 1, got 0")])
    def test_counts_below_one_rejected(self, kwargs, match):
        pts = np.random.default_rng(15).normal(size=(10, 2))
        with pytest.raises(ParameterError, match=match):
            kmeans(pts, 2, **kwargs)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(16).normal(size=(10, 2))
        pts[3, 1] = bad
        with pytest.raises(InputError, match="must be finite"):
            kmeans(pts, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_distances_rejected(self):
        pts = np.array([[-1e200], [0.0], [1e200]])
        with pytest.raises(NumericError, match="overflow"):
            kmeans(pts, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_wcss_ignores_label_order(self, seed):
        # kmeans keeps a later restart only when its WCSS is strictly lower,
        # so one K = 3 partition under another labelling must score the same
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(30, 2)) * rng.uniform(0.1, 10.0, size=(30, 1))
        labels = rng.integers(0, 3, size=30)
        values = {_wcss(pts, np.asarray(perm)[labels], 3)
                  for perm in itertools.permutations(range(3))}
        assert len(values) == 1


class TestSpectralClustering:
    def test_two_cliques_recovered(self):
        g = disjoint_cliques([4, 4])
        for variant in ("rcut_unnormalized", "ncut_normalized", "ncut_rw"):
            p = spectral_clustering(g, SpectralConfig(K=2, variant=variant, seed=0))
            assert cut_value(g, p) == 0.0
            assert p.min_size() == 4

    def test_three_cliques_recovered(self):
        g = disjoint_cliques([3, 4, 5])
        p = spectral_clustering(g, SpectralConfig(K=3, variant="ncut_normalized",
                                                  seed=0))
        assert cut_value(g, p) == 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        base = disjoint_cliques([5, 5])
        extra = [(2, 7), (1, 6)]
        g = WeightedGraph(10, list(base.edges()) + [(u, v, 1.0) for u, v in extra])
        p = spectral_clustering(g, SpectralConfig(K=2, seed=3))
        perm = rng.permutation(10)
        inv = np.empty(10, dtype=int)
        inv[perm] = np.arange(10)
        g_perm = WeightedGraph(10, [(perm[u], perm[v], w) for u, v, w in g.edges()])
        p_perm = spectral_clustering(g_perm, SpectralConfig(K=2, seed=3))
        # same bipartition up to cluster relabeling
        a = p.assignment
        b = p_perm.assignment[perm]
        assert np.array_equal(a, b) or np.array_equal(a, 1 - b)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(16)
        edges = [(u, v, rng.uniform(0.5, 2)) for u in range(12)
                 for v in range(u + 1, 12) if rng.random() < 0.4]
        g = WeightedGraph(12, edges)
        g_scaled = WeightedGraph(12, [(u, v, 3.7 * w) for u, v, w in g.edges()])
        for variant in ("ncut_normalized", "rcut_unnormalized"):
            cfg = SpectralConfig(K=2, variant=variant, seed=5)
            a = spectral_clustering(g, cfg).assignment
            b = spectral_clustering(g_scaled, cfg).assignment
            assert np.array_equal(a, b) or np.array_equal(a, 1 - b)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ParameterError):
            SpectralConfig(K=1)

    @pytest.mark.parametrize("field,match", [
        ("kmeans_restarts", "restarts must be >= 1, got 0"),
        ("kmeans_max_iters", "iterations must be >= 1, got 0")])
    def test_kmeans_counts_must_be_positive(self, field, match):
        with pytest.raises(ParameterError, match=match):
            SpectralConfig(K=2, **{field: 0})


class TestSweepMinCut:
    def test_finds_planted_bipartition(self):
        a = clique_edges(list(range(6)))
        b = clique_edges(list(range(6, 12)))
        g = WeightedGraph(12, a + b + [(5, 6)])
        p = sweep_min_cut(g, min_side=2.0)
        assert p is not None
        assert cut_value(g, p) == 1.0
        assert p.min_size() == 6

    def test_respects_strict_size_floor(self):
        a = clique_edges(list(range(6)))
        b = clique_edges(list(range(6, 12)))
        g = WeightedGraph(12, a + b + [(5, 6)])
        assert sweep_min_cut(g, min_side=6.0) is None
