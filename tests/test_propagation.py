import numpy as np
import pytest

from pcut.errors import ConstraintError, InputError
from pcut.graph import WeightedGraph
from pcut.propagation import LabelSet, grf_propagate, grf_scores


def labelset(pairs, K):
    return LabelSet(labeled=tuple(pairs), K=K)


class TestLabelSet:
    def test_missing_class_rejected(self):
        with pytest.raises(InputError):
            labelset([(0, 0)], K=2)

    def test_duplicate_node_rejected(self):
        with pytest.raises(InputError):
            labelset([(0, 0), (0, 1)], K=2)


class TestGrfPropagate:
    def test_two_cliques_component_labels(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        g = WeightedGraph(6, edges)
        p = grf_propagate(g, labelset([(0, 0), (3, 1)], K=2))
        assert p.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_path_tie_resolves_to_lower_class(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)])
        scores = grf_scores(g, labelset([(0, 0), (2, 1)], K=2))
        assert scores[1].tolist() == pytest.approx([0.5, 0.5])
        p = grf_propagate(g, labelset([(0, 0), (2, 1)], K=2))
        assert p.assignment[1] == 0

    def test_weighted_path_pulls_toward_heavy_edge(self):
        g = WeightedGraph(3, [(0, 1, 3.0), (1, 2, 1.0)])
        scores = grf_scores(g, labelset([(0, 0), (2, 1)], K=2))
        assert scores[1, 0] == pytest.approx(0.75)
        p = grf_propagate(g, labelset([(0, 0), (2, 1)], K=2))
        assert p.assignment[1] == 0

    def test_unlabeled_component_rejected(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ConstraintError):
            grf_propagate(g, labelset([(0, 0), (1, 1)], K=2))

    def test_stranded_component_message_is_bounded(self):
        # a 200-node path apart from the labeled pair: the message names the
        # component, its size and its first 10 ids, not all 200
        n = 202
        g = WeightedGraph.from_arrays(n, np.array([0, *range(2, n - 1)]),
                                      np.array([1, *range(3, n)]))
        with pytest.raises(ConstraintError) as err:
            grf_propagate(g, labelset([(0, 0), (1, 1)], K=2))
        assert str(err.value) == (
            "connected component 1 (size 200, nodes [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, "
            "...]) has no labeled node")
        assert len(str(err.value)) < 200


class TestHarmonicProperties:
    def rig(self):
        rng = np.random.default_rng(17)
        n = 25
        edges = [(u, v, rng.uniform(0.2, 2.0)) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < 0.25]
        g = WeightedGraph(n, edges)
        # retry until connected enough for a clean test graph
        labels = labelset([(0, 0), (1, 1), (2, 2)], K=3)
        return g, labels

    def test_scores_are_harmonic(self):
        g, labels = self.rig()
        scores = grf_scores(g, labels)
        w = g.weight_matrix()
        deg = w.sum(axis=1)
        labeled = set(labels.nodes().tolist())
        for v in range(g.n):
            if v in labeled or deg[v] == 0:
                continue
            neighbor_mean = (w[v] @ scores) / deg[v]
            assert np.abs(scores[v] - neighbor_mean).max() <= 1e-8

    def test_scores_in_unit_interval_and_sum_to_one(self):
        g, labels = self.rig()
        scores = grf_scores(g, labels)
        assert scores.min() >= -1e-10
        assert scores.max() <= 1.0 + 1e-10
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_class_permutation_equivariance(self):
        g, labels = self.rig()
        base = grf_propagate(g, labels).assignment
        swapped = labelset([(0, 1), (1, 0), (2, 2)], K=3)
        out = grf_propagate(g, swapped).assignment
        remap = np.array([1, 0, 2])
        assert np.array_equal(remap[base], out)
