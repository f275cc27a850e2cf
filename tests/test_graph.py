import numpy as np
import pytest

from pcut.construction import knn_graph
from pcut.errors import InputError
from pcut.graph import Partition, WeightedGraph, connected_components, cut_value

from graph_builders import adjacency


def path3():
    return WeightedGraph(3, [(0, 1), (1, 2)])


def triangle():
    return WeightedGraph(3, [(0, 1), (0, 2), (1, 2)])


def two_cliques():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    return WeightedGraph(6, edges)


def part(labels, K=None):
    labels = np.asarray(labels)
    return Partition(assignment=labels, K=K or int(labels.max()) + 1)


class TestCutValue:
    def test_disconnected_cliques_zero(self):
        assert cut_value(two_cliques(), part([0, 0, 0, 1, 1, 1])) == 0.0

    def test_path_bipartition(self):
        assert cut_value(path3(), part([0, 1, 1])) == 1.0

    def test_triangle_singletons(self):
        # each cluster loses both its edges; every edge counted twice
        assert cut_value(triangle(), part([0, 1, 2])) == 6.0

    def test_relabeling_invariance(self):
        g = two_cliques()
        p = part([0, 0, 1, 1, 2, 2])
        q = part([2, 2, 0, 0, 1, 1])
        assert cut_value(g, p) == cut_value(g, q)

    def test_complement_invariance_binary(self):
        g = path3()
        p = part([0, 1, 1])
        q = part([1, 0, 0])
        assert cut_value(g, p) == cut_value(g, q)

    def test_bounded_by_twice_total_weight(self):
        rng = np.random.default_rng(3)
        edges = [(u, v, rng.uniform(0.1, 2.0))
                 for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.5]
        g = WeightedGraph(8, edges)
        labels = rng.integers(0, 3, 8)
        labels[:3] = [0, 1, 2]
        p = part(labels)
        assert cut_value(g, p) <= 2.0 * g.total_weight() + 1e-12
        # K >= 3 equals twice the inter-cluster weight
        u, v, w = g.edge_arrays()
        inter = w[p.assignment[u] != p.assignment[v]].sum()
        assert cut_value(g, p) == pytest.approx(2.0 * inter)

    def test_new_edges_shift_cut_as_expected(self):
        p = part([0, 0, 1, 1])
        base = cut_value(WeightedGraph(4, [(0, 1)]), p)
        # a new intra-cluster edge leaves the binary cut unchanged
        g_intra = WeightedGraph(4, [(0, 1), (2, 3)])
        assert cut_value(g_intra, p) == base
        # a new inter-cluster edge of weight w raises the binary cut by w
        g_inter = WeightedGraph(4, [(0, 1), (2, 3), (0, 2, 2.5)])
        assert cut_value(g_inter, p) == base + 2.5

    def test_length_mismatch_raises(self):
        with pytest.raises(InputError):
            cut_value(path3(), part([0, 1]))


class TestDegrees:
    def test_edgeless(self):
        assert WeightedGraph(3, []).degrees().tolist() == [0.0, 0.0, 0.0]

    def test_triangle(self):
        assert triangle().degrees().tolist() == [2.0, 2.0, 2.0]

    def test_star(self):
        g = WeightedGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees().tolist() == [3.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("seed", range(20))
    def test_bit_identical_to_scattered_sums(self, seed):
        # weighted RBF k-NN graphs, against the np.add.at form: every node
        # adds its edges as lower end, then as upper end, in edge order
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        x = rng.normal(size=(n, 2)) * rng.uniform(0.01, 10.0)
        k = int(rng.integers(1, min(n, 30)))
        g = knn_graph(x, k, weights="rbf", sigma=float(rng.uniform(0.1, 3.0)))
        u, v, w = g.edge_arrays()
        expected = np.zeros(g.n)
        np.add.at(expected, u, w)
        np.add.at(expected, v, w)
        assert np.array_equal(g.degrees(), expected)

    def test_returns_a_copy(self):
        g = triangle()
        g.degrees()[0] = 9.0
        assert g.degrees().tolist() == [2.0, 2.0, 2.0]


class TestComponents:
    def test_complete_graph_one_component(self):
        g = WeightedGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert connected_components(g).K == 1

    def test_edgeless_graph(self):
        comps = connected_components(WeightedGraph(4, []))
        assert comps.K == 4
        assert sorted(comps.assignment.tolist()) == [0, 1, 2, 3]

    def test_two_triangles(self):
        comps = connected_components(two_cliques())
        assert comps.K == 2
        assert comps.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_first_occurrence_dfs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        p = rng.uniform(0.0, 0.15)
        edges = [(u, v, rng.uniform(0.1, 2.0)) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < p]
        g = WeightedGraph(n, edges)
        comps = connected_components(g)
        expected, K = _dfs_components(g)
        assert comps.K == K
        assert np.array_equal(comps.assignment, expected)


def _dfs_components(g):
    """Reference labelling: DFS from each unlabeled node in id order."""
    label = -np.ones(g.n, dtype=np.int64)
    adj = adjacency(g)
    comp = 0
    for start in range(g.n):
        if label[start] >= 0:
            continue
        stack = [start]
        label[start] = comp
        while stack:
            x = stack.pop()
            for y in np.flatnonzero(adj[x]):
                if label[y] < 0:
                    label[y] = comp
                    stack.append(y)
        comp += 1
    return label, comp


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            WeightedGraph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(InputError):
            WeightedGraph(3, [(0, 1), (1, 0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InputError):
            WeightedGraph(3, [(0, 1, 0.0)])

    def test_self_loop_message_names_first_offender(self):
        with pytest.raises(InputError, match=r"^self-loop on node 2 is not allowed$"):
            WeightedGraph(3, [(0, 1), (2, 2), (1, 1)])

    def test_range_message_names_first_offender(self):
        with pytest.raises(InputError, match=r"^edge \(4,1\) outside node range \[0,3\)$"):
            WeightedGraph(3, [(0, 1), (4, 1), (0, -1)])

    def test_duplicate_message_names_first_repeat(self):
        with pytest.raises(InputError, match=r"^duplicate edge \(1,2\)$"):
            WeightedGraph(3, [(2, 1), (0, 1), (1, 2), (1, 0)])

    @pytest.mark.parametrize("w, shown", [(0.0, "0.0"), (-2.5, "-2.5"),
                                          (np.nan, "nan"), (np.inf, "inf")])
    def test_weight_message_names_first_offender(self, w, shown):
        with pytest.raises(InputError,
                           match=rf"^edge \(0,2\) has weight {shown}; "
                                 r"weights must be finite and positive$"):
            WeightedGraph(3, [(0, 1, 1.0), (2, 0, w), (1, 2, -1.0)])

    def test_malformed_tuple_rejected(self):
        with pytest.raises(InputError, match=r"^edge \(0, 1, 1\.0, 2\) is not"):
            WeightedGraph(3, [(1, 2), (0, 1, 1.0, 2)])

    def test_earliest_edge_wins_across_checks(self):
        # the weight error comes first in input order, the self-loop later
        with pytest.raises(InputError, match=r"has weight -1\.0; "
                                             r"weights must be finite and positive$"):
            WeightedGraph(3, [(0, 1, -1.0), (2, 2)])

    def test_edges_sorted_and_symmetric_storage(self):
        g = WeightedGraph(4, [(3, 2, 0.5), (1, 0, 2.0)])
        assert list(g.edges()) == [(0, 1, 2.0), (2, 3, 0.5)]
        w = g.weight_matrix()
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)

    def test_subgraph_remaps_ids(self):
        g = WeightedGraph(5, [(0, 1), (1, 2), (3, 4)])
        sub = g.subgraph([1, 2, 4])
        assert sub.n == 3
        assert list(sub.edges()) == [(0, 1, 1.0)]
