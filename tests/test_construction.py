import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcut import construction
from pcut.construction import (FeatureMatrix, avg_knn_distance, baseline_graph,
                               construction_k0, knn_graph, rbf_weight,
                               selection_k0)
from pcut.errors import InputError, ParameterError
from pcut.rmd import rmd_similarity_graph

from graph_builders import (adjacency, epsilon_graph, full_rbf_graph,
                            pairwise_distances, reference_neighbors)


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


def block_table(x, width, block_rows):
    """The table of FeatureMatrix(x).neighbors(width) with blocks of
    `block_rows` rows, or of the shipped size when block_rows is None. It is
    built without FeatureMatrix, so the tie rule is also tested on points
    that FeatureMatrix refuses, whose distances overflow to inf."""
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(construction, "_NEIGHBOR_BLOCK_ELEMENTS",
                       block_rows * len(x))
        return construction._neighbor_table(x, width)


def assert_reference_table(x, width, block_rows):
    ids, dists = block_table(x, width, block_rows)
    want_ids, want_dists = reference_neighbors(x, width)
    assert np.array_equal(ids, want_ids)
    assert dists.tobytes() == want_dists.tobytes()


_rng = np.random.default_rng(5)
TABLE_CASES = {
    "gaussian-600": (_rng.normal(size=(600, 2)), 60),
    "integer-grid": (np.array([[i, j] for i in range(20) for j in range(15)],
                              dtype=float), 40),
    "repeated-points": (np.tile(_rng.integers(0, 5, size=(50, 3)), (6, 1)), 20),
    # distances between the two signs overflow to inf, and tie the self
    # distance
    "huge-coordinates": (_rng.choice([-1e300, 1e300], size=(64, 2)), 32),
    "full-width-1d": (_rng.integers(0, 10, size=(40, 1)), 39),
    "gaussian-10d": (_rng.normal(size=(500, 10)), 50),
}


class TestNeighborTable:
    """The table is built in blocks of rows by partition; it must equal one
    full stable argsort, ids exactly and distances bit for bit."""

    @pytest.mark.parametrize("block_rows", (None, 1, 7))
    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_cases_match_stable_argsort(self, case, block_rows):
        x, width = TABLE_CASES[case]
        assert_reference_table(np.asarray(x, dtype=float), width, block_rows)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 40), d=st.sampled_from((1, 2, 3, 10)),
           kind=st.sampled_from(("grid", "float", "huge")),
           block_rows=st.sampled_from((None, 1, 7)), data=st.data())
    def test_drawn_inputs_match_stable_argsort(self, n, d, kind, block_rows, data):
        if kind == "grid":  # duplicates and tied distances
            values = st.integers(-3, 3).map(float)
        elif kind == "float":
            values = st.floats(-10.0, 10.0, allow_nan=False)
        else:
            values = st.sampled_from((-1e300, -1.0, 0.0, 1.0, 1e300))
        x = np.array(data.draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
        width = data.draw(st.integers(1, n - 1))
        assert_reference_table(x, width, block_rows)

    @pytest.mark.parametrize("n, bound_mib", (
        (5000, 100), pytest.param(10_000, 128, marks=pytest.mark.slow)))
    def test_memory_stays_off_n_squared(self, n, bound_mib):
        # at n = 5000 one distance matrix alone takes 191 MiB, and the build
        # from it with one full argsort peaked at 393 MiB; at n = 10^4 the
        # table itself holds 46 MiB
        x = np.random.default_rng(6).normal(size=(n, 2))
        tracemalloc.start()
        try:
            FeatureMatrix(x).neighbors(300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


class TestCoordinateSpan:
    """FeatureMatrix refuses coordinates whose squared distances overflow."""

    def test_overflowing_squared_distances_rejected(self):
        # distances across the sign change overflow to inf and tie the self
        # distance; knn_graph once took this for a self-loop in the input
        x = [[-1e300, 0], [1e300, 0], [-1e300, 1], [1e300, 1], [0, 0]]
        with pytest.raises(InputError, match="^feature coordinates span too wide "
                                             "a range: squared distances overflow$"):
            FeatureMatrix(x)

    def test_wide_finite_span_builds_a_table(self):
        x = [[-1e150, 0], [1e150, 0], [-1e150, 1e150], [1e150, -1e150], [0, 0]]
        ids, dists = FeatureMatrix(x).neighbors(4)
        assert (ids != np.arange(5)[:, None]).all()
        assert np.isfinite(dists).all()


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

    @pytest.mark.parametrize("sigma", [None, float("nan")], ids=["none", "nan"])
    @pytest.mark.parametrize("build", [
        lambda x, sigma: knn_graph(x, 3, weights="rbf", sigma=sigma),
        lambda x, sigma: rmd_similarity_graph(x, np.full(len(x), 0.5), 0.5, 3,
                                              weights="rbf", sigma=sigma),
    ], ids=["knn", "rmd"])
    def test_rbf_needs_a_usable_sigma(self, build, sigma):
        x = np.random.default_rng(3).normal(size=(20, 2))
        with pytest.raises(ParameterError, match=f"^sigma must be positive, got {sigma}$"):
            build(x, sigma)

    def test_infinite_sigma_gives_unit_weights(self):
        x = np.random.default_rng(3).normal(size=(20, 2))
        assert (list(knn_graph(x, 3, weights="rbf", sigma=np.inf).edges())
                == list(knn_graph(x, 3).edges()))

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
