"""Sigma runs share their edge set.

Along the grid, lambda and k choose the edges and sigma only weighs them,
so the engine selects the edges once per (lambda, k) and weighs that
selection at each sigma. The ssl chunk of a sigma run keeps one harmonic
pattern while its graphs' edges (u, v) stay equal: one component check,
one band order and one band layout. These tests check that the shared
work gives the bits of the per-point work: graphs against
rmd_similarity_graph, and scores against a pattern built for each graph
alone. Scores also match the per-call SuperLU solver kept in
reference_propagation to SCORE_TOL, with the same argmax, and whole ssl
runs give the candidates of the per-point loop of reference_engine.
"""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse.csgraph

import pcut
from pcut import engine, propagation
from pcut.construction import as_features, baseline_graph
from pcut.errors import ConstraintError
from pcut.graph import WeightedGraph
from pcut.propagation import LabelSet, grf_scores
from pcut.ranking import eta_similarity, rank
from pcut.rmd import rmd_similarity_edges, rmd_similarity_graph

import reference_engine
import reference_propagation
from benchmark_instances import candidate_bytes, crescents_ssl
from reference_propagation import SCORE_TOL


def engine_graphs(data, cfg, labels=None):
    """The grid points and graphs that generate_candidates builds, in order."""
    captured = {}

    def capture(points, build_graphs, *args):
        captured["graphs"] = list(build_graphs(points))
        captured["points"] = points
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_run_grid", capture)
        pcut.generate_candidates(data, cfg, labels)
    return captured["points"], captured["graphs"]


def edge_bytes(g):
    return [a.tobytes() for a in g.edge_arrays()]


def pattern_count(graphs, points):
    """Runs of consecutive graphs with equal (u, v) inside each (lambda, k)."""
    count, previous = 0, None
    for (lam, k, _), g in zip(points, graphs):
        key = (lam, k, *edge_bytes(g)[:2])
        count += key != previous
        previous = key
    return count


def counting_pattern(built):
    """A HarmonicPattern that records each construction in `built`."""
    class Counting(propagation.HarmonicPattern):
        def __init__(self, g, labels):
            built.append(g.m)
            super().__init__(g, labels)
    return Counting


# one outlier (node 12, labeled) far from two labeled clusters: its edges
# underflow to weight 0 from sigma exponent -3 on, and from -6 on so do the
# longer edges inside the clusters. Each sigma run changes its edge pattern
# three or four times (9 patterns in 16 points), and every point solves
OUTLIER_X = np.array([0, 1, 2, 3, 4, 5, 100, 101, 102, 103, 104, 105, 30.0])
OUTLIER_LABELS = LabelSet(((0, 0), (6, 1), (12, 2)), K=3)
OUTLIER_CFG = pcut.PCutConfig(K=3, task="ssl", lambda_grid=(1.0, 0.0), k_grid=(3,),
                              sigma_exponents=tuple(range(0, -8, -1)))


class TestSelectionAndWeighting:
    @pytest.mark.parametrize("instance", (0, 1))
    def test_engine_graphs_equal_rmd_similarity_graph(self, instance):
        # exponents -9..3 reach sigmas at which RBF weights underflow
        [(data, labels)], cfg = crescents_ssl(instance)
        cfg = dataclasses.replace(cfg, lambda_grid=(0.0, 1.0),
                                  sigma_exponents=tuple(range(-9, 4)))
        points, graphs = engine_graphs(data, cfg, labels)
        f = as_features(data)
        ranks = rank(eta_similarity(f, baseline_graph(f, "construction")))
        dropped = 0
        for (lam, k, sigma), g in zip(points, graphs):
            want = rmd_similarity_graph(f, ranks, lam, k, weights="rbf", sigma=sigma)
            assert edge_bytes(g) == edge_bytes(want)
            dropped += g.m < rmd_similarity_edges(f, ranks, lam, k)[0].size
        assert dropped > 0

    def test_underflowing_edges_drop(self):
        f = as_features(OUTLIER_X)
        ranks = np.full(f.n, 0.5)
        u, v, dist = rmd_similarity_edges(f, ranks, 1.0, 3)
        kept = [rmd_similarity_graph(f, ranks, 1.0, 3, "rbf", s).m
                for s in (1.0, 0.5, 0.05)]
        # at 0.5 the outlier's three edges (25 to 27 long) drop, at 0.05 the
        # edges 2 and 3 long too
        assert kept == [u.size, u.size - 3, np.count_nonzero(dist < 2)]

    def test_one_selection_per_lambda_and_k(self, monkeypatch):
        [(data, labels)], cfg = crescents_ssl(0)
        calls = []

        def counting(*args):
            calls.append(args[2:])
            return rmd_similarity_edges(*args)

        monkeypatch.setattr(engine, "rmd_similarity_edges", counting)
        points, graphs = engine_graphs(data, cfg, labels)
        assert len(points) == 72
        assert calls == list(itertools.product(cfg.lambdas(), (10, 30)))


class TestSharedPatterns:
    def test_scores_bit_identical_across_pattern_changes(self):
        points, graphs = engine_graphs(OUTLIER_X, OUTLIER_CFG, OUTLIER_LABELS)
        assert pattern_count(graphs, points) == 9
        built, shared = [], []

        class Recording(counting_pattern(built)):
            def scores(self, g):
                shared.append(super().scores(g))
                return shared[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "HarmonicPattern", Recording)
            pcut.generate_candidates(OUTLIER_X, OUTLIER_CFG, OUTLIER_LABELS)
        assert len(built) == 9
        assert len(shared) == len(graphs) == 16
        for g, got in zip(graphs, shared):
            # grf_scores builds a pattern for g alone
            assert got.tobytes() == grf_scores(g, OUTLIER_LABELS).tobytes()
            want = reference_propagation.grf_scores(g, OUTLIER_LABELS)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=SCORE_TOL)
            assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    def test_grf_scores_builds_a_pattern_per_call(self, monkeypatch):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)])
        labels = LabelSet(((0, 0), (3, 1)), K=2)
        built = []
        monkeypatch.setattr(propagation, "HarmonicPattern", counting_pattern(built))
        grf_scores(g, labels)
        grf_scores(g, labels)
        assert len(built) == 2

    def test_labels_are_part_of_the_pattern(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)])
        a = propagation.HarmonicPattern(g, LabelSet(((0, 0), (3, 1)), K=2))
        b = propagation.HarmonicPattern(g, LabelSet(((0, 1), (3, 0)), K=2))
        assert a.fits(g) and b.fits(g)
        assert np.array_equal(a.scores(g), b.scores(g)[:, ::-1])

    def test_stranded_component_raises_at_every_sigma(self, monkeypatch):
        labels = LabelSet(((0, 0), (1, 1)), K=2)
        checks = []
        components = propagation.connected_components
        monkeypatch.setattr(propagation, "connected_components",
                            lambda g: checks.append(1) or components(g))

        def build(params_list):
            return (WeightedGraph(4, [(0, 1, w), (2, 3, w)]) for _, _, w in params_list)

        chunk = list(enumerate((0.0, 1, w) for w in (1.0, 0.5, 0.25)))
        out = engine._ssl_chunk(chunk, build, labels)
        assert checks == [1]
        assert all(isinstance(skip, ConstraintError) for _, _, skip in out)
        assert [str(skip) for _, _, skip in out] == [
            "connected component 1 (size 2, nodes [2, 3]) has no labeled node"] * 3

    @pytest.mark.parametrize("workers", (1, 2))
    def test_one_component_check_per_edge_pattern(self, workers, monkeypatch):
        [(data, labels)], cfg = crescents_ssl(0)
        cfg = dataclasses.replace(cfg, workers=workers)
        points, graphs = engine_graphs(data, cfg, labels)
        checks = []
        components = propagation.connected_components
        monkeypatch.setattr(propagation, "connected_components",
                            lambda g: checks.append(1) or components(g))
        pcut.generate_candidates(data, cfg, labels)
        assert len(checks) == pattern_count(graphs, points) == 12

    @pytest.mark.parametrize("workers", (1, 2))
    def test_one_band_ordering_per_edge_pattern(self, workers, monkeypatch):
        [(data, labels)], cfg = crescents_ssl(0)
        cfg = dataclasses.replace(cfg, workers=workers)
        orderings = []
        rcm = scipy.sparse.csgraph.reverse_cuthill_mckee
        monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee",
                            lambda *a, **kw: orderings.append(1) or rcm(*a, **kw))
        candidates = pcut.generate_candidates(data, cfg, labels)
        assert len(candidates) == 72
        assert len(orderings) == 12


# -- whole runs against the per-point loop -----------------------------------


def reference_candidates(data, cfg, labels, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_run_grid", reference_engine._run_grid)
        return candidate_bytes(pcut.generate_candidates(data, cfg, labels))


@pytest.mark.parametrize("workers", (1, 2))
def test_outlier_run_matches_per_point_loop(workers, monkeypatch):
    cfg = dataclasses.replace(OUTLIER_CFG, workers=workers)
    new = candidate_bytes(pcut.generate_candidates(OUTLIER_X, cfg, OUTLIER_LABELS))
    assert len(new) == 16
    assert new == reference_candidates(OUTLIER_X, cfg, OUTLIER_LABELS, monkeypatch)


# under one BLAS thread instances 1 and 2 hold NumericError skips at
# exponent -3, and instances 1-3 ConstraintError skips; exponents down to -9
# change edge patterns inside sigma runs
@pytest.mark.slow
@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("instance, exponents", [
    *((i, tuple(range(-3, 4))) for i in range(4)),
    (0, tuple(range(-9, 1))),
])
def test_crescent_runs_match_per_point_loop(instance, exponents, workers, monkeypatch):
    [(data, labels)], cfg = crescents_ssl(instance)
    cfg = dataclasses.replace(cfg, sigma_exponents=exponents, workers=workers)
    new = candidate_bytes(pcut.generate_candidates(data, cfg, labels))
    assert new == reference_candidates(data, cfg, labels, monkeypatch)
