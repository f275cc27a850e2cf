"""Parity of the sparse harmonic solve with the dense Cholesky it replaced.

`reference_grf_scores` is the replaced grf_scores, kept verbatim apart from
its name: the dense n x n weight matrix and a dense Cholesky of L_uu at
every call. The banded Cholesky in reverse Cuthill-McKee order gives other
bits, so scores are compared to SCORE_TOL; argmax labels and the exceptions
raised (the grid points the engine skips) must be identical.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import pcut
from pcut import engine, propagation
from pcut.construction import avg_knn_distance, baseline_graph
from pcut.errors import ConstraintError, InputError, NumericError
from pcut.graph import Partition, WeightedGraph, connected_components
from pcut.propagation import LabelSet, grf_scores
from pcut.ranking import eta_similarity, rank
from pcut.rmd import rmd_similarity_graph
from pcut.synth import stream

from benchmark_instances import candidate_bytes, crescents_ssl
from reference_propagation import SCORE_TOL


# -- reference -------------------------------------------------------------


def reference_grf_scores(g: WeightedGraph, labels: LabelSet) -> np.ndarray:
    """Per-node class scores; labeled rows are one-hot."""
    nodes = labels.nodes()
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
        raise InputError("labeled node id outside the graph")
    comps = connected_components(g)
    labeled_comps = set(comps.assignment[nodes].tolist())
    for comp in range(comps.K):
        if comp not in labeled_comps:
            members = np.flatnonzero(comps.assignment == comp)
            shown = ", ".join(map(str, members[:10].tolist()))
            if members.size > 10:
                shown += ", ..."
            raise ConstraintError(
                f"connected component {comp} (size {members.size}, nodes [{shown}]) "
                "has no labeled node")
    w = g.weight_matrix()
    deg = w.sum(axis=1)
    scores = np.zeros((g.n, labels.K))
    scores[nodes, labels.classes()] = 1.0
    unlabeled = np.setdiff1d(np.arange(g.n), nodes)
    if unlabeled.size:
        l_uu = -w[np.ix_(unlabeled, unlabeled)]
        np.fill_diagonal(l_uu, deg[unlabeled])
        w_ul = w[np.ix_(unlabeled, nodes)]
        rhs = w_ul @ scores[nodes]
        try:
            factor = cho_factor(l_uu)
            scores[unlabeled] = cho_solve(factor, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"harmonic system is singular: {exc}") from exc
    return scores


def reference_grf_propagate(g: WeightedGraph, labels: LabelSet) -> Partition:
    """grf_propagate on the reference scores."""
    scores = reference_grf_scores(g, labels)
    assignment = scores.argmax(axis=1)
    assignment[labels.nodes()] = labels.classes()
    return Partition(assignment=assignment, K=labels.K)


# -- helpers ---------------------------------------------------------------


def outcome(fn, g, labels):
    """Scores, or the exception type raised."""
    try:
        return fn(g, labels)
    except (ConstraintError, NumericError, InputError) as exc:
        return type(exc)


def assert_same_outcome(g, labels):
    """Same exception, or scores within SCORE_TOL and the same argmax.

    Returns True when both succeeded.
    """
    ref = outcome(reference_grf_scores, g, labels)
    new = outcome(grf_scores, g, labels)
    if isinstance(ref, type) or isinstance(new, type):
        assert new is ref
        return False
    np.testing.assert_allclose(new, ref, rtol=0.0, atol=SCORE_TOL)
    assert np.array_equal(new.argmax(axis=1), ref.argmax(axis=1))
    return True


def count_dense_calls(mp):
    """Patch propagation's dense solve to count its calls."""
    calls = []
    dense = propagation._dense_harmonic

    def spy(*args):
        calls.append(1)
        return dense(*args)

    mp.setattr(propagation, "_dense_harmonic", spy)
    return calls


# -- small graphs ----------------------------------------------------------


@st.composite
def labelled_graphs(draw):
    """Graphs with isolated nodes, stranded components and wide weights."""
    n = draw(st.integers(2, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    pairs = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    weights = draw(st.lists(
        st.sampled_from([1.0, 2.0, 0.5]) | st.floats(1e-3, 1e3),
        min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
    K = draw(st.integers(2, min(3, n)))
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=K, max_size=n,
                          unique=True))
    classes = list(range(K)) + draw(st.lists(st.integers(0, K - 1),
                                             min_size=len(nodes) - K,
                                             max_size=len(nodes) - K))
    return g, LabelSet(labeled=tuple(zip(nodes, classes)), K=K)


@pytest.mark.parametrize("scale", (0.1, 1.0))
@settings(max_examples=300, deadline=None)
@given(case=labelled_graphs())
def test_small_graphs_match_reference(scale, case):
    # harmonic scores do not change under a common weight scale, and the
    # pivot gate is a ratio of pivots, so a scaled graph must match too
    g, labels = case
    u, v, w = g.edge_arrays()
    assert_same_outcome(WeightedGraph.from_arrays(g.n, u, v, scale * w), labels)


@pytest.mark.parametrize("tie", (1e-12, 1e-80))
def test_ill_conditioned_system_goes_dense(tie):
    # nodes 2 and 3 reach the labels only by weight `tie`. At 1e-12 the
    # banded Cholesky factors L_uu with a smallest pivot near 1e-12 and the
    # pivot gate sends it to the dense path; at 1e-80 the banded Cholesky
    # finds L_uu not positive definite and dense Cholesky raises, as before
    g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, tie), (2, 3, 1.0), (3, 4, tie),
                          (4, 5, 1.0)])
    labels = LabelSet(labeled=((0, 0), (5, 1)), K=2)
    with pytest.MonkeyPatch.context() as mp:
        calls = count_dense_calls(mp)
        new = outcome(grf_scores, g, labels)
    assert calls == [1]
    ref = outcome(reference_grf_scores, g, labels)
    if tie == 1e-80:
        assert new is ref is NumericError
    else:
        assert new.tobytes() == ref.tobytes()


# -- crescent grids ----------------------------------------------------------


def crescent_points(instance, n=600, k_max=30):
    """(features, labels, ranks) as in the crescents-ssl benchmark instances,
    with a neighbour table wide enough for k up to k_max."""
    f, truth = pcut.crescent_dataset(n=n, noise=0.08, seed=instance)
    rng = stream(instance, "perfbench-ssl-seeds")
    seeds = []
    for c in range(3):
        seeds += [(int(v), c) for v in
                  rng.choice(np.flatnonzero(truth == c), 5, replace=False)]
    f.neighbors(min(2 * k_max, n - 1))  # the widest search: modulated_k <= 2k
    ranks = rank(eta_similarity(f, baseline_graph(f, "construction")))
    return f, LabelSet(tuple(sorted(seeds)), K=3), ranks


# under one BLAS thread dense Cholesky fails on instance 1 at lambda 0.6,
# k = 10, sigma exponent -3, so the skip set holds a NumericError point
@pytest.mark.parametrize("instance", (0, 1, 2))
def test_crescent_grid_matches_reference(instance):
    f, labels, ranks = crescent_points(instance)
    solved, dense = 0, []
    for lam, k, j in itertools.product((0.0, 0.6, 1.0), (10, 30), range(-3, 4)):
        g = rmd_similarity_graph(f, ranks, lam, k, weights="rbf",
                                 sigma=2.0 ** j * avg_knn_distance(f, k))
        with pytest.MonkeyPatch.context() as mp:
            calls = count_dense_calls(mp)
            ok = assert_same_outcome(g, labels)
        solved += ok
        if ok and calls:
            dense.append(j)
    # the banded path carries the grid; only the smallest bandwidths fall back
    assert solved - len(dense) >= 30
    assert set(dense) <= {-3, -2}


# the density cutoff of the replaced solver sent these graphs dense; the
# banded path solves every one of them
@pytest.mark.parametrize("n", (300, 600))
def test_dense_graphs_match_reference(n):
    f, labels, ranks = crescent_points(0, n, k_max=150)
    nu = n - len(labels.labeled)
    solved = 0
    for lam, k, j in itertools.product((0.0, 0.6, 1.0), (60, 100, 150), range(-3, 4)):
        g = rmd_similarity_graph(f, ranks, lam, k, weights="rbf",
                                 sigma=2.0 ** j * avg_knn_distance(f, k))
        u, v, _ = g.edge_arrays()
        m_uu = np.count_nonzero(~np.isin(u, labels.nodes()) & ~np.isin(v, labels.nodes()))
        assert 2 * m_uu > 0.1 * nu * nu  # the old cutoff
        with pytest.MonkeyPatch.context() as mp:
            calls = count_dense_calls(mp)
            solved += assert_same_outcome(g, labels)
        assert calls == []
    assert solved == 63


def test_sparse_path_allocates_no_n_by_n_array(monkeypatch):
    f, labels, ranks = crescent_points(0)
    g = rmd_similarity_graph(f, ranks, 0.6, 30, weights="rbf",
                             sigma=avg_knn_distance(f, 30))
    g.degrees()

    def no_dense_weights(self):
        raise AssertionError("the banded path built the dense weight matrix")

    monkeypatch.setattr(WeightedGraph, "weight_matrix", no_dense_weights)
    tracemalloc.start()
    try:
        grf_scores(g, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x n float64 array alone would reach 8 n^2 bytes
    assert peak < 8 * g.n * g.n


# -- whole runs ----------------------------------------------------------------


@pytest.mark.slow
def test_generate_candidates_byte_identical(monkeypatch):
    [(data, labels)], cfg = crescents_ssl()
    cfg = dataclasses.replace(cfg, sigma_exponents=tuple(range(-3, 4)))
    new = candidate_bytes(pcut.generate_candidates(data, cfg, labels))

    class ReferencePattern:
        """Stands in for engine.HarmonicPattern: each grid point is solved
        alone by the reference."""

        def __init__(self, g, labels):
            self.labels = labels

        def fits(self, g):
            return False

        def propagate(self, g):
            return reference_grf_propagate(g, self.labels)

    monkeypatch.setattr(engine, "HarmonicPattern", ReferencePattern)
    old = candidate_bytes(pcut.generate_candidates(data, cfg, labels))
    assert new == old
