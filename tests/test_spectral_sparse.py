"""Parity of the Lanczos path and the O(m) sweep with the dense reference.

The reference functions below are the dense implementations that
normalized_bundle and sweep_from_bundle replaced: the positive-degree
subgraph rebuilt as a WeightedGraph, its dense L_sym through eigh, and
prefix cuts from the reordered dense weight matrix.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import pcut
from pcut import spectral
from pcut.errors import NumericError
from pcut.construction import as_features, avg_knn_distance, baseline_graph
from pcut.experiments import load_bundled_network
from pcut.graph import Partition, WeightedGraph, connected_components, cut_value
from pcut.ranking import eta_similarity, rank
from pcut.rmd import rmd_similarity_graph
from pcut.spectral import (SPARSE_MIN_NODES, _active_edges, _embedding_rows,
                           kmeans, laplacian, lanczos_eigenvectors,
                           normalized_adjacency, normalized_bundle,
                           smallest_eigenvectors, sweep_from_bundle)


def reference_bundle(g, K):
    deg = g.degrees()
    active = np.flatnonzero(deg > 0)
    if active.size < 2:
        return None
    sub = g.subgraph(active)
    keff = min(max(K, 4), sub.n)
    vecs, vals = smallest_eigenvectors(laplacian(sub, "ncut_normalized"), keff)
    return {"active": active, "sub": sub, "deg": sub.degrees(),
            "vecs": vecs, "vals": vals}


def reference_sweep(bundle, n, min_side):
    if bundle is None:
        return None
    vals = bundle["vals"]
    nontrivial = next((j for j in range(len(vals)) if vals[j] > 1e-8), None)
    if nontrivial is None:
        return None
    sub = bundle["sub"]
    w = sub.weight_matrix()
    d = bundle["deg"]
    order = np.argsort(bundle["vecs"][:, nontrivial] / np.sqrt(d), kind="stable")
    internal = np.tril(w[order][:, order], -1).sum(axis=1)
    cuts = np.cumsum(d[order] - 2.0 * internal)
    sizes0 = np.arange(1, sub.n + 1)
    ok = (sizes0 > min_side) & (n - sizes0 > min_side)
    ok[-1] = False
    if not ok.any():
        return None
    best = int(np.where(ok, cuts, np.inf).argmin())
    labels = np.ones(n, dtype=np.int64)
    labels[bundle["active"][order[:best + 1]]] = 0
    return Partition(assignment=labels, K=2)


def block_model(n=800, seed=3):
    g, _ = pcut.sbm_generate(pcut.SbmSpec(n=n, alpha=0.1, p1=0.1, q=0.01,
                                          equalize_degrees=True, seed=seed))
    return g


@pytest.fixture(scope="module")
def graphs():
    return {"karate": load_bundled_network("karate")[0],
            "dolphins": load_bundled_network("dolphins")[0],
            "sbm800": block_model()}


@pytest.fixture
def lanczos_calls(monkeypatch):
    calls = []
    real = spectral.lanczos_eigenvectors

    def spy(a, K):
        vecs, vals = real(a, K)
        calls.append((a.shape[0], vecs))
        return vecs, vals

    monkeypatch.setattr(spectral, "lanczos_eigenvectors", spy)
    return calls


def assert_bit_identical(bundle, ref):
    for key in ("active", "deg", "vecs", "vals"):
        assert np.array_equal(bundle[key], ref[key]), key


NAMES = ("karate", "dolphins", "sbm800")


@pytest.mark.parametrize("name", NAMES)
def test_lanczos_eigenpairs_match_dense(graphs, name):
    g = graphs[name]
    assert connected_components(g).K == 1
    active, deg, u, v, w = _active_edges(g)
    vecs, vals = lanczos_eigenvectors(
        normalized_adjacency(active.size, u, v, w, deg), 4)
    ref = reference_bundle(g, 4)
    assert np.abs(vals - ref["vals"]).max() <= 1e-10
    assert np.abs(vecs - ref["vecs"]).max() <= 1e-8


def assert_partitions_match(g, bundle, ref):
    """ncut_rw k-means and sweep partitions of two bundles are identical."""
    for seed in range(3):
        ours = kmeans(_embedding_rows(bundle, 2, "ncut_rw", g.n), 2, seed=seed)
        theirs = kmeans(_embedding_rows(ref, 2, "ncut_rw", g.n), 2, seed=seed)
        assert np.array_equal(ours.assignment, theirs.assignment)
    for frac in (0.05, 0.1, 0.2):
        ours = sweep_from_bundle(bundle, g.n, frac * g.n)
        theirs = reference_sweep(ref, g.n, frac * g.n)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert np.array_equal(ours.assignment, theirs.assignment)


@pytest.mark.parametrize("name", NAMES)
def test_lanczos_partitions_identical(graphs, name, monkeypatch, lanczos_calls):
    g = graphs[name]
    monkeypatch.setattr(spectral, "SPARSE_MIN_NODES", 0)
    bundle = normalized_bundle(g, 2)
    [(rows, vecs)] = lanczos_calls
    assert rows == g.n and bundle["vecs"] is vecs
    assert_partitions_match(g, bundle, reference_bundle(g, 2))


@pytest.fixture(scope="module")
def crescent_grid():
    """The engine's k-NN RBF grid graphs on 600 crescent points."""
    cache = {}

    def build(seed, lam, k, j):
        if seed not in cache:
            f = as_features(pcut.crescent_dataset(seed=seed, n=600, noise=0.08)[0])
            cache[seed] = f, rank(eta_similarity(f, baseline_graph(f, "construction")))
        f, ranks = cache[seed]
        sigma = 2.0 ** j * avg_knn_distance(f, k)
        return rmd_similarity_graph(f, ranks, lam, k, weights="rbf", sigma=sigma)

    return build


@pytest.mark.parametrize("seed, lam, k, j", [
    (0, 0.6, 30, -1), (0, 0.8, 30, 0), (0, 1.0, 30, 2), (0, 0.6, 30, 3),
    (2, 1.0, 10, 3)])
def test_lanczos_partitions_identical_on_knn_rbf(crescent_grid, seed, lam, k, j,
                                                 lanczos_calls):
    g = crescent_grid(seed, lam, k, j)
    bundle = normalized_bundle(g, 2)
    [(rows, vecs)] = lanczos_calls
    assert rows > SPARSE_MIN_NODES and bundle["vecs"] is vecs
    ref = reference_bundle(g, 2)
    assert np.abs(bundle["vals"] - ref["vals"]).max() <= 1e-10
    assert_partitions_match(g, bundle, ref)


def test_nearly_disconnected_graph_takes_dense_path(crescent_grid):
    # at a small bandwidth the RBF weights between the crescents underflow
    # to about 1e-16, so the two smallest eigenvalues nearly coincide
    g = crescent_grid(0, 1.0, 30, -3)
    active, deg, u, v, w = _active_edges(g)
    a = normalized_adjacency(active.size, u, v, w, deg)
    assert active.size > SPARSE_MIN_NODES
    assert spectral._csgraph_components(a, directed=False, return_labels=False) == 1
    with pytest.raises(NumericError, match="converge"):
        lanczos_eigenvectors(a, 4)
    assert_bit_identical(normalized_bundle(g, 2), reference_bundle(g, 2))


def test_three_clusters_take_dense_path(graphs, lanczos_calls):
    g = graphs["sbm800"]
    assert_bit_identical(normalized_bundle(g, 3), reference_bundle(g, 3))
    assert lanczos_calls == []


def test_lanczos_is_deterministic(graphs):
    active, deg, u, v, w = _active_edges(graphs["sbm800"])
    a = normalized_adjacency(active.size, u, v, w, deg)
    first = lanczos_eigenvectors(a, 4)
    second = lanczos_eigenvectors(a, 4)
    assert all(np.array_equal(x, y) for x, y in zip(first, second))


def rbf_graph(k, j):
    # RBF weights on an isolated node plus two crescents; below the cutoff
    x = pcut.crescent_dataset(seed=0, n=200, noise=0.08)[0]
    g = pcut.knn_graph(x, k, weights="rbf", sigma=2.0 ** j * avg_knn_distance(x, k))
    u, v, w = g.edge_arrays()
    return WeightedGraph(g.n + 1, zip(u, v, w))


@pytest.mark.parametrize("make", [
    lambda gs: gs["karate"], lambda gs: gs["dolphins"],
    *(lambda gs, k=k, j=j: rbf_graph(k, j) for k in (8, 30) for j in (-3, -1, 0, 2))])
def test_below_cutoff_bit_identical(graphs, make, lanczos_calls):
    g = make(graphs)
    assert g.n <= SPARSE_MIN_NODES
    bundle = normalized_bundle(g, 2)
    ref = reference_bundle(g, 2)
    assert lanczos_calls == []
    assert_bit_identical(bundle, ref)
    w = g.edge_arrays()[2]
    for frac in (0.05, 0.1, 0.2):
        ours = sweep_from_bundle(bundle, g.n, frac * g.n)
        theirs = reference_sweep(ref, g.n, frac * g.n)
        assert (ours is None) == (theirs is None)
        if ours is None:
            continue
        if np.all(w == 1.0):
            assert np.array_equal(ours.assignment, theirs.assignment)
        else:
            # prefix cuts add the weights in another order, so among cuts
            # tied to rounding either prefix may win
            assert abs(cut_value(g, ours) - cut_value(g, theirs)) <= 1e-12 * w.sum()


def test_disconnected_active_subgraph_takes_dense_path(lanczos_calls):
    a, b = block_model(300, seed=1), block_model(300, seed=2)
    ua, va, wa = a.edge_arrays()
    ub, vb, wb = b.edge_arrays()
    g = WeightedGraph(602, list(zip(ua, va, wa)) + list(zip(ub + 301, vb + 301, wb)))
    bundle = normalized_bundle(g, 2)
    assert bundle["active"].size > SPARSE_MIN_NODES
    assert lanczos_calls == []
    assert_bit_identical(bundle, reference_bundle(g, 2))


def test_residual_failure_takes_dense_path(graphs, monkeypatch):
    g = graphs["sbm800"]
    real = spectral.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        return vals, vecs + 1e-6

    monkeypatch.setattr(spectral, "eigsh", perturbed)
    active, deg, u, v, w = _active_edges(g)
    with pytest.raises(NumericError, match="residual"):
        lanczos_eigenvectors(normalized_adjacency(active.size, u, v, w, deg), 4)
    assert_bit_identical(normalized_bundle(g, 2), reference_bundle(g, 2))


def test_no_convergence_takes_dense_path(graphs, monkeypatch):
    g = graphs["sbm800"]

    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((g.n, 0)))

    monkeypatch.setattr(spectral, "eigsh", stalled)
    assert_bit_identical(normalized_bundle(g, 2), reference_bundle(g, 2))
