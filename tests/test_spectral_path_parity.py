"""Parity of the single spectral path with the two paths it replaced.

Every variant takes its eigenvectors from spectral_bundle. The references
below are the code that came before: normalized_bundle (Lanczos for K = 2
only), spectral_embedding with its own dense solve for
"rcut_unnormalized", and the engine loop that sent that variant through
spectral_clustering, run through the per-grid-point loop of
reference_engine.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import pcut
from pcut import engine, spectral
from pcut.construction import as_features, avg_knn_distance, baseline_graph
from pcut.errors import ConstraintError, NumericError, ParameterError
from pcut.experiments import load_bundled_network
from pcut.graph import WeightedGraph
from pcut.propagation import grf_propagate
from pcut.ranking import eta_similarity, rank
from pcut.rmd import rmd_similarity_graph
from pcut.spectral import (SPARSE_MIN_NODES, VARIANTS, SpectralConfig,
                           _active_edges, _dense_weights, _embedding_rows,
                           _laplacian, kmeans, lanczos_eigenvectors,
                           normalized_adjacency, normalized_bundle,
                           smallest_eigenvectors, spectral_clustering,
                           spectral_embedding, sweep_from_bundle)

import reference_engine
from benchmark_instances import candidate_bytes


def reference_normalized_bundle(g, K):
    active, deg, u, v, w = _active_edges(g)
    n = active.size
    if n < 2:
        return None
    keff = min(max(K, 4), n)
    vecs = None
    if K == 2 and n > SPARSE_MIN_NODES:
        a = normalized_adjacency(n, u, v, w, deg)
        if spectral._csgraph_components(a, directed=False, return_labels=False) == 1:
            try:
                vecs, vals = spectral.lanczos_eigenvectors(a, keff)
            except NumericError:
                pass  # the dense path below decides
    if vecs is None:
        lap = _laplacian(_dense_weights(n, u, v, w), "ncut_normalized")
        vecs, vals = smallest_eigenvectors(lap, keff)
    return {"active": active, "deg": deg, "edges": (u, v, w),
            "vecs": vecs, "vals": vals}


def reference_spectral_embedding(g, K, variant):
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}")
    if variant in ("ncut_normalized", "ncut_rw"):
        return _embedding_rows(reference_normalized_bundle(g, K), K, variant, g.n)
    active, _, u, v, w = _active_edges(g)
    out = np.zeros((g.n, K))
    if active.size == 0:
        return out
    keff = min(K, active.size)
    lap = _laplacian(_dense_weights(active.size, u, v, w), variant)
    vecs, _ = smallest_eigenvectors(lap, keff)
    out[active, :keff] = vecs
    return out


def reference_partitions_for_graph(graph, cfg, labels, cand_seed, min_side):
    out = []
    if cfg.task == "ssl":
        try:
            out.append(("grf", grf_propagate(graph, labels)))
        except (ConstraintError, NumericError):
            pass
        return out
    flavors = [("sc", cfg.variant)]
    for extra in cfg.extra_variants:
        if extra != cfg.variant:
            flavors.append(("sc_alt", extra))
    needs_bundle = (cfg.sweep_cuts and cfg.K == 2) or any(
        v in ("ncut_normalized", "ncut_rw") for _, v in flavors)
    bundle = reference_normalized_bundle(graph, cfg.K) if needs_bundle else None
    for gen, variant in flavors:
        if variant in ("ncut_normalized", "ncut_rw"):
            points = _embedding_rows(bundle, cfg.K, variant, graph.n)
            part = kmeans(points, cfg.K, restarts=cfg.kmeans_restarts,
                          max_iters=cfg.kmeans_max_iters, seed=cand_seed)
        else:
            sc = SpectralConfig(K=cfg.K, variant=variant,
                                kmeans_restarts=cfg.kmeans_restarts,
                                kmeans_max_iters=cfg.kmeans_max_iters,
                                seed=cand_seed)
            part = spectral_clustering(graph, sc)
        out.append((gen, part))
    if cfg.sweep_cuts and cfg.K == 2:
        swept = sweep_from_bundle(bundle, graph.n, min_side)
        if swept is not None:
            out.append(("sweep", swept))
    return out


def block_model(n=800, seed=3):
    g, _ = pcut.sbm_generate(pcut.SbmSpec(n=n, alpha=0.1, p1=0.1, q=0.01,
                                          equalize_degrees=True, seed=seed))
    return g


def crescent_rbf(n, k, j, isolated=0):
    """k-NN RBF graph on crescents, followed by `isolated` edgeless nodes."""
    x = pcut.crescent_dataset(seed=0, n=n, noise=0.08)[0]
    g = pcut.knn_graph(x, k, weights="rbf", sigma=2.0 ** j * avg_knn_distance(x, k))
    return WeightedGraph.from_arrays(g.n + isolated, *g.edge_arrays())


def side_by_side(a, b):
    ua, va, wa = a.edge_arrays()
    ub, vb, wb = b.edge_arrays()
    return WeightedGraph.from_arrays(a.n + b.n, np.concatenate([ua, ub + a.n]),
                                     np.concatenate([va, vb + a.n]),
                                     np.concatenate([wa, wb]))


@pytest.fixture(scope="module")
def graphs():
    karate = load_bundled_network("karate")[0]
    return {
        "karate": karate,
        "dolphins": load_bundled_network("dolphins")[0],
        "sbm800": block_model(),
        "rbf-k8-j-3-isolated": crescent_rbf(200, 8, -3, isolated=1),
        "rbf-k30-j0-isolated": crescent_rbf(200, 30, 0, isolated=3),
        "rbf-k30-j2": crescent_rbf(200, 30, 2),
        "two-block-models": side_by_side(block_model(300, seed=1),
                                         block_model(300, seed=2)),
        "karate-and-rbf": side_by_side(karate, crescent_rbf(200, 8, 0, isolated=2)),
        "edgeless": WeightedGraph(5, []),
    }


@pytest.fixture
def lanczos_calls(monkeypatch):
    calls = []
    real = spectral.lanczos_eigenvectors

    def spy(a, K):
        calls.append(a.shape[0])
        return real(a, K)

    monkeypatch.setattr(spectral, "lanczos_eigenvectors", spy)
    return calls


RCUT_GRAPHS = ("karate", "dolphins", "sbm800", "rbf-k8-j-3-isolated",
               "rbf-k30-j0-isolated", "rbf-k30-j2", "two-block-models",
               "karate-and-rbf", "edgeless")


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("name", RCUT_GRAPHS)
def test_rcut_embedding_byte_identical(graphs, name, K, lanczos_calls):
    g = graphs[name]
    ours = spectral_embedding(g, K, "rcut_unnormalized")
    assert ours.tobytes() == reference_spectral_embedding(g, K, "rcut_unnormalized").tobytes()
    assert lanczos_calls == []


def crescent_grid_graph(instance, lam, k, j):
    """The engine's rank-modulated k-NN RBF graph on 600 crescent points."""
    f = as_features(pcut.crescent_dataset(n=600, noise=0.08, seed=instance)[0])
    ranks = rank(eta_similarity(f, baseline_graph(f, "construction")))
    sigma = 2.0 ** j * avg_knn_distance(f, k)
    return rmd_similarity_graph(f, ranks, lam, k, weights="rbf", sigma=sigma)


def test_lanczos_misses_a_repeated_eigenvalue(lanczos_calls):
    # the grid point whose K = 3 and K = 4 candidates change when Lanczos
    # runs for K >= 3: the graph is connected, but RBF weights near 1e-16
    # give L_sym two eigenvalues that coincide to rounding
    g = crescent_grid_graph(3, 0.2, 30, -2)
    active, deg, u, v, w = _active_edges(g)
    a = normalized_adjacency(active.size, u, v, w, deg)
    assert spectral._csgraph_components(a, directed=False, return_labels=False) == 1
    ref = reference_normalized_bundle(g, 3)
    assert np.abs(ref["vals"][:2]).max() < 1e-15
    # Lanczos returns one copy and the next eigenpair, within the residual check
    vals = lanczos_eigenvectors(a, 4)[1]
    assert abs(vals[0]) < 1e-13 and vals[1] > 1e-10
    lanczos_calls.clear()
    for K in (3, 4):
        bundle = normalized_bundle(g, K)
        for key in ("active", "deg", "vecs", "vals"):
            assert np.array_equal(bundle[key], ref[key]), key
    assert lanczos_calls == []


def test_import_leaves_out_scipy_integrate():
    src = os.path.dirname(os.path.dirname(pcut.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, pcut; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def crescent_grid(K, instance):
    f, _ = pcut.crescent_dataset(n=600, noise=0.08, seed=instance)
    cfg = pcut.PCutConfig(K=K, modality="similarity", delta=0.05, k_grid=(10, 30),
                          sigma_exponents=tuple(range(-3, 4)), variant="ncut_rw",
                          extra_variants=("ncut_normalized",))
    return f.x, cfg


def rcut_network(name, K):
    g, _ = load_bundled_network(name)
    cfg = pcut.PCutConfig(K=K, modality="connectivity", delta=0.05, sweep_cuts=True,
                          variant="rcut_unnormalized",
                          extra_variants=("ncut_rw", "ncut_normalized"))
    return g, cfg


CASES = {
    **{f"crescents-K{K}-{i}": (crescent_grid, K, i) for K in (3, 4) for i in range(4)},
    **{f"{name}-rcut-K{K}": (rcut_network, name, K)
       for name in ("karate", "dolphins") for K in (2, 3)},
}


@pytest.mark.slow
@pytest.mark.parametrize("case", CASES)
def test_generate_candidates_byte_identical(case, monkeypatch):
    build, *args = CASES[case]
    data, cfg = build(*args)
    new = candidate_bytes(pcut.generate_candidates(data, cfg))
    monkeypatch.setattr(reference_engine, "_partitions_for_graph",
                        reference_partitions_for_graph)
    monkeypatch.setattr(engine, "_run_grid", reference_engine._run_grid)
    monkeypatch.setattr(spectral, "spectral_embedding", reference_spectral_embedding)
    old = candidate_bytes(pcut.generate_candidates(data, cfg))
    assert new == old
