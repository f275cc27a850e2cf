"""Parity of the array graph core with the per-edge code it replaced.

The reference functions below are the replaced implementations, kept
verbatim apart from their names: the per-edge WeightedGraph validation
loop, the set-based k-NN selection with scalar RBF weights over the full
distance matrix, the dense common-neighbor counts, and the per-node marking
loop of rmd_connectivity_graph. Every comparison is byte for byte.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcut
from pcut import engine
from pcut.construction import (as_features, avg_knn_distance, baseline_graph,
                               construction_k0, knn_graph, rbf_weight,
                               selection_k0)
from pcut.errors import InputError, ParameterError
from pcut.experiments import load_bundled_network
from pcut.graph import WeightedGraph
from pcut.ranking import (common_neighbor_counts, eta_connectivity,
                          eta_similarity, rank)
from pcut.rmd import rmd_connectivity_graph, rmd_similarity_graph

from benchmark_instances import (candidate_bytes, crescents_ssl, dolphins_small,
                                 sbm_net)
from graph_builders import adjacency, pairwise_distances


# -- references ------------------------------------------------------------


def reference_edge_arrays(n, edges):
    """The per-edge WeightedGraph constructor; returns its (u, v, w)."""
    if n < 1:
        raise InputError(f"node count must be >= 1, got {n}")
    us, vs, ws = [], [], []
    seen = set()
    for item in edges:
        if len(item) == 2:
            u, v = item
            w = 1.0
        else:
            u, v, w = item
        u, v = int(u), int(v)
        if u == v:
            raise InputError(f"self-loop on node {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) outside node range [0,{n})")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise InputError(f"duplicate edge ({u},{v})")
        w = float(w)
        if not np.isfinite(w) or w <= 0.0:
            raise InputError(f"edge ({u},{v}) has weight {w}; "
                             "weights must be finite and positive")
        seen.add((u, v))
        us.append(u)
        vs.append(v)
        ws.append(w)
    order = np.lexsort((np.asarray(vs, dtype=np.int64),
                        np.asarray(us, dtype=np.int64)))
    return (np.asarray(us, dtype=np.int64)[order],
            np.asarray(vs, dtype=np.int64)[order],
            np.asarray(ws, dtype=np.float64)[order])


def reference_graph(n, edges):
    return WeightedGraph.from_arrays(n, *reference_edge_arrays(n, edges))


def reference_selection(dist, k_per_node):
    """The set-based _edges_from_selection over the full distance matrix."""
    n = dist.shape[0]
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")
    pairs = set()
    for v in range(n):
        kv = int(k_per_node[v])
        for w in order[v, :kv]:
            w = int(w)
            pairs.add((v, w) if v < w else (w, v))
    return sorted(pairs)


def reference_weighted_edges(pairs, dist, weights, sigma):
    """The per-pair _weighted_edges with scalar rbf_weight calls."""
    if weights == "unit":
        return [(u, v, 1.0) for u, v in pairs]
    if weights == "rbf":
        out = []
        for u, v in pairs:
            w = float(rbf_weight(dist[u, v], sigma))
            if w > 0.0:
                out.append((u, v, w))
        return out
    raise ParameterError(f"unknown weighting {weights!r}")


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def reference_modulated_k(k, lam, r, n_nodes):
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"rank must lie in (0, 1], got {r}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    raw = k * (lam + 2.0 * (1.0 - lam) * r)
    return max(1, min(_round_half_up(raw), n_nodes - 1))


def reference_similarity_graph(f, ranks, lam, k, weights="unit", sigma=None):
    f = as_features(f)
    ranks = np.asarray(ranks, dtype=float)
    dist = pairwise_distances(f)
    k_per_node = np.array([reference_modulated_k(k, lam, float(r), f.n)
                           for r in ranks])
    pairs = reference_selection(dist, k_per_node)
    return reference_graph(f.n, reference_weighted_edges(pairs, dist, weights, sigma))


def reference_knn_graph(f, k, weights="unit", sigma=None):
    f = as_features(f)
    dist = pairwise_distances(f)
    pairs = reference_selection(dist, np.full(f.n, k))
    return reference_graph(f.n, reference_weighted_edges(pairs, dist, weights, sigma))


def reference_avg_knn_distance(f, k):
    d = pairwise_distances(as_features(f))
    np.fill_diagonal(d, np.inf)
    return float(np.sort(d, axis=1)[:, k - 1].mean())


def reference_baseline_graph(f, kind="construction"):
    f = as_features(f)
    if kind == "construction":
        return reference_knn_graph(f, construction_k0(f.n))
    k0 = selection_k0(f.n)
    return reference_knn_graph(f, k0, weights="rbf",
                               sigma=reference_avg_knn_distance(f, k0))


def reference_dense_counts(g):
    """The dense s(v, w) matrix of common-neighbor counts."""
    a = adjacency(g).astype(np.float64)
    return np.rint(a @ a).astype(np.int64)


def reference_eta_connectivity(g, counts=None):
    """Dense eta_connectivity; `counts` (the engine passes them) is unused."""
    adj = adjacency(g)
    s = reference_dense_counts(g)
    deg = adj.sum(axis=1)
    eta = np.zeros(g.n)
    nz = deg > 0
    eta[nz] = -(adj * s)[nz].sum(axis=1) / deg[nz]
    return eta


def reference_degree_target(d, lam, r):
    if d <= 0:
        return 0
    raw = d * (lam + (1.0 - lam) * r)
    return max(1, min(_round_half_up(raw), d))


def reference_connectivity_graph(g, ranks, lam, counts=None):
    """The per-node marking loop over the dense counts; `counts` is unused."""
    adj = adjacency(g)
    s = reference_dense_counts(g)
    deg = adj.sum(axis=1)
    marked = set()
    for v in range(g.n):
        dv = int(deg[v])
        if dv == 0:
            continue
        drop = dv - reference_degree_target(dv, lam, float(ranks[v]))
        if drop <= 0:
            continue
        nbrs = np.flatnonzero(adj[v])
        order = sorted(zip(s[v, nbrs].tolist(), nbrs.tolist()))
        for _, w in order[:drop]:
            marked.add((v, w) if v < w else (w, v))
    edges = [(u, v, w) for u, v, w in g.edges() if (u, v) not in marked]
    return reference_graph(g.n, edges)


def reference_connectivity_family(g, ranks, counts=None):
    """rmd_connectivity_family's contract on top of the per-node loop."""
    return lambda lam: reference_connectivity_graph(g, ranks, lam)


def assert_same_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_same_graph(g, ref):
    assert g.n == ref.n
    assert_same_arrays(g.edge_arrays(), ref.edge_arrays())


# -- WeightedGraph validation ---------------------------------------------


def outcome(build):
    try:
        return build()
    except InputError as exc:
        return str(exc)


ids = st.one_of(st.integers(-2, 9),
                st.integers(-2, 9).map(np.int64),
                st.integers(0, 9).map(np.int32))
weights = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(1e-300, 1e300),
                    st.just(0.0), st.just(-0.0), st.just(1))
any_edges = st.lists(st.one_of(st.tuples(ids, ids), st.tuples(ids, ids, weights)),
                     max_size=25)


@st.composite
def valid_edges(draw):
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          unique=True, max_size=40))
    out = []
    for u, v in pairs:
        if draw(st.booleans()):
            u, v = v, u
        if draw(st.booleans()):
            out.append((np.int64(u), np.int64(v)))
        else:
            out.append((u, v, draw(st.floats(1e-12, 1e6))))
    return n, out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), any_edges)
def test_constructor_matches_per_edge_loop(n, edges):
    want = outcome(lambda: reference_edge_arrays(n, edges))
    got = outcome(lambda: WeightedGraph(n, edges).edge_arrays())
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_arrays(got, want)


@settings(max_examples=200, deadline=None)
@given(valid_edges())
def test_valid_lists_match_per_edge_loop(case):
    n, edges = case
    want = reference_edge_arrays(n, edges)
    assert_same_arrays(WeightedGraph(n, edges).edge_arrays(), want)
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([1.0 if len(e) == 2 else e[2] for e in edges])
    assert_same_arrays(WeightedGraph.from_arrays(n, u, v, w).edge_arrays(), want)


def test_empty_edge_list():
    want = reference_edge_arrays(3, [])
    assert_same_arrays(WeightedGraph(3, []).edge_arrays(), want)
    assert_same_arrays(WeightedGraph.from_arrays(3, [], []).edge_arrays(), want)


# -- similarity graphs on crescent grids ------------------------------------


@pytest.fixture(scope="module")
def crescents():
    f, _ = pcut.crescent_dataset(n=600, noise=0.08, seed=0)
    f = as_features(f)
    ranks = rank(eta_similarity(f, baseline_graph(f, "construction")))
    return f, ranks


@pytest.mark.parametrize("k", (10, 30))
@pytest.mark.parametrize("lam", (0.0, 0.6, 1.0))
def test_similarity_grid_matches_set_selection(crescents, lam, k):
    f, ranks = crescents
    dist = pairwise_distances(f)
    k_per_node = np.array([reference_modulated_k(k, lam, float(r), f.n)
                           for r in ranks])
    pairs = reference_selection(dist, k_per_node)
    dk = reference_avg_knn_distance(f, k)
    assert avg_knn_distance(f, k) == dk
    assert_same_graph(rmd_similarity_graph(f, ranks, lam, k),
                      reference_graph(f.n, reference_weighted_edges(pairs, dist, "unit", None)))
    for j in range(-3, 4):
        sigma = (2.0 ** j) * dk
        want = reference_graph(f.n, reference_weighted_edges(pairs, dist, "rbf", sigma))
        assert_same_graph(rmd_similarity_graph(f, ranks, lam, k, "rbf", sigma), want)


def test_baselines_match_full_sort(crescents):
    f, _ = crescents
    fresh = as_features(f.x)  # no neighbor table yet
    for kind in ("construction", "selection"):
        assert_same_graph(baseline_graph(fresh, kind), reference_baseline_graph(f, kind))
    for k in (1, 7, 30):
        assert_same_graph(knn_graph(fresh, k, "rbf", 0.3),
                          reference_knn_graph(f, k, "rbf", 0.3))


def test_neighbor_table_is_memoised_and_widens():
    f = as_features(np.random.default_rng(0).normal(size=(40, 2)))
    ids, dists = f.neighbors(5)
    assert ids.shape == dists.shape == (40, 5)
    assert f.neighbors(3)[0].base is ids.base
    wide, _ = f.neighbors(20)
    assert np.array_equal(wide[:, :5], ids)
    assert not wide.flags.writeable
    with pytest.raises(ParameterError):
        f.neighbors(40)


# -- connectivity graphs -----------------------------------------------------


@pytest.fixture(scope="module")
def networks():
    sbm, _ = pcut.sbm_generate(pcut.SbmSpec(n=800, alpha=0.1, p1=0.1, q=0.01,
                                            equalize_degrees=True, seed=3))
    return {"karate": load_bundled_network("karate")[0],
            "dolphins": load_bundled_network("dolphins")[0],
            "sbm800": sbm}


@pytest.mark.parametrize("name", ("karate", "dolphins", "sbm800"))
def test_connectivity_marking_matches_dense_loop(networks, name):
    g = networks[name]
    counts = common_neighbor_counts(g)
    eta = eta_connectivity(g, counts=counts)
    assert eta.tobytes() == reference_eta_connectivity(g).tobytes()
    ranks = rank(eta)
    for lam in engine.DEFAULT_CONNECTIVITY_LAMBDAS + (0.0, 0.25):
        assert_same_graph(rmd_connectivity_graph(g, ranks, lam, counts=counts),
                          reference_connectivity_graph(g, ranks, lam))


# -- whole runs ---------------------------------------------------------------


# engine names that generate_candidates calls, with the replaced code
REFERENCE_BUILDERS = (("baseline_graph", reference_baseline_graph),
                      ("avg_knn_distance", reference_avg_knn_distance),
                      ("rmd_similarity_graph", reference_similarity_graph),
                      ("common_neighbor_counts", reference_dense_counts),
                      ("eta_connectivity", reference_eta_connectivity),
                      ("rmd_connectivity_family", reference_connectivity_family))


@pytest.mark.slow
@pytest.mark.parametrize("workload", (sbm_net, crescents_ssl, dolphins_small))
def test_generate_candidates_byte_identical(workload, monkeypatch):
    inputs, cfg = workload()
    new = [candidate_bytes(pcut.generate_candidates(data, cfg, labels))
           for data, labels in inputs]
    for name, ref in REFERENCE_BUILDERS:
        monkeypatch.setattr(engine, name, ref)
    old = [candidate_bytes(pcut.generate_candidates(data, cfg, labels))
           for data, labels in inputs]
    assert new == old
