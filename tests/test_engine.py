import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import pcut
from pcut import engine, graph, propagation, spectral
from pcut.engine import (CandidateCut, PCutConfig, generate_candidates, mix_seed,
                         pcut_select)
from pcut.errors import (NoFeasiblePartitionError, NumericError, ParameterError,
                         PCutError)
from pcut.experiments import PRESETS, load_bundled_network
from pcut.graph import Partition, WeightedGraph, cut_value
from pcut.construction import avg_knn_distance
from pcut.propagation import LabelSet, grf_scores
from pcut.ranking import common_neighbor_counts, eta_connectivity, rank
from pcut.rmd import rmd_connectivity_graph, rmd_similarity_graph
from pcut.spectral import SpectralConfig, kmeans_batch
from pcut.synth import gaussian_mixture

from benchmark_instances import candidate_bytes


def two_cliques(size=6):
    a = [(u, v) for u in range(size) for v in range(u + 1, size)]
    b = [(u + size, v + size) for u, v in a]
    return WeightedGraph(2 * size, a + b + [(0, size)])


def make_candidate(cut, lam=0.5, feasible=True, min_size=5, index=0,
                   generator="sc", n=20):
    labels = np.zeros(n, dtype=int)
    labels[:min_size] = 1
    return CandidateCut(partition=Partition(assignment=labels, K=2),
                        lam=lam, k=None, sigma=None, generator=generator,
                        feasible=feasible, min_cluster_size=min_size,
                        baseline_cut=cut, normalized_cut=cut, index=index)


# every positive-count check of the package, with the name its message gives
COUNT_CHECKS = {
    "PCutConfig workers": (lambda v: PCutConfig(K=2, workers=v), "workers"),
    "kmeans_batch restarts": (
        lambda v: kmeans_batch(np.zeros((1, 4, 1)), 2, [0], restarts=v),
        "k-means restarts"),
    "kmeans_batch max_iters": (
        lambda v: kmeans_batch(np.zeros((1, 4, 1)), 2, [0], max_iters=v),
        "k-means iterations"),
    "SpectralConfig restarts": (
        lambda v: SpectralConfig(K=2, kmeans_restarts=v), "k-means restarts"),
    "SpectralConfig max_iters": (
        lambda v: SpectralConfig(K=2, kmeans_max_iters=v), "k-means iterations"),
    **{f"{preset} {key}": (
        lambda v, preset=preset, key=key: PRESETS[preset](**{key: v}), key)
       for preset, key in (("sbm-lambda-sweep", "n_seeds"),
                           ("sbm-alpha-sweep", "n_seeds"),
                           ("dolphins", "n_samplings"))},
}


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("check", COUNT_CHECKS)
def test_count_checks_name_the_count(check, value):
    call, name = COUNT_CHECKS[check]
    with pytest.raises(ParameterError, match=rf"^{name} must be >= 1, got {value}$"):
        call(value)


class TestGenerateCandidates:
    def test_connectivity_single_lambda_single_candidate(self):
        g = two_cliques()
        cfg = PCutConfig(K=2, modality="connectivity", lambda_grid=(1.0,),
                         delta=0.2, seed=0)
        cands = generate_candidates(g, cfg)
        assert len(cands) == 1
        assert cands[0].lam == 1.0
        assert cands[0].generator == "sc"

    def test_similarity_grid_counts(self):
        f, _ = gaussian_mixture(
            40, [(0.5, [0.0, 0.0], [0.3, 0.3]), (0.5, [4.0, 0.0], [0.3, 0.3])],
            seed=30)
        cfg = PCutConfig(K=2, modality="similarity", lambda_grid=(0.5, 1.0),
                         k_grid=(3, 5), sigma_exponents=(-1, 0, 1), seed=0)
        cands = generate_candidates(f, cfg)
        assert len(cands) == 2 * 2 * 3

    def test_two_cliques_selected_cut_zero(self):
        size = 6
        a = [(u, v) for u in range(size) for v in range(u + 1, size)]
        b = [(u + size, v + size) for u, v in a]
        g = WeightedGraph(2 * size, a + b)
        cfg = PCutConfig(K=2, modality="connectivity", delta=0.2, seed=0)
        selected = pcut_select(generate_candidates(g, cfg))
        assert selected.baseline_cut == 0.0
        assert selected.min_cluster_size == size

    def test_candidates_carry_provenance(self):
        g = two_cliques()
        cfg = PCutConfig(K=2, modality="connectivity", lambda_grid=(0.5, 1.0),
                         delta=0.2, seed=0)
        cands = generate_candidates(g, cfg)
        assert [c.lam for c in cands] == [0.5, 1.0]
        assert [c.index for c in cands] == [0, 1]

    def test_worker_count_does_not_change_output(self):
        g = two_cliques()
        base = PCutConfig(K=2, modality="connectivity", delta=0.2, seed=4)
        multi = PCutConfig(K=2, modality="connectivity", delta=0.2, seed=4,
                           workers=4)
        a = generate_candidates(g, base)
        b = generate_candidates(g, multi)
        assert [(c.lam, c.baseline_cut, c.min_cluster_size,
                 c.partition.assignment.tolist()) for c in a] == \
               [(c.lam, c.baseline_cut, c.min_cluster_size,
                 c.partition.assignment.tolist()) for c in b]

    def test_kmeans_counts_are_constants(self):
        # no caller turns them, so they are not fields: 12 settable ones
        assert len(dataclasses.fields(PCutConfig)) == 12
        cfg = PCutConfig(K=2)
        assert (cfg.kmeans_restarts, cfg.kmeans_max_iters) == (10, 100)
        with pytest.raises(TypeError):
            PCutConfig(K=2, kmeans_restarts=3)

    def test_repeated_grid_entries_run_once(self):
        # each grid keeps its distinct entries in first-occurrence order
        cfg = PCutConfig(K=2, lambda_grid=[1.0, 0.5, 1, 0.5], k_grid=(10, 5, 10),
                         sigma_exponents=(0, -1, 0, 0))
        assert cfg.lambda_grid == (1.0, 0.5)
        assert cfg.k_grid == (10, 5)
        assert cfg.sigma_exponents == (0, -1)

    @pytest.mark.parametrize("kwargs, match", [
        # the sweep bisects the graph
        (dict(K=3, sweep_cuts=True),
         r"^sweep_cuts needs K = 2 clustering, got task 'clustering' with K = 3$"),
        (dict(K=2, task="ssl", sweep_cuts=True),
         r"^sweep_cuts needs K = 2 clustering, got task 'ssl' with K = 2$"),
        # harmonic propagation has no spectral flavour
        (dict(K=2, task="ssl", extra_variants=("ncut_normalized",)),
         r"^extra_variants needs task 'clustering', got \('ncut_normalized',\) "
         r"with task 'ssl'$"),
        # a network grid spans lambda alone
        (dict(K=2, modality="connectivity", k_grid=(5, 7)),
         r"^k_grid needs the similarity modality, got \(5, 7\): a connectivity "
         r"grid spans lambda only$"),
        (dict(K=2, modality="connectivity", sigma_exponents=(0,)),
         r"^sigma_exponents needs the similarity modality, got \(0,\): a "
         r"connectivity grid spans lambda only$"),
        # 2.0 ** j is a normal float only for j in [-1022, 1023]
        (dict(K=2, sigma_exponents=(0, 1024)),
         r"^sigma_exponents entry 1024 lies outside \[-1022, 1023\]$"),
        (dict(K=2, sigma_exponents=(-1023,)),
         r"^sigma_exponents entry -1023 lies outside \[-1022, 1023\]$"),
        # lambda mixes the plain and the rank-scaled neighbour count
        (dict(K=2, lambda_grid=(0.5, 5.0)),
         r"^lambda_grid entry 5.0 lies outside \[0, 1\]$"),
        (dict(K=2, modality="connectivity", lambda_grid=(-0.1,)),
         r"^lambda_grid entry -0.1 lies outside \[0, 1\]$"),
        (dict(K=2, lambda_grid=(float("nan"),)),
         r"^lambda_grid entry nan lies outside \[0, 1\]$"),
    ], ids=["sweep-at-K3", "sweep-in-ssl", "flavour-in-ssl", "network-k-grid",
            "network-sigma-grid", "sigma-above-range", "sigma-below-range",
            "lambda-above-range", "lambda-below-range", "lambda-nan"])
    def test_config_rejects_work_it_would_not_run(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            PCutConfig(**kwargs)

    def test_huge_sigma_exponent_raises_parameter_error(self):
        # 2.0 ** 5000 would overflow inside the grid
        f, _ = gaussian_mixture(
            30, [(0.5, [0.0], [0.2]), (0.5, [4.0], [0.2])], seed=31)
        with pytest.raises(ParameterError, match="entry 5000 lies outside"):
            generate_candidates(f, PCutConfig(K=2, k_grid=(5,), sigma_exponents=(5000,)))

    @pytest.mark.parametrize("modality", ["similarity", "connectivity"])
    def test_more_clusters_than_nodes_raise_before_allocating(self, modality):
        # an n x K embedding at K = 10^12 would ask for 87 TiB
        data = (two_cliques() if modality == "connectivity"
                else np.arange(24.0).reshape(12, 2))
        with pytest.raises(ParameterError,
                           match=r"^need at least K=1000000000000 nodes, got 12$"):
            generate_candidates(data, PCutConfig(K=10 ** 12, modality=modality))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
            PCutConfig(K=2, workers=workers)

    def test_ssl_requires_labels(self):
        f, _ = gaussian_mixture(
            30, [(0.5, [0.0], [0.2]), (0.5, [4.0], [0.2])], seed=31)
        cfg = PCutConfig(K=2, task="ssl", modality="similarity", seed=0)
        with pytest.raises(ParameterError):
            generate_candidates(f, cfg)

    def test_ssl_label_count_must_match_config(self):
        f, _ = gaussian_mixture(
            30, [(0.5, [0.0], [0.2]), (0.5, [4.0], [0.2])], seed=31)
        ls = LabelSet(labeled=((0, 0), (1, 1), (2, 2)), K=3)
        cfg = PCutConfig(K=2, task="ssl", modality="similarity", seed=0)
        with pytest.raises(ParameterError, match=r"K=3 classes but the config has K=2"):
            generate_candidates(f, cfg, labels=ls)

    def test_ssl_grf_candidates(self):
        f, labels = gaussian_mixture(
            40, [(0.5, [0.0, 0.0], [0.2, 0.2]), (0.5, [5.0, 0.0], [0.2, 0.2])],
            seed=32)
        seeds = [int(np.flatnonzero(labels == c)[0]) for c in (0, 1)]
        ls = LabelSet(labeled=tuple((s, int(labels[s])) for s in seeds), K=2)
        cfg = PCutConfig(K=2, task="ssl", modality="similarity",
                         lambda_grid=(1.0,), k_grid=(5,), sigma_exponents=(0,),
                         seed=0)
        cands = generate_candidates(f, cfg, labels=ls)
        assert len(cands) == 1
        assert cands[0].generator == "grf"
        # the propagated partition keeps the seeded labels
        for node, cls in ls.labeled:
            assert cands[0].partition.assignment[node] == cls

    def test_ssl_skips_numerically_singular_grid_point(self):
        # The unlabeled pair at x = 4 reaches the labeled clusters only by
        # RBF weights about 1e-80 times its own tie: at sigma exponent -5 the
        # harmonic system rounds to singular; at -6 those weights underflow
        # and strand the pair.
        x = np.array([[0.0, 0], [0.1, 0], [4.0, 0], [4.1, 0], [10.0, 0], [10.1, 0]])
        ls = LabelSet(labeled=((0, 0), (1, 0), (4, 1), (5, 1)), K=2)
        sigma = {j: 2.0 ** j * avg_knn_distance(x, 2) for j in (-6, -5, -4)}
        singular = rmd_similarity_graph(x, np.full(6, 0.5), 1.0, 2,
                                        weights="rbf", sigma=sigma[-5])
        with pytest.raises(NumericError):
            grf_scores(singular, ls)
        cfg = PCutConfig(K=2, task="ssl", modality="similarity", delta=0.1,
                         lambda_grid=(1.0,), k_grid=(2,),
                         sigma_exponents=(-6, -5, -4), seed=0)
        cands = generate_candidates(x, cfg, labels=ls)
        assert [c.sigma for c in cands] == [sigma[-4]]
        assert pcut_select(cands) is cands[0]

    def test_ssl_skips_dense_fallback_above_the_limit(self, monkeypatch):
        # the graph of the test above, with a dense limit below its 6
        # nodes: at sigma exponent -4 the banded factor fails its pivot gate
        # and the dense fallback refuses the graph before allocating, so
        # that point is skipped, not fatal; at -2 the banded solve serves
        monkeypatch.setattr(graph, "DENSE_MAX_NODES", 5)
        monkeypatch.setattr(propagation, "DENSE_MAX_NODES", 5)
        x = np.array([[0.0, 0], [0.1, 0], [4.0, 0], [4.1, 0], [10.0, 0], [10.1, 0]])
        ls = LabelSet(labeled=((0, 0), (1, 0), (4, 1), (5, 1)), K=2)
        cfg = PCutConfig(K=2, task="ssl", modality="similarity", delta=0.1,
                         lambda_grid=(1.0,), k_grid=(2,),
                         sigma_exponents=(-4, -2), seed=0)
        cands = generate_candidates(x, cfg, labels=ls)
        assert [c.sigma for c in cands] == [2.0 ** -2 * avg_knn_distance(x, 2)]
        with pytest.raises(NumericError, match=r"n = 6 nodes .* DENSE_MAX_NODES = 5"):
            generate_candidates(x, dataclasses.replace(cfg, sigma_exponents=(-4,)),
                                labels=ls)

    def test_skipped_points_keep_only_their_errors(self, monkeypatch):
        # crescents with 5 labels per class: at sigma exponent -3, 7 of the
        # 12 points are skipped, 2 for a stranded component and 5 as
        # singular after a dense fallback (about 100 MiB at n = 2000). A
        # kept traceback or cause would pin each one's graph and dense
        # arrays until the run ends: about 580 MiB in all.
        f, truth = pcut.crescent_dataset(n=2000, noise=0.08, seed=1)
        ls = LabelSet(tuple((int(v), c) for c in range(3)
                            for v in np.flatnonzero(truth == c)[:5]), K=3)
        cfg = PCutConfig(K=3, task="ssl", k_grid=(10, 30), sigma_exponents=(-3,))
        calls = []
        real_chunk = engine._ssl_chunk

        def spy(*args, **kwargs):
            out = real_chunk(*args, **kwargs)
            calls.extend(item[2] for item in out)
            return out

        monkeypatch.setattr(engine, "_ssl_chunk", spy)
        tracemalloc.start()
        try:
            cands = generate_candidates(f, cfg, labels=ls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        skips = [p for p in calls if isinstance(p, Exception)]
        assert len(cands) == 5 and len(skips) == 7
        assert sum(type(exc) is NumericError for exc in skips) == 5
        for exc in skips:
            assert exc.__traceback__ is None
            assert exc.__cause__ is None and exc.__context__ is None
        assert peak < 200 * 2**20


@pytest.mark.slow
def test_each_worker_holds_one_dense_bundle():
    # a dense bundle of n nodes peaks at about 3 n^2 float64, and each
    # worker runs one bundle at a time; an added n x n copy, or more bundles
    # at once than workers, breaks these bounds (measured: 3.02 and 6.13 n^2)
    n = 2048
    g, _ = pcut.sbm_generate(pcut.SbmSpec(n=n, alpha=0.25, p1=0.05, q=0.01, seed=0))
    assert graph.connected_components(g).K == 1

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / (8 * n * n)
        finally:
            tracemalloc.stop()

    assert peak(lambda: spectral.spectral_bundle(g, 3, True)) <= 3.2
    cfg = PCutConfig(K=3, modality="connectivity", lambda_grid=(0.5, 1.0), workers=2)
    assert peak(lambda: generate_candidates(g, cfg)) <= 6.4


class TestGridChunks:
    """The spectral stage runs the grid in chunks of consecutive points."""

    CFG = PCutConfig(K=2, modality="connectivity", delta=0.1, sweep_cuts=True,
                     variant="ncut_rw", extra_variants=("ncut_normalized",))

    @pytest.fixture
    def dolphins(self):
        return load_bundled_network("dolphins")[0]

    @pytest.fixture
    def bundle_calls(self, monkeypatch):
        calls = []
        real = engine.spectral_bundle

        def counting(g, K, normalized):
            calls.append(g.m)
            return real(g, K, normalized)

        monkeypatch.setattr(engine, "spectral_bundle", counting)
        return calls

    def grid_edges(self, g):
        counts = common_neighbor_counts(g)
        ranks = rank(eta_connectivity(g, counts=counts))
        return [rmd_connectivity_graph(g, ranks, lam, counts=counts).edge_arrays()
                for lam in self.CFG.lambdas()]

    def test_one_bundle_per_changed_graph(self, dolphins, bundle_calls, monkeypatch):
        # a cap this large puts the whole grid in one chunk
        monkeypatch.setattr(spectral, "_KMEANS_BATCH_ELEMENTS", 1 << 22)
        edges = self.grid_edges(dolphins)
        changed = 1 + sum(not all(map(np.array_equal, a, b))
                          for a, b in zip(edges, edges[1:]))
        generate_candidates(dolphins, self.CFG)
        assert len(bundle_calls) == changed < len(edges)

    def test_one_sweep_per_changed_graph(self, dolphins, monkeypatch):
        monkeypatch.setattr(spectral, "_KMEANS_BATCH_ELEMENTS", 1 << 22)
        calls = []
        real = engine.sweep_from_bundle

        def counting(bundle, n, min_side):
            calls.append(n)
            return real(bundle, n, min_side)

        monkeypatch.setattr(engine, "sweep_from_bundle", counting)
        edges = self.grid_edges(dolphins)
        changed = 1 + sum(not all(map(np.array_equal, a, b))
                          for a, b in zip(edges, edges[1:]))
        candidates = generate_candidates(dolphins, self.CFG)
        assert len(calls) == changed < len(edges)
        # a reused sweep is copied: no two candidates share an assignment
        sweeps = [c.partition.assignment for c in candidates if c.generator == "sweep"]
        assert len(sweeps) == len(edges)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(sweeps) for b in sweeps[i + 1:])

    def test_one_bundle_per_graph_without_reuse(self, dolphins, bundle_calls,
                                                monkeypatch):
        # one grid point per chunk: no bundle crosses a chunk boundary
        monkeypatch.setattr(spectral, "_KMEANS_BATCH_ELEMENTS", 1)
        generate_candidates(dolphins, self.CFG)
        assert len(bundle_calls) == len(self.CFG.lambdas())

    @pytest.mark.parametrize("case", ["dolphins", "mixture"])
    def test_chunks_do_not_change_candidates(self, case, dolphins, monkeypatch):
        if case == "dolphins":
            data, cfg = dolphins, self.CFG
        else:
            # consecutive sigmas give the same edges with other weights, and
            # other partitions
            data, _ = gaussian_mixture(
                60, [(0.5, [0.0, 0.0], [1.0, 1.0]), (0.5, [2.0, 0.0], [1.0, 1.0])],
                seed=33)
            cfg = PCutConfig(K=2, modality="similarity", lambda_grid=(0.5, 1.0),
                             k_grid=(5,), sigma_exponents=(-3, 0, 3), seed=2,
                             variant="ncut_rw", extra_variants=("ncut_normalized",))
        monkeypatch.setattr(spectral, "_KMEANS_BATCH_ELEMENTS", 1 << 22)
        whole = candidate_bytes(generate_candidates(data, cfg))
        monkeypatch.setattr(spectral, "_KMEANS_BATCH_ELEMENTS", 1)
        assert candidate_bytes(generate_candidates(data, cfg)) == whole


class TestPcutSelect:
    def test_single_feasible(self):
        c = make_candidate(3.0)
        assert pcut_select([c]) is c

    def test_argmin_over_cuts(self):
        cands = [make_candidate(3.0, index=0), make_candidate(1.5, index=1),
                 make_candidate(2.2, index=2)]
        assert pcut_select(cands).baseline_cut == 1.5

    def test_matches_filter_argmin_oracle_on_random_lists(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            cands = []
            for i in range(12):
                cands.append(make_candidate(
                    cut=float(rng.integers(0, 6)),
                    lam=float(rng.choice([0.25, 0.5, 0.75, 1.0])),
                    feasible=bool(rng.random() < 0.7),
                    min_size=int(rng.integers(2, 9)),
                    index=i))
            feasible = [c for c in cands if c.feasible]
            if not feasible:
                with pytest.raises(NoFeasiblePartitionError):
                    pcut_select(cands)
                continue
            got = pcut_select(cands)
            best_cut = min(c.baseline_cut for c in feasible)
            ties = [c for c in feasible if c.baseline_cut == best_cut]
            best_lam = max(c.lam for c in ties)
            ties = [c for c in ties if c.lam == best_lam]
            best_size = max(c.min_cluster_size for c in ties)
            ties = [c for c in ties if c.min_cluster_size == best_size]
            oracle = min(ties, key=lambda c: c.index)
            assert got is oracle

    def test_order_invariance_up_to_tiebreak(self):
        cands = [make_candidate(2.0, lam=0.5, index=0),
                 make_candidate(1.0, lam=0.75, index=1),
                 make_candidate(1.0, lam=1.0, index=2)]
        assert pcut_select(cands).lam == 1.0
        assert pcut_select(list(reversed(cands))).lam == 1.0

    def test_no_feasible_reports_best_infeasible(self):
        cands = [make_candidate(9.0, feasible=False, index=0),
                 make_candidate(2.0, feasible=False, min_size=3, index=1)]
        with pytest.raises(NoFeasiblePartitionError) as info:
            pcut_select(cands)
        assert info.value.best_infeasible.baseline_cut == 2.0

    def test_strict_feasibility_threshold(self):
        # candidates sitting exactly at delta * n are discarded
        g = two_cliques(5)  # n = 10
        cfg = PCutConfig(K=2, modality="connectivity", lambda_grid=(1.0,),
                         delta=0.5, seed=0)
        cands = generate_candidates(g, cfg)
        assert all(not c.feasible for c in cands if c.min_cluster_size == 5)

    def test_selected_respects_size_floor(self):
        g = two_cliques()
        cfg = PCutConfig(K=2, modality="connectivity", delta=0.2, seed=1)
        selected = pcut_select(generate_candidates(g, cfg))
        assert selected.min_cluster_size >= int(np.ceil(0.2 * g.n))

    def test_lambda_one_never_beaten_when_feasible(self):
        g = two_cliques(7)
        cfg = PCutConfig(K=2, modality="connectivity", delta=0.2, seed=2)
        cands = generate_candidates(g, cfg)
        lam1 = [c for c in cands if c.lam == 1.0 and c.generator == "sc"][0]
        if lam1.feasible:
            assert pcut_select(cands).baseline_cut <= lam1.baseline_cut


class UndefinedRatioError(PCutError):
    """Cut-ratio diagnostics requested against a zero-valued balanced cut."""


def cut_ratio_diagnostics(g: WeightedGraph, p: Partition,
                          p_balanced: Partition):
    """(q, y, rcut_ratio) of a binary partition against a balanced one.

    q is the cut-value ratio, y the share of the smaller side, and a
    rcut_ratio below 1 means the cardinality-normalized objective prefers
    the imbalanced partition.
    """
    if p.K != 2 or p_balanced.K != 2:
        raise ParameterError("diagnostics are defined for binary partitions")
    balanced_cut = cut_value(g, p_balanced)
    if balanced_cut <= 0.0:
        raise UndefinedRatioError("balanced partition has zero cut value")
    q = cut_value(g, p) / balanced_cut
    y = p.min_size() / p.n
    return q, y, q / (4.0 * y * (1.0 - y))


class TestCutRatioDiagnostics:
    def graph(self):
        return two_cliques(4)

    def test_balanced_partition_ratio_equals_q(self):
        g = self.graph()
        p = Partition(assignment=np.array([0] * 4 + [1] * 4), K=2)
        q, y, ratio = cut_ratio_diagnostics(g, p, p)
        assert y == 0.5
        assert ratio == pytest.approx(q)

    def test_remark_formula(self):
        g = WeightedGraph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
        p = Partition(assignment=np.array([0] + [1] * 9), K=2)
        balanced = Partition(assignment=np.array([0] * 5 + [1] * 5), K=2)
        q, y, ratio = cut_ratio_diagnostics(g, p, balanced)
        assert q == pytest.approx(9 / 25)
        assert y == pytest.approx(0.1)
        assert ratio == pytest.approx((9 / 25) / (4 * 0.1 * 0.9))
        assert ratio == pytest.approx(1.0)  # complete graph: RCut indifferent

    def test_zero_balanced_cut_rejected(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)])
        p = Partition(assignment=np.array([0, 0, 1, 1]), K=2)
        with pytest.raises(UndefinedRatioError):
            cut_ratio_diagnostics(g, p, p)


class TestMixSeed:
    def test_deterministic_and_distinct(self):
        assert mix_seed(42, 7) == mix_seed(42, 7)
        seen = {mix_seed(42, i) for i in range(100)}
        assert len(seen) == 100


def run_python(code, extra_path=()):
    """Standard output of `code` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    path = [src, *extra_path, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=300)
    return result.stdout


LOADED = """
import sys
def loaded():
    return [m for m in sorted(sys.modules)
            if m.split(".")[0] == "scipy" or m.startswith("concurrent.futures")]
"""


def test_network_run_loads_neither_cdist_nor_the_assignment_solver():
    # scipy.spatial serves only feature inputs and the package uses no
    # scipy.optimize at all (scoring matches clusters in numpy), so importing
    # pcut and running a connectivity grid loads neither
    code = "\n".join((
        "import sys, pcut",
        "unused = ('scipy.spatial.distance', 'scipy.optimize')",
        "print([m for m in unused if m in sys.modules])",
        "g, _ = pcut.sbm_generate(pcut.SbmSpec(n=120, alpha=0.3, p1=0.3, q=0.02, seed=1))",
        "pcut.generate_candidates(g, pcut.PCutConfig(K=2, modality='connectivity'))",
        "print([m for m in unused if m in sys.modules])",
    ))
    assert run_python(code) == "[]\n[]\n"


def test_import_and_dense_network_runs_load_no_scipy():
    # scipy serves only Lanczos, the harmonic solve, component checks and
    # feature inputs; a network run whose bundles all stay dense (at most
    # SPARSE_MIN_NODES positive-degree nodes, or K >= 3) reaches none of
    # them, and a serial run starts no pool
    code = LOADED + "\n".join((
        "import pcut",
        "from pcut.spectral import SPARSE_MIN_NODES",
        "print(loaded())",
        "g, _ = pcut.sbm_generate(pcut.SbmSpec(n=SPARSE_MIN_NODES, alpha=0.3, p1=0.3,",
        "                                      q=0.02, seed=1))",
        "for K, sweep in ((2, True), (3, False)):",
        "    cfg = pcut.PCutConfig(K=K, modality='connectivity', sweep_cuts=sweep)",
        "    assert pcut.generate_candidates(g, cfg)",
        "    print(loaded())",
    ))
    assert run_python(code) == "[]\n[]\n[]\n"


def test_scoring_against_a_truth_loads_no_scipy(tmp_path):
    # the cluster matching of clustering_error is numpy alone, so neither a
    # library call nor `pcut eval` loads any scipy module
    code = LOADED + "\n".join((
        "import contextlib, io, os, pcut",
        "from pcut import cli",
        "from pcut.io import write_labels_csv",
        "found = pcut.Partition(assignment=[0, 0, 1, 1, 2, 2, 2], K=3)",
        "truth = pcut.Partition(assignment=[1, 1, 2, 2, 0, 0, 2], K=3)",
        "assert abs(pcut.clustering_error(found, truth).error_rate - 1 / 7) < 1e-12",
        "print(loaded())",
        f"os.chdir({str(tmp_path)!r})",
        "write_labels_csv('found.csv', found.assignment)",
        "write_labels_csv('truth.csv', truth.assignment)",
        "with contextlib.redirect_stdout(io.StringIO()):  # the report's echo",
        "    assert cli.main(['eval', '--found', 'found.csv', '--truth', 'truth.csv',",
        "                     '--out', 'eval.json']) == 0",
        "print(loaded())",
    ))
    assert run_python(code) == "[]\n[]\n"


# Each case builds `data`, `labels` and `cfg` with WORKERS workers. The sbm graph
# (n = 400, K = 2) takes its bundles through Lanczos; the ssl run solves its
# harmonic systems banded, after cdist has loaded scipy.sparse and
# scipy.linalg on the calling thread.
POOL_CASES = {
    "sbm-lanczos": (
        "g, _ = pcut.sbm_generate(pcut.SbmSpec(n=400, alpha=0.3, p1=0.3, q=0.02,\n"
        "                                      seed=1))\n"
        "data, labels = g, None\n"
        "cfg = pcut.PCutConfig(K=2, modality='connectivity', sweep_cuts=True,\n"
        "                      workers=WORKERS)\n"),
    "crescents-ssl": (
        "f, truth = pcut.crescent_dataset(n=200, seed=1)\n"
        "data = f.x\n"
        "labels = pcut.LabelSet(tuple((int(v), c) for c in range(3)\n"
        "                             for v in np.flatnonzero(truth == c)[:5]), K=3)\n"
        "cfg = pcut.PCutConfig(K=3, task='ssl', modality='similarity',\n"
        "                      k_grid=(10, 30), workers=WORKERS)\n"),
}


def test_first_scipy_use_from_pool_threads():
    # scipy's first import happens inside ThreadPoolExecutor workers here;
    # the candidates must equal those of serial runs in another process
    tests = os.path.dirname(os.path.abspath(__file__))
    run = LOADED + """
import hashlib
import numpy as np
import pcut
from pcut import engine, spectral
from benchmark_instances import candidate_bytes

lanczos, grid_entry = [], []
real_lanczos, real_run_grid = spectral.lanczos_eigenvectors, engine._run_grid
spectral.lanczos_eigenvectors = lambda *a: lanczos.append(1) or real_lanczos(*a)
engine._run_grid = lambda *a: grid_entry.append(loaded()) or real_run_grid(*a)
{case}
candidates = pcut.generate_candidates(data, cfg, labels)
print(hashlib.sha256(repr(candidate_bytes(candidates)).encode()).hexdigest())
print(len(lanczos), "scipy" in grid_entry[0], "scipy.sparse.csgraph" in grid_entry[0],
      "scipy.sparse.csgraph" in sys.modules)
"""

    def digest_and_loads(name, workers):
        code = run.format(case=f"WORKERS = {workers}\n" + POOL_CASES[name])
        return run_python(code, [tests]).split()

    for name in POOL_CASES:
        serial = digest_and_loads(name, 1)
        pooled = digest_and_loads(name, 2)
        assert pooled[0] == serial[0], name
        lanczos, scipy_before, csgraph_before, csgraph_after = pooled[1:]
        assert (int(lanczos) > 0) == (name == "sbm-lanczos"), name
        assert scipy_before == ("False" if name == "sbm-lanczos" else "True"), name
        assert (csgraph_before, csgraph_after) == ("False", "True"), name
