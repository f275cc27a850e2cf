import numpy as np
import pytest

from pcut import engine, spectral
from pcut.engine import (CandidateCut, PCutConfig, cut_ratio_diagnostics,
                         generate_candidates, mix_seed, pcut_select)
from pcut.errors import (NoFeasiblePartitionError, NumericError,
                         ParameterError, UndefinedRatioError)
from pcut.experiments import load_bundled_network, run_experiment
from pcut.graph import Partition, WeightedGraph, cut_value
from pcut.construction import avg_knn_distance
from pcut.propagation import LabelSet, grf_scores
from pcut.ranking import common_neighbor_counts, eta_connectivity, rank
from pcut.rmd import rmd_connectivity_graph, rmd_similarity_graph
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

    @pytest.mark.parametrize("field,match", [
        ("kmeans_restarts", "restarts must be >= 1, got 0"),
        ("kmeans_max_iters", "iterations must be >= 1, got 0")])
    def test_kmeans_counts_must_be_positive(self, field, match):
        with pytest.raises(ParameterError, match=match):
            PCutConfig(K=2, **{field: 0})

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
            PCutConfig(K=2, workers=workers)
        with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
            run_experiment("karate", workers=workers)

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
