"""Candidate generation over the graph-parameter grid and cut-based selection.

Candidates are spectral partitions of rank-modulated graphs across the
parameter grid; the selected partition minimizes the cut value on a fixed
baseline graph among candidates whose smallest cluster strictly exceeds
delta * n nodes. Partitions at exactly the threshold count as "smaller than
delta n" and are discarded, which keeps degenerate boundary clusters out.

The grid runs in chunks of consecutive grid points. A clustering chunk
first builds each point's graph and embeds it; a graph whose edge arrays
equal those of the point before it in the chunk reuses that point's
eigendecomposition and embeddings, which on the dolphins samplings skips
45% of the eigensolves. Then one ``kmeans_batch`` call clusters every
embedding of the chunk, each with its own grid point's seed. A chunk holds
as many grid points as fit their k-means problems in one batch of
spectral._KMEANS_BATCH_ELEMENTS elements, and at least one. Every candidate
is byte-identical to clustering one grid point at a time.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .construction import (FeatureMatrix, as_features, avg_knn_distance,
                           baseline_graph, construction_k0, selection_k0)
from .errors import (ConstraintError, InputError, NoFeasiblePartitionError,
                     NumericError, ParameterError, UndefinedRatioError)
from .graph import Partition, WeightedGraph, cut_value
from .propagation import LabelSet, grf_propagate
from .ranking import (common_neighbor_counts, eta_connectivity,
                      eta_similarity, rank)
from .rmd import rmd_connectivity_graph, rmd_similarity_graph
from .spectral import (VARIANTS, _embedding_rows, check_kmeans_counts,
                       kmeans_batch, kmeans_batch_problems, spectral_bundle,
                       sweep_from_bundle)

DEFAULT_SIMILARITY_LAMBDAS = tuple(round(0.2 * i, 1) for i in range(6))
DEFAULT_CONNECTIVITY_LAMBDAS = tuple(round(0.5 + 0.025 * i, 3) for i in range(21))
DEFAULT_K_GRID = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 120, 150)
DEFAULT_SIGMA_EXPONENTS = tuple(range(-3, 4))

_GENERATOR_PRIORITY = {"sc": 0, "sc_alt": 1, "sweep": 2, "grf": 0}


def mix_seed(seed: int, index: int) -> int:
    """Derive a per-candidate seed from the run seed and the grid index."""
    x = (index + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return (seed ^ x) & 0xFFFFFFFFFFFFFFFF


def check_workers(workers: int) -> None:
    """Raise ParameterError unless at least one worker runs the grid."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")


@dataclass(frozen=True)
class PCutConfig:
    """Grid, constraint, and black-box configuration for one run."""

    K: int
    task: str = "clustering"              # clustering | ssl
    modality: str = "similarity"          # similarity | connectivity
    delta: float = 0.05
    lambda_grid: tuple = ()
    k_grid: tuple = ()
    sigma_exponents: tuple = ()
    variant: str = "ncut_rw"              # spectral flavor of the SC black box
    extra_variants: tuple = ()            # additional k-means flavors per grid point
    sweep_cuts: bool = False              # add min-cut sweep candidates (K=2 only)
    kmeans_restarts: int = 10
    kmeans_max_iters: int = 100
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.K < 2:
            raise ParameterError(f"cluster count must be >= 2, got {self.K}")
        if self.task not in ("clustering", "ssl"):
            raise ParameterError(f"unknown task {self.task!r}")
        if self.modality not in ("similarity", "connectivity"):
            raise ParameterError(f"unknown modality {self.modality!r}")
        if not 0.0 < self.delta <= 0.5:
            raise ParameterError(f"delta must lie in (0, 0.5], got {self.delta}")
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}")
        for v in self.extra_variants:
            if v not in VARIANTS:
                raise ParameterError(f"variant must be one of {VARIANTS}")
        check_kmeans_counts(self.kmeans_restarts, self.kmeans_max_iters)
        check_workers(self.workers)

    def lambdas(self) -> tuple:
        if self.lambda_grid:
            return tuple(self.lambda_grid)
        if self.modality == "similarity":
            return DEFAULT_SIMILARITY_LAMBDAS
        return DEFAULT_CONNECTIVITY_LAMBDAS

    def ks(self, n: int) -> tuple:
        grid = self.k_grid if self.k_grid else DEFAULT_K_GRID
        out = tuple(k for k in grid if 1 <= k <= n - 1)
        if not out:
            raise ParameterError("k grid is empty after clipping to [1, n-1]")
        return out

    def sigma_exps(self) -> tuple:
        return tuple(self.sigma_exponents) if self.sigma_exponents else DEFAULT_SIGMA_EXPONENTS


@dataclass(frozen=True)
class CandidateCut:
    """A candidate partition plus the parameters that generated it."""

    partition: Partition
    lam: float
    k: int | None
    sigma: float | None
    generator: str
    feasible: bool
    min_cluster_size: int
    baseline_cut: float
    normalized_cut: float
    index: int

    def params(self) -> dict:
        return {"lambda": self.lam, "k": self.k, "sigma": self.sigma,
                "generator": self.generator}


def _feasible(min_size: int, delta: float, n: int) -> bool:
    return min_size > delta * n


def _candidate(partition, lam, k, sigma, generator, cfg, n, baseline,
               baseline_edges, index):
    sizes = partition.sizes()
    min_size = int(sizes.min())
    cut = cut_value(baseline, partition)
    return CandidateCut(
        partition=partition, lam=lam, k=k, sigma=sigma, generator=generator,
        feasible=_feasible(min_size, cfg.delta, n),
        min_cluster_size=min_size, baseline_cut=cut,
        normalized_cut=cut / baseline_edges if baseline_edges else 0.0,
        index=index)


def generate_candidates(data, cfg: PCutConfig,
                        labels: LabelSet | None = None) -> list[CandidateCut]:
    """Build the RMD family over the grid and score every partition.

    The density rank vector is computed once (on the construction baseline
    for features, on the input graph for networks) and reused across the
    grid. Cut values are taken on the model-selection baseline graph for the
    similarity modality and on the original input graph for connectivity.
    """
    if cfg.task == "ssl":
        if labels is None:
            raise ParameterError("ssl task needs a label set")
        if labels.K != cfg.K:
            raise ParameterError(
                f"label set has K={labels.K} classes but the config has K={cfg.K}")
    if cfg.modality == "similarity":
        return _similarity_candidates(as_features(data), cfg, labels)
    if not isinstance(data, WeightedGraph):
        raise InputError("connectivity modality expects a WeightedGraph")
    return _connectivity_candidates(data, cfg, labels)


def _flavors(cfg):
    """(generator, variant) of every k-means candidate of one grid point."""
    flavors = [("sc", cfg.variant)]
    for extra in cfg.extra_variants:
        if extra != cfg.variant:
            flavors.append(("sc_alt", extra))
    return flavors


def _ssl_chunk(chunk, build_graph, labels):
    """One harmonic partition per grid point of `chunk`, when it solves."""
    out = []
    for grid_index, params in chunk:
        graph = build_graph(params)
        produced = []
        try:
            produced.append(("grf", grf_propagate(graph, labels)))
        except (ConstraintError, NumericError):
            # a modulated graph may strand unlabeled components, or tie them
            # to the labels only by weights below rounding so the harmonic
            # system is singular; that grid point contributes no candidate
            pass
        out.append((grid_index, params, produced))
    return out


def _clustering_chunk(chunk, build_graph, cfg, min_side):
    """The partitions of a run of consecutive grid points, in two phases.

    First each grid point builds its graph and embeds it once per flavour,
    with the bundle of its Laplacian computed at most once; the normalized
    flavours and the sweep share one. A graph whose edge arrays equal those
    of the grid point before it reuses that point's bundles and embeddings.
    Then one kmeans_batch call clusters every embedding of the chunk, each
    with the seed of its grid point.
    """
    flavors = _flavors(cfg)
    embeddings, seeds, swept = [], [], []
    edges = None
    for grid_index, params in chunk:
        graph = build_graph(params)
        if edges is None or not all(map(np.array_equal, graph.edge_arrays(), edges)):
            edges = graph.edge_arrays()
            bundle = functools.cache(functools.partial(spectral_bundle, graph, cfg.K))
            rows = [_embedding_rows(bundle(variant != "rcut_unnormalized"),
                                    cfg.K, variant, graph.n)
                    for _, variant in flavors]
        embeddings += rows
        seeds += [mix_seed(cfg.seed, grid_index)] * len(flavors)
        sweep = None
        if cfg.sweep_cuts and cfg.K == 2:
            sweep = sweep_from_bundle(bundle(True), graph.n, min_side)
        swept.append(sweep)
    partitions = iter(kmeans_batch(np.stack(embeddings), cfg.K, seeds,
                                   cfg.kmeans_restarts, cfg.kmeans_max_iters))
    out = []
    for (grid_index, params), sweep in zip(chunk, swept):
        produced = [(gen, next(partitions)) for gen, _ in flavors]
        if sweep is not None:
            produced.append(("sweep", sweep))
        out.append((grid_index, params, produced))
    return out


def _run_grid(points, build_graph, cfg, labels, n, baseline, baseline_edges):
    """Candidates of every grid point, in grid order.

    The grid is cut into chunks of consecutive points. A clustering chunk
    holds as many points as fit their k-means problems into one batch
    (kmeans_batch_problems); an ssl chunk is one point. With workers > 1
    the chunks run on a thread pool.
    """
    if cfg.task == "ssl":
        size = 1
        job = functools.partial(_ssl_chunk, build_graph=build_graph, labels=labels)
    else:
        size = max(1, kmeans_batch_problems(n, cfg.K, cfg.K, cfg.kmeans_restarts)
                   // len(_flavors(cfg)))
        job = functools.partial(_clustering_chunk, build_graph=build_graph,
                                cfg=cfg, min_side=cfg.delta * n)
    indexed = list(enumerate(points))
    chunks = [indexed[lo:lo + size] for lo in range(0, len(indexed), size)]
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(job, chunks))
    else:
        results = [job(chunk) for chunk in chunks]
    candidates = []
    for grid_index, params, produced in itertools.chain.from_iterable(results):
        lam, k, sigma = params
        for generator, partition in produced:
            candidates.append(_candidate(partition, lam, k, sigma, generator,
                                         cfg, n, baseline, baseline_edges,
                                         len(candidates)))
    return candidates


def _similarity_candidates(f: FeatureMatrix, cfg, labels):
    # one neighbor table serves every search below (modulated_k <= 2k); it
    # is sized from the unclipped grid so that a too small input still fails
    # in baseline_graph
    widest = max(2 * max(cfg.k_grid or DEFAULT_K_GRID),
                 construction_k0(f.n), selection_k0(f.n))
    f.neighbors(min(widest, f.n - 1))
    ranks = rank(eta_similarity(f, baseline_graph(f, "construction")))
    selection = baseline_graph(f, "selection")
    baseline_edges = selection.m
    ks = cfg.ks(f.n)
    dk = {k: avg_knn_distance(f, k) for k in ks}
    points = [(lam, k, (2.0 ** j) * dk[k])
              for lam, k, j in itertools.product(cfg.lambdas(), ks, cfg.sigma_exps())]

    def build(params):
        lam, k, sigma = params
        return rmd_similarity_graph(f, ranks, lam, k, weights="rbf", sigma=sigma)

    return _run_grid(points, build, cfg, labels, f.n, selection, baseline_edges)


def _connectivity_candidates(g: WeightedGraph, cfg, labels):
    counts = common_neighbor_counts(g)
    ranks = rank(eta_connectivity(g, counts=counts))
    points = [(lam, None, None) for lam in cfg.lambdas()]

    def build(params):
        lam, _, _ = params
        return rmd_connectivity_graph(g, ranks, lam, counts=counts)

    return _run_grid(points, build, cfg, labels, g.n, g, g.m)


def pcut_select(candidates: list[CandidateCut]) -> CandidateCut:
    """Minimum baseline cut among feasible candidates.

    Ties break toward larger lambda, then the primary generator, then larger
    smallest cluster, then grid order.
    """
    if not candidates:
        raise ParameterError("candidate list is empty")
    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        best_bad = min(candidates,
                       key=lambda c: (c.baseline_cut, -c.min_cluster_size, c.index))
        raise NoFeasiblePartitionError(
            "no candidate satisfies the minimum-cluster-size constraint; "
            f"best infeasible: params={best_bad.params()}, "
            f"min cluster size {best_bad.min_cluster_size}, "
            f"cut {best_bad.baseline_cut}",
            best_infeasible=best_bad)
    return min(feasible, key=lambda c: (
        c.baseline_cut, -c.lam, _GENERATOR_PRIORITY.get(c.generator, 9),
        -c.min_cluster_size, c.index))


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
