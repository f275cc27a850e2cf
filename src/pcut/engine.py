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

Work that does not change along the grid is done once per input: the
density ranks, the baselines and, for feature inputs, the neighbor table;
for networks, the common-neighbor counts and the order in which each node
marks its edges (rmd_connectivity_family), so that a connectivity grid
point only counts how many edges each node drops.

Work that does not change with sigma is done once per sigma run, the
consecutive grid points that share (lambda, k): the edge selection
(rmd_similarity_edges), which each sigma only weighs. An ssl chunk is one
sigma run; it keeps one harmonic pattern (propagation.HarmonicPattern) for
as long as its graphs' edges (u, v) stay equal: the component check, the
band order of the unlabeled nodes and the band layout of L_uu. A
clustering chunk selects once per sigma run, or part of one, that it holds.
Both reuse rules compare a graph with the one before it in the chunk, so
each pool thread's chunk holds its own reused work.

A grid point whose harmonic system strands a component or is singular, or
needs the dense fallback above DENSE_MAX_NODES, gives no candidate; when no
grid point gives one, generate_candidates raises the error of the first
skipped point. A skip keeps only its error's type and message, not its
traceback, so a skipped point's graph and dense arrays are freed at once.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .construction import (FeatureMatrix, _weighted_graph, as_features,
                           avg_knn_distance, baseline_graph, construction_k0,
                           selection_k0)
from .errors import (ConstraintError, InputError, NoFeasiblePartitionError,
                     NumericError, ParameterError, check_counts)
from .graph import Partition, WeightedGraph, cut_value
from .propagation import HarmonicPattern, LabelSet
from .ranking import (common_neighbor_counts, eta_connectivity,
                      eta_similarity, rank)
from .rmd import rmd_connectivity_family, rmd_similarity_edges
from .spectral import (_embedding_rows, check_k_and_variants, kmeans_batch,
                       kmeans_batch_problems, spectral_bundle, sweep_from_bundle)

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


@dataclass(frozen=True)
class PCutConfig:
    """Grid, constraint, and black-box configuration for one run.

    A configuration that would run work it does not echo, or echo work it
    does not run, raises ParameterError naming the field and its value:
    - sweep_cuts outside K = 2 clustering: the sweep bisects the graph;
    - extra_variants with task "ssl": harmonic propagation has no flavour;
    - k_grid or sigma_exponents with the connectivity modality: a network
      grid spans lambda alone;
    - a lambda_grid entry outside [0, 1], NaN included: only these lambda
      mix the plain and rank-scaled neighbour counts, k (lambda + 2 (1-lambda) r);
    - a sigma exponent j outside [-1022, 1023]: sigma = 2^j d_k, and 2^j
      is a normal float only for these j.

    A grid entry named twice, in lambda_grid, k_grid or sigma_exponents,
    runs once; each grid keeps its distinct entries in first-occurrence
    order. The k-means restart and iteration counts are fixed constants.
    Only k-means reads seed: an ssl run draws no random numbers.
    """

    K: int
    task: str = "clustering"              # clustering | ssl
    modality: str = "similarity"          # similarity | connectivity
    delta: float = 0.05
    lambda_grid: tuple = ()
    k_grid: tuple = ()
    sigma_exponents: tuple = ()
    variant: str = "ncut_rw"              # spectral flavor of the SC black box
    extra_variants: tuple = ()            # additional k-means flavors per grid point
    sweep_cuts: bool = False              # add min-cut sweep candidates
    seed: int = 0
    workers: int = 1
    kmeans_restarts: ClassVar[int] = 10
    kmeans_max_iters: ClassVar[int] = 100

    def __post_init__(self):
        check_k_and_variants(self.K, (self.variant, *self.extra_variants))
        if self.task not in ("clustering", "ssl"):
            raise ParameterError(f"unknown task {self.task!r}")
        if self.modality not in ("similarity", "connectivity"):
            raise ParameterError(f"unknown modality {self.modality!r}")
        if not 0.0 < self.delta <= 0.5:
            raise ParameterError(f"delta must lie in (0, 0.5], got {self.delta}")
        if self.sweep_cuts and (self.task, self.K) != ("clustering", 2):
            raise ParameterError("sweep_cuts needs K = 2 clustering, got "
                                 f"task {self.task!r} with K = {self.K}")
        if self.extra_variants and self.task == "ssl":
            raise ParameterError("extra_variants needs task 'clustering', got "
                                 f"{self.extra_variants!r} with task 'ssl'")
        for grid in ("k_grid", "sigma_exponents"):
            if getattr(self, grid) and self.modality == "connectivity":
                raise ParameterError(
                    f"{grid} needs the similarity modality, got "
                    f"{getattr(self, grid)!r}: a connectivity grid spans "
                    "lambda only")
        exps = (sys.float_info.min_exp - 1, sys.float_info.max_exp - 1)
        for grid, (lo, hi) in (("lambda_grid", (0, 1)), ("sigma_exponents", exps)):
            for entry in getattr(self, grid):
                if not lo <= entry <= hi:  # NaN fails both comparisons
                    raise ParameterError(
                        f"{grid} entry {entry!r} lies outside [{lo}, {hi}]")
        # a flavor or grid entry named twice, or the main variant named
        # again, is run once
        object.__setattr__(self, "extra_variants", tuple(
            v for v in dict.fromkeys(self.extra_variants) if v != self.variant))
        for grid in ("lambda_grid", "k_grid", "sigma_exponents"):
            object.__setattr__(self, grid, tuple(dict.fromkeys(getattr(self, grid))))
        check_counts(workers=self.workers)

    def lambdas(self) -> tuple:
        if self.lambda_grid:
            return self.lambda_grid
        if self.modality == "similarity":
            return DEFAULT_SIMILARITY_LAMBDAS
        return DEFAULT_CONNECTIVITY_LAMBDAS

    def ks(self, n: int) -> tuple:
        grid = self.k_grid or DEFAULT_K_GRID
        out = tuple(k for k in grid if 1 <= k <= n - 1)
        if not out:
            raise ParameterError("k grid is empty after clipping to [1, n-1]")
        return out

    def sigma_exps(self) -> tuple:
        return self.sigma_exponents or DEFAULT_SIGMA_EXPONENTS


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


def _candidate(partition, lam, k, sigma, generator, cfg, n, baseline, index):
    sizes = partition.sizes()
    min_size = int(sizes.min())
    cut = cut_value(baseline, partition)
    return CandidateCut(
        partition=partition, lam=lam, k=k, sigma=sigma, generator=generator,
        feasible=min_size > cfg.delta * n,
        min_cluster_size=min_size, baseline_cut=cut,
        normalized_cut=cut / baseline.m if baseline.m else 0.0,
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
        data = as_features(data)
    elif not isinstance(data, WeightedGraph):
        raise InputError("connectivity modality expects a WeightedGraph")
    if cfg.K > data.n:  # before any n x K array is allocated
        raise ParameterError(f"need at least K={cfg.K} nodes, got {data.n}")
    if cfg.modality == "similarity":
        return _similarity_candidates(data, cfg, labels)
    return _connectivity_candidates(data, cfg, labels)


def _flavors(cfg):
    """(generator, variant) of every k-means candidate of one grid point."""
    return [("sc", cfg.variant)] + [("sc_alt", extra) for extra in cfg.extra_variants]


def _ssl_chunk(chunk, build_graphs, labels):
    """One harmonic partition per grid point of `chunk`, or the error that
    skipped the point.

    A graph whose edges (u, v) equal those of the grid point before it
    reuses that point's harmonic pattern (propagation.HarmonicPattern): one
    component check, one band order and one band layout.
    """
    out = []
    pattern = None
    for (grid_index, params), graph in zip(chunk, build_graphs(
            [params for _, params in chunk])):
        if pattern is None or not pattern.fits(graph):
            pattern = HarmonicPattern(graph, labels)
        try:
            produced = [("grf", pattern.propagate(graph))]
        except (ConstraintError, NumericError) as exc:
            # a modulated graph may strand unlabeled components, or tie
            # them to the labels only by weights below rounding so the
            # harmonic system is singular; that grid point contributes
            # no candidate. A copy of the error with no traceback and no
            # cause is kept: the original's frames would pin the point's
            # graph and dense harmonic arrays until the run ends
            produced = type(exc)(*exc.args)
        out.append((grid_index, params, produced))
    return out


def _clustering_chunk(chunk, build_graphs, cfg, min_side):
    """The partitions of a run of consecutive grid points, in two phases.

    First each grid point builds its graph and embeds it once per flavour,
    with the bundle of its Laplacian computed at most once; the normalized
    flavours and the sweep share one. A graph whose edge arrays equal those
    of the grid point before it reuses that point's bundles, embeddings and
    sweep cut; each candidate still gets its own copy of the sweep's
    assignment. Then one kmeans_batch call clusters every embedding of the
    chunk, each with the seed of its grid point.
    """
    flavors = _flavors(cfg)
    embeddings, seeds, swept = [], [], []
    edges = None
    for (grid_index, params), graph in zip(chunk, build_graphs(
            [params for _, params in chunk])):
        if edges is None or not all(map(np.array_equal, graph.edge_arrays(), edges)):
            edges = graph.edge_arrays()
            bundle = functools.cache(functools.partial(spectral_bundle, graph, cfg.K))
            rows = [_embedding_rows(bundle(variant != "rcut_unnormalized"),
                                    cfg.K, variant, graph.n)
                    for _, variant in flavors]
            sweep = None
            if cfg.sweep_cuts:
                sweep = sweep_from_bundle(bundle(True), graph.n, min_side)
        embeddings += rows
        seeds += [mix_seed(cfg.seed, grid_index)] * len(flavors)
        swept.append(None if sweep is None else
                     Partition(assignment=sweep.assignment.copy(), K=2))
    partitions = iter(kmeans_batch(np.stack(embeddings), cfg.K, seeds,
                                   cfg.kmeans_restarts, cfg.kmeans_max_iters))
    out = []
    for (grid_index, params), sweep in zip(chunk, swept):
        produced = [(gen, next(partitions)) for gen, _ in flavors]
        if sweep is not None:
            produced.append(("sweep", sweep))
        out.append((grid_index, params, produced))
    return out


def _run_grid(points, build_graphs, cfg, labels, n, baseline):
    """Candidates of every grid point, in grid order.

    `build_graphs` maps a list of grid points to an iterator of their
    graphs. The grid is cut into chunks of consecutive points. A clustering
    chunk holds as many points as fit their k-means problems into one batch
    (kmeans_batch_problems); an ssl chunk is one sigma run, the points that
    share (lambda, k). With workers > 1 the chunks run on a thread pool.
    When no grid point gives a candidate, the first skipped point's error
    is raised.
    """
    indexed = list(enumerate(points))
    if cfg.task == "ssl":
        job = functools.partial(_ssl_chunk, build_graphs=build_graphs, labels=labels)
        chunks = [list(run) for _, run in
                  itertools.groupby(indexed, key=lambda item: item[1][:2])]
    else:
        size = max(1, kmeans_batch_problems(n, cfg.K, cfg.K, cfg.kmeans_restarts)
                   // len(_flavors(cfg)))
        job = functools.partial(_clustering_chunk, build_graphs=build_graphs,
                                cfg=cfg, min_side=cfg.delta * n)
        chunks = [indexed[lo:lo + size] for lo in range(0, len(indexed), size)]
    if cfg.workers > 1:
        # imported here, so that serial runs do not load concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(job, chunks))
    else:
        results = [job(chunk) for chunk in chunks]
    candidates, skips = [], []
    for grid_index, params, produced in itertools.chain.from_iterable(results):
        if isinstance(produced, Exception):
            skips.append(produced)
            continue
        lam, k, sigma = params
        for generator, partition in produced:
            candidates.append(_candidate(partition, lam, k, sigma, generator,
                                         cfg, n, baseline, len(candidates)))
    if skips and not candidates:
        raise skips[0]
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
    ks = cfg.ks(f.n)
    dk = {k: avg_knn_distance(f, k) for k in ks}
    for k, d in dk.items():
        if d <= 0.0:
            raise InputError(f"every point has at least {k} exact duplicates, "
                             f"so the bandwidth d_k of k={k} is 0")
    points = [(lam, k, (2.0 ** j) * dk[k])
              for lam, k, j in itertools.product(cfg.lambdas(), ks, cfg.sigma_exps())]

    def build(params_list):
        # one edge selection per run of points that share (lambda, k); each
        # sigma only weighs it
        for (lam, k), run in itertools.groupby(params_list, key=lambda p: p[:2]):
            u, v, dist = rmd_similarity_edges(f, ranks, lam, k)
            for _, _, sigma in run:
                yield _weighted_graph(f.n, u, v, dist, "rbf", sigma)

    return _run_grid(points, build, cfg, labels, f.n, selection)


def _connectivity_candidates(g: WeightedGraph, cfg, labels):
    counts = common_neighbor_counts(g)
    ranks = rank(eta_connectivity(g, counts=counts))
    points = [(lam, None, None) for lam in cfg.lambdas()]
    graph_at = rmd_connectivity_family(g, ranks, counts=counts)

    def build(params_list):
        return (graph_at(lam) for lam, _, _ in params_list)

    return _run_grid(points, build, cfg, labels, g.n, g)


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
