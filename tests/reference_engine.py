"""The engine's grid loop as it was before grid chunks: a reference for tests.

_partitions_for_graph and _run_grid below are kept verbatim from that
engine. Every grid point computes its own bundles and calls kmeans once per
flavour. Patching pcut.engine._run_grid with this _run_grid makes
generate_candidates run the old loop; a test may also patch this module's
_partitions_for_graph to go back one more step.
"""

import functools
from concurrent.futures import ThreadPoolExecutor

from pcut.engine import _candidate, mix_seed
from pcut.errors import ConstraintError, NumericError
from pcut.propagation import grf_propagate
from pcut.spectral import (_embedding_rows, kmeans, spectral_bundle,
                           sweep_from_bundle)


def _partitions_for_graph(graph, cfg, labels, cand_seed, min_side):
    """One partition per enabled generator on a single candidate graph.

    Every flavour embeds with its Laplacian's bundle, computed at most once;
    the normalized flavours and the sweep share one.
    """
    out = []
    if cfg.task == "ssl":
        try:
            out.append(("grf", grf_propagate(graph, labels)))
        except (ConstraintError, NumericError):
            # a modulated graph may strand unlabeled components, or tie them
            # to the labels only by weights below rounding so the harmonic
            # system is singular; that grid point contributes no candidate
            pass
        return out
    flavors = [("sc", cfg.variant)]
    for extra in cfg.extra_variants:
        if extra != cfg.variant:
            flavors.append(("sc_alt", extra))
    bundle = functools.cache(
        lambda normalized: spectral_bundle(graph, cfg.K, normalized))
    for gen, variant in flavors:
        points = _embedding_rows(bundle(variant != "rcut_unnormalized"),
                                 cfg.K, variant, graph.n)
        out.append((gen, kmeans(points, cfg.K, restarts=cfg.kmeans_restarts,
                                max_iters=cfg.kmeans_max_iters, seed=cand_seed)))
    if cfg.sweep_cuts and cfg.K == 2:
        swept = sweep_from_bundle(bundle(True), graph.n, min_side)
        if swept is not None:
            out.append(("sweep", swept))
    return out


def _run_grid(points, build_graph, cfg, labels, n, baseline, baseline_edges):
    min_side = cfg.delta * n

    def job(item):
        grid_index, params = item
        graph = build_graph(params)
        cand_seed = mix_seed(cfg.seed, grid_index)
        produced = _partitions_for_graph(graph, cfg, labels, cand_seed, min_side)
        return grid_index, params, produced

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(job, enumerate(points)))
    else:
        results = [job(item) for item in enumerate(points)]
    results.sort(key=lambda r: r[0])
    candidates = []
    index = 0
    for grid_index, params, produced in results:
        lam, k, sigma = params
        for generator, partition in produced:
            candidates.append(_candidate(partition, lam, k, sigma, generator,
                                         cfg, n, baseline, baseline_edges, index))
            index += 1
    return candidates
