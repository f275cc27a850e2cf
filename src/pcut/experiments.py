"""Preset experiment runners mirroring the benchmark studies.

Each preset writes per-run JSON reports plus an aggregate CSV of means and
standard deviations, and returns a summary dict so tests can gate on it
without re-parsing files.
"""

from __future__ import annotations

import csv
import importlib.resources as resources
import time
from pathlib import Path

import numpy as np

from .engine import (CandidateCut, PCutConfig, check_workers, generate_candidates,
                     pcut_select)
from .errors import NoFeasiblePartitionError, ParameterError
from .evaluation import clustering_error
from .graph import Partition, WeightedGraph, largest_component_nodes
from .io import read_edge_list, read_labels_csv
from .construction import avg_knn_distance
from .rmd import rmd_similarity_graph
from .ranking import eta_similarity, rank
from .construction import baseline_graph, knn_graph
from .spectral import SpectralConfig, spectral_clustering
from .synth import SbmSpec, crescent_constants, crescent_dataset, sbm_generate, stream

EXPERIMENTS = ("sbm-lambda-sweep", "sbm-alpha-sweep", "karate", "dolphins",
               "crescents")

# Experiment presets mirror the source studies. Block-model presets report
# the textbook normalized-cut flavor as the plain-SC baseline and enable
# sweep-cut candidates (their regime needs min-cut roundings, which k-means
# discretization cannot supply); the real-network presets use the
# random-walk flavor as the baseline and, for karate, the plain black-box
# family without sweeps. Reports echo the configuration either way.
_SBM_VARIANTS = dict(variant="ncut_normalized", extra_variants=("ncut_rw",))
_NETWORK_VARIANTS = dict(variant="ncut_rw", extra_variants=("ncut_normalized",))


def data_path(name: str) -> Path:
    return Path(str(resources.files("pcut").joinpath("data", name)))


def load_bundled_network(name: str):
    """Bundled benchmark network and its ground-truth communities."""
    g = read_edge_list(data_path(f"{name}.edges"))
    labels = read_labels_csv(data_path(f"{name}_communities.csv"))
    truth = np.zeros(g.n, dtype=np.int64)
    for node_1based, cls in labels.items():
        truth[node_1based - 1] = cls
    return g, Partition(assignment=truth, K=int(truth.max()) + 1)


def _lambda_one_sc(candidates) -> CandidateCut:
    """The plain-SC candidate: primary generator at lambda = 1."""
    for c in candidates:
        if c.generator == "sc" and abs(c.lam - 1.0) < 1e-12:
            return c
    raise ParameterError("lambda = 1 is not on the grid")


def _connectivity_run(g, truth, delta, seed, workers=1, sweep=True,
                      variants=_NETWORK_VARIANTS):
    cfg = PCutConfig(K=truth.K, task="clustering", modality="connectivity",
                     delta=delta, sweep_cuts=sweep, seed=seed, workers=workers,
                     **variants)
    candidates = generate_candidates(g, cfg)
    selected = pcut_select(candidates)
    plain = _lambda_one_sc(candidates)
    return candidates, selected, plain


def _err(partition, truth) -> float:
    return clustering_error(partition, truth).error_rate


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_sbm_lambda_sweep(out_dir=None, n=500, alpha=0.05, p1=0.2, q=0.03,
                         n_seeds=20, base_seed=42, workers=1):
    """Equal-degree block model at fixed imbalance, swept over lambda.

    Reports per-lambda mean error and normalized cut for the plain spectral
    flavor, plus the selected-partition and plain-SC error summary.
    """
    t0 = time.time()
    per_seed = []
    lam_errors: dict = {}
    lam_cuts: dict = {}
    for s in range(n_seeds):
        g, truth = sbm_generate(SbmSpec(n=n, alpha=alpha, p1=p1, q=q,
                                        equalize_degrees=True,
                                        seed=base_seed + s))
        candidates, selected, plain = _connectivity_run(
            g, truth, delta=alpha, seed=base_seed + s, workers=workers,
            variants=_SBM_VARIANTS)
        per_seed.append({
            "seed": base_seed + s,
            "sc_error": _err(plain.partition, truth),
            "pcut_error": _err(selected.partition, truth),
            "selected": selected.params(),
            "selected_cut": selected.baseline_cut,
        })
        for c in candidates:
            if c.generator != "sc":
                continue
            lam_errors.setdefault(c.lam, []).append(_err(c.partition, truth))
            lam_cuts.setdefault(c.lam, []).append(c.normalized_cut)
    sc = float(np.mean([r["sc_error"] for r in per_seed]))
    pc = float(np.mean([r["pcut_error"] for r in per_seed]))
    summary = {
        "experiment": "sbm-lambda-sweep",
        "n": n, "alpha": alpha, "p1": p1, "q": q, "delta": alpha,
        "n_seeds": n_seeds, "base_seed": base_seed,
        "mean_sc_error": sc,
        "mean_pcut_error": pc,
        "relative_reduction": 1.0 - pc / sc if sc > 0 else 0.0,
        "per_seed": per_seed,
        "wall_seconds": time.time() - t0,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [(lam,
                 float(np.mean(lam_errors[lam])), float(np.std(lam_errors[lam])),
                 float(np.mean(lam_cuts[lam])), float(np.std(lam_cuts[lam])))
                for lam in sorted(lam_errors)]
        _write_csv(out / "sbm_lambda_sweep.csv",
                   ["lambda", "mean_error", "std_error",
                    "mean_normalized_cut", "std_normalized_cut"], rows)
    return summary


def run_sbm_alpha_sweep(out_dir=None, n=500, p1=0.2,
                        alphas=(0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5),
                        n_seeds=20, base_seed=42, workers=1):
    """Error ratio against the imbalance coefficient, q scaled as 0.0015/alpha.

    The size floor is set a notch below the known imbalance (0.9 * alpha) so
    the planted partition itself stays admissible at every alpha. The ratio
    is mean selected error over mean plain-SC error; when both means are
    exactly zero it is reported as 1.0.
    """
    t0 = time.time()
    rows = []
    per_alpha = {}
    for alpha in alphas:
        q = 0.0015 / alpha
        if q > 1.0:
            raise ParameterError(f"q scaling exceeds 1 at alpha={alpha}")
        sc_errors, pc_errors = [], []
        for s in range(n_seeds):
            g, truth = sbm_generate(SbmSpec(n=n, alpha=alpha, p1=p1, q=q,
                                            equalize_degrees=True,
                                            seed=base_seed + s))
            _, selected, plain = _connectivity_run(
                g, truth, delta=0.9 * alpha, seed=base_seed + s, workers=workers,
                variants=_SBM_VARIANTS)
            sc_errors.append(_err(plain.partition, truth))
            pc_errors.append(_err(selected.partition, truth))
        mean_sc = float(np.mean(sc_errors))
        mean_pc = float(np.mean(pc_errors))
        if mean_sc == 0.0:
            ratio = 1.0 if mean_pc == 0.0 else float("inf")
        else:
            ratio = mean_pc / mean_sc
        per_alpha[alpha] = {"mean_sc_error": mean_sc, "mean_pcut_error": mean_pc,
                            "error_ratio": ratio, "q": q}
        rows.append((alpha, q, mean_sc, float(np.std(sc_errors)),
                     mean_pc, float(np.std(pc_errors)), ratio))
    summary = {
        "experiment": "sbm-alpha-sweep",
        "n": n, "p1": p1, "n_seeds": n_seeds, "base_seed": base_seed,
        "per_alpha": per_alpha,
        "wall_seconds": time.time() - t0,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "sbm_alpha_sweep.csv",
                   ["alpha", "q", "mean_sc_error", "std_sc_error",
                    "mean_pcut_error", "std_pcut_error", "error_ratio"], rows)
    return summary


KARATE_REMOVED_1BASED = (15, 16, 19, 21, 23, 24, 27, 30)


def run_karate(out_dir=None, seed=7, workers=1):
    """Full and under-observed karate club, exact per-node outcomes.

    This preset keeps the plain spectral family (no sweep candidates),
    matching the source study's black-box configuration.
    """
    t0 = time.time()
    g, truth = load_bundled_network("karate")
    _, selected, plain = _connectivity_run(
        g, truth, delta=5 / 34, seed=seed, workers=workers, sweep=False)
    full = {
        "sc_error": _err(plain.partition, truth),
        "pcut_error": _err(selected.partition, truth),
        "sc_misattributed": _misattributed(plain.partition, truth),
        "pcut_misattributed": _misattributed(selected.partition, truth),
        "selected": selected.params(),
    }
    keep = [i for i in range(g.n) if (i + 1) not in KARATE_REMOVED_1BASED]
    g_red = g.subgraph(keep)
    truth_red = Partition(assignment=truth.assignment[keep], K=truth.K)
    _, selected_r, plain_r = _connectivity_run(
        g_red, truth_red, delta=5 / 26, seed=seed, workers=workers, sweep=False)
    old_ids = [k + 1 for k in keep]
    reduced = {
        "removed_nodes": list(KARATE_REMOVED_1BASED),
        "sc_error": _err(plain_r.partition, truth_red),
        "pcut_error": _err(selected_r.partition, truth_red),
        "sc_misattributed": _misattributed(plain_r.partition, truth_red, old_ids),
        "pcut_misattributed": _misattributed(selected_r.partition, truth_red, old_ids),
        "selected": selected_r.params(),
    }
    summary = {"experiment": "karate", "seed": seed, "full": full,
               "reduced": reduced, "wall_seconds": time.time() - t0}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "karate.csv",
                   ["graph", "sc_error", "pcut_error"],
                   [("full", full["sc_error"], full["pcut_error"]),
                    ("reduced", reduced["sc_error"], reduced["pcut_error"])])
    return summary


def _misattributed(found: Partition, truth: Partition, node_ids=None):
    """1-based ids of nodes outside the optimal matching, binary case."""
    a, t = found.assignment, truth.assignment
    flipped = 1 - a
    wrong = a != t if (a != t).sum() <= (flipped != t).sum() else flipped != t
    ids = node_ids if node_ids is not None else [i + 1 for i in range(truth.n)]
    return [ids[i] for i in np.flatnonzero(wrong)]


def run_dolphins(out_dir=None, removals=(4, 8, 12), n_samplings=100,
                 delta=0.1, base_seed=99, workers=1):
    """Under-observed dolphin network: random small-community removals.

    After removing the sampled nodes, anything disconnected from the largest
    component is dropped too; errors are means over samplings.
    """
    t0 = time.time()
    g, truth = load_bundled_network("dolphins")
    small_nodes = np.flatnonzero(truth.assignment == 0)
    per_removal = {}
    rows = []
    for r in removals:
        sc_errors, pc_errors = [], []
        for samp in range(n_samplings):
            rng = stream(base_seed + 1_000_000 * r + samp, "dolphin-removal")
            removed = set(rng.choice(small_nodes, size=r, replace=False).tolist())
            keep = [i for i in range(g.n) if i not in removed]
            g_cut = g.subgraph(keep)
            giant = largest_component_nodes(g_cut)
            g_obs = g_cut.subgraph(giant)
            truth_obs = Partition(
                assignment=truth.assignment[np.asarray(keep)][giant], K=truth.K)
            _, selected, plain = _connectivity_run(
                g_obs, truth_obs, delta=delta, seed=base_seed + samp,
                workers=workers)
            sc_errors.append(_err(plain.partition, truth_obs))
            pc_errors.append(_err(selected.partition, truth_obs))
        per_removal[r] = {
            "mean_sc_error": float(np.mean(sc_errors)),
            "mean_pcut_error": float(np.mean(pc_errors)),
            "std_sc_error": float(np.std(sc_errors)),
            "std_pcut_error": float(np.std(pc_errors)),
        }
        rows.append((r, per_removal[r]["mean_sc_error"],
                     per_removal[r]["std_sc_error"],
                     per_removal[r]["mean_pcut_error"],
                     per_removal[r]["std_pcut_error"]))
    summary = {"experiment": "dolphins", "removals": list(removals),
               "n_samplings": n_samplings, "delta": delta,
               "base_seed": base_seed, "per_removal": per_removal,
               "wall_seconds": time.time() - t0}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "dolphins.csv",
                   ["removed", "mean_sc_error", "std_sc_error",
                    "mean_pcut_error", "std_pcut_error"], rows)
    return summary


def run_crescents(out_dir=None, n=1000, noise=0.08, seed=11, lam=0.5, k=30):
    """Illustrative three-cluster run: two crescents plus a small blob.

    Single run, no grid search: ratio-cut spectral clustering on the plain
    k-NN graph versus the rank-modulated graph at a fixed lambda.
    """
    t0 = time.time()
    f, labels = crescent_dataset(n, noise=noise, seed=seed)
    truth = Partition(assignment=labels, K=3)
    sigma = avg_knn_distance(f, k)
    ranks = rank(eta_similarity(f, baseline_graph(f, "construction")))
    plain_graph = knn_graph(f, k, weights="rbf", sigma=sigma)
    rmd_graph = rmd_similarity_graph(f, ranks, lam, k, weights="rbf", sigma=sigma)
    sc_cfg = SpectralConfig(K=3, variant="rcut_unnormalized", seed=seed)
    plain_part = spectral_clustering(plain_graph, sc_cfg)
    rmd_part = spectral_clustering(rmd_graph, sc_cfg)
    summary = {
        "experiment": "crescents",
        "n": n, "noise": noise, "seed": seed, "lambda": lam, "k": k,
        "sigma": sigma,
        "geometry": crescent_constants(),
        "knn_error": _err(plain_part, truth),
        "rmd_error": _err(rmd_part, truth),
        "wall_seconds": time.time() - t0,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "crescents.csv",
                   ["graph", "error"],
                   [("knn", summary["knn_error"]), ("rmd", summary["rmd_error"])])
    return summary


def run_experiment(name: str, out_dir=None, workers: int = 1, **overrides):
    check_workers(workers)
    if name == "sbm-lambda-sweep":
        return run_sbm_lambda_sweep(out_dir, workers=workers, **overrides)
    if name == "sbm-alpha-sweep":
        return run_sbm_alpha_sweep(out_dir, workers=workers, **overrides)
    if name == "karate":
        return run_karate(out_dir, workers=workers, **overrides)
    if name == "dolphins":
        return run_dolphins(out_dir, workers=workers, **overrides)
    if name == "crescents":
        return run_crescents(out_dir, **overrides)
    raise ParameterError(
        f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}")
