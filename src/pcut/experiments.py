"""Preset experiment runners mirroring the benchmark studies.

Each preset is a fixed study: its sizes and seeds are the module constants
below, and its keyword parameters are the only overrides it takes (`pcut
experiment <preset>` reads its flags from them). A count below 1 raises
ParameterError before any trial. Presets run on one worker: a karate or
dolphins grid is one engine chunk, and a second worker ran the block-model
sweeps no faster. A preset writes an aggregate CSV of means
and standard deviations under out_dir and returns a summary dict, so tests
can gate on it without re-parsing files.
"""

from __future__ import annotations

import csv
import importlib.resources as resources
from pathlib import Path

import numpy as np

from .engine import CandidateCut, PCutConfig, generate_candidates, pcut_select
from .errors import ParameterError, check_counts
from .evaluation import clustering_error
from .graph import Partition, largest_component_nodes
from .io import read_edge_list, read_labels_csv
from .synth import SbmSpec, crescent_constants, crescent_dataset, sbm_generate, stream

# Experiment presets mirror the source studies. Block-model presets report
# the textbook normalized-cut flavor as the plain-SC baseline and enable
# sweep-cut candidates (their regime needs min-cut roundings, which k-means
# discretization cannot supply); the real-network presets use the
# random-walk flavor as the baseline and, for karate, the plain black-box
# family without sweeps. Reports echo the configuration either way.
_SBM_VARIANTS = dict(variant="ncut_normalized", extra_variants=("ncut_rw",))
_NETWORK_VARIANTS = dict(variant="ncut_rw", extra_variants=("ncut_normalized",))

# block models: both sweeps draw equal-degree graphs of SBM_N nodes
SBM_N, SBM_P1, SBM_SEEDS, SBM_BASE_SEED = 500, 0.2, 20, 42
LAMBDA_SWEEP_ALPHA, LAMBDA_SWEEP_Q = 0.05, 0.03
ALPHA_SWEEP_ALPHAS = (0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)
KARATE_SEED = 7
KARATE_REMOVED_1BASED = (15, 16, 19, 21, 23, 24, 27, 30)
DOLPHINS_REMOVALS, DOLPHINS_SAMPLINGS = (4, 8, 12), 100
DOLPHINS_DELTA, DOLPHINS_BASE_SEED = 0.1, 99
CRESCENTS_N, CRESCENTS_NOISE, CRESCENTS_SEED = 1000, 0.08, 11
CRESCENTS_LAMBDA, CRESCENTS_K = 0.5, 30


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


def _connectivity_run(g, truth, delta, seed, sweep=True, variants=_NETWORK_VARIANTS):
    cfg = PCutConfig(K=truth.K, task="clustering", modality="connectivity",
                     delta=delta, sweep_cuts=sweep, seed=seed, **variants)
    candidates = generate_candidates(g, cfg)
    selected = pcut_select(candidates)
    plain = _lambda_one_sc(candidates)
    return candidates, selected, plain


def _err(partition, truth) -> float:
    return clustering_error(partition, truth).error_rate


# a preset's error statistics, in its CSV's column order (_error_stats)
_ERROR_COLUMNS = ("mean_sc_error", "std_sc_error", "mean_pcut_error", "std_pcut_error")


def _error_stats(sc_errors, pc_errors) -> tuple:
    """Mean and standard deviation of each error list, as _ERROR_COLUMNS."""
    return tuple(float(stat(e)) for e in (sc_errors, pc_errors)
                 for stat in (np.mean, np.std))


def _write_csv(out_dir, name, header, rows):
    """Write out_dir/name; a run without out_dir writes nothing."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _sbm_trial(alpha, q, delta, seed):
    """One equal-degree block-model run: its truth, candidates, selected
    candidate and plain-SC candidate."""
    g, truth = sbm_generate(SbmSpec(n=SBM_N, alpha=alpha, p1=SBM_P1, q=q,
                                    equalize_degrees=True, seed=seed))
    return (truth, *_connectivity_run(g, truth, delta=delta, seed=seed,
                                      variants=_SBM_VARIANTS))


def run_sbm_lambda_sweep(out_dir=None, n_seeds=SBM_SEEDS):
    """Equal-degree block model at fixed imbalance, swept over lambda.

    Reports per-lambda mean error and normalized cut for the plain spectral
    flavor, plus the selected-partition and plain-SC error summary.
    """
    check_counts(n_seeds=n_seeds)
    per_seed = []
    lam_errors: dict = {}
    lam_cuts: dict = {}
    for seed in range(SBM_BASE_SEED, SBM_BASE_SEED + n_seeds):
        truth, candidates, selected, plain = _sbm_trial(
            LAMBDA_SWEEP_ALPHA, LAMBDA_SWEEP_Q, LAMBDA_SWEEP_ALPHA, seed)
        per_seed.append({
            "seed": seed,
            "sc_error": _err(plain.partition, truth),
            "pcut_error": _err(selected.partition, truth),
            "selected": selected.params(),
            "selected_cut": selected.baseline_cut,
        })
        for c in candidates:
            if c.generator == "sc":
                lam_errors.setdefault(c.lam, []).append(_err(c.partition, truth))
                lam_cuts.setdefault(c.lam, []).append(c.normalized_cut)
    sc = float(np.mean([r["sc_error"] for r in per_seed]))
    pc = float(np.mean([r["pcut_error"] for r in per_seed]))
    _write_csv(out_dir, "sbm_lambda_sweep.csv",
               ["lambda", "mean_error", "std_error",
                "mean_normalized_cut", "std_normalized_cut"],
               [(lam, float(np.mean(lam_errors[lam])), float(np.std(lam_errors[lam])),
                 float(np.mean(lam_cuts[lam])), float(np.std(lam_cuts[lam])))
                for lam in sorted(lam_errors)])
    return {
        "experiment": "sbm-lambda-sweep",
        "n": SBM_N, "alpha": LAMBDA_SWEEP_ALPHA, "p1": SBM_P1,
        "q": LAMBDA_SWEEP_Q, "delta": LAMBDA_SWEEP_ALPHA,
        "n_seeds": n_seeds, "base_seed": SBM_BASE_SEED,
        "mean_sc_error": sc,
        "mean_pcut_error": pc,
        "relative_reduction": 1.0 - pc / sc if sc > 0 else 0.0,
        "per_seed": per_seed,
    }


def run_sbm_alpha_sweep(out_dir=None, n_seeds=SBM_SEEDS):
    """Error ratio against the imbalance coefficient, q scaled as 0.0015/alpha.

    The size floor is set a notch below the known imbalance (0.9 * alpha) so
    the planted partition itself stays admissible at every alpha. The ratio
    is mean selected error over mean plain-SC error; when both means are
    exactly zero it is reported as 1.0.
    """
    check_counts(n_seeds=n_seeds)
    rows = []
    per_alpha = {}
    for alpha in ALPHA_SWEEP_ALPHAS:
        q = 0.0015 / alpha
        sc_errors, pc_errors = [], []
        for seed in range(SBM_BASE_SEED, SBM_BASE_SEED + n_seeds):
            truth, _, selected, plain = _sbm_trial(alpha, q, 0.9 * alpha, seed)
            sc_errors.append(_err(plain.partition, truth))
            pc_errors.append(_err(selected.partition, truth))
        stats = _error_stats(sc_errors, pc_errors)
        mean_sc, mean_pc = stats[0], stats[2]
        if mean_sc == 0.0:
            ratio = 1.0 if mean_pc == 0.0 else float("inf")
        else:
            ratio = mean_pc / mean_sc
        per_alpha[alpha] = {"mean_sc_error": mean_sc, "mean_pcut_error": mean_pc,
                            "error_ratio": ratio, "q": q}
        rows.append((alpha, q, *stats, ratio))
    _write_csv(out_dir, "sbm_alpha_sweep.csv",
               ["alpha", "q", *_ERROR_COLUMNS, "error_ratio"], rows)
    return {
        "experiment": "sbm-alpha-sweep",
        "n": SBM_N, "p1": SBM_P1, "n_seeds": n_seeds, "base_seed": SBM_BASE_SEED,
        "per_alpha": per_alpha,
    }


def _karate_outcome(g, truth, ids, delta):
    """Errors and misattributed 1-based `ids` of one karate run."""
    _, selected, plain = _connectivity_run(g, truth, delta=delta, seed=KARATE_SEED,
                                           sweep=False)
    return {
        "sc_error": _err(plain.partition, truth),
        "pcut_error": _err(selected.partition, truth),
        "sc_misattributed": _misattributed(plain.partition, truth, ids),
        "pcut_misattributed": _misattributed(selected.partition, truth, ids),
        "selected": selected.params(),
    }


def run_karate(out_dir=None):
    """Full and under-observed karate club, exact per-node outcomes.

    This preset keeps the plain spectral family (no sweep candidates),
    matching the source study's black-box configuration.
    """
    g, truth = load_bundled_network("karate")
    full = _karate_outcome(g, truth, list(range(1, g.n + 1)), 5 / 34)
    keep = [i for i in range(g.n) if (i + 1) not in KARATE_REMOVED_1BASED]
    reduced = {
        "removed_nodes": list(KARATE_REMOVED_1BASED),
        **_karate_outcome(g.subgraph(keep),
                          Partition(assignment=truth.assignment[keep], K=truth.K),
                          [k + 1 for k in keep], 5 / 26),
    }
    _write_csv(out_dir, "karate.csv", ["graph", "sc_error", "pcut_error"],
               [("full", full["sc_error"], full["pcut_error"]),
                ("reduced", reduced["sc_error"], reduced["pcut_error"])])
    return {"experiment": "karate", "seed": KARATE_SEED, "full": full,
            "reduced": reduced}


def _misattributed(found: Partition, truth: Partition, ids):
    """Ids of nodes whose cluster the error's matching maps off their class."""
    matching = clustering_error(found, truth).matching
    mapped = np.array([-1 if t is None else t for t in matching.values()])
    return [ids[i] for i in np.flatnonzero(mapped[found.assignment] != truth.assignment)]


def run_dolphins(out_dir=None, n_samplings=DOLPHINS_SAMPLINGS):
    """Under-observed dolphin network: random small-community removals.

    After removing the sampled nodes, anything disconnected from the largest
    component is dropped too; errors are means over samplings.
    """
    check_counts(n_samplings=n_samplings)
    g, truth = load_bundled_network("dolphins")
    small_nodes = np.flatnonzero(truth.assignment == 0)
    per_removal = {}
    rows = []
    for r in DOLPHINS_REMOVALS:
        sc_errors, pc_errors = [], []
        for samp in range(n_samplings):
            rng = stream(DOLPHINS_BASE_SEED + 1_000_000 * r + samp, "dolphin-removal")
            removed = set(rng.choice(small_nodes, size=r, replace=False).tolist())
            keep = [i for i in range(g.n) if i not in removed]
            g_cut = g.subgraph(keep)
            giant = largest_component_nodes(g_cut)
            g_obs = g_cut.subgraph(giant)
            truth_obs = Partition(
                assignment=truth.assignment[np.asarray(keep)][giant], K=truth.K)
            _, selected, plain = _connectivity_run(
                g_obs, truth_obs, delta=DOLPHINS_DELTA,
                seed=DOLPHINS_BASE_SEED + samp)
            sc_errors.append(_err(plain.partition, truth_obs))
            pc_errors.append(_err(selected.partition, truth_obs))
        per_removal[r] = dict(zip(_ERROR_COLUMNS, _error_stats(sc_errors, pc_errors)))
        rows.append((r, *per_removal[r].values()))
    _write_csv(out_dir, "dolphins.csv", ["removed", *_ERROR_COLUMNS], rows)
    return {"experiment": "dolphins", "removals": list(DOLPHINS_REMOVALS),
            "n_samplings": n_samplings, "delta": DOLPHINS_DELTA,
            "base_seed": DOLPHINS_BASE_SEED, "per_removal": per_removal}


def run_crescents(out_dir=None):
    """Illustrative three-cluster run: two crescents plus a small blob.

    A two-point engine grid with no selection: ratio-cut spectral clustering
    on the plain k-NN graph (lambda = 1) versus the rank-modulated graph at
    a fixed lambda, both at k = CRESCENTS_K and sigma = d_k.
    """
    f, labels = crescent_dataset(CRESCENTS_N, noise=CRESCENTS_NOISE,
                                 seed=CRESCENTS_SEED)
    truth = Partition(assignment=labels, K=3)
    cfg = PCutConfig(K=3, lambda_grid=(1.0, CRESCENTS_LAMBDA),
                     k_grid=(CRESCENTS_K,), sigma_exponents=(0,),
                     variant="rcut_unnormalized", seed=CRESCENTS_SEED)
    plain, rmd = generate_candidates(f, cfg)
    knn_error, rmd_error = _err(plain.partition, truth), _err(rmd.partition, truth)
    _write_csv(out_dir, "crescents.csv", ["graph", "error"],
               [("knn", knn_error), ("rmd", rmd_error)])
    return {
        "experiment": "crescents",
        "n": CRESCENTS_N, "noise": CRESCENTS_NOISE, "seed": CRESCENTS_SEED,
        "lambda": CRESCENTS_LAMBDA, "k": CRESCENTS_K,
        "sigma": plain.sigma,
        "geometry": crescent_constants(),
        "knn_error": knn_error,
        "rmd_error": rmd_error,
    }


PRESETS = {
    "sbm-lambda-sweep": run_sbm_lambda_sweep,
    "sbm-alpha-sweep": run_sbm_alpha_sweep,
    "karate": run_karate,
    "dolphins": run_dolphins,
    "crescents": run_crescents,
}
