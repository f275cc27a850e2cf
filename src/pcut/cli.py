"""Command-line interface: cluster, ssl, synth, eval, experiment.

Exit codes: 0 success, 1 input error, 2 no feasible partition, 3 numeric
failure. Reports are JSON with sorted keys; identical inputs and seed give
byte-identical reports apart from the "timings" block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .engine import PCutConfig, generate_candidates, pcut_select
from .errors import (InputError, NoFeasiblePartitionError, NumericError,
                     ParameterError, PCutError)
from .evaluation import clustering_error
from .experiments import EXPERIMENTS, run_experiment
from .graph import Partition
from .io import (file_digest, read_edge_list, read_features_csv,
                 read_labels_csv, write_edge_list, write_features_csv,
                 write_labels_csv)
from .propagation import LabelSet
from .reports import validate_report
from .synth import SbmSpec, crescent_dataset, gaussian_mixture, sbm_generate


def _manifest(command: str, config: dict, inputs: dict, seed: int) -> dict:
    digests = {str(path): file_digest(path) for path in inputs.values() if path}
    payload = {"command": command, "config": config, "inputs": digests,
               "seed": seed, "version": __version__}
    run_id = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    payload["run_id"] = run_id
    return payload


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_report(path: Path, report: dict) -> None:
    """Write a run report; one that fails the shipped schema raises
    InputError, and no file is written."""
    validate_report(report)
    _write_json(path, report)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PCUT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"PCUT_SEED={env!r} is not an integer") from exc
    return 0


def _candidate_record(c) -> dict:
    return {
        "params": c.params(),
        "feasible": bool(c.feasible),
        "min_cluster_size": c.min_cluster_size,
        "baseline_cut": c.baseline_cut,
        "normalized_cut": c.normalized_cut,
        "index": c.index,
    }


def _parse_float_list(text):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_int_list(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _build_config(args, n: int, task: str, modality: str, K: int,
                  seed: int) -> PCutConfig:
    kwargs = dict(K=K, task=task, modality=modality, delta=args.delta,
                  variant=args.variant, seed=seed, workers=args.workers,
                  sweep_cuts=args.sweep_cuts)
    if args.lambda_grid:
        kwargs["lambda_grid"] = _parse_float_list(args.lambda_grid)
    if getattr(args, "k_grid", None):
        kwargs["k_grid"] = _parse_int_list(args.k_grid)
    if getattr(args, "sigma_exponents", None):
        kwargs["sigma_exponents"] = _parse_int_list(args.sigma_exponents)
    if args.extra_variants:
        kwargs["extra_variants"] = tuple(args.extra_variants.split(","))
    return PCutConfig(**kwargs)


def _grid_echo(cfg: PCutConfig, n: int) -> dict:
    """The resolved k and sigma grids of a similarity run, for the manifest."""
    return {"k_grid": list(cfg.ks(n)), "sigma_exponents": list(cfg.sigma_exps())}


def _load_cluster_input(args):
    if bool(args.features) == bool(args.graph):
        raise InputError("provide exactly one of --features or --graph")
    if args.features:
        return read_features_csv(args.features), "similarity", {"features": args.features}
    return read_edge_list(args.graph), "connectivity", {"graph": args.graph}


def cmd_cluster(args) -> int:
    seed = _resolve_seed(args)
    t0 = time.time()
    data, modality, inputs = _load_cluster_input(args)
    n = data.n if hasattr(data, "n") else data.shape[0]
    cfg = _build_config(args, n, "clustering", modality, args.k, seed)
    candidates = generate_candidates(data, cfg)
    selected = pcut_select(candidates)
    out = Path(args.out)
    config_echo = {"K": cfg.K, "delta": cfg.delta, "modality": modality,
                   "variant": cfg.variant, "extra_variants": list(cfg.extra_variants),
                   "sweep_cuts": cfg.sweep_cuts, "lambda_grid": list(cfg.lambdas())}
    if modality == "similarity":
        config_echo.update(_grid_echo(cfg, n))
    manifest = _manifest("cluster", config_echo, inputs, seed)
    report = {
        "manifest": manifest,
        "candidates": [_candidate_record(c) for c in candidates],
        "selected": _candidate_record(selected),
        "partition": selected.partition.assignment.tolist(),
        "cluster_sizes": selected.partition.sizes().tolist(),
        "notes": {},
        "timings": {"wall_seconds": time.time() - t0, "workers": cfg.workers},
    }
    _write_report(out / "report.json", report)
    write_labels_csv(out / "partition.csv", selected.partition.assignment)
    print(f"selected {selected.params()} cut={selected.baseline_cut} "
          f"sizes={selected.partition.sizes().tolist()}")
    return 0


def cmd_ssl(args) -> int:
    seed = _resolve_seed(args)
    t0 = time.time()
    features = read_features_csv(args.features)
    raw_labels = read_labels_csv(args.labels)
    classes = sorted(set(raw_labels.values()))
    if classes != list(range(len(classes))):
        raise InputError(f"classes must be 0..K-1 without gaps, got {classes}")
    K = len(classes)
    labels = LabelSet(labeled=tuple(sorted(raw_labels.items())), K=K)
    cfg = _build_config(args, features.shape[0], "ssl", "similarity", K, seed)
    candidates = generate_candidates(features, cfg, labels=labels)
    selected = pcut_select(candidates)
    out = Path(args.out)
    config_echo = {"K": K, "delta": cfg.delta, "variant": cfg.variant,
                   "lambda_grid": list(cfg.lambdas()),
                   **_grid_echo(cfg, features.shape[0])}
    manifest = _manifest("ssl", config_echo,
                         {"features": args.features, "labels": args.labels}, seed)
    labeled_nodes = set(raw_labels)
    predictions = {node: int(cls)
                   for node, cls in enumerate(selected.partition.assignment)
                   if node not in labeled_nodes}
    report = {
        "manifest": manifest,
        "candidates": [_candidate_record(c) for c in candidates],
        "selected": _candidate_record(selected),
        "partition": selected.partition.assignment.tolist(),
        "cluster_sizes": selected.partition.sizes().tolist(),
        "notes": {"cut_includes_labeled_nodes": True},
        "timings": {"wall_seconds": time.time() - t0, "workers": cfg.workers},
    }
    _write_report(out / "report.json", report)
    write_labels_csv(out / "predictions.csv", predictions)
    print(f"predicted {len(predictions)} unlabeled nodes; "
          f"selected {selected.params()}")
    return 0


def cmd_synth(args) -> int:
    seed = _resolve_seed(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "sbm":
        spec = SbmSpec(n=args.n, alpha=args.alpha, p1=args.p1, p2=args.p2,
                       q=args.q, equalize_degrees=not args.no_equalize,
                       seed=seed)
        g, truth = sbm_generate(spec)
        write_edge_list(out / "graph.edges", g)
        write_labels_csv(out / "truth.csv", truth.assignment)
        print(f"wrote {g.n} nodes, {g.m} edges (blocks {spec.n1}/{spec.n2})")
    elif args.kind == "mixture":
        means = [_parse_float_list(m) for m in args.mean]
        covs = [_parse_float_list(c) for c in args.cov]
        weights = _parse_float_list(args.weights)
        if not (len(means) == len(covs) == len(weights)):
            raise InputError("--weights, --mean, and --cov counts must agree")
        f, labels = gaussian_mixture(args.n, list(zip(weights, means, covs)),
                                     seed=seed)
        write_features_csv(out / "features.csv", f.x)
        write_labels_csv(out / "truth.csv", labels)
        print(f"wrote {f.n} samples in {f.d} dimensions")
    elif args.kind == "crescents":
        f, labels = crescent_dataset(args.n, noise=args.noise, seed=seed)
        write_features_csv(out / "features.csv", f.x)
        write_labels_csv(out / "truth.csv", labels)
        print(f"wrote {f.n} samples (two crescents and a blob)")
    else:
        raise InputError(f"unknown synth kind {args.kind!r}")
    return 0


def cmd_eval(args) -> int:
    found_map = read_labels_csv(args.found)
    truth_map = read_labels_csv(args.truth)
    if set(found_map) != set(truth_map):
        raise InputError("found and truth label files cover different nodes")
    nodes = sorted(found_map)
    found = np.asarray([found_map[v] for v in nodes])
    truth = np.asarray([truth_map[v] for v in nodes])
    report = clustering_error(
        Partition(assignment=found, K=int(found.max()) + 1),
        Partition(assignment=truth, K=int(truth.max()) + 1))
    payload = {
        "manifest": _manifest("eval", {},
                              {"found": args.found, "truth": args.truth}, 0),
        "error_rate": report.error_rate,
        "matching": {str(k): v for k, v in report.matching.items()},
        "confusion": report.confusion.tolist(),
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        raise InputError(
            f"unknown experiment {args.name!r}; available: {', '.join(EXPERIMENTS)}")
    overrides = {}
    if args.seeds is not None:
        overrides["n_seeds"] = args.seeds
    if args.samplings is not None:
        overrides["n_samplings"] = args.samplings
    out = Path(args.out)
    summary = run_experiment(args.name, out_dir=out, workers=args.workers,
                             **overrides)
    timings = {"wall_seconds": summary.pop("wall_seconds", None)}
    manifest = _manifest(f"experiment:{args.name}",
                         {"overrides": overrides}, {}, _resolve_seed(args))
    report = {"manifest": manifest, "summary": summary, "timings": timings}
    # an experiment summary is not a run report, so the schema does not apply
    _write_json(out / f"{args.name}.json", report)
    print(json.dumps(summary, sort_keys=True, default=str)[:2000])
    return 0


def _add_common(parser, k_grid=False):
    parser.add_argument("--delta", type=float, default=0.05,
                        help="minimum cluster fraction (default 0.05)")
    parser.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                        help="comma-separated modulation grid")
    parser.add_argument("--variant", default="ncut_rw",
                        help="spectral flavor (rcut_unnormalized, "
                             "ncut_normalized, ncut_rw)")
    parser.add_argument("--extra-variants", dest="extra_variants", default=None,
                        help="additional spectral flavors, comma-separated")
    parser.add_argument("--sweep-cuts", dest="sweep_cuts", action="store_true",
                        help="also propose minimum-cut sweep partitions (K=2)")
    if k_grid:
        parser.add_argument("--k-grid", dest="k_grid", default=None,
                            help="comma-separated neighbor counts")
        parser.add_argument("--sigma-exponents", dest="sigma_exponents",
                            default=None,
                            help="comma-separated powers j for sigma = 2^j d_k")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcut",
        description="Minimum-cut partitioning under cluster-size floors over "
                    "rank-modulated graph families")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None,
                        help="run seed (overrides PCUT_SEED)")
    shared.add_argument("--workers", type=int, default=1,
                        help="parallel candidate evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="grid-search clustering", parents=[shared])
    p.add_argument("--features", help="feature CSV (similarity modality)")
    p.add_argument("--graph", help="edge list (connectivity modality)")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--out", default="pcut-out", help="output directory")
    _add_common(p, k_grid=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("ssl", help="semi-supervised label propagation", parents=[shared])
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True, help="CSV of node_id,class")
    p.add_argument("--out", default="pcut-out")
    _add_common(p, k_grid=True)
    p.set_defaults(func=cmd_ssl)

    p = sub.add_parser("synth", help="generate synthetic data files", parents=[shared])
    p.add_argument("kind", choices=["sbm", "mixture", "crescents"])
    p.add_argument("--out", default="pcut-synth")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--p1", type=float, default=0.2)
    p.add_argument("--p2", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.03)
    p.add_argument("--no-equalize", action="store_true")
    p.add_argument("--noise", type=float, default=0.08)
    p.add_argument("--weights", default="0.5,0.5")
    p.add_argument("--mean", action="append", default=[])
    p.add_argument("--cov", action="append", default=[])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score found labels against ground truth", parents=[shared])
    p.add_argument("--found", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a bundled experiment preset", parents=[shared])
    p.add_argument("name")
    p.add_argument("--out", default="pcut-experiment")
    p.add_argument("--seeds", type=int, default=None,
                   help="override the number of seeds")
    p.add_argument("--samplings", type=int, default=None,
                   help="override the number of samplings (dolphins)")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoFeasiblePartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, ParameterError, PCutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
