"""Command-line interface: cluster, ssl, synth, eval, experiment.

Exit codes: 0 success, 1 input or usage error, 2 no feasible partition,
3 numeric failure. Reports are JSON with sorted keys; identical inputs and
seed give byte-identical reports apart from the "timings" block.
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
                     PCutError)
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


# sigma = 2^j d_k, and 2^j is a normal float for these j
_SIGMA_EXPONENTS = range(sys.float_info.min_exp - 1, sys.float_info.max_exp)


def _parse_list(flag: str, text: str, kind=float, allowed=None) -> tuple:
    """The comma-separated entries of a flag's value as `kind`, each in
    `allowed` if given; InputError names the flag and any bad entry."""
    values = []
    for entry in filter(None, (x.strip() for x in text.split(","))):
        try:
            values.append(kind(entry))
        except ValueError:
            what = "a number" if kind is float else "an integer"
            raise InputError(f"{flag} entry {entry!r} is not {what}") from None
        if allowed is not None and values[-1] not in allowed:
            raise InputError(f"{flag} entry {entry!r} lies outside "
                             f"[{allowed[0]}, {allowed[-1]}]")
    return tuple(values)


def _build_config(args, task: str, modality: str, K: int) -> PCutConfig:
    kwargs = dict(K=K, task=task, modality=modality, delta=args.delta,
                  seed=_resolve_seed(args), workers=args.workers)
    if task == "clustering":
        kwargs.update(variant=args.variant, sweep_cuts=args.sweep_cuts)
        if args.extra_variants:
            kwargs["extra_variants"] = tuple(args.extra_variants.split(","))
    if args.lambda_grid:
        kwargs["lambda_grid"] = _parse_list("--lambda-grid", args.lambda_grid)
    if args.k_grid:
        kwargs["k_grid"] = _parse_list("--k-grid", args.k_grid, int)
    if args.sigma_exponents:
        kwargs["sigma_exponents"] = _parse_list(
            "--sigma-exponents", args.sigma_exponents, int, _SIGMA_EXPONENTS)
    return PCutConfig(**kwargs)


def _run_and_report(args, t0: float, data, cfg: PCutConfig, inputs: dict,
                    notes: dict, labels=None):
    """Select a candidate of `data` and write report.json under --out.

    The manifest echoes only the configuration that shapes the candidates,
    so two runs share a run_id exactly when they do the same work. Returns
    the selected candidate.
    """
    candidates = generate_candidates(data, cfg, labels=labels)
    selected = pcut_select(candidates)
    config_echo = {"K": cfg.K, "delta": cfg.delta,
                   "lambda_grid": list(cfg.lambdas())}
    if cfg.task == "clustering":
        config_echo.update(modality=cfg.modality, variant=cfg.variant,
                           extra_variants=list(cfg.extra_variants),
                           sweep_cuts=cfg.sweep_cuts)
    if cfg.modality == "similarity":
        config_echo.update(k_grid=list(cfg.ks(len(data))),
                           sigma_exponents=list(cfg.sigma_exps()))
    report = {
        "manifest": _manifest(args.command, config_echo, inputs, cfg.seed),
        "candidates": [_candidate_record(c) for c in candidates],
        "selected": _candidate_record(selected),
        "partition": selected.partition.assignment.tolist(),
        "cluster_sizes": selected.partition.sizes().tolist(),
        "notes": notes,
        "timings": {"wall_seconds": time.time() - t0, "workers": cfg.workers},
    }
    _write_report(Path(args.out) / "report.json", report)
    return selected


def cmd_cluster(args) -> int:
    t0 = time.time()
    if bool(args.features) == bool(args.graph):
        raise InputError("provide exactly one of --features or --graph")
    if args.sweep_cuts and args.k != 2:
        # sweep cuts bisect the graph, so a K >= 3 run would echo a flag
        # that adds no candidate
        raise InputError(f"--sweep-cuts needs --k 2, got --k {args.k}")
    if args.features:
        data, modality = read_features_csv(args.features), "similarity"
        inputs = {"features": args.features}
    else:
        data, modality = read_edge_list(args.graph), "connectivity"
        inputs = {"graph": args.graph}
    cfg = _build_config(args, "clustering", modality, args.k)
    selected = _run_and_report(args, t0, data, cfg, inputs, {})
    write_labels_csv(Path(args.out) / "partition.csv", selected.partition.assignment)
    print(f"selected {selected.params()} cut={selected.baseline_cut} "
          f"sizes={selected.partition.sizes().tolist()}")
    return 0


def cmd_ssl(args) -> int:
    t0 = time.time()
    features = read_features_csv(args.features)
    raw_labels = read_labels_csv(args.labels)
    classes = sorted(set(raw_labels.values()))
    if classes != list(range(len(classes))):
        raise InputError(f"classes must be 0..K-1 without gaps, got {classes}")
    K = len(classes)
    labels = LabelSet(labeled=tuple(sorted(raw_labels.items())), K=K)
    cfg = _build_config(args, "ssl", "similarity", K)
    selected = _run_and_report(
        args, t0, features, cfg, {"features": args.features, "labels": args.labels},
        {"cut_includes_labeled_nodes": True}, labels=labels)
    predictions = {node: int(cls)
                   for node, cls in enumerate(selected.partition.assignment)
                   if node not in raw_labels}
    write_labels_csv(Path(args.out) / "predictions.csv", predictions)
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
        means = [_parse_list("--mean", m) for m in args.mean]
        covs = [_parse_list("--cov", c) for c in args.cov]
        weights = _parse_list("--weights", args.weights)
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
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_experiment(args) -> int:
    t0 = time.time()
    # the worker count does not change the work, so only the counts reach
    # the manifest
    counts = {key: value for key, value in (("n_seeds", args.seeds),
                                            ("n_samplings", args.samplings))
              if value is not None}
    workers = {} if args.workers is None else {"workers": args.workers}
    out = Path(args.out)
    summary = run_experiment(args.name, out_dir=out, **counts, **workers)
    # each preset fixes its own seeds, which the summary records
    manifest = _manifest(f"experiment:{args.name}", {"overrides": counts}, {}, 0)
    report = {"manifest": manifest, "summary": summary,
              "timings": {"wall_seconds": time.time() - t0}}
    # an experiment summary is not a run report, so the schema does not apply
    path = out / f"{args.name}.json"
    _write_json(path, report)
    print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code pcut documents for "no
    feasible partition"; here a usage error is an InputError (exit 1).

    Options must be spelled out: with abbreviations, a flag a subcommand
    does not take can be read as a longer one it does (``--seed`` as
    ``experiment --seeds``).
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


# every option, declared once; each subcommand attaches those it reads
_OPTIONS = {
    "--seed": dict(type=int, default=None,
                   help="run seed (overrides PCUT_SEED)"),
    "--workers": dict(type=int, default=1,
                      help="parallel candidate evaluation"),
    "--delta": dict(type=float, default=0.05,
                    help="minimum cluster fraction (default 0.05)"),
    "--lambda-grid": dict(default=None, help="comma-separated modulation grid"),
    "--k-grid": dict(default=None, help="comma-separated neighbor counts"),
    "--sigma-exponents": dict(default=None,
                              help="comma-separated powers j for sigma = 2^j d_k"),
    "--variant": dict(default="ncut_rw",
                      help="spectral flavor (rcut_unnormalized, "
                           "ncut_normalized, ncut_rw)"),
    "--extra-variants": dict(default=None,
                             help="additional spectral flavors, comma-separated"),
    "--sweep-cuts": dict(action="store_true",
                         help="also propose minimum-cut sweep partitions (K=2)"),
}
_RUN_OPTIONS = ("--seed", "--workers", "--delta", "--lambda-grid", "--k-grid",
                 "--sigma-exponents")


def _add_options(parser, *flags) -> None:
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcut",
        description="Minimum-cut partitioning under cluster-size floors over "
                    "rank-modulated graph families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="grid-search clustering")
    p.add_argument("--features", help="feature CSV (similarity modality)")
    p.add_argument("--graph", help="edge list (connectivity modality)")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--out", default="pcut-out", help="output directory")
    _add_options(p, *_RUN_OPTIONS, "--variant", "--extra-variants", "--sweep-cuts")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("ssl", help="semi-supervised label propagation")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True, help="CSV of node_id,class")
    p.add_argument("--out", default="pcut-out")
    _add_options(p, *_RUN_OPTIONS)
    p.set_defaults(func=cmd_ssl)

    p = sub.add_parser("synth", help="generate synthetic data files")
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
    _add_options(p, "--seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score found labels against ground truth")
    p.add_argument("--found", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a bundled experiment preset")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--out", default="pcut-experiment")
    p.add_argument("--seeds", type=int, default=None,
                   help="override the number of seeds (sbm presets)")
    p.add_argument("--samplings", type=int, default=None,
                   help="override the number of samplings (dolphins)")
    _add_options(p, "--workers")
    # a preset that takes no workers rejects the flag only when it is given
    p.set_defaults(func=cmd_experiment, workers=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NoFeasiblePartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PCutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
