"""Command-line interface: cluster, ssl, synth, eval, experiment.

The CLI only parses. argparse reads each list flag into a tuple, and each
subcommand, synth kind and experiment preset (whose flags are its keywords)
takes only the options it reads. The run rules live in PCutConfig, so
library callers get them too: sweep cuts need K = 2 clustering, a --graph
grid takes no --k-grid or --sigma-exponents, ssl takes no flavour, and a
lambda lies in [0, 1] and a sigma exponent in [-1022, 1023]. --seed
(default 0) is the one seed source.

Exit codes: 0 success, 1 input or usage error, 2 no feasible partition,
3 numeric failure. Reports are JSON with sorted keys; identical inputs and
seed give byte-identical reports apart from the "timings" block.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .engine import PCutConfig, generate_candidates, pcut_select
from .errors import (InputError, NoFeasiblePartitionError, NumericError,
                     PCutError)
from .evaluation import clustering_error
from .experiments import PRESETS
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


def _candidate_record(c) -> dict:
    return {
        "params": c.params(),
        "feasible": bool(c.feasible),
        "min_cluster_size": c.min_cluster_size,
        "baseline_cut": c.baseline_cut,
        "normalized_cut": c.normalized_cut,
        "index": c.index,
    }


def _parse_list(flag: str, kind=float):
    """An argparse type reading a flag's comma-separated entries as a tuple
    of `kind`; InputError names the flag and any bad entry."""
    def parse(text: str) -> tuple:
        values = []
        for entry in filter(None, (x.strip() for x in text.split(","))):
            try:
                values.append(kind(entry))
            except ValueError:
                what = "a number" if kind is float else "an integer"
                raise InputError(f"{flag} entry {entry!r} is not {what}") from None
        return tuple(values)
    return parse


def _build_config(args, task: str, modality: str, K: int) -> PCutConfig:
    kwargs = dict(K=K, task=task, modality=modality, delta=args.delta,
                  seed=args.seed, workers=args.workers,
                  lambda_grid=args.lambda_grid, k_grid=args.k_grid,
                  sigma_exponents=args.sigma_exponents)
    if task == "clustering":
        kwargs.update(variant=args.variant, extra_variants=args.extra_variants,
                      sweep_cuts=args.sweep_cuts)
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
    # the config checks the flags before any input file is read
    cfg = _build_config(args, "clustering",
                        "similarity" if args.features else "connectivity", args.k)
    if args.features:
        data, inputs = read_features_csv(args.features), {"features": args.features}
    else:
        data, inputs = read_edge_list(args.graph), {"graph": args.graph}
    selected = _run_and_report(args, t0, data, cfg, inputs, {})
    write_labels_csv(Path(args.out) / "partition.csv", selected.partition.assignment)
    print(f"selected {selected.params()} cut={selected.baseline_cut} "
          f"sizes={selected.partition.sizes().tolist()}")
    return 0


def cmd_ssl(args) -> int:
    t0 = time.time()
    raw_labels = read_labels_csv(args.labels)
    classes = sorted(set(raw_labels.values()))
    if classes != list(range(len(classes))):
        raise InputError(f"classes must be 0..K-1 without gaps, got {classes}")
    K = len(classes)
    labels = LabelSet(labeled=tuple(sorted(raw_labels.items())), K=K)
    cfg = _build_config(args, "ssl", "similarity", K)
    features = read_features_csv(args.features)
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
    # the data is drawn before --out is made, so a bad model writes nothing
    out = Path(args.out)
    if args.kind == "sbm":
        # a given p2 is taken as is; without one, p2 equalizes expected degrees
        spec = SbmSpec(n=args.n, alpha=args.alpha, p1=args.p1, p2=args.p2 or 0.0,
                       q=args.q, equalize_degrees=args.p2 is None, seed=args.seed)
        g, truth = sbm_generate(spec)
        out.mkdir(parents=True, exist_ok=True)
        write_edge_list(out / "graph.edges", g)
        write_labels_csv(out / "truth.csv", truth.assignment)
        print(f"wrote {g.n} nodes, {g.m} edges (blocks {spec.n1}/{spec.n2})")
        return 0
    if args.kind == "mixture":
        if not (len(args.mean) == len(args.cov) == len(args.weights)):
            raise InputError("--weights, --mean, and --cov counts must agree")
        f, labels = gaussian_mixture(
            args.n, list(zip(args.weights, args.mean, args.cov)), seed=args.seed)
        shape = f"in {f.d} dimensions"
    else:
        f, labels = crescent_dataset(args.n, noise=args.noise, seed=args.seed)
        shape = "(two crescents and a blob)"
    out.mkdir(parents=True, exist_ok=True)
    write_features_csv(out / "features.csv", f.x)
    write_labels_csv(out / "truth.csv", labels)
    print(f"wrote {f.n} samples {shape}")
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
    preset = PRESETS[args.name]
    # a preset flag that is not given is absent from args
    overrides = {key: getattr(args, key)
                 for key in inspect.signature(preset).parameters if key in args}
    out = Path(args.out)
    summary = preset(out, **overrides)
    # the worker count does not change the work, so only counts reach the manifest
    counts = {key: value for key, value in overrides.items() if key != "workers"}
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


def _preset_flags(name: str) -> dict:
    """{flag: keyword} of a preset's overrides; n_seeds is --seeds."""
    keys = list(inspect.signature(PRESETS[name]).parameters)[1:]
    return {"--" + key.removeprefix("n_"): key for key in keys}


class _PresetParser(_Parser):
    """An experiment preset's parser. A flag that only other presets take
    is refused by name, with the flags this one takes; any other stray
    argument is argparse's "unrecognized arguments"."""

    def __init__(self, preset: str, **kwargs):
        super().__init__(**kwargs)
        self.preset = preset

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        flag = extras[0].split("=")[0] if extras else None
        if any(flag in _preset_flags(name) for name in PRESETS):
            takes = ", ".join(_preset_flags(self.preset)) or "no overrides"
            self.error(f"experiment {self.preset!r} does not take {flag}; "
                       f"it takes {takes}")
        return namespace, extras


# every option, declared once; each subcommand attaches those it reads
_OPTIONS = {
    "--seed": dict(type=int, default=0, help="run seed (default 0)"),
    "--workers": dict(type=int, default=1,
                      help="parallel candidate evaluation"),
    "--delta": dict(type=float, default=0.05,
                    help="minimum cluster fraction (default 0.05)"),
    "--lambda-grid": dict(type=_parse_list("--lambda-grid"), default=(),
                          help="comma-separated modulation grid"),
    "--k-grid": dict(type=_parse_list("--k-grid", int), default=(),
                     help="comma-separated neighbor counts"),
    "--sigma-exponents": dict(type=_parse_list("--sigma-exponents", int), default=(),
                              help="comma-separated powers j for sigma = 2^j d_k"),
    "--variant": dict(default="ncut_rw",
                      help="spectral flavor (rcut_unnormalized, "
                           "ncut_normalized, ncut_rw)"),
    "--extra-variants": dict(type=_parse_list("--extra-variants", str), default=(),
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--features", help="feature CSV (similarity modality)")
    source.add_argument("--graph", help="edge list (connectivity modality)")
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

    kinds = sub.add_parser("synth", help="generate synthetic data files"
                           ).add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("sbm", help="two-block stochastic block model")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--p1", type=float, default=0.2)
    p.add_argument("--p2", type=float, default=None,
                   help="second block's edge probability (default: equalize "
                        "expected degrees)")
    p.add_argument("--q", type=float, default=0.03)
    p = kinds.add_parser("mixture", help="Gaussian mixture")
    p.add_argument("--weights", type=_parse_list("--weights"), default=(0.5, 0.5))
    p.add_argument("--mean", type=_parse_list("--mean"), action="append", default=[])
    p.add_argument("--cov", type=_parse_list("--cov"), action="append", default=[])
    p = kinds.add_parser("crescents", help="two crescents and a blob")
    p.add_argument("--noise", type=float, default=0.08)
    for p in kinds.choices.values():
        p.add_argument("--out", default="pcut-synth")
        p.add_argument("--n", type=int, default=500)
        _add_options(p, "--seed")
        p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score found labels against ground truth")
    p.add_argument("--found", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    presets = sub.add_parser("experiment", help="run a bundled experiment preset"
                             ).add_subparsers(dest="name", required=True,
                                              parser_class=_PresetParser)
    for name, preset in PRESETS.items():
        p = presets.add_parser(name, preset=name, help=preset.__doc__.splitlines()[0])
        p.add_argument("--out", default="pcut-experiment")
        # a flag per preset keyword, with its default
        defaults = inspect.signature(preset).parameters
        for flag, key in _preset_flags(name).items():
            p.add_argument(flag, dest=key, type=int, default=argparse.SUPPRESS,
                           help=f"override {key} (default {defaults[key].default})")
        p.set_defaults(func=cmd_experiment)
    return parser


# flags whose value is a comma-separated number list
_LIST_FLAGS = ("--lambda-grid", "--k-grid", "--sigma-exponents", "--weights",
               "--mean", "--cov")


def _join_number_lists(argv: list) -> list:
    """argv with each list flag that is followed by a value starting with a
    minus sign and a digit, such as ``--sigma-exponents -3,0``, joined into
    ``--sigma-exponents=-3,0``; argparse would read the value as an option."""
    out = []
    for token in argv:
        if (out and out[-1] in _LIST_FLAGS
                and re.match(r"-\.?\d", token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _join_number_lists(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except (PCutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, NoFeasiblePartitionError)
                else 3 if isinstance(exc, NumericError) else 1)


if __name__ == "__main__":
    raise SystemExit(main())
