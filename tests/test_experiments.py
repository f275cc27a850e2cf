import hashlib
import inspect
import json

import numpy as np
import pytest

from pcut import experiments
from pcut.cli import build_parser
from pcut.errors import InputError, ParameterError
from pcut.graph import Partition
from pcut.experiments import (PRESETS, run_crescents, run_dolphins, run_karate,
                              run_sbm_alpha_sweep, run_sbm_lambda_sweep)

# each preset is a fixed study: out_dir plus the overrides some caller sets
PRESET_PARAMETERS = {
    "sbm-lambda-sweep": ["out_dir", "n_seeds"],
    "sbm-alpha-sweep": ["out_dir", "n_seeds"],
    "karate": ["out_dir"],
    "dolphins": ["out_dir", "n_samplings"],
    "crescents": ["out_dir"],
}


def test_each_preset_takes_exactly_its_overrides():
    found = {name: list(inspect.signature(preset).parameters)
             for name, preset in PRESETS.items()}
    assert found == PRESET_PARAMETERS
    assert tuple(PRESETS) == tuple(PRESET_PARAMETERS)


@pytest.mark.parametrize("name, overrides, match", [
    ("karate", dict(n_seeds=2),
     r"^experiment 'karate' does not take --seeds; it takes no overrides$"),
    ("crescents", dict(n_seeds=2),
     r"^experiment 'crescents' does not take --seeds; it takes no overrides$"),
    ("crescents", dict(n_samplings=2),
     r"^experiment 'crescents' does not take --samplings; it takes no overrides$"),
    ("dolphins", dict(n_seeds=2),
     r"^experiment 'dolphins' does not take --seeds; it takes --samplings$"),
    # no preset takes a worker count, so argparse refuses it
    ("crescents", dict(workers=2), r"^unrecognized arguments: --workers 2$"),
])
def test_rejected_overrides(name, overrides, match):
    # another preset's keyword is refused by the preset's parser, which
    # names the flags the preset takes
    argv = [arg for key, value in overrides.items()
            for arg in ("--" + key.removeprefix("n_"), str(value))]
    with pytest.raises(InputError, match=match):
        build_parser().parse_args(["experiment", name, *argv])


@pytest.mark.parametrize("preset, counts, match", [
    (run_sbm_lambda_sweep, dict(n_seeds=0), r"^n_seeds must be >= 1, got 0$"),
    (run_sbm_alpha_sweep, dict(n_seeds=0), r"^n_seeds must be >= 1, got 0$"),
    (run_dolphins, dict(n_samplings=0), r"^n_samplings must be >= 1, got 0$"),
])
def test_presets_called_directly_reject_counts_below_one(preset, counts, match,
                                                         tmp_path):
    # the check runs before any trial, so no NaN mean can reach a summary
    with pytest.raises(ParameterError, match=match):
        preset(tmp_path, **counts)
    assert not any(tmp_path.iterdir())


def test_dolphins_summary_golden():
    # a changed study constant or an ignored override changes the digest;
    # the full sizes are gated by tests/test_acceptance.py
    summary = run_dolphins(n_samplings=2)
    assert summary["n_samplings"] == 2
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == "1fc75b154c6f4853e0e5a3e938e058b26c322b23a4921d09615959f6cc28d8fa"


@pytest.mark.parametrize("preset, overrides, digest", [
    (run_karate, {}, "02dfc16b1fb7411b27f06d3b26cdff0b7fb7d4cb6ee1851ad87545458fc29228"),
    (run_sbm_lambda_sweep, dict(n_seeds=1),
     "08c89fd9671122cb2989bbc2cb23683389dfffd7d07e173833d5e38c0dfa05a4"),
])
def test_summary_golden(preset, overrides, digest):
    # recorded while the presets still took a worker count, which did not
    # change their studies
    summary = preset(**overrides)
    assert hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest() == digest


def test_crescents_preset_runs_one_engine_grid(monkeypatch):
    # lambda = 1 is the plain k-NN graph, so one two-point grid gives both
    # errors; the summary keeps the values of building the graphs by hand
    configs = []
    real = experiments.generate_candidates
    monkeypatch.setattr(experiments, "generate_candidates",
                        lambda data, cfg: configs.append(cfg) or real(data, cfg))
    summary = run_crescents()
    [cfg] = configs
    assert (cfg.K, cfg.lambda_grid, cfg.k_grid, cfg.sigma_exponents, cfg.variant,
            cfg.seed) == (3, (1.0, 0.5), (30,), (0,), "rcut_unnormalized", 11)
    assert (summary["knn_error"], summary["rmd_error"], summary["sigma"]) == (
        0.11699999999999999, 0.0020000000000000018, 0.15147611068391906)


def binary_misattributed(found, truth, ids):
    """The binary matcher _misattributed used before it read the matching."""
    a, t = found.assignment, truth.assignment
    flipped = 1 - a
    wrong = a != t if (a != t).sum() <= (flipped != t).sum() else flipped != t
    return [ids[i] for i in np.flatnonzero(wrong)]


def test_misattributed_reads_the_error_matching():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        found = Partition(assignment=rng.integers(0, 2, n), K=2)
        truth = Partition(assignment=rng.integers(0, 2, n), K=2)
        ids = list(range(1, n + 1))
        assert experiments._misattributed(found, truth, ids) == \
            binary_misattributed(found, truth, ids)
    summary = run_karate()
    assert summary["full"]["sc_misattributed"] == [3]
    assert summary["reduced"]["sc_misattributed"] == [1, 2, 3, 4, 8, 12, 13, 14,
                                                      18, 20, 22]
    assert summary["reduced"]["pcut_misattributed"] == [3]
