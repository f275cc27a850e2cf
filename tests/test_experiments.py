import hashlib
import inspect
import json

import pytest

from pcut.errors import ParameterError
from pcut.experiments import (EXPERIMENTS, PRESETS, run_dolphins, run_experiment,
                              run_karate, run_sbm_alpha_sweep,
                              run_sbm_lambda_sweep)

# each preset is a fixed study: out_dir plus the overrides some caller sets
PRESET_PARAMETERS = {
    "sbm-lambda-sweep": ["out_dir", "n_seeds", "workers"],
    "sbm-alpha-sweep": ["out_dir", "n_seeds", "workers"],
    "karate": ["out_dir", "workers"],
    "dolphins": ["out_dir", "n_samplings", "workers"],
    "crescents": ["out_dir"],
}


def test_each_preset_takes_exactly_its_overrides():
    found = {name: list(inspect.signature(preset).parameters)
             for name, preset in PRESETS.items()}
    assert found == PRESET_PARAMETERS
    assert EXPERIMENTS == tuple(PRESET_PARAMETERS)


@pytest.mark.parametrize("name, overrides, match", [
    ("karate", dict(n_seeds=2),
     r"^experiment 'karate' does not take n_seeds; it takes workers$"),
    ("crescents", dict(workers=2),
     r"^experiment 'crescents' does not take workers; it takes no overrides$"),
    ("crescents", dict(n_samplings=2),
     r"^experiment 'crescents' does not take n_samplings; it takes no overrides$"),
    ("dolphins", dict(n_seeds=2),
     r"^experiment 'dolphins' does not take n_seeds; it takes n_samplings, workers$"),
    ("sbm-lambda-sweep", dict(n_seeds=0), r"^n_seeds must be >= 1, got 0$"),
    ("dolphins", dict(n_samplings=-1), r"^n_samplings must be >= 1, got -1$"),
    ("nope", {}, r"^unknown experiment 'nope'; available: sbm-lambda-sweep, "),
])
def test_rejected_overrides(name, overrides, match, tmp_path):
    with pytest.raises(ParameterError, match=match):
        run_experiment(name, out_dir=tmp_path / "out", **overrides)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, counts, match", [
    (run_sbm_lambda_sweep, dict(n_seeds=0), r"^n_seeds must be >= 1, got 0$"),
    (run_sbm_alpha_sweep, dict(n_seeds=0), r"^n_seeds must be >= 1, got 0$"),
    (run_dolphins, dict(n_samplings=0), r"^n_samplings must be >= 1, got 0$"),
    (run_sbm_lambda_sweep, dict(workers=0), r"^workers must be >= 1, got 0$"),
    (run_karate, dict(workers=-1), r"^workers must be >= 1, got -1$"),
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
    summary = run_experiment("dolphins", n_samplings=2)
    assert summary["n_samplings"] == 2
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == "1fc75b154c6f4853e0e5a3e938e058b26c322b23a4921d09615959f6cc28d8fa"
