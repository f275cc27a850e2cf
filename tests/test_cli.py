import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pcut import cli
from pcut.cli import main
from pcut.errors import InputError
from pcut.experiments import data_path
from pcut.io import read_labels_csv, write_edge_list, write_features_csv, write_labels_csv
from pcut.graph import DENSE_MAX_NODES, WeightedGraph
from pcut.reports import validate_report
from pcut.spectral import VARIANTS
from pcut.synth import SbmSpec, crescent_dataset, gaussian_mixture, sbm_generate


def two_cliques_file(tmp_path, size=6):
    a = [(u, v) for u in range(size) for v in range(u + 1, size)]
    b = [(u + size, v + size) for u, v in a]
    g = WeightedGraph(2 * size, a + b)
    path = tmp_path / "cliques.edges"
    write_edge_list(path, g)
    return path, g


class TestClusterCommand:
    def test_two_cliques(self, tmp_path):
        path, g = two_cliques_file(tmp_path)
        out = tmp_path / "out"
        code = main(["cluster", "--graph", str(path), "--k", "2",
                     "--delta", "0.2", "--out", str(out), "--seed", "1"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        validate_report(report)
        assert report["selected"]["baseline_cut"] == 0.0
        labels = read_labels_csv(out / "partition.csv")
        assert len({labels[i] for i in range(6)}) == 1
        assert labels[0] != labels[6]

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\nnot an edge\n")
        code = main(["cluster", "--graph", str(bad), "--k", "2"])
        assert code == 1
        assert ":2" in capsys.readouterr().err

    def test_too_many_nodes_for_dense_storage_exits_1(self, tmp_path, capsys):
        # K = 3 runs the dense eigensolve; the guard stops the run before the
        # n x n array (512 MiB) is allocated
        n = DENSE_MAX_NODES + 1
        path = tmp_path / "path.edges"
        write_edge_list(path, WeightedGraph.from_arrays(n, np.arange(n - 1),
                                                        np.arange(1, n)))
        tracemalloc.start()
        try:
            code = main(["cluster", "--graph", str(path), "--k", "3",
                         "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: dense n x n storage for n = {n} nodes exceeds the limit "
            f"of DENSE_MAX_NODES = {DENSE_MAX_NODES} nodes"]
        assert peak < 8 * n * n // 16

    def test_more_clusters_than_nodes_exits_1(self, tmp_path, capsys):
        # the engine refuses K > n before it allocates the n x K embedding
        path, _ = two_cliques_file(tmp_path)
        out = tmp_path / "o"
        code = main(["cluster", "--graph", str(path), "--k", str(10 ** 12),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: need at least K=1000000000000 nodes, got 12\n")
        assert not out.exists()

    def test_no_feasible_exits_2(self, tmp_path):
        path, _ = two_cliques_file(tmp_path, size=3)
        code = main(["cluster", "--graph", str(path), "--k", "2",
                     "--delta", "0.5", "--out", str(tmp_path / "o"),
                     "--lambda-grid", "1.0", "--seed", "0"])
        assert code == 2

    def test_reports_byte_identical_without_timings(self, tmp_path):
        path, _ = two_cliques_file(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["cluster", "--graph", str(path), "--k", "2",
                         "--delta", "0.2", "--out", str(out), "--seed", "9"]) == 0
            report = json.loads((out / "report.json").read_text())
            report.pop("timings")
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]

    def test_zero_workers_exits_1(self, tmp_path, capsys):
        path, _ = two_cliques_file(tmp_path)
        code = main(["cluster", "--graph", str(path), "--k", "2", "--workers", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "workers must be >= 1, got 0" in capsys.readouterr().err

    def test_report_failing_schema_is_not_written(self, tmp_path, monkeypatch,
                                                  capsys):
        path, _ = two_cliques_file(tmp_path)
        real = cli._candidate_record

        def without_index(c):
            record = real(c)
            del record["index"]
            return record

        monkeypatch.setattr(cli, "_candidate_record", without_index)
        out = tmp_path / "out"
        code = main(["cluster", "--graph", str(path), "--k", "2",
                     "--delta", "0.2", "--out", str(out), "--seed", "1"])
        assert code == 1
        assert "missing required key 'index'" in capsys.readouterr().err
        assert not out.exists()

    def test_golden_run_id(self, tmp_path, monkeypatch):
        # a fixed id: any change to what a cluster report echoes changes it
        monkeypatch.chdir(tmp_path)
        two_cliques_file(tmp_path)
        assert main(["cluster", "--graph", "cliques.edges", "--k", "2",
                     "--delta", "0.2", "--out", "out", "--seed", "1"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["manifest"]["run_id"] == "01ea42c80f6975b7"

    @pytest.mark.parametrize("flags, same_as", [
        (["--extra-variants", "ncut_normalized,ncut_normalized"],
         ["--extra-variants", "ncut_normalized"]),
        (["--variant", "ncut_rw", "--extra-variants", "ncut_rw"], []),
    ])
    def test_repeated_flavor_runs_once(self, tmp_path, flags, same_as):
        # a flavor named twice, or named as the main variant too, gives the
        # candidates and run_id of naming it once
        path, _ = two_cliques_file(tmp_path)
        reports = []
        for name, extra in (("repeated", flags), ("once", same_as)):
            out = tmp_path / name
            assert main(["cluster", "--graph", str(path), "--k", "2", "--delta", "0.2",
                         "--seed", "1", "--out", str(out), *extra]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        repeated, once = reports
        assert repeated["candidates"] == once["candidates"]
        assert repeated["manifest"]["run_id"] == once["manifest"]["run_id"]

    def test_sweep_cuts_with_three_clusters_exits_1(self, tmp_path, capsys):
        path, _ = two_cliques_file(tmp_path)
        code = main(["cluster", "--graph", str(path), "--k", "3", "--sweep-cuts",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: sweep_cuts needs K = 2 clustering, got task 'clustering' "
            "with K = 3\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--k-grid", "5,7", "--sigma-exponents", "1"], "--k-grid"),
        (["--k-grid", "5"], "--k-grid"),
        (["--sigma-exponents", "0"], "--sigma-exponents"),
    ])
    def test_graph_run_rejects_feature_grid_flags(self, tmp_path, capsys, flags, flag):
        # a network grid spans lambda alone; the flag would be ignored. The
        # config rejects the first such field, before the graph file is read
        path = tmp_path / "missing.edges"
        code = main(["cluster", "--graph", str(path), "--k", "2", *flags,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        field = flag.lstrip("-").replace("-", "_")
        value = tuple(map(int, flags[flags.index(flag) + 1].split(",")))
        assert capsys.readouterr().err == (
            f"error: {field} needs the similarity modality, got {value!r}: a "
            "connectivity grid spans lambda only\n")
        assert not (tmp_path / "o").exists()

    def test_lambda_outside_unit_interval_exits_before_reading(self, tmp_path,
                                                               monkeypatch, capsys):
        # the config checks the lambda range, so the graph is never read
        reads = []
        monkeypatch.setattr(cli, "read_edge_list", reads.append)
        out = tmp_path / "o"
        code = main(["cluster", "--graph", str(data_path("karate.edges")), "--k", "2",
                     "--lambda-grid", "5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: lambda_grid entry 5.0 lies outside [0, 1]\n")
        assert reads == []
        assert not out.exists()

    def test_repeated_grid_entries_run_once(self, tmp_path):
        # the manifest echoes each grid entry once, so the same work gets
        # the same run_id
        f, _ = crescent_dataset(120, seed=1)
        path = tmp_path / "features.csv"
        write_features_csv(path, f.x)
        reports = []
        for name, grids in (("twice", ("10,10", "1,1", "0,0")), ("once", ("10", "1", "0"))):
            out = tmp_path / name
            assert main(["cluster", "--features", str(path), "--k", "3",
                         "--k-grid", grids[0], "--lambda-grid", grids[1],
                         "--sigma-exponents", grids[2], "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        twice, once = reports
        assert len(twice["candidates"]) == 1
        assert twice["candidates"] == once["candidates"]
        assert twice["manifest"] == once["manifest"]

    def test_seed_flag_is_the_one_seed_source(self, tmp_path, monkeypatch):
        # the environment does not reach the run; --seed defaults to 0
        path, _ = two_cliques_file(tmp_path)
        monkeypatch.setenv("PCUT_SEED", "5")
        seeds = []
        for name, flags in (("default", []), ("flag", ["--seed", "6"])):
            out = tmp_path / name
            assert main(["cluster", "--graph", str(path), "--k", "2",
                         "--delta", "0.2", "--out", str(out), *flags]) == 0
            seeds.append(json.loads((out / "report.json").read_text())["manifest"]["seed"])
        assert seeds == [0, 6]


class TestSslCommand:
    def make_inputs(self, tmp_path, n_labels):
        f, labels = gaussian_mixture(
            40, [(0.5, [0.0, 0.0], [0.2, 0.2]), (0.5, [6.0, 0.0], [0.2, 0.2])],
            seed=33)
        fpath = tmp_path / "f.csv"
        write_features_csv(fpath, f.x)
        chosen = {}
        for cls in (0, 1):
            for node in np.flatnonzero(labels == cls)[:n_labels]:
                chosen[int(node)] = int(cls)
        lpath = tmp_path / "l.csv"
        write_labels_csv(lpath, chosen)
        return fpath, lpath, labels

    def test_propagates_components(self, tmp_path):
        fpath, lpath, truth = self.make_inputs(tmp_path, n_labels=2)
        out = tmp_path / "out"
        code = main(["ssl", "--features", str(fpath), "--labels", str(lpath),
                     "--out", str(out), "--seed", "2", "--delta", "0.1",
                     "--lambda-grid", "1.0", "--k-grid", "5",
                     "--sigma-exponents", "0"])
        assert code == 0
        preds = read_labels_csv(out / "predictions.csv")
        err = np.mean([preds[i] != truth[i] for i in preds])
        assert err <= 0.05

    def test_fully_labeled_predictions_match(self, tmp_path):
        fpath, lpath, truth = self.make_inputs(tmp_path, n_labels=40)
        out = tmp_path / "out2"
        code = main(["ssl", "--features", str(fpath), "--labels", str(lpath),
                     "--out", str(out), "--seed", "2", "--delta", "0.1",
                     "--lambda-grid", "1.0", "--k-grid", "5",
                     "--sigma-exponents", "0"])
        assert code == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines == ["node_id,class"]  # nothing left to predict

    def test_run_id_depends_on_grids(self, tmp_path):
        fpath, lpath, _ = self.make_inputs(tmp_path, n_labels=2)
        manifests = []
        for j in ("0", "1"):
            out = tmp_path / f"out-{j}"
            assert main(["ssl", "--features", str(fpath), "--labels", str(lpath),
                         "--out", str(out), "--delta", "0.1", "--lambda-grid", "1.0",
                         "--k-grid", "5,50", "--sigma-exponents", j]) == 0
            manifests.append(json.loads((out / "report.json").read_text())["manifest"])
        # the k grid is echoed as clipped to n - 1 = 39
        assert [m["config"]["k_grid"] for m in manifests] == [[5], [5]]
        assert [m["config"]["sigma_exponents"] for m in manifests] == [[0], [1]]
        assert manifests[0]["run_id"] != manifests[1]["run_id"]

    def test_manifest_echoes_no_spectral_flavour(self, tmp_path):
        fpath, lpath, _ = self.make_inputs(tmp_path, n_labels=2)
        out = tmp_path / "out"
        assert main(["ssl", "--features", str(fpath), "--labels", str(lpath),
                     "--out", str(out), "--delta", "0.1", "--lambda-grid", "1.0",
                     "--k-grid", "5", "--sigma-exponents", "0"]) == 0
        config = json.loads((out / "report.json").read_text())["manifest"]["config"]
        assert sorted(config) == ["K", "delta", "k_grid", "lambda_grid",
                                  "sigma_exponents"]

    def test_missing_class_exits_1(self, tmp_path):
        fpath, lpath, _ = self.make_inputs(tmp_path, n_labels=2)
        lpath.write_text("node_id,class\n0,1\n1,1\n")
        code = main(["ssl", "--features", str(fpath), "--labels", str(lpath),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("workers", ("1", "2"))
    def test_every_grid_point_stranded_exits_1(self, workers, tmp_path, capsys):
        # two far-apart tight blobs, both seeds in the first: every k-NN
        # graph of the grid leaves the second blob without a labeled node
        synth = tmp_path / "s"
        assert main(["synth", "mixture", "--n", "60", "--weights", "0.5,0.5",
                     "--mean", "0,0", "--mean", "100,100", "--cov", "0.01,0.01",
                     "--cov", "0.01,0.01", "--seed", "1", "--out", str(synth)]) == 0
        truth = read_labels_csv(synth / "truth.csv")
        first, second = [v for v in sorted(truth) if truth[v] == 0][:2]
        write_labels_csv(synth / "seeds.csv", {first: 0, second: 1})
        capsys.readouterr()
        code = main(["ssl", "--features", str(synth / "features.csv"),
                     "--labels", str(synth / "seeds.csv"), "--k-grid", "5",
                     "--workers", workers, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        [line] = err.splitlines()
        assert line.startswith("error: ") and "has no labeled node" in line
        assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["features", "graph", "ssl"])
def test_reports_byte_identical_across_workers(tmp_path, kind):
    if kind == "graph":
        path, _ = two_cliques_file(tmp_path)
        args = ["cluster", "--graph", str(path), "--k", "2", "--delta", "0.2"]
    else:
        fpath, lpath, _ = TestSslCommand().make_inputs(tmp_path, n_labels=2)
        args = ["cluster", "--features", str(fpath), "--k", "2"]
        if kind == "ssl":
            args = ["ssl", "--features", str(fpath), "--labels", str(lpath)]
        args += ["--delta", "0.1", "--k-grid", "5,10", "--sigma-exponents=-1,0"]
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers-{workers}"
        assert main(args + ["--out", str(out), "--seed", "3",
                            "--workers", workers]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report.pop("timings")["workers"] == int(workers)
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["cluster", "ssl"])
def test_zero_bandwidth_exits_1(command, tmp_path, capsys):
    # four points, each ten times: every point's 9th neighbour is a duplicate
    x = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]], 10, axis=0)
    write_features_csv(tmp_path / "f.csv", x)
    args = ["cluster", "--features", str(tmp_path / "f.csv"), "--k", "2"]
    if command == "ssl":
        write_labels_csv(tmp_path / "l.csv", {0: 0, 30: 1})
        args = ["ssl", "--features", str(tmp_path / "f.csv"),
                "--labels", str(tmp_path / "l.csv")]
    code = main(args + ["--k-grid", "9,30", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: every point has at least 9 exact duplicates, so the bandwidth "
        "d_k of k=9 is 0\n")


class TestSynthAndEval:
    def test_sbm_roundtrip_and_eval(self, tmp_path):
        out = tmp_path / "synth"
        code = main(["synth", "sbm", "--n", "60", "--alpha", "0.2",
                     "--p1", "0.5", "--q", "0.02", "--out", str(out),
                     "--seed", "3"])
        assert code == 0
        assert (out / "graph.edges").exists()
        truth = read_labels_csv(out / "truth.csv")
        assert len(truth) == 60
        report_path = tmp_path / "eval.json"
        code = main(["eval", "--found", str(out / "truth.csv"),
                     "--truth", str(out / "truth.csv"),
                     "--out", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["error_rate"] == 0.0

    def test_crescents_files(self, tmp_path):
        out = tmp_path / "cres"
        code = main(["synth", "crescents", "--n", "100", "--out", str(out),
                     "--seed", "4"])
        assert code == 0
        assert (out / "features.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["crescents", "--alpha", "0.1"],
        ["sbm", "--noise", "0.1"],
        ["mixture", "--p2", "0.1"],
    ])
    def test_kind_rejects_another_kinds_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            f"error: unrecognized arguments: {' '.join(argv[1:])}"]
        assert "Traceback" not in err
        assert not out.exists()

    def test_sbm_p2_selects_an_unequalized_model(self, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", "sbm", "--n", "200", "--alpha", "0.2", "--p1", "0.3",
                     "--p2", "0.05", "--q", "0.02", "--seed", "1",
                     "--out", str(out)]) == 0
        g, truth = sbm_generate(SbmSpec(n=200, alpha=0.2, p1=0.3, p2=0.05, q=0.02,
                                        equalize_degrees=False, seed=1))
        write_edge_list(tmp_path / "want.edges", g)
        write_labels_csv(tmp_path / "want.csv", truth.assignment)
        assert (out / "graph.edges").read_bytes() == (tmp_path / "want.edges").read_bytes()
        assert (out / "truth.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["sbm", "--n", "50", "--alpha", "0.9"], "alpha must lie in (0, 0.5], got 0.9"),
        (["mixture", "--n", "0", "--weights", "1", "--mean", "0", "--cov", "1"],
         "n must be >= 1, got 0"),
        (["mixture", "--weights", "nan", "--mean", "0", "--cov", "1"],
         "component weights must be positive and sum to 1"),
        (["mixture", "--weights", "1", "--mean", "", "--cov", ""],
         "component shapes are empty or disagree, or covariance < 0"),
        (["crescents", "--noise", "nan"], "noise must be finite and nonnegative, got nan"),
    ], ids=["sbm-alpha", "mixture-no-samples", "mixture-nan-weight",
            "mixture-empty-mean", "crescents-nan-noise"])
    def test_failing_model_writes_nothing(self, argv, message, tmp_path, capsys):
        # the data is drawn before --out is made
        out = tmp_path / "s"
        assert main(["synth", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_eval_refuses_a_matching_it_cannot_hold(self, tmp_path, capsys):
        # a class id of 10^6 asks for a (10^6 + 1)^2 confusion matrix
        write_labels_csv(tmp_path / "found.csv", {0: 0, 1: 1_000_000})
        write_labels_csv(tmp_path / "truth.csv", {0: 0, 1: 1})
        out = tmp_path / "eval.json"
        assert main(["eval", "--found", str(tmp_path / "found.csv"),
                     "--truth", str(tmp_path / "truth.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: dense s x s matching for s = 1000001 clusters exceeds the "
            f"limit of DENSE_MAX_NODES = {DENSE_MAX_NODES}\n")
        assert not out.exists()

    def test_mismatched_eval_nodes_exit_1(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_labels_csv(a, {0: 0, 1: 1})
        write_labels_csv(b, {0: 0, 2: 1})
        assert main(["eval", "--found", str(a), "--truth", str(b)]) == 1


def error_lines(err: str) -> list:
    return [line for line in err.splitlines() if line.startswith("error: ")]


class TestExperimentCommand:
    def test_unknown_name_exits_1(self, tmp_path, capsys):
        code = main(["experiment", "nope", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "karate" in err and "dolphins" in err

    @pytest.mark.parametrize("argv, message", [
        (["karate", "--seeds", "2"],
         "experiment 'karate' does not take --seeds; it takes --workers"),
        (["crescents", "--workers", "2"],
         "experiment 'crescents' does not take --workers; it takes no overrides"),
    ])
    def test_override_the_preset_does_not_take_exits_1(self, argv, message,
                                                       tmp_path, capsys):
        # each preset's parser takes only the preset's own keywords
        out = tmp_path / "exp"
        assert main(["experiment", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert error_lines(err) == [f"error: {message}"]
        assert "Traceback" not in err
        assert not out.exists()

    def test_crescents_preset_writes_outputs(self, tmp_path):
        # presets fix their own seeds, which no manifest echoes
        out = tmp_path / "exp"
        code = main(["experiment", "crescents", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "crescents.json").read_text())
        assert report["manifest"]["seed"] == 0
        # the CLI times the preset; the summary carries no timing
        assert set(report["timings"]) == {"wall_seconds"}
        assert "wall_seconds" not in report["summary"]
        assert (out / "crescents.csv").exists()

    def test_prints_the_written_path(self, tmp_path, monkeypatch, capsys):
        # a summary far longer than one line stays whole in the file, and
        # stdout names that file and nothing else
        summary = {"per_seed": [{"seed": s, "error": s / 7} for s in range(500)]}

        def preset(out_dir=None, n_seeds=20, workers=1):
            """A stand-in with the sweep's keywords."""
            return summary
        monkeypatch.setitem(cli.PRESETS, "sbm-lambda-sweep", preset)
        out = tmp_path / "exp"
        assert main(["experiment", "sbm-lambda-sweep", "--out", str(out)]) == 0
        path = out / "sbm-lambda-sweep.json"
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert json.loads(path.read_text())["summary"] == summary



class TestNumberLists:
    @pytest.mark.parametrize("argv, message", [
        (["--k-grid", "a"], "--k-grid entry 'a' is not an integer"),
        (["--k-grid", "5,1.5"], "--k-grid entry '1.5' is not an integer"),
        (["--lambda-grid", "0.5,x"], "--lambda-grid entry 'x' is not a number"),
        (["--sigma-exponents", "1.5"], "--sigma-exponents entry '1.5' is not an integer"),
        # 2.0 ** 2000 overflows a float, and 2.0 ** -2000 is 0
        (["--sigma-exponents", "0,2000"],
         "sigma_exponents entry 2000 lies outside [-1022, 1023]"),
        (["--sigma-exponents", "-2000"],
         "sigma_exponents entry -2000 lies outside [-1022, 1023]"),
        (["--extra-variants", "ncut_normalized, ncut_foo"],
         f"variant must be one of {VARIANTS}, got 'ncut_foo'"),
    ])
    def test_bad_grid_entry_exits_1(self, argv, message, tmp_path, capsys):
        f, _ = gaussian_mixture(
            40, [(0.5, [0.0, 0.0], [0.1, 0.1]), (0.5, [3.0, 3.0], [0.1, 0.1])],
            seed=1)
        write_features_csv(tmp_path / "f.csv", f.x)
        out = tmp_path / "out"
        code = main(["cluster", "--features", str(tmp_path / "f.csv"), "--k", "2",
                     "--out", str(out), *argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--weights", "0.5,a"], "--weights entry 'a' is not a number"),
        (["--weights", "1", "--mean", "0,b", "--cov", "1,1"],
         "--mean entry 'b' is not a number"),
        (["--weights", "1", "--mean", "0,0", "--cov", "c"],
         "--cov entry 'c' is not a number"),
    ])
    def test_bad_mixture_entry_exits_1(self, argv, message, tmp_path, capsys):
        code = main(["synth", "mixture", "--out", str(tmp_path / "s"), *argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    def test_console_run_prints_no_traceback(self, tmp_path):
        # the in-process calls above would raise; this checks what a shell sees
        features = tmp_path / "f.csv"
        write_features_csv(features, np.arange(20.0).reshape(10, 2))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)),
             os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "pcut.cli", "cluster", "--features", str(features),
             "--k", "2", "--out", str(tmp_path / "out"), "--sigma-exponents", "2000"],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert result.stderr == ("error: sigma_exponents entry 2000 lies "
                                 "outside [-1022, 1023]\n")

    @pytest.mark.parametrize("flag, value, key, want", [
        ("--lambda-grid", "-0.5,1", "lambda_grid", (-0.5, 1.0)),
        ("--k-grid", "-5,10", "k_grid", (-5, 10)),
        ("--sigma-exponents", "-3,0", "sigma_exponents", (-3, 0)),
        ("--sigma-exponents", "-.5", "sigma_exponents", None),
    ])
    @pytest.mark.parametrize("form", ("space", "equals"))
    def test_grid_list_may_start_with_a_minus(self, flag, value, key, want, form):
        # in both forms the whole value reaches the list parser
        argv = [flag, value] if form == "space" else [f"{flag}={value}"]

        def parse():
            return cli.build_parser().parse_args(cli._join_number_lists(
                ["cluster", "--features", "f.csv", "--k", "2", *argv]))
        if want is None:
            with pytest.raises(InputError, match="is not an integer"):
                parse()
        else:
            assert getattr(parse(), key) == want

    @pytest.mark.parametrize("form", ("space", "equals"))
    def test_ssl_run_takes_negative_sigma_exponents(self, form, tmp_path):
        f, truth = crescent_dataset(60, seed=2)
        write_features_csv(tmp_path / "f.csv", f.x)
        seeds = {int(v): c for c in range(3)
                 for v in np.flatnonzero(truth == c)[:3]}
        write_labels_csv(tmp_path / "seeds.csv", seeds)
        argv = (["--sigma-exponents", "-1,0"] if form == "space"
                else ["--sigma-exponents=-1,0"])
        out = tmp_path / "out"
        assert main(["ssl", "--features", str(tmp_path / "f.csv"), "--labels",
                     str(tmp_path / "seeds.csv"), "--k-grid", "5", "--lambda-grid",
                     "1", "--out", str(out), *argv]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["config"]["sigma_exponents"] == [-1, 0]

    @pytest.mark.parametrize("form", ("space", "equals"))
    def test_mixture_mean_may_start_with_a_minus(self, form, tmp_path):
        mean = ["--mean", "-1,2"] if form == "space" else ["--mean=-1,2"]
        cov = ["--cov", "1,1"] if form == "space" else ["--cov=1,1"]
        out = tmp_path / "s"
        assert main(["synth", "mixture", "--n", "30", "--weights", "1",
                     *mean, *cov, "--seed", "3", "--out", str(out)]) == 0
        x = np.loadtxt(out / "features.csv", delimiter=",")
        assert abs(x[:, 0].mean() + 1.0) < 1.0 and abs(x[:, 1].mean() - 2.0) < 1.0

    def test_console_run_takes_a_negative_list(self, tmp_path):
        # sys.argv goes through the same joining as main's argv
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)),
             os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "pcut.cli", "synth", "mixture", "--n", "20",
             "--weights", "1", "--mean", "-1,-2", "--cov", "1,1",
             "--out", str(tmp_path / "s")],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "wrote 20 samples in 2 dimensions\n"

    def test_only_list_flags_are_joined(self):
        argv = ["cluster", "--seed", "-3", "--k-grid", "-1", "--sigma-exponents",
                "--delta", "--lambda-grid", "x"]
        assert cli._join_number_lists(argv) == [
            "cluster", "--seed", "-3", "--k-grid=-1", "--sigma-exponents",
            "--delta", "--lambda-grid", "x"]

    def test_spaces_and_empty_entries_are_skipped(self):
        args = cli.build_parser().parse_args(
            ["cluster", "--features", "f.csv", "--k", "2", "--k-grid", " 5, ,10,",
             "--sigma-exponents=-1022,1023", "--variant", "rcut_unnormalized",
             "--extra-variants", " ncut_normalized, ,ncut_rw,"])
        assert args.k_grid == (5, 10)
        cfg = cli._build_config(args, "clustering", "similarity", 2)
        assert cfg.sigma_exponents == (-1022, 1023)
        assert cfg.extra_variants == ("ncut_normalized", "ncut_rw")


# every option each subcommand, and each synth kind, reads, and no other
SUBCOMMAND_OPTIONS = {
    "cluster": {"--features", "--graph", "--k", "--out", "--seed", "--workers",
                "--delta", "--lambda-grid", "--k-grid", "--sigma-exponents",
                "--variant", "--extra-variants", "--sweep-cuts"},
    "ssl": {"--features", "--labels", "--out", "--seed", "--workers", "--delta",
            "--lambda-grid", "--k-grid", "--sigma-exponents"},
    "synth": {"kind"},
    "synth sbm": {"--out", "--n", "--seed", "--alpha", "--p1", "--p2", "--q"},
    "synth mixture": {"--out", "--n", "--seed", "--weights", "--mean", "--cov"},
    "synth crescents": {"--out", "--n", "--seed", "--noise"},
    "eval": {"--found", "--truth", "--out"},
    "experiment": {"name"},
    "experiment sbm-lambda-sweep": {"--out", "--seeds", "--workers"},
    "experiment sbm-alpha-sweep": {"--out", "--seeds", "--workers"},
    "experiment karate": {"--out", "--workers"},
    "experiment dolphins": {"--out", "--samplings", "--workers"},
    "experiment crescents": {"--out"},
}


def _subparsers(parser, prefix=""):
    """{command: parser} of every subcommand, nested ones as "synth sbm"."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, p in action.choices.items():
                out[prefix + name] = p
                out.update(_subparsers(p, f"{prefix}{name} "))
    return out


class TestParser:
    def test_each_subcommand_has_exactly_the_options_it_reads(self):
        found = {name: {a.option_strings[0] if a.option_strings else a.dest
                        for a in p._actions
                        if not isinstance(a, argparse._HelpAction)}
                 for name, p in _subparsers(cli.build_parser()).items()}
        assert found == SUBCOMMAND_OPTIONS

    def test_each_synth_kind_takes_only_its_own_options(self):
        # the shared --out, --n and --seed, and the kind's model flags
        parsers = _subparsers(cli.build_parser())
        assert [sum(not isinstance(a, argparse._HelpAction)
                    for a in parsers[f"synth {kind}"]._actions)
                for kind in ("sbm", "mixture", "crescents")] == [7, 6, 4]

    @pytest.mark.parametrize("argv, message", [
        (["cluster", "--graph", "g.edges"],
         "the following arguments are required: --k"),
        (["cluster", "--graph", "g.edges", "--k", "2", "--bogus"],
         "unrecognized arguments: --bogus"),
        # removed flags; "--seed" is not read as an abbreviated "--seeds"
        (["eval", "--found", "a.csv", "--truth", "b.csv", "--seed", "5"],
         "unrecognized arguments: --seed 5"),
        (["ssl", "--features", "f.csv", "--labels", "l.csv", "--variant", "ncut_rw"],
         "unrecognized arguments: --variant ncut_rw"),
        (["experiment", "karate", "--seed", "5"], "unrecognized arguments: --seed 5"),
        (["synth", "sbm", "--workers", "2"], "unrecognized arguments: --workers 2"),
        # --features and --graph are one required choice
        (["cluster", "--k", "2"], "one of the arguments --features --graph is required"),
        (["cluster", "--features", "f.csv", "--graph", "g.edges", "--k", "2"],
         "argument --graph: not allowed with argument --features"),
        # the preset name is a choice
        (["experiment", "nope"],
         "argument name: invalid choice: 'nope' (choose from 'sbm-lambda-sweep', "
         "'sbm-alpha-sweep', 'karate', 'dolphins', 'crescents')"),
    ])
    def test_usage_errors_exit_1(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: pcut")
        assert f"error: {message}" in err

    @pytest.mark.parametrize("command", [None, *SUBCOMMAND_OPTIONS])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main((command.split() if command else []) + ["--help"])
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


def _leaves():
    """{command: parser} of every subcommand that takes no further one."""
    return {name: p for name, p in _subparsers(cli.build_parser()).items()
            if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)}


def _clique(size, offset=0):
    return [(u + offset, v + offset) for u in range(size) for v in range(u + 1, size)]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Tiny input files, by the flags that read them; every flag also draws
    an empty file, a header-only file and a missing path."""
    d = tmp_path_factory.mktemp("fuzz-inputs")
    graphs = {"cliques.edges": WeightedGraph(12, _clique(6) + _clique(6, 6) + [(0, 6)]),
              "edge.edges": WeightedGraph(2, [(0, 1)]),
              "components.edges": WeightedGraph(6, _clique(3) + _clique(3, 3))}
    blobs = np.vstack([np.random.default_rng(0).normal(c, 0.1, (6, 2)) for c in (0, 3)])
    features = {"blobs.csv": blobs, "coincident.csv": np.ones((6, 2)),
                "two.csv": blobs[[0, 6]], "three.csv": blobs[[0, 1, 6]]}
    # one seed per blob, a class gap, a node outside the features
    seeds = {"seeds.csv": {0: 0, 6: 1}, "gap.csv": {0: 0, 6: 2},
             "outside.csv": {0: 0, 50: 1}}
    scores = {"truth.csv": [0] * 6 + [1] * 6, "found.csv": [0] * 5 + [1] * 7,
              "huge-class.csv": [0] * 11 + [10 ** 6]}
    for name, g in graphs.items():
        write_edge_list(d / name, g)
    for name, x in features.items():
        write_features_csv(d / name, x)
    for name, labels in {**seeds, **scores}.items():
        write_labels_csv(d / name, labels)
    (d / "empty.csv").write_text("")
    (d / "header.csv").write_text("node_id,class\n")
    bad = ["empty.csv", "header.csv", "missing.csv"]
    paths = {"--graph": [*graphs, *bad], "--features": [*features, *bad],
             "--labels": [*seeds, *bad], "--found": [*scores, *seeds, *bad]}
    paths["--truth"] = paths["--found"]
    return {flag: [str(d / name) for name in names] for flag, names in paths.items()}


# edge-case values; 0.5 lets a drawn --delta, --alpha or --weights be
# valid, and 3 gives K = n and K = n + 1 on the three- and two-point files
FUZZ_NUMBERS = ("0", "-1", "1", "2", "3", "0.5", "1e300", "-1e300", str(10 ** 12),
                "nan", "inf", "-inf")


def _number_list(entries=FUZZ_NUMBERS):
    """Comma-joined entries, empty and repeated ones included."""
    return st.lists(st.sampled_from((*entries, "")), max_size=4).map(",".join)


_NUMBER = st.sampled_from(FUZZ_NUMBERS)
# the value strategy of every option; a strategy that draws a list gives
# its flag once per entry. --n, --workers and the preset counts stay small,
# so that no case asks for n^2 memory, many threads or a full preset run
FUZZ_VALUES = {
    "--n": st.sampled_from(("-1", "0", "1", "2", "3", "60")),
    "--workers": st.sampled_from(("-1", "0", "1", "2")),
    "--seeds": st.sampled_from(("-1", "0")),
    "--samplings": st.sampled_from(("-1", "0")),
    # half the draws are a valid K, so that runs reach the engine
    "--k": st.sampled_from(FUZZ_NUMBERS) | st.sampled_from(("2", "3")),
    **dict.fromkeys(("--seed", "--delta", "--alpha", "--p1", "--p2", "--q",
                     "--noise"), _NUMBER),
    **dict.fromkeys(("--lambda-grid", "--k-grid", "--sigma-exponents", "--weights"),
                    _number_list()),
    **dict.fromkeys(("--mean", "--cov"), st.lists(_number_list(), min_size=1,
                                                  max_size=3)),
    "--variant": st.sampled_from((*VARIANTS, "nope")),
    "--extra-variants": _number_list((*VARIANTS, "nope")),
    "--sweep-cuts": st.none(),
}


@st.composite
def cli_cases(draw, inputs, leaves):
    """(command words, [(flag, value or None)]) of one drawn leaf. Required
    flags are always given, one of a required choice too, and so is a
    preset's count: without it the preset runs a full study."""
    command = draw(st.sampled_from(sorted(leaves)))
    parser = leaves[command]
    actions = [a for a in parser._actions
               if a.option_strings and a.option_strings[0] not in ("-h", "--out")]
    flags = [a.option_strings[0] for a in actions]
    forced = [a.option_strings[0] for a in actions
              if a.required or a.option_strings[0] in ("--seeds", "--samplings")]
    choices = [[a.option_strings[0] for a in group._group_actions]
               for group in parser._mutually_exclusive_groups if group.required]
    forced += [draw(st.sampled_from(choice)) for choice in choices]
    optional = [flag for flag in flags
                if flag not in forced and not any(flag in c for c in choices)]
    chosen = forced + (draw(st.lists(st.sampled_from(optional), unique=True,
                                     max_size=3)) if optional else [])
    options = []
    for flag in chosen:
        value = draw(st.sampled_from(inputs[flag]) if flag in inputs
                     else FUZZ_VALUES[flag])
        options += [(flag, v) for v in (value if isinstance(value, list) else [value])]
    return command.split(), options


def test_fuzz_tables_cover_every_option(fuzz_inputs):
    flags = {a.option_strings[0] for p in _leaves().values() for a in p._actions
             if a.option_strings} - {"-h", "--out"}
    assert flags == set(FUZZ_VALUES) | set(fuzz_inputs)


_fresh_out = itertools.count()


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_fail_in_one_line(fuzz_inputs, tmp_path_factory, data):
    # exit 0-3, at most one error line, no traceback, and no --out path
    # left by a failing run
    leaves = _leaves()
    command, options = data.draw(cli_cases(fuzz_inputs, leaves))
    spaced = data.draw(st.booleans())
    out = tmp_path_factory.getbasetemp() / f"fuzz-out-{next(_fresh_out)}"
    argv = [*command, "--out", str(out)]
    for flag, value in options:
        if value is None:
            argv.append(flag)
        elif spaced:
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{' '.join(command)} exits {code}")
    assert 0 <= code <= 3, argv
    assert len(error_lines(err.getvalue())) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (1, 3):
        assert not out.exists(), argv
