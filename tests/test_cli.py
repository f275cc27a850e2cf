import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pcut import cli
from pcut.cli import main
from pcut.io import read_labels_csv, write_edge_list, write_features_csv, write_labels_csv
from pcut.graph import WeightedGraph
from pcut.reports import validate_report
from pcut.synth import gaussian_mixture


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

    def test_sweep_cuts_with_three_clusters_exits_1(self, tmp_path, capsys):
        path, _ = two_cliques_file(tmp_path)
        code = main(["cluster", "--graph", str(path), "--k", "3", "--sweep-cuts",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--sweep-cuts needs --k 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_env_seed_used_and_overridden(self, tmp_path, monkeypatch):
        path, _ = two_cliques_file(tmp_path)
        monkeypatch.setenv("PCUT_SEED", "5")
        out1 = tmp_path / "env"
        assert main(["cluster", "--graph", str(path), "--k", "2",
                     "--delta", "0.2", "--out", str(out1)]) == 0
        report = json.loads((out1 / "report.json").read_text())
        assert report["manifest"]["seed"] == 5
        out2 = tmp_path / "flag"
        assert main(["cluster", "--graph", str(path), "--k", "2",
                     "--delta", "0.2", "--out", str(out2), "--seed", "6"]) == 0
        report2 = json.loads((out2 / "report.json").read_text())
        assert report2["manifest"]["seed"] == 6


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

    def test_mismatched_eval_nodes_exit_1(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_labels_csv(a, {0: 0, 1: 1})
        write_labels_csv(b, {0: 0, 2: 1})
        assert main(["eval", "--found", str(a), "--truth", str(b)]) == 1


class TestExperimentCommand:
    def test_unknown_name_exits_1(self, tmp_path, capsys):
        code = main(["experiment", "nope", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "karate" in err and "dolphins" in err

    @pytest.mark.parametrize("argv, message", [
        (["karate", "--seeds", "2"],
         "experiment 'karate' does not take n_seeds; it takes workers"),
        (["crescents", "--workers", "2"],
         "experiment 'crescents' does not take workers; it takes no overrides"),
    ])
    def test_override_the_preset_does_not_take_exits_1(self, argv, message,
                                                       tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_crescents_preset_writes_outputs(self, tmp_path, monkeypatch):
        # presets fix their own seeds, so PCUT_SEED reaches no manifest
        monkeypatch.setenv("PCUT_SEED", "5")
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
        monkeypatch.setattr(cli, "run_experiment", lambda name, **kw: summary)
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
         "--sigma-exponents entry '2000' lies outside [-1022, 1023]"),
        (["--sigma-exponents", "-2000"],
         "--sigma-exponents entry '-2000' lies outside [-1022, 1023]"),
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
        assert result.stderr == ("error: --sigma-exponents entry '2000' lies "
                                 "outside [-1022, 1023]\n")

    def test_spaces_and_empty_entries_are_skipped(self):
        assert cli._parse_list("--k-grid", " 5, ,10,", int) == (5, 10)
        assert cli._parse_list("--sigma-exponents", "-1022,1023", int,
                               cli._SIGMA_EXPONENTS) == (-1022, 1023)


# every option each subcommand reads, and no other: 43 settable values
SUBCOMMAND_OPTIONS = {
    "cluster": {"--features", "--graph", "--k", "--out", "--seed", "--workers",
                "--delta", "--lambda-grid", "--k-grid", "--sigma-exponents",
                "--variant", "--extra-variants", "--sweep-cuts"},
    "ssl": {"--features", "--labels", "--out", "--seed", "--workers", "--delta",
            "--lambda-grid", "--k-grid", "--sigma-exponents"},
    "synth": {"kind", "--out", "--n", "--alpha", "--p1", "--p2", "--q",
              "--no-equalize", "--noise", "--weights", "--mean", "--cov",
              "--seed"},
    "eval": {"--found", "--truth", "--out"},
    "experiment": {"name", "--out", "--seeds", "--samplings", "--workers"},
}


class TestParser:
    def subparsers(self):
        parser = cli.build_parser()
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_each_subcommand_has_exactly_the_options_it_reads(self):
        found = {name: {a.option_strings[0] if a.option_strings else a.dest
                        for a in p._actions
                        if not isinstance(a, argparse._HelpAction)}
                 for name, p in self.subparsers().items()}
        assert found == SUBCOMMAND_OPTIONS
        assert sum(len(v) for v in found.values()) == 43

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
    ])
    def test_usage_errors_exit_1(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: pcut")
        assert f"error: {message}" in err

    @pytest.mark.parametrize("command", [None, *SUBCOMMAND_OPTIONS])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main(([command] if command else []) + ["--help"])
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out
