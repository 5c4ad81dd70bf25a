import gc
import json
import math
import os
import subprocess
import sys
import warnings
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from cobias import cli, data
from cobias import (
    ObjectiveConfig,
    ProbabilityDataset,
    ReweightArtifact,
    WeightScale,
    WeightSelection,
    load_artifact,
    load_dataset,
    save_artifact,
    save_dataset,
)
from cobias.cli import main

from helpers import dataset_from_confusion, random_dataset


@pytest.fixture()
def runner():
    return CliRunner()


def _write_dataset(tmp_path, ds, name="data.jsonl"):
    path = tmp_path / name
    save_dataset(ds, path, "jsonl")
    return str(path)


@pytest.fixture()
def small_sets(tmp_path):
    rng = np.random.default_rng(42)
    opt = random_dataset(rng, 120, 3)
    test = random_dataset(rng, 60, 3)
    return (
        _write_dataset(tmp_path, opt, "opt.jsonl"),
        _write_dataset(tmp_path, test, "test.jsonl"),
    )


class TestExecutable:
    """``python -m cobias.cli`` runs ``cli.run``, which the in-process tests
    through ``CliRunner`` never reach."""

    @staticmethod
    def _run(args, cwd, stdout=subprocess.PIPE, python=("-m", "cobias.cli")):
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *python, *args], cwd=cwd, env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True)

    @pytest.mark.parametrize("args, code, stdout, stderr", [
        (["--version"], 0, f"version {cli.__version__}\n", ""),
        (["--help"], 0, "Usage: ", ""),
        *[([name, "--help"], 0, "Usage: ", "") for name in main.commands],
        (["optimize"], 2, "", "Error: Missing argument 'OPTIMIZATION_PATH'."),
    ], ids=["version", "help", *[f"{name}-help" for name in main.commands], "usage-error"])
    def test_start_up_imports_no_numpy(self, tmp_path, args, code, stdout, stderr):
        # --version, --help and click's usage errors never run a command, so
        # nothing imports numpy or orjson
        result = self._run(args, tmp_path, python=("-X", "importtime", "-m", "cobias.cli"))
        timings = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
        modules = {line.rsplit("|", 1)[1].strip() for line in timings[1:]}
        assert "cobias.defaults" in modules
        assert sorted(m for m in modules if m.split(".")[0] in ("numpy", "orjson")) == []
        assert result.returncode == code
        assert stdout in result.stdout
        rest = [line for line in result.stderr.splitlines() if line not in timings]
        assert rest[-1:] == ([stderr] if stderr else [])

    def test_a_name_replaced_before_the_first_command_is_kept(self, tmp_path):
        # the benchmark's tracer wraps cli.load_dataset before its first
        # traced command, so the names the command binds must not replace it
        (tmp_path / "d.jsonl").write_text('{"probs":[0.6,0.4],"label":0}\n')
        script = """if True:
            import sys
            from cobias import cli
            calls = []
            def recorder(*args):
                from cobias.data import load_dataset
                calls.append(args)
                return load_dataset(*args)
            cli.load_dataset = recorder
            assert "numpy" not in sys.modules
            cli.main.main(["evaluate", "d.jsonl"], standalone_mode=False)
            assert "numpy" in sys.modules and cli.load_dataset is recorder
            sys.exit(len(calls) != 1)
        """
        result = self._run([], tmp_path, python=("-c", script))
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("samples: 1  classes: 2\n")

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'cobias.cli' has no attribute 'no_such_name'"):
            cli.no_such_name

    def test_optimize_trace_matches_the_in_process_run(
        self, runner, small_sets, tmp_path, monkeypatch
    ):
        opt, _ = small_sets
        args = ["optimize", opt, "--k", "4", "--tmax", "10", "--tmin", "1", "--seed", "3",
                "--out", "a.json", "--trace", "trace.jsonl"]
        (tmp_path / "exe").mkdir()
        (tmp_path / "in").mkdir()
        executable = self._run(args, tmp_path / "exe")
        monkeypatch.chdir(tmp_path / "in")
        in_process = runner.invoke(main, args)
        assert executable.returncode == in_process.exit_code == 0
        assert executable.stdout == in_process.stdout
        for name in ("a.json", "trace.jsonl"):
            assert (tmp_path / "exe" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()

    @pytest.mark.parametrize("args, code, prefix", [
        (["evaluate", "d.jsonl", "--mu", "nan"], 1, "error: "),
        (["evaluate", "missing.jsonl"], 2, "i/o error: "),
    ])
    def test_errors_are_one_line_with_the_exit_code(self, tmp_path, args, code, prefix):
        (tmp_path / "d.jsonl").write_text('{"probs":[0.6,0.4],"label":0}\n')
        result = self._run(args, tmp_path)
        assert result.returncode == code
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix)

    @pytest.mark.parametrize("args, code, stderr", [
        # click's own handler: --help is written before any command runs
        (["optimize", "--help"], 1, ""),
        (["evaluate", "d.jsonl"], 2, "i/o error: [Errno 32] Broken pipe\n"),
    ])
    def test_a_closed_stdout_pipe(self, tmp_path, args, code, stderr):
        (tmp_path / "d.jsonl").write_text('{"probs":[0.6,0.4],"label":0}\n')
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self._run(args, tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (code, stderr)

    def test_every_command_has_the_error_boundary(self):
        # the group's command_class, so a command added later gets it too
        assert main.commands and all(type(c) is cli._Command for c in main.commands.values())

    def test_version_names_the_program_of_each_call(self, runner):
        for name in ("cobias", "another-name"):
            result = runner.invoke(main, ["--version"], prog_name=name)
            assert result.exit_code == 0
            assert result.stdout == f"{name}, version {cli.__version__}\n"

    def test_only_the_executable_freezes_the_heap(self, runner, tmp_path, monkeypatch):
        args = ["evaluate", str(tmp_path / "missing.jsonl")]
        assert runner.invoke(main, args).exit_code == 2
        assert gc.get_freeze_count() == 0
        monkeypatch.setattr(sys, "argv", ["cobias", *args])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert exc.value.code == 2
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


class TestEvaluate:
    def test_reports_metrics_and_json(self, runner, tmp_path):
        path = _write_dataset(tmp_path, dataset_from_confusion([[3, 1], [0, 4]]))
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["evaluate", path, "--json", str(out)])
        assert result.exit_code == 0
        assert "overall accuracy" in result.output
        doc = json.loads(out.read_text())
        assert doc["confusion"] == [[3, 1], [0, 4]]
        assert doc["overall_accuracy"] == 7 / 8

    def test_perfect_dataset_reports_zero_cobias(self, runner, tmp_path):
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.1, 0.9]], [0, 1])
        result = runner.invoke(main, ["evaluate", _write_dataset(tmp_path, ds)])
        assert result.exit_code == 0
        assert "cobias: 0.0000" in result.output

    def test_missing_file_exits_2_with_no_output(self, runner, tmp_path):
        result = runner.invoke(main, ["evaluate", str(tmp_path / "nope.jsonl")])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_invalid_data_exits_1(self, runner, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"probs":[0.7,0.7],"label":0}\n')
        result = runner.invoke(main, ["evaluate", str(path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_nonfinite_csv_label_is_one_error_line(self, runner, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.5,0.5,0\n0.5,0.5,{label}\n")
        result = runner.invoke(main, ["evaluate", str(path)])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            f"error: line 1: label '{label}' is not an integer"
        ]

    def test_non_utf8_dataset_is_one_error_line(self, runner, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"probs":[0.5,0.5],"label":0}\n\xff\n')
        result = runner.invoke(main, ["evaluate", str(path)])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "not valid UTF-8" in lines[0] and "line 1" in lines[0]

    @pytest.mark.parametrize(
        "name,row,message",
        [
            ("p.jsonl", '{"probs":[1%s,0.5],"label":1}' % ("0" * 399),
             "probability too large for a float"),
            ("l.jsonl", '{"probs":[0.5,0.5],"label":100000000000000000000000}',
             "sample 1: label beyond the 64-bit integer range"),
            ("l.csv", "0.5,0.5,1e300", "sample 1: label beyond the 64-bit integer range"),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":1%s}' % ("0" * 5000), "invalid number"),
        ],
    )
    def test_overflowing_number_is_one_error_line(self, runner, tmp_path, name, row, message):
        path = tmp_path / name
        first = "0.5,0.5,0" if name.endswith(".csv") else '{"probs":[0.5,0.5],"label":0}'
        path.write_text(f"{first}\n{row}\n")
        result = runner.invoke(main, ["evaluate", str(path)])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: line 1: ")
        assert message in lines[0]

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n\n', "line 1: blank line"),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n{not json\n',
             "line 1: invalid JSON (Expecting property name enclosed in double quotes)"),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n[1, 2]\n',
             'line 1: expected object with "probs" and "label"'),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n{"probs":[0.5,"x"],"label":0}\n',
             'line 1: "probs" must be a list of numbers'),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n{"probs":[0.5,0.5],"label":"1"}\n',
             'line 1: "label" must be an integer'),
            ("d.jsonl", '{"probs":[1.0],"label":0}\n', "line 0: need at least 2 classes, got 1"),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n{"probs":[0.2,0.3,0.5],"label":0}\n',
             "line 1: expected 2 probabilities, got 3"),
            ("d.csv", "0.5,0.5,0\n\n", "line 1: blank line"),
            ("d.csv", "0.5,0.5,0\nabc,0.5,0\n", "line 1: non-numeric probability 'abc'"),
            ("d.csv", "1.0,0\n", "line 0: need at least 2 probability columns, got 1"),
            ("d.csv", "0.5,0.5,0\n0.2,0.3,0.5,0\n", "line 1: expected 3 columns, got 4"),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n{"probs":[NaN,0.5],"label":0}\n',
             "line 1: non-finite probability in sample 1"),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n{"probs":[-0.5,1.5],"label":0}\n',
             "line 1: negative probability in sample 1"),
            ("d.csv", "0.5,0.5,0\n-0.5,1.5,0\n", "line 1: negative probability in sample 1"),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n{"probs":[0.6,0.5],"label":0}\n',
             "line 1: sample 1: probabilities sum to 1.10000000, expected 1 within 1e-06 "
             "(pass renormalize=True to rescale rows)"),
            ("d.jsonl", '{"probs":[0.5,0.5],"label":0}\n{"probs":[0.5,0.5],"label":2}\n',
             "line 1: sample 1: label 2 outside [0, 1]"),
            ("d.csv", "0.5,0.5,0\n0.5,0.5,3\n", "line 1: sample 1: label 3 outside [0, 1]"),
            ("d.jsonl",
             '{"probs":[0.5,0.5],"label":0}\n{"probs":[0.5,0.5],"label":9223372036854775813}\n',
             "line 1: sample 1: label beyond the 64-bit integer range"),
        ],
    )
    def test_malformed_line_is_one_exact_error_line(self, runner, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        result = runner.invoke(main, ["evaluate", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]

    def test_zero_sum_row_and_empty_file_are_one_exact_error_line(self, runner, tmp_path):
        # a zero row is refused only once --renormalize would divide by its sum
        zero, empty = tmp_path / "zero.jsonl", tmp_path / "empty.jsonl"
        zero.write_text('{"probs":[0.5,0.5],"label":0}\n{"probs":[0,0],"label":0}\n')
        empty.write_text("")
        for args, message in [
            (["--renormalize", str(zero)], "line 1: zero-sum probability row in sample 1"),
            ([str(empty)], f"no samples found in {empty}"),
        ]:
            result = runner.invoke(main, ["evaluate", *args])
            assert result.exit_code == 1
            assert result.stdout == ""
            assert result.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command", ["evaluate", "apply"])
    @pytest.mark.parametrize("mu", ["inf", "nan", "-inf"])
    def test_nonfinite_mu_rejected_before_the_dataset_is_read(
        self, runner, tmp_path, command, mu
    ):
        # the dataset and artifact are missing, so any read would end in an
        # i/o error (exit 2) instead
        out = tmp_path / "report.json"
        missing = [str(tmp_path / "missing.jsonl")]
        if command == "apply":
            missing.append(str(tmp_path / "missing-artifact.json"))
        result = runner.invoke(main, [command, *missing, "--mu", mu, "--json", str(out)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"error: mu must be finite and nonnegative, got {float(mu)}"
        ]
        assert not out.exists()

    def test_unknown_extension_needs_format_flag(self, runner, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text('{"probs":[0.5,0.5],"label":0}\n')
        assert runner.invoke(main, ["evaluate", str(path)]).exit_code == 1
        assert runner.invoke(
            main, ["evaluate", str(path), "--format", "jsonl"]
        ).exit_code == 0


class TestPmiRefusal:
    # Class 2 has no true samples and no row predicts it, so its PMI
    # denominator is mu * mu: infinite at mu=1e200 (as every class's is),
    # 0 at mu=1e-200 and at 1e-170.
    ROWS = [([0.6, 0.3, 0.1], 0), ([0.5, 0.2, 0.3], 0), ([0.2, 0.7, 0.1], 1),
            ([0.45, 0.35, 0.2], 1)]

    @pytest.mark.parametrize("command",
                             ["evaluate", "apply", "optimize", "ablate", "sweep", "compare"])
    @pytest.mark.parametrize("mu, bad", [("1e200", 0), ("1e-200", 2), ("1e-170", 2)])
    def test_mu_leaving_the_pmi_not_finite_is_one_error_line(
        self, runner, tmp_path, command, mu, bad
    ):
        ds = ProbabilityDataset.from_arrays(*zip(*self.ROWS))
        data = _write_dataset(tmp_path, ds)
        artifact = tmp_path / "artifact.json"
        save_artifact(ReweightArtifact(
            scale=WeightScale(3), selection=WeightSelection((3, 2, 3)),
            objective_config=ObjectiveConfig(), final_objective=0.0,
            provenance={"seed": 0, "schedule": {}, "dataset_fingerprint": ds.fingerprint(),
                        "created_at": None},
        ), artifact)
        out = tmp_path / "out.json"
        search = ["--k", "3", "--tmax", "10", "--tmin", "1"]
        args = {
            "evaluate": ["evaluate", data, "--json", str(out)],
            "apply": ["apply", data, str(artifact), "--json", str(out)],
            "optimize": ["optimize", data, *search, "--out", str(out)],
            "ablate": ["ablate", data, data, *search, "--json", str(out)],
            "sweep": ["sweep", data, data, "--sizes", "4", *search, "--json", str(out)],
            "compare": ["compare", data, data, *search, "--json", str(out)],
        }[command]
        result = runner.invoke(main, [*args, "--mu", mu])
        assert result.exit_code == 1
        assert result.stdout == ""
        expected = f"error: mu={float(mu):g} makes the smoothed PMI of class {bad} not finite"
        if command not in ("evaluate", "apply"):  # the search refuses what some counts would give
            expected += " for some confusion counts on this dataset"
        assert result.stderr.splitlines() == [expected]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "ablate", "sweep", "compare"])
    def test_tau_that_overflows_the_objective_is_one_error_line(
        self, runner, small_sets, tmp_path, monkeypatch, command
    ):
        opt, test = small_sets
        out = tmp_path / "out.json"
        search = ["--k", "3", "--tmax", "10", "--tmin", "1", "--tau", "1e308"]
        args = {
            "optimize": ["optimize", opt, *search, "--out", str(out)],
            "ablate": ["ablate", opt, test, *search, "--json", str(out)],
            "sweep": ["sweep", opt, test, "--sizes", "30,60", *search, "--json", str(out)],
            "compare": ["compare", opt, test, *search, "--json", str(out)],
        }[command]
        anneals = []
        monkeypatch.setattr("cobias.cli.anneal", lambda *args: anneals.append(args))
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: tau=1e+308")
        assert "can overflow the objective on this dataset, where |z3| may reach" in line
        assert anneals == [] and not out.exists()

    def test_tiny_mu_reports_a_class_that_is_predicted(self, runner, tmp_path):
        # the same rows with class 2 predicted once: every PMI is finite, so
        # evaluate runs, while a search may reach counts without that prediction
        rows = [*self.ROWS[:3], ([0.1, 0.2, 0.7], 1)]
        data = _write_dataset(tmp_path, ProbabilityDataset.from_arrays(*zip(*rows)))
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["evaluate", data, "--mu", "1e-200", "--json", str(out)])
        assert result.exit_code == 0
        assert all(math.isfinite(v) for v in json.loads(out.read_text())["pmi"])
        result = runner.invoke(main, ["optimize", data, "--k", "3", "--mu", "1e-200",
                                      "--out", str(tmp_path / "a.json")])
        assert result.exit_code == 1
        assert not (tmp_path / "a.json").exists()


class TestOptimizeAndApply:
    def test_same_seed_gives_identical_artifact_files(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        args = ["optimize", opt, "--k", "4", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_artifact_records_settings(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        out = tmp_path / "a.json"
        result = runner.invoke(main, ["optimize", opt, "--out", str(out)])
        assert result.exit_code == 0
        assert "before:" in result.output and "after:" in result.output
        doc = json.loads(out.read_text())
        assert doc["k_points"] == 30
        assert doc["objective_config"]["beta"] == 2.7
        assert doc["objective_config"]["tau"] == 0.2
        assert doc["provenance"]["schedule"]["t_max"] == 200000.0
        assert doc["provenance"]["created_at"] is None

    def test_timestamp_is_the_only_difference(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        args = ["optimize", opt, "--k", "4", "--seed", "3"]
        plain, stamped = tmp_path / "plain.json", tmp_path / "stamped.json"
        assert runner.invoke(main, args + ["--out", str(plain)]).exit_code == 0
        assert runner.invoke(main, args + ["--timestamp", "--out", str(stamped)]).exit_code == 0
        created_at = json.loads(stamped.read_text())["provenance"]["created_at"]
        assert datetime.fromisoformat(created_at).utcoffset() == timedelta(0)
        text = stamped.read_text().replace(json.dumps(created_at), "null")
        assert text == plain.read_text()
        applied = [runner.invoke(main, ["apply", opt, str(path)]) for path in (stamped, plain)]
        assert [r.exit_code for r in applied] == [0, 0]
        assert applied[0].stdout == applied[1].stdout

    def test_trace_export(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        out, trace = tmp_path / "a.json", tmp_path / "t.jsonl"
        result = runner.invoke(
            main, ["optimize", opt, "--k", "3", "--out", str(out), "--trace", str(trace)]
        )
        assert result.exit_code == 0
        lines = trace.read_text().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert rec["iteration"] == 0

    def test_a_trace_that_cannot_be_written_leaves_no_artifact(self, runner, small_sets, tmp_path):
        # the artifact is written last, so one on disk means the run finished
        opt, _ = small_sets
        out, trace = tmp_path / "a.json", tmp_path / "nodir" / "t.jsonl"
        result = runner.invoke(main, ["optimize", opt, "--k", "3", "--tmax", "10", "--tmin", "1",
                                      "--out", str(out), "--trace", str(trace)])
        assert result.exit_code == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("i/o error: ")
        assert not out.exists()

    def test_k1_apply_reproduces_evaluate_bit_for_bit(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        artifact = tmp_path / "identity.json"
        assert runner.invoke(
            main, ["optimize", opt, "--k", "1", "--out", str(artifact)]
        ).exit_code == 0
        ev_json, ap_json = tmp_path / "ev.json", tmp_path / "ap.json"
        ev = runner.invoke(main, ["evaluate", opt, "--json", str(ev_json)])
        ap = runner.invoke(main, ["apply", opt, str(artifact), "--json", str(ap_json)])
        assert ev.exit_code == 0 and ap.exit_code == 0
        assert ev.stdout == ap.stdout
        assert ev_json.read_bytes() == ap_json.read_bytes()

    def test_non_utf8_artifact_is_one_error_line(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        artifact = tmp_path / "a.json"
        artifact.write_bytes(b'{"kind": "\xff"}\n')
        result = runner.invoke(main, ["apply", opt, str(artifact)])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "not valid UTF-8" in lines[0]

    def test_giant_json_number_is_one_error_line(self, runner, small_sets, tmp_path):
        # integers above Python's 4300-digit string limit fail inside json
        opt, _ = small_sets
        giant = "1" + "0" * 5000
        artifact, spec = tmp_path / "a.json", tmp_path / "spec.json"
        artifact.write_text('{"kind": "reweight_artifact", "k_points": %s}' % giant)
        spec.write_text('{"num_classes": %s}' % giant)
        for args in (["apply", opt, str(artifact)],
                     ["generate", "--spec", str(spec), "--out", str(tmp_path / "g.jsonl")]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "has an invalid number" in lines[0]

    @pytest.mark.parametrize("kind, message", [
        ("dataset", "error: line 1: invalid JSON (nested too deeply)"),
        ("artifact", "error: artifact file is not valid JSON: nested too deeply"),
        ("spec", "error: spec file is not valid JSON: nested too deeply"),
    ])
    def test_deeply_nested_json_is_one_error_line(self, runner, small_sets, tmp_path, kind,
                                                  message):
        # json raises RecursionError past the interpreter's recursion limit
        opt, _ = small_sets
        deep = "[" * 100_000
        dataset, doc = tmp_path / "deep.jsonl", tmp_path / "deep.json"
        dataset.write_text('{"probs":[0.5,0.5],"label":0}\n'
                           '{"probs":%s%s,"label":0}\n' % (deep, "]" * len(deep)))
        doc.write_text(deep)
        args = {"dataset": ["evaluate", str(dataset)],
                "artifact": ["apply", opt, str(doc)],
                "spec": ["generate", "--spec", str(doc), "--out", str(tmp_path / "g.jsonl")]}[kind]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [message]
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["optimize", "ablate", "sweep", "compare"])
    def test_mu_zero_with_pmi_term_rejected_before_any_work(self, runner, tmp_path, command):
        # the config is checked before any dataset is read, so missing
        # dataset files do not turn the error (exit 1) into an i/o error
        opt = _write_dataset(tmp_path, random_dataset(np.random.default_rng(8), 90, 3))
        out = tmp_path / "a.json"
        missing = [str(tmp_path / "missing-opt.jsonl"), str(tmp_path / "missing-test.jsonl")]
        args = {
            "optimize": ["optimize", opt, "--out", str(out)],
            "ablate": ["ablate", *missing, "--json", str(out)],
            "sweep": ["sweep", *missing, "--sizes", "30", "--json", str(out)],
            "compare": ["compare", *missing, "--json", str(out)],
        }[command]
        result = runner.invoke(main, [*args, "--mu", "0"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: mu must be positive when the PMI term z3 is enabled"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "ablate", "sweep", "compare"])
    def test_negative_seed_rejected_before_any_work(self, runner, tmp_path, command):
        # numpy refuses a negative seed; the schedule is checked before any
        # dataset is read, so optimize prints no "before:" line first
        opt = _write_dataset(tmp_path, random_dataset(np.random.default_rng(8), 90, 3))
        out = tmp_path / "a.json"
        missing = [str(tmp_path / "missing-opt.jsonl"), str(tmp_path / "missing-test.jsonl")]
        args = {
            "optimize": ["optimize", opt, "--out", str(out), "--seed", "-1"],
            "ablate": ["ablate", *missing, "--json", str(out), "--seed", "-1"],
            "sweep": ["sweep", *missing, "--sizes", "30", "--seeds", "0,-1", "--json", str(out)],
            "compare": ["compare", *missing, "--json", str(out), "--seed", "-1"],
        }[command]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: seed must be nonnegative, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "ablate", "sweep", "compare"])
    def test_objective_error_reported_before_schedule_error(self, runner, tmp_path, command):
        # every annealing command checks the scale, the objective and the
        # schedule in that order, before any dataset is read
        out = tmp_path / "a.json"
        missing = [str(tmp_path / "missing-opt.jsonl"), str(tmp_path / "missing-test.jsonl")]
        args = {
            "optimize": ["optimize", missing[0], "--out", str(out)],
            "ablate": ["ablate", *missing, "--json", str(out)],
            "sweep": ["sweep", *missing, "--sizes", "30", "--json", str(out)],
            "compare": ["compare", *missing, "--json", str(out)],
        }[command]
        result = runner.invoke(main, [*args, "--alpha", "2", "--beta", "-1"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: beta, tau, and mu must be nonnegative"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "ablate", "sweep", "compare"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--tmax", "0", "temperatures must be positive"),
        ("--tmax", "inf", "temperatures must be finite"),
        ("--tmin", "1e-320",
         "t_min / t_max underflows to 0, so the number of temperature levels is not finite"),
        ("--tmin", "200000", "t_min must be below t_max"),  # the default --tmax
        ("--alpha", "2", "alpha must lie in (0, 1)"),
        ("--lambda", "0", "lambda must be positive"),
        ("--lambda", "inf", "lambda must be finite"),
        ("--max-accepted", "0", "max_accepted must be positive"),
        ("--tau", "nan", "beta, tau, and mu must be finite"),
        ("--beta", "inf", "beta, tau, and mu must be finite"),
        ("--mu", "inf", "beta, tau, and mu must be finite"),
        ("--mu", "nan", "beta, tau, and mu must be finite"),
    ])
    def test_invalid_flag_rejected_before_any_work(
        self, runner, tmp_path, command, flag, value, message
    ):
        # a schedule flag like these would otherwise fail partway through the
        # anneal, and an objective flag would write an artifact whose
        # objective is not finite; the datasets are missing, so any read
        # would end in an i/o error instead
        out = tmp_path / "a.json"
        missing = [str(tmp_path / "missing-opt.jsonl"), str(tmp_path / "missing-test.jsonl")]
        args = {
            "optimize": ["optimize", missing[0], "--out", str(out)],
            "ablate": ["ablate", *missing, "--json", str(out)],
            "sweep": ["sweep", *missing, "--sizes", "30", "--json", str(out)],
            "compare": ["compare", *missing, "--json", str(out)],
        }[command]
        result = runner.invoke(main, [*args, flag, value])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ablate", "sweep", "compare"])
    def test_class_count_mismatch_rejected_before_any_anneal(
        self, runner, tmp_path, monkeypatch, command
    ):
        rng = np.random.default_rng(3)
        opt = _write_dataset(tmp_path, random_dataset(rng, 40, 2), "opt.jsonl")
        test = _write_dataset(tmp_path, random_dataset(rng, 30, 3), "test.jsonl")
        out = tmp_path / "rows.json"
        anneals = []
        monkeypatch.setattr("cobias.cli.anneal", lambda *args: anneals.append(args))
        sizes = ["--sizes", "20"] if command == "sweep" else []
        result = runner.invoke(main, [command, opt, test, *sizes, "--json", str(out)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: optimization set has 2 classes but test set has 3"
        ]
        assert anneals == [] and not out.exists()

    @pytest.mark.parametrize("command, flag", [(["ablate"], ["--terms", "z1"]),
                                               (["sweep", "--sizes", "30"], ["--seed", "3"])])
    def test_removed_flag_is_a_usage_error(self, runner, small_sets, command, flag):
        # ablate runs every term combination and sweep seeds each run from
        # --seeds, so neither takes the flag optimize and compare have
        opt, test = small_sets
        result = runner.invoke(main, [command[0], opt, test, *command[1:], *flag])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert any(
            line.startswith("Error: No such option") and flag[0] in line
            for line in result.stderr.splitlines()
        )

    @pytest.mark.parametrize("command", ["optimize", "ablate", "sweep", "compare"])
    @pytest.mark.parametrize("lam", ["1e307", "1.7e308", "5e-324"])
    def test_bad_chain_length_rejected_before_any_output(
        self, runner, small_sets, tmp_path, command, lam
    ):
        # lambda*N*K (or a tenth of it, the acceptance limit) overflows a
        # float, or the acceptance limit underflows to 0 and no level would
        # make a proposal; only the datasets give N, so the check follows the read
        opt, test = small_sets
        out = tmp_path / "out.json"
        args = {
            "optimize": ["optimize", opt, "--out", str(out)],
            "ablate": ["ablate", opt, test, "--json", str(out)],
            "sweep": ["sweep", opt, test, "--sizes", "30", "--json", str(out)],
            "compare": ["compare", opt, test, "--json", str(out)],
        }[command]
        result = runner.invoke(main, [*args, "--lambda", lam, "--k", "30"])
        assert result.exit_code == 1
        assert result.stdout == ""
        problem = ("too small for 3 classes and K=30: the chain length 0.1*lambda*N*K "
                   "underflows to 0" if lam == "5e-324" else
                   "too large for 3 classes and K=30: the chain length lambda*N*K overflows")
        assert result.stderr.splitlines() == [f"error: lambda {float(lam):g} is {problem}"]
        assert not out.exists()

    def test_capped_acceptances_run_a_lambda_whose_default_limit_underflows(
        self, runner, small_sets, tmp_path
    ):
        # with --max-accepted the 0.1*lambda*N*K limit is never formed, so the
        # up-front check passes and each of the 45 levels makes one proposal
        opt, _ = small_sets
        out = tmp_path / "a.json"
        result = runner.invoke(main, ["optimize", opt, "--k", "3", "--tmax", "10", "--tmin", "1",
                                      "--lambda", "5e-324", "--max-accepted", "1",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "proposals: 45 (bound 45)" in result.stdout.splitlines()
        assert out.exists()

    def test_mu_zero_without_pmi_term_runs(self, runner, tmp_path):
        opt = _write_dataset(tmp_path, random_dataset(np.random.default_rng(8), 90, 3))
        out = tmp_path / "a.json"
        result = runner.invoke(
            main, ["optimize", opt, "--terms", "z1+z2", "--mu", "0", "--k", "4",
                   "--out", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["objective_config"]["mu"] == 0.0

    def test_huge_k_artifact_applies_without_building_the_scale(
        self, runner, small_sets, tmp_path
    ):
        # 10**15 scale points would take 8 PB as an array; coefficients are
        # index / K, the same doubles as a K=2 artifact selecting (2, 1, 2)
        opt, _ = small_sets
        fingerprint = load_dataset(opt, "jsonl").fingerprint()
        k = 10**15
        reports = []
        for scale, indices in ((WeightScale(k), (k, k // 2, k)), (WeightScale(2), (2, 1, 2))):
            path = tmp_path / f"k{scale.k_points}.json"
            save_artifact(
                ReweightArtifact(
                    scale=scale,
                    selection=WeightSelection(indices),
                    objective_config=ObjectiveConfig(),
                    final_objective=0.0,
                    provenance={"seed": 0, "schedule": {}, "dataset_fingerprint": fingerprint,
                                "created_at": None},
                ),
                path,
            )
            report = tmp_path / f"k{scale.k_points}-report.json"
            result = runner.invoke(main, ["apply", opt, str(path), "--json", str(report)])
            assert result.exit_code == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        huge = load_artifact(tmp_path / f"k{k}.json")
        assert huge.coefficients.tolist() == [1.0, 0.5, 1.0]
        assert "values" not in vars(huge.scale)

    def test_apply_rejects_class_count_mismatch(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        artifact = tmp_path / "a.json"
        runner.invoke(main, ["optimize", opt, "--k", "3", "--out", str(artifact)])
        other = _write_dataset(
            tmp_path, dataset_from_confusion([[3, 1], [0, 4]]), "two.jsonl"
        )
        result = runner.invoke(main, ["apply", other, str(artifact)])
        assert result.exit_code == 1
        assert "classes" in result.stderr

    def test_apply_warns_on_fingerprint_mismatch(self, runner, small_sets, tmp_path):
        opt, test = small_sets
        artifact = tmp_path / "a.json"
        runner.invoke(main, ["optimize", opt, "--k", "3", "--out", str(artifact)])
        result = runner.invoke(main, ["apply", test, str(artifact)])
        assert result.exit_code == 0
        assert [line for line in result.stderr.splitlines() if "fingerprint" in line] == [
            "warning: dataset fingerprint differs from the one recorded in the "
            "artifact; weights were learned on different data"
        ]

    def test_fork_warning_is_not_echoed(self, runner, small_sets, tmp_path, monkeypatch):
        # Python 3.12+ warns on a fork once numpy has started its BLAS threads
        opt, _ = small_sets
        artifact = tmp_path / "a.json"
        runner.invoke(main, ["optimize", opt, "--k", "3", "--out", str(artifact)])
        quiet = runner.invoke(main, ["apply", opt, str(artifact)])
        forks = []
        fork = os.fork

        def warning_fork():
            forks.append(os.getpid())
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.", DeprecationWarning)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(data, "_CHUNK_CHARS", 500)
        result = runner.invoke(main, ["apply", opt, str(artifact)])
        assert len(forks) == 1
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == quiet.stdout

    @pytest.mark.parametrize("command", ["apply", "density", "evaluate"])
    def test_artifact_is_read_before_the_dataset(self, runner, tmp_path, command):
        # a malformed artifact fails with its own error before any dataset
        # is read, so a missing dataset does not turn it into an i/o error
        artifact, missing = str(tmp_path / "a.json"), str(tmp_path / "missing.jsonl")
        Path(artifact).write_text('{"kind": "reweight_artifact", "schema_version": 1}\n')
        args = {
            "apply": ["apply", missing, artifact],
            "density": ["density", missing, "--artifact", artifact,
                        "--out", str(tmp_path / "d.csv")],
            "evaluate": ["evaluate", missing, "--artifact", artifact],
        }[command]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: artifact schema violation: KeyError('k_points')"
        ]

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "evaluation_report", "not a reweight-artifact document"),
        ("provenance", {"seed": 0, "schedule": {}, "dataset_fingerprint": ""},
         "artifact schema violation: dataset fingerprint absent"),
        ("final_objective", float("nan"), "artifact schema violation: non-finite final objective"),
        ("coefficients", [1.0, 0.5, 1.0], "artifact schema violation: stored coefficients do not "
         "match the scale values selected by the stored indices"),
        ("indices", [3, 4, 3], "class 1: index 4 outside [1, 3]"),
    ], ids=["kind", "empty-fingerprint", "nan-objective", "coefficients", "index-range"])
    def test_artifact_schema_violation_is_one_error_line(
        self, runner, small_sets, tmp_path, field, value, message
    ):
        opt, _ = small_sets
        artifact = tmp_path / "a.json"
        save_artifact(ReweightArtifact(
            scale=WeightScale(3), selection=WeightSelection((3, 2, 3)),
            objective_config=ObjectiveConfig(), final_objective=0.0,
            provenance={"seed": 0, "schedule": {}, "dataset_fingerprint": "0",
                        "created_at": None},
        ), artifact)
        assert runner.invoke(main, ["apply", opt, str(artifact)]).exit_code == 0
        artifact.write_text(json.dumps({**json.loads(artifact.read_text()), field: value}))
        result = runner.invoke(main, ["apply", opt, str(artifact)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]


class TestWarnings:
    @pytest.mark.parametrize("command", ["optimize", "ablate", "sweep", "compare"])
    def test_empty_class_warning_is_one_line(self, runner, tmp_path, command):
        # class 2 has no true samples, which every objective evaluation and
        # report notices; stderr carries each message once, as one line
        rng = np.random.default_rng(9)
        ds = ProbabilityDataset.from_arrays(
            rng.dirichlet(np.ones(3), size=60), rng.integers(0, 2, size=60)
        )
        path = _write_dataset(tmp_path, ds)
        args = {
            "optimize": ["optimize", path, "--out", str(tmp_path / "a.json")],
            "ablate": ["ablate", path, path],
            "sweep": ["sweep", path, path, "--sizes", "30,60", "--seeds", "0,1"],
            "compare": ["compare", path, path],
        }[command]
        result = runner.invoke(main, args + ["--k", "3", "--tmax", "10", "--tmin", "1"])
        assert result.exit_code == 0
        lines = result.stderr.splitlines()
        assert all(line.startswith("warning: ") for line in lines)
        assert len(set(lines)) == len(lines)
        assert (
            "warning: classes without true samples excluded from the pairwise accuracy gap"
            in lines
        )


class TestAblate:
    def test_seven_labeled_rows(self, runner, small_sets, tmp_path):
        opt, test = small_sets
        out = tmp_path / "ablate.json"
        result = runner.invoke(
            main,
            ["ablate", opt, test, "--k", "3", "--tmax", "100", "--tmin", "0.5",
             "--json", str(out)],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert [r["terms"] for r in doc["rows"]] == [
            "z1", "z2", "z3", "z1+z2", "z1-z3", "z2-z3", "z1+z2-z3"
        ]
        assert len(doc["rows"]) == 7
        for row in doc["rows"]:
            assert np.isfinite(row["accuracy"]) and np.isfinite(row["cobias"])

    def test_deterministic_under_fixed_seed(self, runner, small_sets, tmp_path):
        opt, test = small_sets
        args = ["ablate", opt, test, "--k", "3", "--tmax", "50", "--tmin", "0.5",
                "--seed", "4"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0
        assert a.stdout == b.stdout


class TestSweep:
    @pytest.mark.parametrize("sizes, message", [
        ("a", "sizes and seeds must be comma-separated integers: "
              "invalid literal for int() with base 10: 'a'"),
        (",", "need at least one size and one seed"),
    ], ids=["not-an-integer", "empty"])
    def test_unusable_sizes_are_one_error_line(self, runner, tmp_path, sizes, message):
        # refused before either dataset is read
        missing = [str(tmp_path / "missing-opt.jsonl"), str(tmp_path / "missing-test.jsonl")]
        result = runner.invoke(main, ["sweep", *missing, "--sizes", sizes])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]

    def test_statistics_match_per_seed_values(self, runner, small_sets, tmp_path):
        opt, test = small_sets
        out = tmp_path / "sweep.json"
        result = runner.invoke(
            main,
            ["sweep", opt, test, "--sizes", "30,120", "--seeds", "0,1,2",
             "--k", "3", "--tmax", "50", "--tmin", "0.5", "--json", str(out)],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert [r["size"] for r in doc["rows"]] == [30, 120]
        for row in doc["rows"]:
            accs = [p["accuracy"] for p in row["per_seed"]]
            assert row["mean_accuracy"] == pytest.approx(np.mean(accs), abs=1e-12)
            assert row["std_accuracy"] == pytest.approx(np.std(accs), abs=1e-12)

    def test_full_size_matches_optimize_apply(self, runner, small_sets, tmp_path):
        opt, test = small_sets
        out = tmp_path / "sweep.json"
        result = runner.invoke(
            main,
            ["sweep", opt, test, "--sizes", "120", "--seeds", "5", "--k", "4",
             "--json", str(out)],
        )
        assert result.exit_code == 0
        artifact = tmp_path / "a.json"
        runner.invoke(main, ["optimize", opt, "--k", "4", "--seed", "5",
                             "--out", str(artifact)])
        ap_json = tmp_path / "ap.json"
        runner.invoke(main, ["apply", test, str(artifact), "--json", str(ap_json)])
        sweep_row = json.loads(out.read_text())["rows"][0]["per_seed"][0]
        apply_doc = json.loads(ap_json.read_text())
        assert sweep_row["accuracy"] == apply_doc["overall_accuracy"]
        assert sweep_row["cobias"] == apply_doc["cobias"]

    @pytest.mark.parametrize("sizes, bad", [("2,-1", -1), ("2,0", 0), ("2,1000", 1000)])
    def test_sizes_outside_the_set_rejected_before_any_anneal(
        self, runner, small_sets, tmp_path, monkeypatch, sizes, bad
    ):
        opt, test = small_sets
        out = tmp_path / "sweep.json"
        anneals = []
        monkeypatch.setattr("cobias.cli.anneal", lambda *args: anneals.append(args))
        result = runner.invoke(
            main, ["sweep", opt, test, "--sizes", sizes, "--seeds", "0", "--k", "2",
                   "--json", str(out)],
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"error: size {bad} outside [1, 120]: the optimization set has 120 samples"
        ]
        assert anneals == [] and not out.exists()

    def test_mu_a_later_subset_cannot_take_rejected_before_any_anneal(
        self, runner, small_sets, tmp_path, monkeypatch
    ):
        # the full set has every class; the 2-row subset, a simple random
        # sample, lacks one, whose PMI denominator mu * mu underflows to 0
        opt, test = small_sets
        out = tmp_path / "sweep.json"
        args = ["sweep", opt, test, "--sizes", "120,2", "--seeds", "0", "--k", "2",
                "--tmax", "10", "--tmin", "1", "--mu", "1e-200", "--json", str(out)]
        anneals = []
        with monkeypatch.context() as patch:
            patch.setattr("cobias.cli.anneal", lambda *args: anneals.append(args))
            result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: mu=1e-200 makes the smoothed PMI of class 0 not finite "
            "for some confusion counts on this dataset"
        ]
        assert anneals == [] and not out.exists()
        # without the PMI term no run reads mu, so the same sweep runs
        result = runner.invoke(main, [*args, "--terms", "z1+z2"])
        assert result.exit_code == 0 and out.exists()

    def test_each_subset_is_drawn_once(self, runner, small_sets, monkeypatch):
        opt, test = small_sets
        draws = mock.Mock(wraps=data._stratified_subsample)
        monkeypatch.setattr(cli, "_stratified_subsample", draws)
        result = runner.invoke(main, ["sweep", opt, test, "--sizes", "2,30,60",
                                      "--seeds", "0,1", "--k", "2", "--tmax", "10",
                                      "--tmin", "1"])
        assert result.exit_code == 0
        assert draws.call_count == 3 * 2

    def test_draw_warnings_come_before_their_own_runs(self, runner, small_sets):
        # sizes 1 and 2 cannot cover 3 classes; each anneal on such a subset
        # warns about the classes it lacks, so each size's fallback warning
        # is followed by its runs' warnings before the next size's
        opt, test = small_sets
        result = runner.invoke(main, ["sweep", opt, test, "--sizes", "1,2", "--seeds", "0,1",
                                      "--k", "2", "--tmax", "10", "--tmin", "1"])
        assert result.exit_code == 0
        lines = result.stderr.splitlines()
        fallback = "warning: size {} cannot cover all 3 classes; falling back to a simple random sample"
        assert lines[0] == fallback.format(1) and lines[-1] == fallback.format(2)
        assert "warning: classes without true samples excluded from the pairwise accuracy gap" in lines[1:-1]

    def test_tiny_size_warns_and_falls_back(self, runner, small_sets):
        opt, test = small_sets
        result = runner.invoke(
            main,
            ["sweep", opt, test, "--sizes", "2", "--seeds", "0", "--k", "2",
             "--tmax", "10", "--tmin", "1"],
        )
        assert result.exit_code == 0
        assert "simple random sample" in result.stderr

    def test_stratified_sampling_covers_all_classes(self, runner, small_sets, tmp_path):
        opt, test = small_sets
        out = tmp_path / "sweep.json"
        result = runner.invoke(
            main,
            ["sweep", opt, test, "--sizes", "6", "--seeds", "0", "--k", "2",
             "--tmax", "10", "--tmin", "1", "--json", str(out)],
        )
        assert result.exit_code == 0


class TestDensity:
    def test_identity_on_certain_dataset(self, runner, tmp_path):
        probs = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        ds = ProbabilityDataset.from_arrays(probs, [0, 1, 0])
        path = _write_dataset(tmp_path, ds)
        out = tmp_path / "density.csv"
        result = runner.invoke(main, ["density", path, "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "class,value"
        assert len(lines) == 1 + 3
        for line, label in zip(lines[1:], [0, 1, 0]):
            cls, value = line.split(",")
            assert int(cls) == label
            assert float(value) == 1.0

    def test_row_count_matches_samples(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        out = tmp_path / "density.csv"
        result = runner.invoke(main, ["density", opt, "--out", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 1 + 120

    @pytest.mark.parametrize("raw", [False, True])
    def test_rows_are_written_in_one_process_as_repr_writes_them(
        self, runner, tmp_path, monkeypatch, raw
    ):
        rng = np.random.default_rng(5)
        m = 20_000
        probs = rng.dirichlet(np.ones(4), size=m)
        labels = rng.integers(0, 4, size=m)
        # a third of the true-class values spread over (1e-300, 1]: most lie below 1e-4
        tiny = rng.random(m) < 1 / 3
        probs[tiny, labels[tiny]] = 10.0 ** -rng.uniform(0, 300, tiny.sum())
        ds = ProbabilityDataset.from_arrays(probs, labels, renormalize=True)
        path = _write_dataset(tmp_path, ds)

        def no_fork():
            raise AssertionError("density started a process")

        monkeypatch.setattr(os, "fork", no_fork)
        # a file shorter than two chunks is parsed in one process as well
        monkeypatch.setattr(data, "_CHUNK_CHARS", 10**9)
        out = tmp_path / "density.csv"
        result = runner.invoke(main, ["density", path, "--out", str(out)] + ["--raw"] * raw)
        assert result.exit_code == 0, result.output
        ds = load_dataset(path, "jsonl")
        values = ds.probs[np.arange(m), ds.labels]
        if not raw:
            values = values / ds.probs.sum(axis=1)
        expected = "".join(f"{label},{value!r}\n"
                           for label, value in zip(ds.labels.tolist(), values.tolist()))
        assert out.read_bytes() == ("class,value\n" + expected).encode()
        assert np.count_nonzero(values < 1e-4) > m // 4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @example([0.0, 5e-324, 2.2250738585072014e-308 / 3, float(np.nextafter(1e-4, 0)), 1e-4,
              1.0])
    def test_every_value_is_written_as_its_repr(self, tmp_path_factory, values):
        d = tmp_path_factory.mktemp("density")
        ds = ProbabilityDataset.from_arrays([[v, 1.0 - v] for v in values], [0] * len(values))
        path = _write_dataset(d, ds)
        out = d / "density.csv"
        result = CliRunner().invoke(main, ["density", path, "--raw", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text().splitlines() == ["class,value", *(f"0,{v!r}" for v in values)]

    def test_reweighted_values_renormalized(self, runner, small_sets, tmp_path):
        opt, _ = small_sets
        artifact = tmp_path / "a.json"
        runner.invoke(main, ["optimize", opt, "--k", "4", "--out", str(artifact)])
        out = tmp_path / "density.csv"
        result = runner.invoke(
            main, ["density", opt, "--artifact", str(artifact), "--out", str(out)]
        )
        assert result.exit_code == 0
        values = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)
        # the true-class score over the row sum, as from normalizing every row first
        ds = load_dataset(opt, "jsonl")
        scores = ds.probs * load_artifact(artifact).coefficients
        normalized = scores / scores.sum(axis=1, keepdims=True)
        assert values == normalized[np.arange(ds.num_samples), ds.labels].tolist()

    def test_correction_shifts_underpredicted_class_upward(
        self, runner, tmp_path, biased_pair, trained_full_objective
    ):
        # on the biased synthetic instance, reweighting must raise the mean
        # ground-truth-class probability of the under-predicted class
        from cobias import ObjectiveConfig, ReweightArtifact, WeightScale

        opt, test = biased_pair
        artifact = ReweightArtifact(
            scale=WeightScale(30),
            selection=trained_full_objective.selection,
            objective_config=ObjectiveConfig(),
            final_objective=trained_full_objective.value.total,
            provenance={"seed": 0, "schedule": {}, "dataset_fingerprint": opt.fingerprint(),
                        "created_at": None},
        )
        artifact_path = tmp_path / "trained.json"
        from cobias import save_artifact

        save_artifact(artifact, artifact_path)
        test_path = _write_dataset(tmp_path, test, "test.jsonl")

        def class3_mean(extra):
            out = tmp_path / "density.csv"
            res = runner.invoke(main, ["density", test_path, "--out", str(out)] + extra)
            assert res.exit_code == 0
            vals = [
                float(v)
                for c, v in (l.split(",") for l in out.read_text().splitlines()[1:])
                if int(c) == 3
            ]
            return np.mean(vals)

        before = class3_mean([])
        after = class3_mean(["--artifact", str(artifact_path)])
        assert after > before


class TestGenerateAndCompare:
    def test_generate_writes_loadable_dataset(self, runner, tmp_path):
        spec = {
            "num_classes": 3,
            "samples_per_class": [5, 6, 7],
            "confusion_bias": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
            "concentration": 10.0,
            "seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "synthetic.jsonl"
        result = runner.invoke(
            main, ["generate", "--spec", str(spec_path), "--out", str(out)]
        )
        assert result.exit_code == 0
        check = runner.invoke(main, ["evaluate", str(out)])
        assert check.exit_code == 0
        assert "samples: 18" in check.output

    def test_generate_deterministic(self, runner, tmp_path):
        spec = {
            "num_classes": 2,
            "samples_per_class": [4, 4],
            "confusion_bias": [[0.7, 0.3], [0.3, 0.7]],
            "concentration": 5.0,
            "seed": 9,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        runner.invoke(main, ["generate", "--spec", str(spec_path), "--out", str(a)])
        runner.invoke(main, ["generate", "--spec", str(spec_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([1], "error: synthetic spec must be a JSON object"),
            (
                {"num_classes": "x", "samples_per_class": [4, 4],
                 "confusion_bias": [[0.7, 0.3], [0.3, 0.7]], "concentration": 5.0, "seed": 9},
                "error: synthetic spec has an invalid value: num_classes must be an integer, "
                "got 'x'",
            ),
            (
                {"num_classes": 2, "samples_per_class": [4.9, 3.5],
                 "confusion_bias": [[0.7, 0.3], [0.3, 0.7]], "concentration": 5.0, "seed": 1.9},
                "error: synthetic spec has an invalid value: samples_per_class must be an "
                "integer, got 4.9",
            ),
            (
                {"num_classes": 2, "samples_per_class": [4, 4],
                 "confusion_bias": [[0.7, 0.3], [0.3, 0.7]], "concentration": 5.0, "seed": 1.9},
                "error: synthetic spec has an invalid value: seed must be an integer, got 1.9",
            ),
            (
                {"num_classes": True, "samples_per_class": ["4", "4"],
                 "confusion_bias": [[0.7, 0.3], [0.3, 0.7]], "concentration": 5.0, "seed": 9},
                "error: synthetic spec has an invalid value: num_classes must be an integer, "
                "got True",
            ),
            (
                {"num_classes": 2, "samples_per_class": [4, 4],
                 "confusion_bias": [[0.7, 0.3], [0.3, 0.7]], "concentration": 5.0, "seed": -1},
                "error: seed must be nonnegative, got -1",
            ),
            (
                {"num_classes": 2, "samples_per_class": [4, 4],
                 "confusion_bias": [[0.7, 0.3], [0.3, 0.7]], "concentration": "5", "seed": 9},
                "error: synthetic spec has an invalid value: concentration must be a number, "
                "got '5'",
            ),
            (
                {"num_classes": 2, "samples_per_class": [4, 4],
                 "confusion_bias": [[True, 0], ["0.5", "0.5"]], "concentration": 5.0, "seed": 9},
                "error: synthetic spec has an invalid value: confusion_bias must be a number, "
                "got True",
            ),
            (
                {"num_classes": 2, "samples_per_class": [4, 4],
                 "confusion_bias": [[1, 0], ["0.5", "0.5"]], "concentration": 5.0, "seed": 9},
                "error: synthetic spec has an invalid value: confusion_bias must be a number, "
                "got '0.5'",
            ),
            (
                # 14.2 PiB is beyond a 47-bit address space, so the allocation
                # fails at once whatever the system's overcommit setting
                {"num_classes": 2, "samples_per_class": [10**15, 1],
                 "confusion_bias": [[0.7, 0.3], [0.3, 0.7]], "concentration": 5.0, "seed": 9},
                "error: Unable to allocate 14.2 PiB for an array with shape "
                "(1000000000000000, 2) and data type float64",
            ),
            *(({"num_classes": 2, "samples_per_class": [4, 4],
                "confusion_bias": [[0.7, 0.3], [0.3, 0.7]], "concentration": 5.0, "seed": 9,
                **fields}, message) for fields, message in [
                ({"num_classes": 1, "samples_per_class": [4], "confusion_bias": [[1.0]]},
                 "error: num_classes must be >= 2"),
                ({"samples_per_class": [4, 4, 4]},
                 "error: samples_per_class length must equal num_classes"),
                ({"samples_per_class": [4, 0]},
                 "error: samples_per_class entries must be positive"),
                ({"confusion_bias": [[0.7, 0.3]]}, "error: confusion_bias must be 2x2, got (1, 2)"),
                ({"confusion_bias": [[0.7, 0.3], [1.0]]},
                 "error: confusion_bias must be 2x2, got a row of 1"),
                ({"confusion_bias": [0.5, 0.5]},
                 "error: synthetic spec has an invalid value: confusion_bias must be a list of "
                 "rows, each a list of numbers"),
                ({"confusion_bias": [[1.2, -0.2], [0.3, 0.7]]},
                 "error: confusion_bias entries must be nonnegative"),
                ({"confusion_bias": [[0.7, 0.2], [0.3, 0.7]]},
                 "error: confusion_bias rows must sum to 1 within 1e-9"),
                ({"concentration": 0.0}, "error: concentration must be positive"),
            ]),
        ],
        ids=["list", "non-numeric-num-classes", "fractional-counts", "fractional-seed",
             "bool-num-classes", "negative-seed", "string-concentration", "bool-bias",
             "string-bias", "too-large-to-allocate", "one-class", "counts-length",
             "zero-count", "bias-shape", "ragged-bias", "flat-bias", "negative-bias",
             "bias-row-sum", "zero-concentration"],
    )
    def test_generate_malformed_spec_is_one_error_line(self, runner, tmp_path, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "g.jsonl"
        result = runner.invoke(main, ["generate", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [message]
        assert not out.exists()

    def test_compare_emits_three_rows(self, runner, small_sets, tmp_path):
        opt, test = small_sets
        out = tmp_path / "compare.json"
        result = runner.invoke(
            main,
            ["compare", opt, test, "--k", "3", "--tmax", "50", "--tmin", "0.5",
             "--json", str(out)],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert [r["method"] for r in doc["rows"]] == [
            "identity", "batch_calibration", "dnip"
        ]
        for row in doc["rows"]:
            for key in ("accuracy", "error_rate", "cobias", "cobias_single"):
                assert np.isfinite(row[key])

    def test_compare_anneals_through_the_cli(self, runner, small_sets, monkeypatch):
        # the benchmark's tracer wraps cli.anneal, so compare must call it
        opt, test = small_sets
        calls = []
        real = cli.anneal
        monkeypatch.setattr(cli, "anneal", lambda *args: calls.append(args) or real(*args))
        result = runner.invoke(main, ["compare", opt, test, "--k", "3", "--tmax", "10",
                                      "--tmin", "1"])
        assert result.exit_code == 0
        assert len(calls) == 1
