"""End-to-end CLI behaviour: artifacts, exit codes, config, determinism."""

import csv
import dataclasses
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from ctact import cli
from ctact._ops import f_add
from ctact.analysis import error_metrics
from ctact.attack import attack_experiment, device_model
from ctact.activations import SPECS, ActivationKind


def run(*argv) -> int:
    return cli.main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestErrorsCommand:
    def test_custom_interval_produces_four_rows(self, tmp_path):
        assert run("errors", "--interval", "-8", "8", "--step", "0.01",
                   "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "errors.csv")
        assert [r["kind"] for r in rows] == ["sigmoid", "tanh", "gelu", "swish"]
        expected = error_metrics(ActivationKind.TANH, -8.0, 8.0, 0.01)
        tanh_row = rows[1]
        # Shortest-decimal serialization must round-trip exactly.
        assert float(tanh_row["mse"]) == expected.mse
        assert float(tanh_row["max_abs"]) == expected.max_abs
        assert np.float32(tanh_row["argmax_input"]) == np.float32(expected.argmax_input)
        assert int(tanh_row["n_points"]) == 1601

    def test_json_format(self, tmp_path):
        assert run("errors", "--interval", "-2", "2", "--step", "0.5",
                   "--format", "json", "--kinds", "sigmoid",
                   "--out", str(tmp_path)) == 0
        payload = read_json(tmp_path / "errors.json")
        assert len(payload) == 1
        expected = error_metrics(ActivationKind.SIGMOID, -2.0, 2.0, 0.5)
        assert payload[0]["mse"] == expected.mse
        assert payload[0]["kind"] == "sigmoid"

    def test_assertion_bounds_can_fail_the_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assert_max_abs": {"tanh": 1e-9}}))
        code = run("errors", "--interval", "-2", "2", "--step", "0.5",
                   "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1  # bound violated -> check failure, not usage error

    def test_assertion_bounds_pass(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assert_max_abs": {"tanh": 1e-3}}))
        assert run("errors", "--interval", "-2", "2", "--step", "0.5",
                   "--config", str(cfg), "--out", str(tmp_path)) == 0


class TestTracesCommand:
    def test_protected_uniformity_passes(self, tmp_path):
        assert run("traces", "--interval", "-4", "4", "--step", "0.5",
                   "--format", "json", "--out", str(tmp_path)) == 0
        payload = read_json(tmp_path / "traces.json")
        assert payload["ok"] is True
        grid = payload["grids"][0]
        assert grid["protected_aligned"] is True
        assert grid["shared_length"] == 59
        assert len(grid["reports"]) == 5

    def test_unprotected_reports_do_not_fail_the_run(self, tmp_path):
        assert run("traces", "--interval", "-4", "4", "--step", "1",
                   "--include-unprotected", "--format", "json",
                   "--out", str(tmp_path)) == 0
        payload = read_json(tmp_path / "traces.json")
        unprotected = [r for r in payload["grids"][0]["reports"] if not r["protected"]]
        assert any(not r["uniform"] for r in unprotected)

    def test_csv_rows_per_input(self, tmp_path):
        assert run("traces", "--interval", "-1", "1", "--step", "0.5",
                   "--kinds", "relu,tanh", "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "traces.csv")
        assert len(rows) == 2 * 5  # 2 kinds x 5 grid points
        assert all(r["trace_len"] == "59" for r in rows)

    def test_a_non_uniform_protected_kind_fails_the_run(self, tmp_path, monkeypatch, capsys):
        tanh = SPECS[ActivationKind.TANH]

        def leaky_core(x):  # one extra add for positive inputs
            y = tanh.core(x)
            if x > 0:
                f_add(y, y)
            return y

        monkeypatch.setitem(SPECS, ActivationKind.TANH,
                            dataclasses.replace(tanh, core=leaky_core))
        for fmt in ("csv", "json"):
            assert run("traces", "--interval", "-2", "2", "--step", "0.25",
                       "--format", fmt, "--out", str(tmp_path)) == 1
            assert "protected kinds aligned: False" in capsys.readouterr().out
        payload = read_json(tmp_path / "traces.json")
        assert payload["ok"] is False
        grid = payload["grids"][0]
        assert grid["protected_aligned"] is False
        assert grid["shared_length"] == 59  # the four kinds that stayed uniform
        reports = {r["kind"]: r for r in grid["reports"]}
        assert reports["tanh"]["uniform"] is False
        assert reports["tanh"]["n_deviating"] == 8  # 0.25, 0.5, ..., 2.0
        assert reports["tanh"]["deviating_inputs"][0] == [0.25, 60]
        assert all(r["uniform"] for kind, r in reports.items() if kind != "tanh")
        for row in read_csv(tmp_path / "traces.csv"):
            longer = row["kind"] == "tanh" and float(row["input"]) > 0
            assert row["trace_len"] == ("60" if longer else "59"), row


class TestBenchCommand:
    def test_sample_accounting(self, tmp_path):
        assert run("bench", "--kinds", "relu", "--interval", "-1", "1",
                   "--step", "1", "--repetitions", "2",
                   "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "bench_samples.csv")
        assert len(rows) == 3 * 2  # 3 inputs x 2 repetitions
        assert all(int(r["elapsed_ns"]) >= 0 for r in rows)
        summary = read_json(tmp_path / "bench_summary.json")
        assert len(summary) == 1
        assert summary[0]["n"] == 6
        assert summary[0]["min_ns"] <= summary[0]["median_ns"] <= summary[0]["max_ns"]

    def test_both_protection_modes(self, tmp_path):
        assert run("bench", "--kinds", "tanh", "--interval", "0", "1",
                   "--step", "1", "--repetitions", "1", "--protection", "both",
                   "--out", str(tmp_path)) == 0
        summary = read_json(tmp_path / "bench_summary.json")
        assert {row["protected"] for row in summary} == {True, False}

    def test_median_is_a_float_for_an_odd_sample_count(self, tmp_path):
        # statistics.median returns a sample itself (an int) for an odd count.
        assert run("bench", "--kinds", "relu", "--interval", "0", "2",
                   "--step", "1", "--repetitions", "1", "--out", str(tmp_path)) == 0
        (row,) = read_json(tmp_path / "bench_summary.json")
        assert row["n"] == 3
        assert type(row["median_ns"]) is float


class TestAttackCommand:
    def test_artifacts_and_summary(self, tmp_path):
        assert run("attack", "--trials", "2", "--n-prof", "50", "--n-max", "30",
                   "--seed", "5", "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "attack_scores.csv")
        assert len(rows) == 3 * 1 * 30 * 3  # kinds x kept trials x n x classes
        summary = read_json(tmp_path / "attack_summary.json")
        assert summary["config"]["seed"] == 5
        assert summary["config"]["countermeasure"] == "desync"
        per_class = summary["per_true_class"]
        assert set(per_class) == {"relu", "sigmoid", "tanh"}
        assert all(v["trials"] == 2 for v in per_class.values())
        for v in per_class.values():
            assert set(v["final_argmax_counts"]) == {"relu", "sigmoid", "tanh"}
            assert sum(v["final_argmax_counts"].values()) == 2

    def test_constant_time_flag_changes_the_model(self, tmp_path):
        assert run("attack", "--trials", "2", "--n-prof", "60", "--n-max", "40",
                   "--countermeasure", "constant-time",
                   "--out", str(tmp_path)) == 0
        summary = read_json(tmp_path / "attack_summary.json")
        assert summary["config"]["countermeasure"] == "constant-time"
        assert summary["config"]["input_swing_cycles"] == 0

    def test_explicit_delay_distributions(self, tmp_path):
        assert run("attack", "--trials", "1", "--n-prof", "40", "--n-max", "20",
                   "--delay-dist", "truncated-gaussian", "--delay-mean", "9.8",
                   "--delay-std", "4.5", "--out", str(tmp_path / "a")) == 0
        assert run("attack", "--trials", "1", "--n-prof", "40", "--n-max", "20",
                   "--delay-low", "1.0", "--delay-high", "18.0",
                   "--out", str(tmp_path / "b")) == 0
        a = read_json(tmp_path / "a" / "attack_summary.json")
        assert a["config"]["delay"]["distribution"] == "truncated-gaussian"

    @pytest.mark.parametrize("argv", [
        ("--classes", "relu,tanh", "--input-swing", "300"),  # sigmoid is not dispatched
        ("--input-swing", "220"),                             # sigmoid keeps one cycle
        ("--classes", "sigmoid,tanh", "--delay-low", "5", "--delay-high", "5"),
    ])
    def test_edge_models_still_run(self, argv, tmp_path):
        assert run("attack", *argv, "--trials", "1", "--n-prof", "200", "--n-max", "20",
                   "--out", str(tmp_path)) == 0

    def test_config_defaults_are_the_model_defaults(self):
        cfg, model = cli.ExperimentConfig(), device_model()
        assert (cfg.clock_hz, cfg.input_swing_cycles) == (model.clock_hz,
                                                           model.input_swing_cycles)
        keep = inspect.signature(attack_experiment).parameters["keep_history_trials"]
        assert cfg.history_trials == keep.default


class TestThresholdsCommand:
    def test_json_payload(self, tmp_path):
        assert run("thresholds", "--format", "json", "--out", str(tmp_path)) == 0
        payload = read_json(tmp_path / "thresholds.json")
        assert 4.96 <= payload["solved"]["tanh_threshold"] <= 4.98
        assert payload["derived"]["sigmoid_threshold"] == pytest.approx(
            2 * payload["solved"]["tanh_threshold"]
        )
        stored = payload["stored_constants"]
        assert stored["gelu"]["provenance"] == "empirical"
        assert stored["swish"]["provenance"] == "empirical"
        assert "solved" in stored["tanh"]["provenance"]
        assert payload["stored_vs_solved_gap"] < 1e-3
        assert "sweep" not in payload

    def test_sweep_included_on_request(self, tmp_path):
        assert run("thresholds", "--sweep", "--format", "json",
                   "--out", str(tmp_path)) == 0
        payload = read_json(tmp_path / "thresholds.json")
        assert set(payload["sweep"]) == {"gelu", "swish"}
        assert len(payload["sweep"]["gelu"]) == 15

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_runs_once_per_kind(self, fmt, tmp_path, monkeypatch):
        calls = []
        real = cli.threshold_sweep

        def counting(kind, *args):
            calls.append(kind)
            return real(kind, *args)

        monkeypatch.setattr(cli, "threshold_sweep", counting)
        assert run("thresholds", "--sweep", "--format", fmt, "--out", str(tmp_path)) == 0
        assert calls == [ActivationKind.GELU, ActivationKind.SWISH]

    def test_csv_variant(self, tmp_path):
        assert run("thresholds", "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "thresholds.csv")
        names = [r["name"] for r in rows]
        assert "tanh_threshold_solved" in names
        assert "sigmoid_threshold_derived" in names


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("errors", "--step", "0"),
        ("errors", "--interval", "-8", "8", "--step", "0"),
        ("errors", "--interval", "8", "-8", "--step", "0.01"),
        ("errors", "--interval", "0", "1", "--step", "0.3"),
        ("errors", "--kinds", ""),
        ("errors", "--kinds", "relu"),
        ("errors", "--kinds", "softmax"),
        ("errors", "--grid", "dense", "--interval", "-1", "1", "--step", "0.5"),
        ("traces", "--kinds", ","),
        ("bench", "--repetitions", "0"),
        ("thresholds", "--tolerance", "0"),
        ("thresholds", "--tolerance", "-1"),
        ("attack", "--classes", "relu"),
        ("attack", "--classes", "relu,gelu"),
        ("attack", "--delay-dist", "truncated-gaussian"),
        ("attack", "--delay-low", "2.0"),
        ("attack", "--trials", "0"),
        ("attack", "--n-prof", "1"),
        ("errors", "--kinds", "tanh,tanh"),
        ("traces", "--kinds", "tanh,tanh"),
        ("attack", "--classes", "relu,relu,sigmoid"),
        ("attack", "--input-swing", "-1"),
        ("attack", "--input-swing", "500"),
        ("attack", "--input-swing", "221"),
        ("attack", "--classes", "relu,tanh", "--input-swing", "403"),
        ("attack", "--countermeasure", "constant-time", "--delay-low", "5", "--delay-high", "5"),
        ("attack", "--classes", "sigmoid,relu", "--delay-low", "5", "--delay-high", "5"),
        ("attack", "--classes", "sigmoid,tanh", "--input-swing", "0",
         "--delay-low", "5", "--delay-high", "5"),
        ("attack", "--clock-hz", "nan"),
        ("attack", "--clock-hz", "inf"),
        ("attack", "--delay-low", "nan", "--delay-high", "5"),
        ("attack", "--delay-dist", "truncated-gaussian", "--delay-std", "inf",
         "--delay-mean", "1"),
        ("attack", "--delay-dist", "truncated-gaussian", "--delay-mean", "nan",
         "--delay-std", "1"),
        ("thresholds", "--tolerance", "nan"),
        ("errors", "--interval", "nan", "1", "--step", "0.5"),
        ("attack", "--delay-dist", "truncated-gaussian", "--delay-mean", "3",
         "--delay-std", "2", "--delay-low", "1", "--delay-high", "9"),
        ("attack", "--delay-mean", "3"),
    ])
    def test_exit_code_two(self, argv, tmp_path):
        out = tmp_path / "new" / "sub"
        assert run(*argv, "--out", str(out)) == 2
        assert list(tmp_path.iterdir()) == []  # nothing created on usage errors

    def test_missing_subcommand(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run("errors", "--bogus") == 2
        capsys.readouterr()


class TestWriter:
    def test_only_binary32_cells_are_rendered_as_binary32(self, tmp_path):
        table = [(np.float32(0.1), 0.1)]
        cli._write(tmp_path / "t.csv", table, ("f32", "f64"))
        cli._write(tmp_path / "t.json", table, ("f32", "f64"))
        assert (tmp_path / "t.csv").read_text() == "f32,f64\n0.1,0.1\n"
        assert read_json(tmp_path / "t.json") == [{"f32": 0.1, "f64": 0.1}]
        with pytest.raises(TypeError):  # never rendered as 5.0
            cli._write(tmp_path / "bad.json", {"n": np.int64(5)})


class TestOutputProtection:
    def test_existing_files_are_not_overwritten(self, tmp_path):
        args = ("thresholds", "--out", str(tmp_path))
        assert run(*args) == 0
        first = (tmp_path / "thresholds.csv").read_bytes()
        assert run(*args) == 2
        assert (tmp_path / "thresholds.csv").read_bytes() == first
        assert run(*args, "--force") == 0

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
        assert run("thresholds") == 0
        assert (target / "thresholds.csv").exists()


class TestConfigFile:
    def test_flags_override_file_over_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_prof": 40, "trials": 3, "seed": 5,
                                   "n_attack_max": 25}))
        assert run("attack", "--config", str(cfg), "--trials", "2",
                   "--out", str(tmp_path)) == 0
        summary = read_json(tmp_path / "attack_summary.json")
        assert summary["config"]["trials"] == 2        # flag wins
        assert summary["config"]["n_prof"] == 40       # file beats default
        assert summary["config"]["seed"] == 5
        assert summary["config"]["clock_hz"] == 84e6   # built-in default

    @pytest.mark.parametrize("content", [
        '{"bogus_key": 1}',
        '[1, 2, 3]',
        '{invalid json',
    ])
    def test_bad_config_files(self, content, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        assert run("thresholds", "--config", str(cfg), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("command,content", [
        ("errors", {"assert_max_abs": {"tahn": 1e-3}}),  # misspelt kind
        ("errors", {"assert_rmse": {"tanh": "small"}}),  # bound not a number
        ("attack", {"trials": "many"}),
        ("errors", {"interval": ["a", 1], "step": 0.5}),
        ("errors", {"kinds": 5}),
        ("attack", {"seed": -1}),
        ("errors", {"kinds": "sigmoid", "assert_max_abs": {"tanh": 1e-12}}),
        ("errors", {"assert_rmse": {"relu": 1.0}}),  # a bound that can never be checked
        ("thresholds", {"tolerance": float("inf")}),
        ("errors", {"assert_max_abs": {"tanh": float("nan")}}),  # would turn the gate off
    ])
    def test_bad_config_values_exit_two_before_any_output(self, command, content,
                                                          tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists() or list(out.iterdir()) == []

    def test_missing_config_file(self, tmp_path):
        assert run("thresholds", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 2


class TestDeterminism:
    def test_attack_outputs_are_byte_identical_for_a_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("attack", "--seed", "7", "--trials", "3", "--n-prof", "80",
                       "--n-max", "60", "--out", str(out)) == 0
        assert (a / "attack_scores.csv").read_bytes() == (b / "attack_scores.csv").read_bytes()
        assert (a / "attack_summary.json").read_bytes() == (b / "attack_summary.json").read_bytes()

    def test_errors_and_thresholds_are_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("errors", "--interval", "-3", "3", "--step", "0.25",
                       "--out", str(out)) == 0
            assert run("thresholds", "--format", "json", "--out", str(out)) == 0
        assert (a / "errors.csv").read_bytes() == (b / "errors.csv").read_bytes()
        assert (a / "thresholds.json").read_bytes() == (b / "thresholds.json").read_bytes()


class TestCsvSchemas:
    # Column sets are part of the external contract; downstream parsing
    # relies on them staying put.
    def test_documented_headers(self, tmp_path):
        run("errors", "--interval", "-1", "1", "--step", "1", "--out", str(tmp_path))
        run("traces", "--interval", "-1", "1", "--step", "1", "--out", str(tmp_path))
        run("bench", "--kinds", "relu", "--interval", "0", "1", "--step", "1",
            "--repetitions", "1", "--out", str(tmp_path))
        run("attack", "--trials", "1", "--n-prof", "40", "--n-max", "10",
            "--out", str(tmp_path))
        headers = {
            "errors.csv": "kind,lo,hi,step,n_points,mse,rmse,max_abs,argmax_input",
            "traces.csv": "kind,protected,lo,hi,step,input,trace_len",
            "bench_samples.csv": "kind,protected,input,repetition,elapsed_ns",
            "attack_scores.csv": "true_kind,trial,n,class,score",
        }
        for name, expected in headers.items():
            with open(tmp_path / name) as fh:
                assert fh.readline().strip() == expected, name


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "ctact.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "errors" in proc.stdout and "attack" in proc.stdout
