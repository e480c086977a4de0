"""End-to-end CLI behaviour: artifacts, exit codes, config, determinism."""

import csv
import dataclasses
import inspect
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctact import cli
from ctact._ops import f_add
from ctact.analysis import error_metrics
from ctact.attack import attack_experiment, device_model
from ctact.activations import SPECS, ActivationKind

from reference_ops import PROTECTED_TRACE_LENGTH


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

    @pytest.mark.parametrize("lo, hi, step, interval", [
        ("0", "1e-40", "1e-40", "[0.0, 1e-40]"),
        ("-0.05", "0.05", "0.01", "[-0.05, 0.05]"),
    ])
    def test_stdout_prints_the_interval_as_traces_does(self, tmp_path, capsys, lo, hi, step,
                                                        interval):
        # Shortest repr, so an interval inside +-0.05 does not round away.
        assert run("errors", "--interval", lo, hi, "--step", step, "--kinds", "tanh",
                   "--out", str(tmp_path)) == 0
        assert run("traces", "--interval", lo, hi, "--step", step, "--kinds", "tanh",
                   "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out.splitlines()
        errors_row = next(line for line in out if line.startswith("tanh "))
        assert errors_row.split()[1:3] == interval.split()
        assert any(line.startswith(f"{interval} step {step}") for line in out)

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
        assert grid["shared_length"] == PROTECTED_TRACE_LENGTH
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
        assert all(r["trace_len"] == str(PROTECTED_TRACE_LENGTH) for r in rows)

    def test_unprotected_gelu_beyond_the_erf_overflow(self, tmp_path):
        # A subprocess, so a trace model that never ends fails by timeout.
        proc = subprocess.run(
            [sys.executable, "-m", "ctact.cli", "traces", "--include-unprotected",
             "--kinds", "gelu", "--interval", "0", "3e19", "--step", "3e19",
             "--out", str(tmp_path)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(tmp_path / "traces.csv")
        assert [(r["protected"], r["input"]) for r in rows] == [
            ("1", "0.0"), ("1", "3e+19"), ("0", "0.0"), ("0", "3e+19")]

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
        # the four kinds that stayed uniform
        assert grid["shared_length"] == PROTECTED_TRACE_LENGTH
        reports = {r["kind"]: r for r in grid["reports"]}
        assert reports["tanh"]["uniform"] is False
        assert reports["tanh"]["n_deviating"] == 8  # 0.25, 0.5, ..., 2.0
        assert reports["tanh"]["deviating_inputs"][0] == [0.25, PROTECTED_TRACE_LENGTH + 1]
        assert all(r["uniform"] for kind, r in reports.items() if kind != "tanh")
        for row in read_csv(tmp_path / "traces.csv"):
            longer = row["kind"] == "tanh" and float(row["input"]) > 0
            length = PROTECTED_TRACE_LENGTH + 1 if longer else PROTECTED_TRACE_LENGTH
            assert row["trace_len"] == str(length), row


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

    def test_a_score_history_longer_than_a_write_block(self, tmp_path):
        n_max = 1300
        assert n_max > 2 * cli._CSV_BLOCK_ROWS
        argv = ("attack", "--n-max", str(n_max), "--trials", "2", "--n-prof", "300")
        assert run(*argv, "--out", str(tmp_path / "a")) == 0
        with open(tmp_path / "a" / "attack_scores.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["true_kind", "trial", "n", "class", "score"]
        model = device_model()  # the command's defaults, seed 0 included
        results = attack_experiment(model, list(model.base_cycles), 300, n_max, 2, 0)
        histories = {}
        for true_kind, trial, n, kind, score in rows:
            histories.setdefault((true_kind, trial, kind), []).append((int(n), float(score)))
        assert len(histories) == 3 * 3  # kept trial 0 of each true class, per class
        for (true_kind, trial, kind), history in histories.items():
            assert trial == "0"
            assert [n for n, _ in history] == list(range(1, n_max + 1))
            expected = results[(ActivationKind(true_kind), 0)].score_history[ActivationKind(kind)]
            assert np.array([s for _, s in history]).tobytes() == expected.tobytes()
        assert run(*argv, "--history-trials", "0", "--out", str(tmp_path / "b")) == 0
        assert ((tmp_path / "b" / "attack_scores.csv").read_text()
                == "true_kind,trial,n,class,score\n")

    def test_config_defaults_are_the_model_defaults(self):
        _, _, options = cli._COMMANDS["attack"]
        defaults, model = {o.name: o.default for o in options}, device_model()
        assert (defaults["clock_hz"], defaults["input_swing_cycles"]) == (
            model.clock_hz, model.input_swing_cycles)
        keep = inspect.signature(attack_experiment).parameters["keep_history_trials"]
        assert defaults["history_trials"] == keep.default


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
        ("bench", "--seed", "1"),  # bench draws no random numbers
        ("bench", "--format", "json"),  # and always writes one CSV and one JSON file
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
        ("attack", "--delay-low", "0", "--delay-high", "1e300"),  # variance overflows
        ("attack", "--clock-hz", "1e-300"),  # latencies overflow
        # scipy gives this delay a negative variance
        ("attack", "--delay-dist", "truncated-gaussian", "--delay-mean", "-1000",
         "--delay-std", "1"),
        # delays whose spread float64 rounding erases from relu's latency
        ("attack", "--delay-low", "0", "--delay-high", "1e-20"),
        ("attack", "--delay-dist", "truncated-gaussian", "--delay-mean", "1e15",
         "--delay-std", "1e-3"),
    ])
    def test_exit_code_two(self, argv, tmp_path):
        out = tmp_path / "new" / "sub"
        assert run(*argv, "--out", str(out)) == 2
        assert list(tmp_path.iterdir()) == []  # nothing created on usage errors

    @pytest.mark.parametrize("command", ["traces", "errors", "bench"])
    def test_grid_beyond_binary32(self, command, tmp_path, capsys):
        out = tmp_path / "new"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--interval", "0", "1e39", "--step", "1e39",
                       "--out", str(out)) == 2
        assert "overflow binary32" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_csv_bytes_match_csv_writer_for_every_cell_type(self, tmp_path):
        f32_max = np.finfo(np.float32).max
        rows = [
            ("relu", 0, True, False, -0.0),
            ("tanh_threshold_solved", 7, float("inf"), 1e-05, 1e16),
            ("sigmoid", -12, 0.30000000000000004, np.float32(0.1), np.float32(-0.0)),
            ("", 10**20, float("-inf"), np.float32(1e-45), f32_max),
        ]
        header = ("a", "b", "c", "d", "e")
        # More rows than one write block, so block boundaries are covered too.
        table = rows * (cli._CSV_BLOCK_ROWS // 2 + 1)
        cli._write(tmp_path / "t.csv", (row for row in table), header)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(table)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_column_blocks_match_csv_writer_for_every_cell_type(self, tmp_path):
        # Each column is one cell for its whole block or one cell per row;
        # blocks of 1,300 and 700 rows cross the 512-row write runs.
        f32_max = np.finfo(np.float32).max
        floats = [-0.0, float("inf"), 1e-05, 1e16, 0.30000000000000004, float("-inf"), 5e-324]
        f32 = [np.float32(v) for v in (-0.0, 1e-45, f32_max, 0.1, -2.5)]
        ints = np.array([0, -7, 2**62, 12], dtype=np.int64)

        def tile(cells, n):
            return [cells[i % len(cells)] for i in range(n)]

        blocks = [
            ("relu", np.resize(ints, 1300), np.array(tile(floats, 1300)), np.float32(-0.0),
             tile(floats[::-1], 1300), tile([True, False, False], 1300)),
            (tile(["s", "t1", ""], 700), 10**20, True, -0.0, tile(f32, 700), range(1, 701)),
            ("", 7, False, float("inf"), 1e-05, np.float32(1e-45)),  # one row
            ("tanh", [], np.empty(0), 0.5, [], range(0)),  # no rows
            ("gelu", ["a", "b"], -0.0, 1e16, np.float32(f32_max), np.array([0.1, -0.0])),
        ]
        expected = []
        for block in blocks:
            sequences = (list, range, np.ndarray)
            n = max((len(c) for c in block if isinstance(c, sequences)), default=1)
            expected += zip(*(c.tolist() if isinstance(c, np.ndarray) else
                              c if isinstance(c, sequences) else [c] * n for c in block))
        assert len(expected) == 1300 + 700 + 1 + 2
        header = ("a", "b", "c", "d", "e", "f")
        cli._write(tmp_path / "t.csv", iter(blocks), header)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(expected)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("table", [[], [("relu", [], np.empty(0))]], ids=["none", "empty"])
    def test_a_table_without_rows_writes_its_header(self, tmp_path, table):
        cli._write(tmp_path / "t.csv", table, ("kind", "n", "score"))
        assert (tmp_path / "t.csv").read_text() == "kind,n,score\n"

    def test_json_tables_expand_blocks_into_rows(self, tmp_path):
        table = [("relu", range(1, 3), np.float32(0.5)), ("tanh", 3, np.float32(0.25))]
        cli._write(tmp_path / "t.json", table, ("kind", "n", "x"))
        assert read_json(tmp_path / "t.json") == [
            {"kind": "relu", "n": 1, "x": 0.5}, {"kind": "relu", "n": 2, "x": 0.5},
            {"kind": "tanh", "n": 3, "x": 0.25}]

    @pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r", ","])
    def test_cells_that_csv_would_quote_are_rejected(self, tmp_path, cell):
        table = [("relu", 1, 0.5)] * 3 + [("relu", cell, 0.5)]
        with pytest.raises(ValueError, match="quote"):
            cli._write(tmp_path / "t.csv", iter(table), ("kind", "detail", "x"))

    @pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r", ","])
    def test_quoting_cells_are_rejected_in_either_column_form(self, tmp_path, cell):
        header = ("kind", "detail", "x")
        constant = [("relu", cell, np.arange(600.0))]
        per_row = [("relu", ["ok"] * 599 + [cell], np.arange(600.0))]
        for table in (constant, per_row):
            with pytest.raises(ValueError, match="quote"):
                cli._write(tmp_path / "t.csv", table, header)

    @pytest.mark.parametrize("block", [
        ("relu", [1, 2, 3], np.zeros(2)),      # two sized columns disagree
        ("relu", [1, 2, 3], iter([1])),        # an iterator has no len()
        ("relu", iter([1, 2]), iter([1, 2])),  # nor has any column here
        ("relu", 1),                           # fewer columns than the header
    ])
    def test_blocks_of_inconsistent_shape_are_rejected(self, tmp_path, block):
        with pytest.raises(ValueError):
            cli._write(tmp_path / "t.csv", [block], ("kind", "n", "x"))


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

    def test_a_null_kind_list_is_the_commands_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kinds": None}))
        assert run("errors", "--config", str(cfg), "--interval", "0", "1", "--step", "1",
                   "--out", str(tmp_path)) == 0
        assert [r["kind"] for r in read_csv(tmp_path / "errors.csv")] == [
            "sigmoid", "tanh", "gelu", "swish"]

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
        ("errors", {"grid": "dense", "interval": [-1, 1], "step": 0.5}),  # both forms at once
    ])
    def test_bad_config_values_exit_two_before_any_output(self, command, content,
                                                          tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("command,content,argv", [
        ("thresholds", {"tolerance": "tiny"}, ("--tolerance", "1e-6")),
        ("errors", {"grid": "bogus"}, ("--interval", "0", "1", "--step", "0.5")),
        ("attack", {"trials": 0}, ("--trials", "2")),
    ])
    def test_a_bad_value_under_a_flag_exits_two_before_any_output(self, command, content,
                                                                  argv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), *argv, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,content", [
        ("attack", {"kinds": "relu"}),
        ("thresholds", {"trials": 3}),
        ("errors", {"repetitions": 2}),
        ("bench", {"tolerance": 1e-6}),
        ("bench", {"seed": 1}),
        ("bench", {"format": "csv"}),
    ])
    def test_a_key_the_command_does_not_read_exits_two(self, command, content, tmp_path,
                                                       capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()
        (key,) = content
        assert f"{command} does not read: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("content,argv,grid", [
        ({"grid": "dense"}, ("--interval", "0", "1", "--step", "0.5"), ("0.0", "1.0", "0.5")),
        ({"interval": [0, 1], "step": 0.5}, ("--grid", "dense"), ("-8.0", "8.0", "0.01")),
        ({"interval": [0, 1]}, ("--step", "0.5"), ("0.0", "1.0", "0.5")),
    ])
    def test_grid_flags_replace_the_files_grid(self, content, argv, grid, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        assert run("errors", "--kinds", "tanh", "--config", str(cfg), *argv,
                   "--out", str(tmp_path)) == 0
        (row,) = read_csv(tmp_path / "errors.csv")
        assert (row["lo"], row["hi"], row["step"]) == grid

    def test_missing_config_file(self, tmp_path):
        assert run("thresholds", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("make", [lambda cfg: cfg.mkdir(),
                                      lambda cfg: cfg.write_bytes(b'{"seed": "\xff"}')],
                             ids=["directory", "not-utf-8"])
    def test_an_unreadable_config_exits_two_before_any_output(self, make, tmp_path):
        cfg = tmp_path / "cfg.json"
        make(cfg)
        out = tmp_path / "out"
        assert run("thresholds", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()


class TestNegativeNumbers:
    # argparse on its own reads "-5e2" as a flag: "expected 2 arguments".
    def test_exponent_form_writes_the_same_traces(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("traces", "--interval", "-5e2", "5e2", "--step", "1e2",
                   "--out", str(a)) == 0
        assert run("traces", "--interval", "-500", "500", "--step", "100",
                   "--out", str(b)) == 0
        assert (a / "traces.csv").read_bytes() == (b / "traces.csv").read_bytes()

    @pytest.mark.parametrize("argv, name, value", [
        (("traces", "--interval", "-1e-30", "1e-30", "--step", "1e-30"), "interval",
         [-1e-30, 1e-30]),
        (("errors", "--interval", "-2.5E+1", "-.5e1", "--step", "1"), "interval", [-25.0, -5.0]),
        (("bench", "--interval", "-5.", "5", "--step", "1"), "interval", [-5.0, 5.0]),
        (("attack", "--delay-dist", "truncated-gaussian", "--delay-mean", "-1e1"),
         "delay_mean_us", -10.0),
        (("thresholds", "--tolerance", "-1e-9"), "tolerance", -1e-9),
    ])
    def test_every_command_reads_a_negative_exponent_as_a_number(self, argv, name, value):
        assert getattr(cli.build_parser().parse_args(argv), name) == value

    def test_a_negative_number_is_still_checked(self, tmp_path, capsys):
        assert run("thresholds", "--tolerance", "-1e-9", "--out", str(tmp_path / "new")) == 2
        assert "tolerance must be > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """One parser per process: no call leaves anything behind for the next."""

    def test_the_parser_is_built_once(self, tmp_path, capsys):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert run("traces", "--kinds", "relu", "--interval", "0", "1", "--step", "1",
                       "--out", str(tmp_path), "--force") == 0
            assert run("thresholds", "--out", str(tmp_path), "--force") == 0
            assert run("errors", "--bogus") == 2
        assert cli.build_parser.cache_info().misses == 1
        capsys.readouterr()

    @pytest.mark.parametrize("before, code", [
        (("traces", "--include-unprotected", "--interval", "-2", "2", "--step", "0.5"), 0),
        (("errors", "--config", "{config}"), 0),
        (("traces", "--interval", "1"), 2),  # rejected by argparse
        (("traces", "--kinds", "tanh,tanh"), 2),  # rejected after parsing
    ])
    def test_a_second_call_writes_what_a_first_call_writes(self, before, code, tmp_path,
                                                           capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kinds": "tanh", "interval": [-1, 1], "step": 0.5}))
        before = [str(config) if arg == "{config}" else arg for arg in before]
        after = (before[0], "--interval", "-2", "2", "--step", "0.5")
        name = f"{before[0]}.csv"
        cli.build_parser.cache_clear()
        assert run(*before, "--out", str(tmp_path / "before")) == code
        assert run(*after, "--out", str(tmp_path / "reused")) == 0
        cli.build_parser.cache_clear()
        assert run(*after, "--out", str(tmp_path / "first")) == 0
        capsys.readouterr()
        first = (tmp_path / "first" / name).read_bytes()
        assert (tmp_path / "reused" / name).read_bytes() == first
        if code == 0:  # the leak this guards against would copy the first call's table
            assert (tmp_path / "before" / name).read_bytes() != first

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_is_the_help_of_a_fresh_parser(self, command, tmp_path, capsys):
        assert run("errors", "--interval", "-1", "1", "--step", "0.5",
                   "--out", str(tmp_path)) == 0
        capsys.readouterr()
        assert run(command, "--help") == 0
        reused = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args([command, "--help"])
        assert capsys.readouterr().out == reused


# The flags each command accepts; its declaration must give exactly these.
_FLAGS = {
    "errors": "--seed --format --out --force --grid --interval --step --kinds",
    "traces": "--seed --format --out --force --grid --interval --step --kinds "
              "--include-unprotected",
    "bench": "--out --force --grid --interval --step --kinds --repetitions --protection",
    "attack": "--seed --format --out --force --classes --countermeasure --n-prof --n-max "
              "--trials --delay-dist --delay-low --delay-high --delay-mean --delay-std "
              "--input-swing --history-trials --clock-hz",
    "thresholds": "--seed --format --out --force --tolerance --sweep",
}

# README type column for each Option.type.
_README_TYPES = {int: "int", float: "number", str: "string", bool: "bool",
                 list: "kind list", tuple: "[lo, hi]", dict: "{kind: bound}"}


class TestDeclaration:
    @pytest.mark.parametrize("command", list(_FLAGS))
    def test_help_names_exactly_the_declared_flags(self, command, capsys):
        assert run(command, "--help") == 0
        text = capsys.readouterr().out
        declared = {o.flag for o in cli._COMMANDS[command][2] if o.flag}
        assert declared == set(_FLAGS[command].split())
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == declared | {"--help", "--config"}
        assert ("--interval LO HI" in text) == ("--interval" in declared)

    def test_readme_config_table_matches_the_declaration(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1].split("\n### ", 1)[0]
        documented = {command: {} for command in cli._COMMANDS}
        for line in section.splitlines():
            cells = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
            if not line.startswith("| ") or cells[0] == "commands":
                continue
            commands, flag, key, kind, default, allowed = cells
            for command in (cli._COMMANDS if commands == "all" else commands.split(", ")):
                assert key not in documented[command], (command, key)
                documented[command][key] = (flag.split()[0], kind, default, allowed)

        def row(option):
            if option.choices is not None:
                allowed = ", ".join(option.choices)
            elif option.low is not None:
                allowed = f"{'>=' if option.type is int else '>'} {option.low}"
            else:
                allowed = ""
            default = ("unset" if option.default is None
                       else json.dumps(option.default) if option.type is bool
                       else str(option.default))
            return (option.flag or "none", _README_TYPES[option.type], default, allowed)

        declared = {command: {o.name: row(o) for o in options}
                    for command, (_, _, options) in cli._COMMANDS.items()}
        assert documented == declared


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
