"""Command-line laboratory: errors, traces, bench, attack, thresholds.

Exit codes
----------
0  success
1  check failure (an assertion bound was violated, or a kind that must be
   trace-uniform is not)
2  usage error (bad flag, config value or grid, a non-finite number, repeated
   kind, a missing delay parameter or one of the other distribution, a device
   model the attack cannot profile); nothing is written
3  runtime error (solver bracket failure and other unexpected conditions)

Determinism: for a fixed seed and fixed config every output file is
byte-identical across runs, except bench's wall-clock measurements: the
elapsed_ns column of bench_samples.csv and the *_ns fields of
bench_summary.json.  Floats are serialized with their shortest round-trip
decimal form (binary32 fields round-trip through binary32, statistics
through binary64).

Configuration: flags override the config file, which overrides built-in
defaults (84 MHz clock, both canonical grids, 5 repetitions, 10,000
profiling measurements).  The config file is a flat JSON object whose keys
are ExperimentConfig field names; unknown keys are rejected.  The
CTACT_OUT_DIR environment variable supplies the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from itertools import chain, count, repeat
from pathlib import Path

import numpy as np

from .activations import SPECS, ActivationKind
from .analysis import error_metrics, balancing_errors, solve_tanh_threshold, threshold_sweep
from .attack import (_DEFAULT_HISTORY_TRIALS, _DEFAULT_SWING_CYCLES, BASE_CYCLES_DESYNC,
                     COUNTERMEASURES, DEFAULT_CLOCK_HZ, DELAY_DISTRIBUTIONS, DelaySpec,
                     attack_experiment, device_model)
from .grids import GRID_DENSE, GRID_WIDE, GridSpec, inclusive_grid
from .harness import check_uniformity, measure_host

__all__ = ["ExperimentConfig", "main", "entry",
           "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_USAGE", "EXIT_RUNTIME"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

OUT_DIR_ENV = "CTACT_OUT_DIR"

_ALL_KINDS = tuple(ActivationKind)
_FORMATS = ("csv", "json")
_GRIDS = {"dense": (GRID_DENSE,), "wide": (GRID_WIDE,), "both": (GRID_DENSE, GRID_WIDE)}
_PROTECTION = {"protected": (True,), "unprotected": (False,), "both": (True, False)}


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


@dataclass
class ExperimentConfig:
    """Flat experiment configuration; also the config-file schema."""

    seed: int = 0
    format: str = "csv"
    out: str | None = None
    force: bool = False
    kinds: object = None          # comma string or list; None = command default
    grid: str | None = None       # dense | wide | both
    interval: object = None       # [lo, hi] custom grid
    step: float | None = None
    repetitions: int = 5
    protection: str = "protected"  # bench: protected | unprotected | both
    include_unprotected: bool = False
    classes: object = None
    countermeasure: str = "desync"
    n_prof: int = 10000
    n_attack_max: int = 8000
    trials: int = 100
    delay_distribution: str = "uniform"
    delay_low_us: float | None = None
    delay_high_us: float | None = None
    delay_mean_us: float | None = None
    delay_std_us: float | None = None
    input_swing_cycles: int = _DEFAULT_SWING_CYCLES
    history_trials: int = _DEFAULT_HISTORY_TRIALS
    clock_hz: float = DEFAULT_CLOCK_HZ
    tolerance: float = 1e-9
    sweep: bool = False
    assert_max_abs: dict | None = None
    assert_rmse: dict | None = None

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            _check_type(field.name, getattr(self, field.name), field.type)
        if self.interval is not None and not (
                isinstance(self.interval, (list, tuple)) and len(self.interval) == 2
                and all(_is_number(v) for v in self.interval)):
            raise UsageError(f"interval must be two numbers: lo hi, got {self.interval!r}")
        for name in ("assert_max_abs", "assert_rmse"):
            for kind_name, bound in (getattr(self, name) or {}).items():
                _parse_kind_list([kind_name], (), label=f"{name} kind")
                if not _is_number(bound):
                    raise UsageError(f"{name} bound for {kind_name} must be a number, "
                                     f"got {bound!r}")
        for name, choices in (("format", _FORMATS), ("grid", _GRIDS),
                              ("protection", _PROTECTION), ("countermeasure", COUNTERMEASURES),
                              ("delay_distribution", DELAY_DISTRIBUTIONS)):
            value = getattr(self, name)
            if value is not None and value not in choices:
                raise UsageError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        for name in ("repetitions", "n_attack_max", "trials"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1")
        if self.n_prof < 2:
            raise UsageError("n_prof must be >= 2")
        for name in ("seed", "history_trials", "input_swing_cycles"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")
        for name in ("clock_hz", "tolerance", "step"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise UsageError(f"{name} must be positive, got {value}")


_FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}

# Annotation (without "| None") -> accepted types.  bool is an int subclass,
# so _check_type keeps it out of the numeric fields explicitly.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict}


def _is_number(value) -> bool:
    """A finite int or float; the chained comparison is False for NaN."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -math.inf < value < math.inf)


def _check_type(name: str, value, annotation: str) -> None:
    base, _, optional = annotation.partition(" | ")
    if base not in _FIELD_TYPES or (value is None and optional == "None"):
        return
    if not isinstance(value, _FIELD_TYPES[base]) or (
            isinstance(value, bool) and base != "bool"):
        raise UsageError(f"{name} must be of type {base}, got {value!r}")
    if base == "float" and not _is_number(value):
        raise UsageError(f"{name} must be finite, got {value!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = dataclasses.asdict(ExperimentConfig())
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for name in _FIELD_NAMES:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    cfg = ExperimentConfig(**merged)
    cfg.validate()
    return cfg


def _parse_kind_list(value, default, label: str = "kind"):
    if value is None:
        return list(default)
    items = value
    if isinstance(value, str):
        items = [part.strip() for part in value.split(",") if part.strip()]
    elif not isinstance(value, list):
        raise UsageError(f"{label} list must be a comma string or a list, got {value!r}")
    if not items:
        raise UsageError(f"empty {label} list")
    kinds = []
    for item in items:
        try:
            kinds.append(ActivationKind(str(item)))
        except ValueError as exc:
            known = ", ".join(k.value for k in ActivationKind)
            raise UsageError(f"unknown {label} {item!r} (known: {known})") from exc
    if len(set(kinds)) < len(kinds):
        raise UsageError(f"repeated {label} in {value!r}")
    return kinds


def _resolve_grids(cfg: ExperimentConfig, default_named: str) -> tuple:
    custom = cfg.interval is not None or cfg.step is not None
    if custom:
        if cfg.grid is not None:
            raise UsageError("give either --grid or --interval/--step, not both")
        if cfg.interval is None or cfg.step is None:
            raise UsageError("a custom grid needs both --interval and --step")
        spec = GridSpec(float(cfg.interval[0]), float(cfg.interval[1]), float(cfg.step))
        try:
            inclusive_grid(*spec)  # validates bounds and step
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return (spec,)
    return _GRIDS[cfg.grid or default_named]


# -- output helpers -----------------------------------------------------------

def _output_path(cfg: ExperimentConfig, filename: str) -> Path:
    directory = Path(cfg.out or os.environ.get(OUT_DIR_ENV) or ".")
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    if path.exists() and not cfg.force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")
    return path


def _f32_json(value) -> float:
    if isinstance(value, np.float32):
        return float(str(value))
    raise TypeError(f"{type(value).__name__} {value!r} is not an artifact value")


def _write(path: Path, payload, header=None) -> None:
    """Write one artifact; the file suffix picks CSV or JSON.

    A header makes ``payload`` a table: any iterable of rows, written as CSV
    rows or as one JSON object per row.
    Binary32 values travel as ``np.float32`` cells and are rendered only here,
    as the shortest decimal that parses back to the same binary32 value.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.suffix == ".csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(payload)
        else:
            rows = [dict(zip(header, row)) for row in payload] if header else payload
            json.dump(rows, fh, indent=2, sort_keys=True, default=_f32_json)
            fh.write("\n")


# -- errors -------------------------------------------------------------------

_ERRORS_HEADER = ("kind", "lo", "hi", "step", "n_points",
                  "mse", "rmse", "max_abs", "argmax_input")


def cmd_errors(cfg: ExperimentConfig) -> int:
    smooth = [kind for kind, spec in SPECS.items() if spec.threshold is not None]
    kinds = _parse_kind_list(cfg.kinds, smooth)
    exact = [kind.value for kind in kinds if kind not in smooth]
    if exact:
        raise UsageError(f"{', '.join(exact)} is exact; error metrics apply to the smooth kinds")
    bounds = (("max_abs", cfg.assert_max_abs or {}), ("rmse", cfg.assert_rmse or {}))
    unevaluated = sorted({name for _, b in bounds for name in b} - {k.value for k in kinds})
    if unevaluated:
        raise UsageError(f"error bound on a kind this run does not evaluate: "
                         f"{', '.join(unevaluated)}")
    grid_specs = _resolve_grids(cfg, "both")
    path = _output_path(cfg, f"errors.{cfg.format}")
    reports = [
        error_metrics(kind, spec.lo, spec.hi, spec.step)
        for spec in grid_specs
        for kind in kinds
    ]
    table = [(r.kind.value, r.lo, r.hi, r.step, r.n_points, r.mse, r.rmse, r.max_abs,
              np.float32(r.argmax_input)) for r in reports]
    print(f"{'kind':8s} {'interval':>16s} {'step':>7s} "
          f"{'mse':>12s} {'rmse':>12s} {'max_abs':>12s} {'argmax':>9s}")
    for kind, lo, hi, step, _, mse, rmse, max_abs, argmax in table:
        print(f"{kind:8s} [{lo:+7.1f},{hi:+7.1f}] {step:7.3g} "
              f"{mse:12.3e} {rmse:12.3e} {max_abs:12.3e} {argmax!s:>9}")
    _write(path, table, _ERRORS_HEADER)
    print(f"wrote {path}")

    violations = [
        f"{kind_name} {metric} {getattr(r, metric):.3e} > {float(bound):.3e} "
        f"on [{r.lo}, {r.hi}] step {r.step}"
        for metric, bound_of in bounds for kind_name, bound in bound_of.items()
        for r in reports if r.kind.value == kind_name and getattr(r, metric) > float(bound)
    ]
    if violations:
        raise CheckFailure("; ".join(violations))
    return EXIT_OK


# -- traces ---------------------------------------------------------------------

_TRACES_HEADER = ("kind", "protected", "lo", "hi", "step", "input", "trace_len")


def cmd_traces(cfg: ExperimentConfig) -> int:
    kinds = _parse_kind_list(cfg.kinds, _ALL_KINDS)
    grid_specs = _resolve_grids(cfg, "both")
    path = _output_path(cfg, f"traces.{cfg.format}")
    ok = True
    grid_payloads = []
    table = []
    for spec in grid_specs:
        grid = inclusive_grid(*spec)
        inputs, values = list(grid), grid.tolist()
        reports = []
        lengths = set()
        for protected in ((True, False) if cfg.include_unprotected else (True,)):
            for kind in kinds:
                report = check_uniformity(kind, grid, protected)
                reports.append(report)
                if protected and report.uniform:
                    lengths.add(report.canonical_length)
                if cfg.format == "csv":
                    # Per-input lengths reconstruct exactly from the report:
                    # everything off the deviating list matched the canonical
                    # trace, so no second tracing pass is needed.
                    deviating = dict(report.deviating_inputs)
                    prefix = (kind.value, int(protected), *spec)
                    table += [(*prefix, x, deviating.get(v, report.canonical_length))
                              for x, v in zip(inputs, values)]
        aligned = len(lengths) == 1 and all(r.uniform for r in reports if r.protected)
        ok = ok and aligned
        label = f"[{spec.lo}, {spec.hi}] step {spec.step}"
        for r in reports:
            state = "uniform" if r.uniform else f"NON-UNIFORM ({len(r.deviating_inputs)} deviating)"
            mode = "protected" if r.protected else "unprotected"
            print(f"{label} {r.kind.value:8s} {mode:11s} length {r.canonical_length:3d}  {state}")
            if r.protected and not r.uniform:
                for x, length in r.deviating_inputs[:20]:
                    print(f"    deviates at {x!r}: length {length}")
        print(f"{label} protected kinds aligned: {aligned}")
        grid_payloads.append({
            "lo": spec.lo, "hi": spec.hi, "step": spec.step,
            "protected_aligned": aligned,
            "shared_length": lengths.pop() if len(lengths) == 1 else None,
            "reports": [
                {"kind": r.kind.value, "protected": r.protected,
                 "uniform": r.uniform, "canonical_length": r.canonical_length,
                 "n_deviating": len(r.deviating_inputs),
                 "deviating_inputs": [[np.float32(x), n] for x, n in r.deviating_inputs[:20]]}
                for r in reports
            ],
        })

    if cfg.format == "csv":
        _write(path, table, _TRACES_HEADER)
    else:
        _write(path, {"ok": ok, "grids": grid_payloads})
    print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- bench ---------------------------------------------------------------------

_BENCH_SAMPLES_HEADER = ("kind", "protected", "input", "repetition", "elapsed_ns")
_BENCH_SUMMARY_HEADER = ("kind", "protected", "n", "min_ns", "mean_ns",
                         "median_ns", "std_ns", "max_ns")


def cmd_bench(cfg: ExperimentConfig) -> int:
    kinds = _parse_kind_list(cfg.kinds, _ALL_KINDS)
    grids = _resolve_grids(cfg, "wide")
    reps = int(cfg.repetitions)
    modes = _PROTECTION[cfg.protection]
    samples_path = _output_path(cfg, "bench_samples.csv")
    summary_path = _output_path(cfg, "bench_summary.json")
    samples, summary = [], []
    for protected in modes:
        for kind in kinds:
            group = [(kind.value, int(protected), np.float32(s.input), s.repetition,
                      s.elapsed_ns)
                     for spec in grids
                     for s in measure_host(kind, inclusive_grid(*spec), reps, protected)]
            samples += group
            values = [row[-1] for row in group]
            summary.append((kind.value, protected, len(values), min(values),
                            statistics.fmean(values), float(statistics.median(values)),
                            statistics.stdev(values) if len(values) > 1 else 0.0,
                            max(values)))
    _write(samples_path, samples, _BENCH_SAMPLES_HEADER)
    _write(summary_path, summary, _BENCH_SUMMARY_HEADER)

    print(f"{'kind':8s} {'mode':11s} {'n':>6s} {'min':>9s} {'mean':>10s} "
          f"{'median':>9s} {'std':>10s} {'max':>9s}   (ns)")
    for kind, protected, n, low, mean, median, std, high in summary:
        mode = "protected" if protected else "unprotected"
        print(f"{kind:8s} {mode:11s} {n:6d} {low:9d} "
              f"{mean:10.1f} {median:9.1f} {std:10.1f} {high:9d}")
    print(f"wrote {samples_path} and {summary_path}")
    print("note: host wall times are scheduling-noisy; trace uniformity, not "
          "this table, carries the constant-time claim")
    return EXIT_OK


# -- attack ----------------------------------------------------------------------

_ATTACK_HEADER = ("true_kind", "trial", "n", "class", "score")


def _resolve_delay(cfg: ExperimentConfig) -> DelaySpec | None:
    """The configured delay, or None for the calibrated default.

    Parameters of the other distribution are rejected, not ignored.
    """
    uniform = (cfg.delay_low_us, cfg.delay_high_us)
    gaussian = (cfg.delay_mean_us, cfg.delay_std_us)
    if cfg.delay_distribution == "uniform":
        if gaussian != (None, None):
            raise UsageError("delay_mean_us and delay_std_us need a truncated-gaussian delay")
        if uniform == (None, None):
            return None
        if None in uniform:
            raise UsageError("uniform delay needs both delay_low_us and delay_high_us")
        return DelaySpec("uniform", low_us=float(uniform[0]), high_us=float(uniform[1]))
    if uniform != (None, None):
        raise UsageError("delay_low_us and delay_high_us need a uniform delay")
    if None in gaussian:
        raise UsageError("truncated-gaussian delay needs delay_mean_us and delay_std_us")
    return DelaySpec("truncated-gaussian", mean_us=float(gaussian[0]),
                     std_us=float(gaussian[1]))


def cmd_attack(cfg: ExperimentConfig) -> int:
    classes = _parse_kind_list(cfg.classes, tuple(BASE_CYCLES_DESYNC), label="class")
    if len(classes) < 2:
        raise UsageError("the attack needs at least 2 classes")
    try:
        model = device_model(cfg.countermeasure, classes, _resolve_delay(cfg),
                             float(cfg.clock_hz), int(cfg.input_swing_cycles))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    constant = [k.value for k in classes if model.class_var_us(k) == 0.0]
    if constant:
        raise UsageError(f"the delay has zero width and the latency of {', '.join(constant)} "
                         f"ignores the input, so its profile would be constant")
    scores_path = _output_path(cfg, "attack_scores.csv")
    summary_path = _output_path(cfg, "attack_summary.json")

    results = attack_experiment(
        model, classes, int(cfg.n_prof), int(cfg.n_attack_max),
        int(cfg.trials), int(cfg.seed), keep_history_trials=int(cfg.history_trials),
    )

    table = chain.from_iterable(
        zip(repeat(true_kind.value), repeat(trial), count(1),
            repeat(kind.value), result.score_history[kind].tolist())
        for (true_kind, trial), result in results.items()
        if result.score_history is not None for kind in classes)
    _write(scores_path, table, _ATTACK_HEADER)

    per_class = {}
    for kind in classes:
        rows = [r for r in results.values() if r.true_kind == kind]
        separations = [r.separation_n for r in rows]
        successes = [s for s in separations if s is not None]
        argmax_counts = {c.value: sum(r.final_argmax == c for r in rows) for c in classes}
        per_class[kind.value] = {
            "trials": len(rows),
            "success_rate": len(successes) / len(rows),
            "median_separation_n": (float(statistics.median(successes))
                                    if successes else None),
            "max_separation_n": max(successes) if successes else None,
            "separation_n": separations,
            "final_argmax_counts": argmax_counts,
        }
    summary = {
        "config": {
            "seed": int(cfg.seed),
            "classes": [k.value for k in classes],
            "countermeasure": cfg.countermeasure,
            "n_prof": int(cfg.n_prof),
            "n_attack_max": int(cfg.n_attack_max),
            "trials": int(cfg.trials),
            "clock_hz": model.clock_hz,
            "input_swing_cycles": model.input_swing_cycles,
            "delay": dataclasses.asdict(model.delay),
            "rng": "PCG64 via numpy default_rng; one spawned child stream per trial",
        },
        "per_true_class": per_class,
    }
    _write(summary_path, summary)

    for kind in classes:
        stats_row = per_class[kind.value]
        med = stats_row["median_separation_n"]
        print(f"true={kind.value:8s} success {stats_row['success_rate']:6.1%}  "
              f"median separation {med if med is not None else 'n/a'}  "
              f"argmax {stats_row['final_argmax_counts']}")
    print(f"wrote {scores_path} and {summary_path}")
    return EXIT_OK


# -- thresholds --------------------------------------------------------------------

def cmd_thresholds(cfg: ExperimentConfig) -> int:
    path = _output_path(cfg, f"thresholds.{cfg.format}")
    solution = solve_tanh_threshold(float(cfg.tolerance))
    approx_err, sat_err = balancing_errors(solution.threshold)
    # Stored constants, solved and derived first, then the swept ones.
    constants = [
        (ActivationKind.TANH, "binary32 nearest the solved threshold"),
        (ActivationKind.SIGMOID, "exactly twice the tanh constant"),
    ] + [(kind, "empirical") for kind, spec in SPECS.items() if spec.sweep]
    sweeps = {
        kind: threshold_sweep(kind, spec.sweep, *GRID_WIDE)
        for kind, spec in SPECS.items() if spec.sweep
    } if cfg.sweep else {}

    if cfg.format == "json":
        payload = {
            "solved": {
                "tanh_threshold": solution.threshold,
                "residual": solution.residual,
                "iterations": solution.iterations,
                "approximation_error": approx_err,
                "saturation_error": sat_err,
                "provenance": "balanced-error bisection",
            },
            "derived": {
                "sigmoid_threshold": 2.0 * solution.threshold,
                "provenance": "doubled tanh threshold",
            },
            "stored_constants": {
                kind.value: {"value": SPECS[kind].threshold, "provenance": detail}
                for kind, detail in constants
            },
            "stored_vs_solved_gap": abs(float(SPECS[ActivationKind.TANH].threshold)
                                        - solution.threshold),
        }
        if cfg.sweep:
            payload["sweep"] = {
                kind.value: [{"threshold": t, "max_abs": err} for t, err in pairs]
                for kind, pairs in sweeps.items()
            }
        _write(path, payload)
    else:
        rows = [
            ("tanh_threshold_solved", solution.threshold, "balanced-error bisection"),
            ("residual", solution.residual, "solver"),
            ("iterations", solution.iterations, "solver"),
            ("sigmoid_threshold_derived", 2.0 * solution.threshold, "doubled tanh threshold"),
        ]
        rows += [(f"{kind.value}_constant", SPECS[kind].threshold, detail)
                 for kind, detail in constants]
        rows += [(f"sweep_{kind.value}", t, err)
                 for kind, pairs in sweeps.items() for t, err in pairs]
        _write(path, rows, ("name", "value", "detail"))

    print(f"solved tanh threshold {solution.threshold:.10f} "
          f"(residual {solution.residual:.2e}, {solution.iterations} iterations)")
    print(f"derived sigmoid threshold {2.0 * solution.threshold:.10f}")
    print("stored constants: " + ", ".join(
        f"{kind.value} {SPECS[kind].threshold!s}"
        + (" (empirical)" if detail == "empirical" else "")
        for kind, detail in constants))
    print(f"wrote {path}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--format", choices=_FORMATS, default=None,
                        help="primary artifact format")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or .)")
    parser.add_argument("--force", action="store_true", default=None,
                        help="overwrite existing output files")
    parser.add_argument("--config", default=None, help="JSON config file")


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", choices=_GRIDS, default=None,
                        help="named grid selection")
    parser.add_argument("--interval", nargs=2, type=float, default=None,
                        metavar=("LO", "HI"), help="custom grid bounds")
    parser.add_argument("--step", type=float, default=None, help="custom grid step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctact",
        description="Constant-time activation laboratory: accuracy, traces, "
                    "host timing, and a timing template attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_errors = sub.add_parser("errors", help="accuracy metrics vs libm references")
    _add_common(p_errors)
    _add_grid_options(p_errors)
    p_errors.add_argument("--kinds", default=None,
                          help="comma list (default: sigmoid,tanh,gelu,swish)")

    p_traces = sub.add_parser("traces", help="operation-trace uniformity checks")
    _add_common(p_traces)
    _add_grid_options(p_traces)
    p_traces.add_argument("--kinds", default=None, help="comma list (default: all five)")
    p_traces.add_argument("--include-unprotected", dest="include_unprotected",
                          action="store_true", default=None,
                          help="also report unprotected reference traces")

    p_bench = sub.add_parser("bench", help="host-process wall-time measurements")
    _add_common(p_bench)
    _add_grid_options(p_bench)
    p_bench.add_argument("--kinds", default=None, help="comma list (default: all five)")
    p_bench.add_argument("--repetitions", type=int, default=None,
                         help="timed passes over the grid (default 5)")
    p_bench.add_argument("--protection", choices=_PROTECTION,
                         default=None, help="which implementations to time")

    p_attack = sub.add_parser("attack", help="profiled Gaussian template attack")
    _add_common(p_attack)
    p_attack.add_argument("--classes", default=None,
                          help="comma list (default: relu,sigmoid,tanh)")
    p_attack.add_argument("--countermeasure", choices=COUNTERMEASURES,
                          default=None, help="device configuration under attack")
    p_attack.add_argument("--n-prof", dest="n_prof", type=int, default=None,
                          help="profiling measurements per class (default 10000)")
    p_attack.add_argument("--n-max", dest="n_attack_max", type=int, default=None,
                          help="attack measurements per trial (default 8000)")
    p_attack.add_argument("--trials", type=int, default=None,
                          help="trials per true class (default 100)")
    p_attack.add_argument("--delay-dist", dest="delay_distribution",
                          choices=DELAY_DISTRIBUTIONS, default=None)
    p_attack.add_argument("--delay-low", dest="delay_low_us", type=float, default=None,
                          help="uniform delay lower bound, microseconds")
    p_attack.add_argument("--delay-high", dest="delay_high_us", type=float, default=None,
                          help="uniform delay upper bound, microseconds")
    p_attack.add_argument("--delay-mean", dest="delay_mean_us", type=float, default=None,
                          help="truncated-gaussian delay mean, microseconds")
    p_attack.add_argument("--delay-std", dest="delay_std_us", type=float, default=None,
                          help="truncated-gaussian delay std, microseconds")
    p_attack.add_argument("--input-swing", dest="input_swing_cycles", type=int,
                          default=None, help="input-dependent base swing in cycles")
    p_attack.add_argument("--history-trials", dest="history_trials", type=int,
                          default=None, help="trials per class with saved score history")
    p_attack.add_argument("--clock-hz", dest="clock_hz", type=float, default=None)

    p_thresh = sub.add_parser("thresholds", help="balanced-threshold solve and sweeps")
    _add_common(p_thresh)
    p_thresh.add_argument("--tolerance", type=float, default=None,
                          help="solver residual tolerance (default 1e-9)")
    p_thresh.add_argument("--sweep", action="store_true", default=None,
                          help="add gelu/swish threshold sensitivity sweeps")

    return parser


_HANDLERS = {
    "errors": cmd_errors,
    "traces": cmd_traces,
    "bench": cmd_bench,
    "attack": cmd_attack,
    "thresholds": cmd_thresholds,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        return _HANDLERS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:  # solver brackets, I/O, and other runtime faults
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
