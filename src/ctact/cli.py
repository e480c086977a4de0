"""Command-line laboratory: errors, traces, bench, attack, thresholds.

Exit codes
----------
0  success
1  check failure (an assertion bound was violated, or a kind that must be
   trace-uniform is not)
2  usage error (bad flag, config value or grid, a config key the command
   does not read, a non-finite number, repeated kind, a missing delay
   parameter or one of the other distribution, a device model the attack
   cannot profile, a profile whose samples all come out equal); nothing is
   written
3  runtime error (solver bracket failure and other unexpected conditions)

Determinism: for a fixed seed and fixed config every output file is
byte-identical across runs, except bench's wall-clock measurements: the
elapsed_ns column of bench_samples.csv and the *_ns fields of
bench_summary.json.  Floats are serialized with their shortest round-trip
decimal form (binary32 fields round-trip through binary32, statistics
through binary64).

Configuration: each command declares its options once in ``_COMMANDS``;
that table builds the flags, the config-file schema and the checks.  Flags
override the config file, which overrides the declared defaults; a grid
flag in either form replaces the file's grid.  The config file is a flat
JSON object keyed by option name; a key the command does not read is
rejected, and every value in it is checked, also one that a flag
overrides.  The CTACT_OUT_DIR environment variable supplies the default
output directory.

Output: every artifact is written by ``_write``, which makes the output
directory when it first writes there.  With ``--force`` an existing
artifact is rewritten in place and cut to its new length; it is never
truncated first.

The argparse parser is built once per process, on the first ``main`` call,
and reused: every flag defaults to None and each parse returns a new
Namespace, so no call sees another's values.  A negative decimal number,
in exponent form such as ``-5e2`` too, is read as a value, not as a flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import statistics
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .activations import SPECS, ActivationKind
from .analysis import error_metrics, balancing_errors, solve_tanh_threshold, threshold_sweep
from .attack import (_DEFAULT_HISTORY_TRIALS, _DEFAULT_SWING_CYCLES, _DegenerateProfile,
                     BASE_CYCLES_DESYNC, COUNTERMEASURES, DEFAULT_CLOCK_HZ, DELAY_DISTRIBUTIONS,
                     DelaySpec, attack_experiment, device_model)
from .grids import GRID_DENSE, GRID_WIDE, GridSpec, inclusive_grid
from .harness import check_uniformity, measure_host

__all__ = ["main", "entry",
           "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_USAGE", "EXIT_RUNTIME"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

OUT_DIR_ENV = "CTACT_OUT_DIR"

_ALL_KINDS = tuple(ActivationKind)
_SMOOTH_KINDS = tuple(kind for kind, spec in SPECS.items() if spec.threshold is not None)
_FORMATS = ("csv", "json")
_GRIDS = {"dense": (GRID_DENSE,), "wide": (GRID_WIDE,), "both": (GRID_DENSE, GRID_WIDE)}
_PROTECTION = {"protected": (True,), "unprotected": (False,), "both": (True, False)}


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


# Option type -> (what a config-file value may be, how argparse reads the flag).
# list is a kind list, tuple an interval, dict a kind -> bound map.  bool is an
# int subclass, so _check keeps it out of the numeric types explicitly.
_TYPES = {
    int: ((int,), {"type": int}),
    float: ((int, float), {"type": float}),
    str: ((str,), {}),
    bool: ((bool,), {"action": "store_true"}),
    list: ((str, list), {}),
    tuple: ((list,), {"nargs": 2, "type": float, "metavar": ("LO", "HI")}),
    dict: ((dict,), {}),
}


@dataclass(frozen=True)
class Option:
    """One option of a command: its config-file key, flag, type, default and checks.

    ``low`` is the smallest value an int option takes, or the value a float
    option must exceed.  ``flag`` defaults to ``--name`` with dashes; a dict
    option has no flag and is set in the config file only.
    """

    name: str
    type: type
    default: object = None
    help: str = ""
    choices: object = None
    low: float | None = None
    flag: str | None = None

    def __post_init__(self):
        if self.flag is None and self.type is not dict:
            object.__setattr__(self, "flag", "--" + self.name.replace("_", "-"))


def _kinds(default, name="kinds") -> Option:
    return Option(name, list, ",".join(kind.value for kind in default), "comma list")


_OUTPUT = (
    Option("out", str, None, f"output directory (default ${OUT_DIR_ENV} or .)"),
    Option("force", bool, False, "overwrite existing output files"),
)
_COMMON = (
    Option("seed", int, 0, "master RNG seed", low=0),
    Option("format", str, "csv", "primary artifact format", _FORMATS),
    *_OUTPUT,
)
_GRID = (
    Option("grid", str, None, "named grid selection", _GRIDS),
    Option("interval", tuple, None, "custom grid bounds"),
    Option("step", float, None, "custom grid step", low=0),
)


def _is_number(value) -> bool:
    """A finite int or float; the chained comparison is False for NaN."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -math.inf < value < math.inf)


def _check(option: Option, value) -> None:
    """Reject a value of the wrong type, non-finite, not a choice or below the bound."""
    name, typ = option.name, option.type
    if value is None and option.default is None:
        return
    accepted = _TYPES[typ][0]
    if not isinstance(value, accepted) or (isinstance(value, bool) and typ is not bool):
        raise UsageError(f"{name} must be of type {' or '.join(t.__name__ for t in accepted)}, "
                         f"got {value!r}")
    if typ is float and not _is_number(value):
        raise UsageError(f"{name} must be finite, got {value!r}")
    if typ is tuple and not (len(value) == 2 and all(map(_is_number, value))):
        raise UsageError(f"{name} must be two numbers: lo hi, got {value!r}")
    if typ is dict:
        for kind_name, bound in value.items():
            _parse_kind_list([kind_name], label=f"{name} kind")
            if not _is_number(bound):
                raise UsageError(f"{name} bound for {kind_name} must be a number, "
                                 f"got {bound!r}")
    if option.choices is not None and value not in option.choices:
        raise UsageError(f"{name} must be one of {', '.join(option.choices)}, got {value!r}")
    if option.low is not None and (value < option.low if typ is int else value <= option.low):
        raise UsageError(f"{name} must be {'>=' if typ is int else '>'} {option.low}, "
                         f"got {value!r}")


def _load_config_file(path: str, command: str, names: set) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"config file cannot be read: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unread = sorted(set(data) - names)
    if unread:
        raise UsageError(f"config keys {command} does not read: {', '.join(unread)}")
    return data


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Set each option of the command to its flag, config-file or default value."""
    options = _COMMANDS[args.command][2]
    given = {o.name for o in options if getattr(args, o.name, None) is not None}
    file = (_load_config_file(args.config, args.command, {o.name for o in options})
            if args.config else {})
    # Every value the file holds is checked, also one that a flag overrides.
    for option in options:
        if option.name in file:
            # A null kind list is the command's default, as when it is left out.
            if file[option.name] is None and option.type is list:
                file[option.name] = option.default
            _check(option, file[option.name])
    # A grid flag in either form replaces the file's grid in either form.
    if "grid" in given:
        file.pop("interval", None)
        file.pop("step", None)
    if given & {"interval", "step"}:
        file.pop("grid", None)
    for option in options:
        if option.name in given:
            _check(option, getattr(args, option.name))
        else:
            setattr(args, option.name, file.get(option.name, option.default))
    return args


def _parse_kind_list(value, label: str = "kind"):
    items = value
    if isinstance(value, str):
        items = [part.strip() for part in value.split(",") if part.strip()]
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


def _resolve_grids(cfg: argparse.Namespace, default_named: str) -> tuple:
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

# CSV rows rendered, checked and written per block: memory does not grow with
# the table, and at 512 rows the block's strings add no measurable peak RSS.
_CSV_BLOCK_ROWS = 512


def _output_path(cfg: argparse.Namespace, filename: str) -> Path:
    """The artifact's path; the directory is made only when ``_write`` writes to it."""
    path = Path(cfg.out or os.environ.get(OUT_DIR_ENV) or ".") / filename
    if path.exists() and not cfg.force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")
    return path


def _f32_json(value) -> float:
    if isinstance(value, np.float32):
        return float(str(value))
    raise TypeError(f"{type(value).__name__} {value!r} is not an artifact value")


def _is_cell(column) -> bool:
    """A column given as one cell for every row of its block: a str or a non-iterable."""
    return isinstance(column, str) or not hasattr(column, "__iter__")


def _block_rows(block) -> int:
    """The rows of a column block: the length its per-row columns share, or 1."""
    per_row = [column for column in block if not _is_cell(column)]
    if not all(hasattr(column, "__len__") for column in per_row):
        raise ValueError("a per-row column needs a len(), which an iterator lacks")
    sizes = {len(column) for column in per_row} or {1}
    if len(sizes) != 1:
        raise ValueError("the per-row columns of a block need one length")
    return sizes.pop()


class _Rendered(list):
    """A column's cells as ``_render`` rendered them; ``_cells`` slices it as it is."""

    __slots__ = ()


def _cells(column, lo: int, hi: int):
    """The rendered cells of rows lo to hi of a per-row column."""
    part = column[lo:hi]
    if isinstance(column, _Rendered):
        return part
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        return repr(part.tolist())[1:-1].split(", ")
    return map(str, part)


def _render(column) -> _Rendered:
    """Every cell of a per-row column, rendered once, for a caller that
    writes the same column in more than one block."""
    return _Rendered(_cells(column, 0, len(column)))


def _csv_blocks(header, blocks):
    """Yield ``(rows, pieces)``: the header, then each block's rows rendered
    into cells and separators, at most ``_CSV_BLOCK_ROWS`` rows at a time."""
    separators = (",",) * (len(header) - 1) + ("\n",)
    for block in chain((header,), blocks):
        if len(block) != len(header):
            raise ValueError(f"a block has {len(block)} columns, the header {len(header)}")
        n = _block_rows(block)
        # A run of constant cells and their separators is one literal piece;
        # a per-row column is one piece per row.
        pieces, literal = [], ""
        for column, sep in zip(block, separators):
            if _is_cell(column):
                literal += str(column) + sep
                continue
            if literal:
                pieces.append(literal)
            pieces.append(column)
            literal = sep
        pieces.append(literal)
        stride = len(pieces)
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            m = min(n - lo, _CSV_BLOCK_ROWS)
            out = [None] * (stride * m)
            for i, piece in enumerate(pieces):
                out[i::stride] = ([piece] * m if isinstance(piece, str)
                                  else _cells(piece, lo, lo + m))
            yield m, out


def _expand(block):
    """The rows of a column block, each a tuple of its cells."""
    n = _block_rows(block)
    return zip(*[repeat(column, n) if _is_cell(column) else column for column in block])


def _write(path: Path, payload, header=None) -> None:
    """Write one artifact; the file suffix picks CSV or JSON.

    The directory is made here, so no command makes one before it writes.
    An existing artifact is rewritten in place, from offset 0, and cut to
    its new length when the write ends: opening it without ``O_TRUNC``
    frees none of its blocks first, which on a filesystem mounted with
    ``discard`` costs more than writing the bytes.  A write that raises
    partway leaves the runs written before it and no byte of the old file.

    A header makes ``payload`` a table: an iterable of column blocks.  A
    block is a run of rows given as one column per header field.  A column
    is either one cell, the same on every row of the block (a ``str`` or
    any value that is not iterable), or a sequence with one cell per row
    (a list, tuple, range or ndarray; an unsized one, such as an iterator,
    is a ``ValueError``).  A block with no per-row column is one row, so a
    row tuple of cells is a block too.  In JSON the blocks expand back to
    one object per row.
    Binary32 values travel as ``np.float32`` cells and are rendered only
    here, as the shortest decimal that parses back to the same binary32
    value.

    CSV renders a block column by column, never a row at a time, in runs
    of at most ``_CSV_BLOCK_ROWS`` rows: a constant cell once per block,
    merged with its constant neighbours and separators into one piece; a
    float64 ndarray through one ``repr`` of its ``tolist()`` per run; a
    column that ``_render`` already rendered as it is, by slicing; any
    other sequence through ``map(str, ...)``.  Each run's pieces are
    interleaved into one list by slice assignment, joined once and written
    once, so memory does not grow with the table.  ``str`` gives the bytes that
    ``csv.writer(lineterminator="\\n")`` gives for every cell type the
    commands pass: ``str`` and ``int`` (``bool`` as ``True``/``False``)
    as themselves; a Python or float64 ``float`` as its shortest
    round-trip ``repr`` (``-0.0``, ``inf``, ``1e-05``, ``1e+16``); an
    ``np.float32`` as its shortest binary32 ``str``.  No field is quoted:
    a cell holding ``,``, ``"``, ``\\n`` or ``\\r`` would need quoting, so
    it raises ``ValueError`` instead of writing a malformed row.  So does
    a block whose columns disagree on its row count.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="",
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        try:
            if path.suffix == ".csv":
                for rows, pieces in _csv_blocks(header, payload):
                    text = "".join(pieces)
                    if (text.count("\n") != rows
                            or text.count(",") != rows * (len(header) - 1)
                            or '"' in text or "\r" in text):
                        raise ValueError(f"{path.name}: a cell holds a comma, quote or line "
                                         f"break, which CSV would have to quote")
                    fh.write(text)
            else:
                rows = ([dict(zip(header, row)) for block in payload for row in _expand(block)]
                        if header else payload)
                json.dump(rows, fh, indent=2, sort_keys=True, default=_f32_json)
                fh.write("\n")
        finally:
            fh.truncate()


# -- errors -------------------------------------------------------------------

_ERRORS_HEADER = ("kind", "lo", "hi", "step", "n_points",
                  "mse", "rmse", "max_abs", "argmax_input")


def cmd_errors(cfg: argparse.Namespace) -> int:
    kinds = _parse_kind_list(cfg.kinds)
    exact = [kind.value for kind in kinds if kind not in _SMOOTH_KINDS]
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
        print(f"{kind:8s} {f'[{lo}, {hi}]':>16s} {step:7.3g} "
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


def cmd_traces(cfg: argparse.Namespace) -> int:
    kinds = _parse_kind_list(cfg.kinds)
    grid_specs = _resolve_grids(cfg, "both")
    path = _output_path(cfg, f"traces.{cfg.format}")
    ok = True
    grid_payloads = []
    table = []
    for spec in grid_specs:
        grid = inclusive_grid(*spec)
        # The input cells, rendered once per grid by the writer's own renderer
        # and shared by all the grid's reports, which the writer slices as they are.
        inputs = _render(grid) if cfg.format == "csv" else ()
        reports = []
        lengths = set()
        for protected in ((True, False) if cfg.include_unprotected else (True,)):
            for kind in kinds:
                report = check_uniformity(kind, grid, protected)
                reports.append(report)
                if protected and report.uniform:
                    lengths.add(report.canonical_length)
                if cfg.format == "csv":
                    # A uniform report's length is one cell for all its rows.
                    trace_len = (report.canonical_length if report.uniform
                                 else report.trace_lengths.tolist())
                    table.append((kind.value, int(protected), *spec, inputs, trace_len))
        aligned = len(lengths) == 1 and all(r.uniform for r in reports if r.protected)
        ok = ok and aligned
        label = f"[{spec.lo}, {spec.hi}] step {spec.step}"
        for r in reports:
            state = "uniform" if r.uniform else f"NON-UNIFORM ({len(r.deviating_at)} deviating)"
            mode = "protected" if r.protected else "unprotected"
            print(f"{label} {r.kind.value:8s} {mode:11s} length {r.canonical_length:3d}  {state}")
            if r.protected and not r.uniform:
                for i in r.deviating_at[:20].tolist():
                    print(f"    deviates at {float(grid[i])!r}: length {r.trace_lengths[i]}")
        print(f"{label} protected kinds aligned: {aligned}")
        if cfg.format == "json":
            grid_payloads.append({
                "lo": spec.lo, "hi": spec.hi, "step": spec.step,
                "protected_aligned": aligned,
                "shared_length": lengths.pop() if len(lengths) == 1 else None,
                "reports": [
                    {"kind": r.kind.value, "protected": r.protected,
                     "uniform": r.uniform, "canonical_length": r.canonical_length,
                     "n_deviating": len(r.deviating_at),
                     "deviating_inputs": [[grid[i], int(r.trace_lengths[i])]
                                          for i in r.deviating_at[:20].tolist()]}
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


def cmd_bench(cfg: argparse.Namespace) -> int:
    kinds = _parse_kind_list(cfg.kinds)
    grids = _resolve_grids(cfg, "wide")
    reps = int(cfg.repetitions)
    modes = _PROTECTION[cfg.protection]
    samples_path = _output_path(cfg, "bench_samples.csv")
    summary_path = _output_path(cfg, "bench_summary.json")
    points = [inclusive_grid(*spec) for spec in grids]
    # measure_host's rows are repetitions: its ravel() walks the grid once per repetition.
    columns = [(np.tile(grid, reps), np.arange(reps).repeat(grid.size)) for grid in points]
    samples, summary = [], []
    for protected in modes:
        for kind in kinds:
            runs = [measure_host(kind, grid, reps, protected).ravel() for grid in points]
            samples += [(kind.value, int(protected), inputs, repetition, run)
                        for (inputs, repetition), run in zip(columns, runs)]
            values = np.concatenate(runs).tolist()
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


def _resolve_delay(cfg: argparse.Namespace) -> DelaySpec | None:
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


def cmd_attack(cfg: argparse.Namespace) -> int:
    classes = _parse_kind_list(cfg.classes, label="class")
    if len(classes) < 2:
        raise UsageError("the attack needs at least 2 classes")
    try:
        model = device_model(cfg.countermeasure, classes, _resolve_delay(cfg),
                             float(cfg.clock_hz), int(cfg.input_swing_cycles))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    moments = {k.value: model.class_moments(k) for k in classes}
    unbounded = [k for k, m in moments.items() if not all(map(math.isfinite, m))]
    if unbounded:
        raise UsageError(f"the latency of {', '.join(unbounded)} has a non-finite mean or "
                         f"variance; the clock or the delay is out of range")
    # A spread lost when added to the mean, zero included, rounds the sampled
    # latencies to a value or two around the mean: no Gaussian profile.
    constant = [k for k, (mean, var) in moments.items() if mean + math.sqrt(var) == mean]
    if constant:
        raise UsageError(f"the delay is too narrow (zero width, or a spread lost to float64 "
                         f"rounding at its mean) and the latency of {', '.join(constant)} "
                         f"ignores the input, so its profile would be constant")
    scores_path = _output_path(cfg, "attack_scores.csv")
    summary_path = _output_path(cfg, "attack_summary.json")

    try:
        results = attack_experiment(
            model, classes, int(cfg.n_prof), int(cfg.n_attack_max),
            int(cfg.trials), int(cfg.seed), keep_history_trials=int(cfg.history_trials),
        )
    except _DegenerateProfile as exc:
        # A delay narrower than a latency's ulp leaves a swinging class only
        # its few swing latencies, and --n-prof draws of them can all be equal.
        raise UsageError(f"{exc}; the delay is too narrow for this device to be "
                         f"profiled with --n-prof {cfg.n_prof}") from exc

    table = ((true_kind.value, trial, range(1, result.n_measurements + 1), kind.value,
              result.score_history[kind])
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

def cmd_thresholds(cfg: argparse.Namespace) -> int:
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

# command -> (handler, help, options)
_COMMANDS = {
    "errors": (cmd_errors, "accuracy metrics vs libm references", (
        *_COMMON, *_GRID, _kinds(_SMOOTH_KINDS),
        Option("assert_max_abs", dict, None, "kind -> max_abs bound"),
        Option("assert_rmse", dict, None, "kind -> rmse bound"))),
    "traces": (cmd_traces, "operation-trace uniformity checks", (
        *_COMMON, *_GRID, _kinds(_ALL_KINDS),
        Option("include_unprotected", bool, False, "also report unprotected reference traces"))),
    "bench": (cmd_bench, "host-process wall-time measurements", (
        *_OUTPUT, *_GRID, _kinds(_ALL_KINDS),
        Option("repetitions", int, 5, "timed passes over the grid", low=1),
        Option("protection", str, "protected", "which implementations to time", _PROTECTION))),
    "attack": (cmd_attack, "profiled Gaussian template attack", (
        *_COMMON, _kinds(BASE_CYCLES_DESYNC, "classes"),
        Option("countermeasure", str, "desync", "device configuration under attack",
               COUNTERMEASURES),
        Option("n_prof", int, 10000, "profiling measurements per class", low=2),
        Option("n_attack_max", int, 8000, "attack measurements per trial", low=1,
               flag="--n-max"),
        Option("trials", int, 100, "trials per true class", low=1),
        Option("delay_distribution", str, "uniform", "random delay distribution",
               DELAY_DISTRIBUTIONS, flag="--delay-dist"),
        Option("delay_low_us", float, None, "uniform delay lower bound, microseconds",
               flag="--delay-low"),
        Option("delay_high_us", float, None, "uniform delay upper bound, microseconds",
               flag="--delay-high"),
        Option("delay_mean_us", float, None, "truncated-gaussian delay mean, microseconds",
               flag="--delay-mean"),
        Option("delay_std_us", float, None, "truncated-gaussian delay std, microseconds",
               flag="--delay-std"),
        Option("input_swing_cycles", int, _DEFAULT_SWING_CYCLES,
               "input-dependent base swing in cycles", low=0, flag="--input-swing"),
        Option("history_trials", int, _DEFAULT_HISTORY_TRIALS,
               "trials per class with saved score history", low=0),
        Option("clock_hz", float, DEFAULT_CLOCK_HZ, "device clock, Hz", low=0))),
    "thresholds": (cmd_thresholds, "balanced-threshold solve and sweeps", (
        *_COMMON,
        Option("tolerance", float, 1e-9, "solver residual tolerance", low=0),
        Option("sweep", bool, False, "add gelu/swish threshold sensitivity sweeps"))),
}


# Any decimal literal with a leading minus, exponent forms included.  argparse
# reads an argument that starts with "-" as a flag unless its own matcher calls
# it a negative number, and Python 3.11's matcher knows only -\d+ and
# -\d*.\d+, so "--interval -5e2 5e2" would fail where "-500 500" runs.
# argparse offers no public hook for this; the matcher is set on each parser.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared.

    Every option defaults to None and parse_args returns a new Namespace on
    each call, so no value carries over from one parse to the next.
    """
    parser = argparse.ArgumentParser(
        prog="ctact",
        description="Constant-time activation laboratory: accuracy, traces, "
                    "host timing, and a timing template attack.",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for option in options:
            if option.flag is None:
                continue
            text = option.help
            if option.default is not None and option.type is not bool:
                text += f" (default {option.default})"
            kwargs = dict(_TYPES[option.type][1], dest=option.name, default=None, help=text)
            if option.choices is not None:
                kwargs["choices"] = option.choices
            p.add_argument(option.flag, **kwargs)
        p.add_argument("--config", default=None, help="JSON config file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](_resolve_config(args))
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
