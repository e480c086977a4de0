"""Release gates for the protected activations and the timing-attack bench.

Each test prints one verdict line (criterion NN <name>: PASS/FAIL) and then
asserts it, so a plain ``pytest -v tests/test_acceptance.py`` doubles as the
checklist.  Statistical gates run on fixed seeds; the bounds leave wide
margins over the observed values, so they are stable, not tuned-to-pass.
"""

import csv
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from ctact import cli
from ctact.activations import (
    GELU_THRESHOLD,
    SIGMOID_THRESHOLD,
    SWISH_THRESHOLD,
    TANH_THRESHOLD,
    ActivationKind,
    relu_protected,
)
from ctact.activations import _relu_core
from ctact.analysis import error_metrics, solve_tanh_threshold
from ctact.attack import (
    attack_experiment,
    device_model,
    profile_phase,
)
from ctact.grids import inclusive_grid
from ctact.harness import check_uniformity, trace_eval

K = ActivationKind
ALL_KINDS = tuple(K)
ATTACK_CLASSES = (K.RELU, K.SIGMOID, K.TANH)

DENSE = (-8.0, 8.0, 0.01)
WIDE = (-500.0, 500.0, 1.0)


def float32_bits(x) -> int:
    return int(np.float32(x).view(np.uint32))


def _verdict(number: int, name: str, ok: bool) -> bool:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def dense_grid():
    return inclusive_grid(*DENSE)


@pytest.fixture(scope="module")
def wide_grid():
    return inclusive_grid(*WIDE)


@pytest.fixture(scope="module")
def protected_reports(dense_grid, wide_grid):
    return {
        (kind, label): check_uniformity(kind, grid, protected=True)
        for kind in ALL_KINDS
        for label, grid in (("dense", dense_grid), ("wide", wide_grid))
    }


def test_criterion_01_trace_uniformity(protected_reports):
    failures = []
    lengths = set()
    for (kind, label), report in protected_reports.items():
        if not report.uniform:
            failures.append(
                f"{kind.value} deviates on the {label} grid at "
                f"{len(report.deviating_inputs)} inputs"
            )
        lengths.add(report.canonical_length)
    if len(lengths) != 1:
        failures.append(f"trace lengths differ: {sorted(lengths)}")
    # Within-grid uniformity plus matching representatives makes the traces
    # identical across both grids as well.
    for kind in ALL_KINDS:
        dense_ops = trace_eval(kind, np.float32(-8.0), protected=True)[0].ops
        wide_ops = trace_eval(kind, np.float32(-500.0), protected=True)[0].ops
        if dense_ops != wide_ops:
            failures.append(f"{kind.value} traces differ between grids")
    ok = _verdict(1, "protected traces uniform on both grids, one shared length",
                  not failures)
    assert ok, failures


def test_criterion_02_unprotected_leakage_baseline(dense_grid):
    failures = []
    observed = {}
    for kind in (K.SIGMOID, K.TANH, K.RELU):
        report = check_uniformity(kind, dense_grid, protected=False)
        lengths = {report.canonical_length}
        lengths.update(n for _, n in report.deviating_inputs)
        observed[kind] = lengths
    for kind in (K.SIGMOID, K.TANH):
        if len(observed[kind]) < 2:
            failures.append(f"unprotected {kind.value} shows a single trace "
                            f"length {observed[kind]}")
    if len(observed[K.RELU]) != 1:
        failures.append(f"unprotected relu is not uniform: {observed[K.RELU]}")
    if max(observed[K.RELU]) >= min(observed[K.SIGMOID]):
        failures.append(
            f"relu trace ({max(observed[K.RELU])}) not strictly shorter than "
            f"sigmoid's shortest ({min(observed[K.SIGMOID])})"
        )
    ok = _verdict(2, "unprotected sigmoid/tanh leak lengths, relu shorter",
                  not failures)
    assert ok, failures


def test_criterion_03_dense_grid_accuracy():
    bounds = {K.SIGMOID: (1.2e-5, 2.6e-6), K.TANH: (1.5e-4, 3.8e-5)}
    failures = []
    for kind, (max_abs_bound, rmse_bound) in bounds.items():
        r = error_metrics(kind, *DENSE)
        if r.max_abs > max_abs_bound:
            failures.append(f"{kind.value} max_abs {r.max_abs:.3e} > {max_abs_bound:.1e}")
        if r.rmse > rmse_bound:
            failures.append(f"{kind.value} rmse {r.rmse:.3e} > {rmse_bound:.1e}")
    ok = _verdict(3, "dense-grid accuracy within bounds", not failures)
    assert ok, failures


def test_criterion_04_wide_grid_accuracy():
    reference_max_abs = {
        K.SIGMOID: 4.54e-5,
        K.TANH: 9.08e-5,
        K.GELU: 4.17e-4,
        K.SWISH: 1.11e-3,
    }
    threshold_of = {
        K.SIGMOID: float(SIGMOID_THRESHOLD),
        K.TANH: float(TANH_THRESHOLD),
        K.GELU: float(GELU_THRESHOLD),
        K.SWISH: float(SWISH_THRESHOLD),
    }
    failures = []
    for kind, reference in reference_max_abs.items():
        r = error_metrics(kind, *WIDE)
        if r.max_abs > 1.5 * reference:
            failures.append(
                f"{kind.value} max_abs {r.max_abs:.3e} > 1.5 x {reference:.2e}")
        gap = abs(abs(r.argmax_input) - threshold_of[kind])
        if gap > 2.0:
            failures.append(
                f"{kind.value} worst error at {r.argmax_input}, {gap:.2f} away "
                f"from the saturation threshold {threshold_of[kind]}")
    ok = _verdict(4, "wide-grid accuracy within bounds, worst error near "
                     "saturation", not failures)
    assert ok, failures


def test_criterion_05_relu_bit_exactness(dense_grid, wide_grid):
    failures = []
    for label, grid in (("dense", dense_grid), ("wide", wide_grid)):
        for x in grid:
            want = x if x > 0 else np.float32(0.0)
            if float32_bits(relu_protected(x)) != float32_bits(want):
                failures.append(f"mismatch at {x!r} on the {label} grid")
                break

    # Fuzz: one million finite binary32 values drawn uniformly over the whole
    # encoding space (denormals, huge magnitudes and both zeros included).
    rng = np.random.default_rng(0x51CE)
    bits = rng.integers(0, 2**32, size=1_200_000, dtype=np.uint32)
    values = bits.view(np.float32)
    finite = values[np.isfinite(values)][:1_000_000].copy()
    assert finite.size == 1_000_000
    got = _relu_core(finite)
    want = np.where(finite > 0, finite, np.float32(0.0)).astype(np.float32)
    mismatches = int(np.count_nonzero(got.view(np.uint32) != want.view(np.uint32)))
    if mismatches:
        failures.append(f"{mismatches} of 1e6 fuzz values disagree bitwise")
    # The vectorized core must be the same function the scalar entry point
    # computes, otherwise the bulk fuzz proves nothing about relu_protected.
    for i in rng.integers(0, finite.size, size=256):
        if float32_bits(relu_protected(finite[i])) != int(got.view(np.uint32)[i]):
            failures.append(f"scalar/array disagreement at {finite[i]!r}")
            break
    ok = _verdict(5, "relu bit-equals max(0, x) on grids and 1e6 fuzz inputs",
                  not failures)
    assert ok, failures


def test_criterion_06_threshold_solver():
    solution = solve_tanh_threshold()
    failures = []
    if not 4.96 <= solution.threshold <= 4.98:
        failures.append(f"threshold {solution.threshold} outside [4.96, 4.98]")
    if abs(solution.residual) > 1e-9:
        failures.append(f"residual {solution.residual:.3e} above 1e-9")
    doubled = 2.0 * solution.threshold
    if not 9.92 <= doubled <= 9.96:
        failures.append(f"doubled threshold {doubled} outside [9.92, 9.96]")
    ok = _verdict(6, "balanced-error threshold in range with tiny residual",
                  not failures)
    assert ok, failures


@pytest.fixture(scope="module")
def desync_results():
    return attack_experiment(
        device_model(), ATTACK_CLASSES,
        n_profiling=10_000, n_measurements=8_000, trials=100,
        master_seed=20260817, keep_history_trials=0,
    )


def test_criterion_07_attack_beats_desynchronization(desync_results):
    failures = []
    for kind in ATTACK_CLASSES:
        rows = [r for r in desync_results.values() if r.true_kind == kind]
        if len(rows) != 100:
            failures.append(f"{kind.value}: expected 100 trials, got {len(rows)}")
            continue
        fast = sum(1 for r in rows
                   if r.separation_n is not None and r.separation_n <= 5_000)
        if fast < 95:
            failures.append(f"{kind.value}: separation within 5000 traces in "
                            f"only {fast}/100 trials")
    ok = _verdict(7, "desync attack separates within 5000 traces in >=95% of "
                     "trials", not failures)
    assert ok, failures


def test_criterion_08_constant_time_defeats_the_attack():
    results = attack_experiment(
        device_model("constant-time"), ATTACK_CLASSES,
        n_profiling=10_000, n_measurements=8_000, trials=100,
        master_seed=8261, keep_history_trials=0,
    )
    counts = Counter(r.final_argmax for r in results.values())
    total = len(results)
    failures = []
    if total != 300:
        failures.append(f"expected 300 trials, got {total}")
    for kind in ATTACK_CLASSES:
        share = counts[kind] / total
        if not 0.23 <= share <= 0.43:  # binomial 99% band around 1/3
            failures.append(f"{kind.value} chosen in {share:.1%} of trials")
    ok = _verdict(8, "constant-time latencies reduce the attack to chance",
                  not failures)
    assert ok, failures


def test_criterion_09_template_fit_consistency():
    model = device_model()
    rng = np.random.default_rng(31337)
    templates = profile_phase(model, ATTACK_CLASSES, 10_000, rng)
    failures = []
    for kind in ATTACK_CLASSES:
        fitted = templates[kind]
        mean, var = model.class_moments(kind)
        mean_gap = abs(fitted.mean_us - mean)
        var_gap = abs(fitted.var_us2 - var)
        if mean_gap > 0.15:
            failures.append(f"{kind.value} mean off by {mean_gap:.3f} us")
        if var_gap > 1.5:
            failures.append(f"{kind.value} variance off by {var_gap:.3f} us^2")
    ok = _verdict(9, "10k-draw templates reproduce the generative moments",
                  not failures)
    assert ok, failures


_BENCH_TIMING_KEYS = {"min_ns", "mean_ns", "median_ns", "std_ns", "max_ns"}

_CLI_RUNS = (
    ("errors", ["errors", "--interval", "-8", "8", "--step", "0.02"]),
    ("traces", ["traces", "--interval", "-2", "2", "--step", "0.25",
                "--include-unprotected"]),
    ("bench", ["bench", "--kinds", "relu,tanh", "--interval", "0", "2",
               "--step", "1", "--repetitions", "2"]),
    ("attack", ["attack", "--seed", "99", "--trials", "3", "--n-prof", "300",
                "--n-max", "200"]),
    ("thresholds", ["thresholds", "--sweep"]),
    # The attack engine's other paths: no input draws at all, the
    # truncated-gaussian delay, and a single rival row.
    ("attack-constant-time", ["attack", "--seed", "99", "--countermeasure", "constant-time",
                              "--trials", "3", "--n-prof", "300", "--n-max", "200"]),
    ("attack-truncated-gaussian", ["attack", "--seed", "99", "--delay-dist",
                                   "truncated-gaussian", "--delay-mean", "10",
                                   "--delay-std", "4", "--trials", "3", "--n-prof", "300",
                                   "--n-max", "200"]),
    ("attack-two-classes", ["attack", "--seed", "99", "--classes", "relu,tanh",
                            "--trials", "3", "--n-prof", "300", "--n-max", "200"]),
)


def _comparable(path):
    """File content with host wall times projected out.

    Wall-clock samples differ between runs by nature; every other byte the
    commands emit is compared verbatim.
    """
    if path.name == "bench_samples.csv":
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]
    if path.name == "bench_summary.json":
        rows = json.loads(path.read_text())
        return [{k: v for k, v in row.items() if k not in _BENCH_TIMING_KEYS}
                for row in rows]
    return path.read_bytes()


def _digest(path) -> str:
    comparable = _comparable(path)
    if not isinstance(comparable, bytes):
        comparable = json.dumps(comparable, sort_keys=True).encode()
    return hashlib.sha256(comparable).hexdigest()


# sha256 of every artifact the _CLI_RUNS write, in both output formats where
# the command has a --format choice, with bench wall times projected out as
# in _comparable.  Criterion 10 compares two runs of one tree; these pins
# compare the tree with the recorded output, so a refactor that changes any
# emitted byte fails here.  The errors digests depend on the platform libm
# (math.tanh, math.exp, math.erf); they were recorded on x86-64 glibc.
_ARTIFACT_DIGESTS = {
    ("errors", "csv"): {
        "errors.csv": "c1c1ed2896f1530ed7d687e6c5cdc1bf692ad986b0f0c7a569875cadbb32567f",
    },
    ("errors", "json"): {
        "errors.json": "72adbe23dc82457d0bb749283b13858a3ba1adf6fa8eade01963643b67ea1b08",
    },
    ("traces", "csv"): {
        "traces.csv": "51cf3fa42e7526c4c9dc75bb3a414515762099d21231d8714712a8a10d7ec48d",
    },
    ("traces", "json"): {
        "traces.json": "8e661b02b3523f4710010f1c55bd32a34503e7ee748d0d4711a8185b3e71d90a",
    },
    ("bench", "csv"): {
        "bench_samples.csv": "c60d86575d78f97b8e278a1e9de33121c4194aafffa0eca9bc8b61e095d4d1b3",
        "bench_summary.json": "a04a47fc06d1d4976cf49cf06a007dcfb99a032024e8cf5eda8bd02971666581",
    },
    ("attack", "csv"): {
        "attack_scores.csv": "cc059225759341a704cb37ea83b869fb77317895a67a0a18b84fcd4be3eed081",
        "attack_summary.json": "4383982c3343e623305a5fc5a6bebe54995dbd090c0159d7b6348c2c4d48390e",
    },
    ("thresholds", "csv"): {
        "thresholds.csv": "4d64bb9a67ac94a05f6c36dd780afef9bd23d7d55bf555f70e05ae0abda563f4",
    },
    ("thresholds", "json"): {
        "thresholds.json": "ba1019142b7c8d89f49a3205fdcaa9decca3e0388e92f1f9958efb06e030b687",
    },
    ("attack-constant-time", "csv"): {
        "attack_scores.csv": "9ed7e412bc17e6d30053508a1b83ec8fc790c43001b6948e88e9dfc38370c591",
        "attack_summary.json": "2797e7385033f5f4aa01412104aadf3f9b3d75edb7ffc9fdce7b22f3e2cb7f3b",
    },
    ("attack-truncated-gaussian", "csv"): {
        "attack_scores.csv": "7992bdc643344346b462bd1f5600599f4bd2dbbff97c32822b42f053110ccd55",
        "attack_summary.json": "36fa9f42491d87c6e8484df6763c791f6be33c5c504fa4f14aa7299a46d28295",
    },
    ("attack-two-classes", "csv"): {
        "attack_scores.csv": "07d13747e79ca6bacb660ec5704622fc4db3f83c2a3ad4dcc8a8d3e1fb79d6d0",
        "attack_summary.json": "d3c57240d906113234cea33aef45a3fdbae67aaf71bf2b4f20059219a59a74ac",
    },
}


@pytest.mark.parametrize("name,fmt", sorted(_ARTIFACT_DIGESTS))
def test_cli_artifact_digests(name, fmt, tmp_path, capsys):
    argv = dict(_CLI_RUNS)[name]
    if any(option.name == "format" for option in cli._COMMANDS[argv[0]][2]):
        argv = [*argv, "--format", fmt]  # bench has none: it writes one CSV and one JSON
    # The --force rerun rewrites the first run's files in place.
    for rerun in ((), ("--force",)):
        assert cli.main([*argv, "--out", str(tmp_path), *rerun]) == 0
        capsys.readouterr()
        got = {p.name: _digest(p) for p in sorted(tmp_path.iterdir())}
        assert got == _ARTIFACT_DIGESTS[(name, fmt)]


def test_criterion_10_cli_determinism(tmp_path, capsys):
    failures = []
    for name, argv in _CLI_RUNS:
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / name / attempt
            code = cli.main([*argv, "--out", str(out)])
            if code != 0:
                failures.append(f"{name} run {attempt} exited {code}")
            outs.append(out)
        first, second = (sorted(p.name for p in out.iterdir()) for out in outs)
        if first != second:
            failures.append(f"{name}: file sets differ ({first} vs {second})")
            continue
        for filename in first:
            if _comparable(outs[0] / filename) != _comparable(outs[1] / filename):
                failures.append(f"{name}: {filename} differs between runs")
    capsys.readouterr()  # drop the commands' own console reports
    ok = _verdict(10, "seeded CLI runs byte-reproducible", not failures)
    assert ok, failures
