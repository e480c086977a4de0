"""ctact benchmark: one workload per process, metrics as one JSON line.

Usage, from the repository root:

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --all            # every workload, traced and not,
                                               # then ROADMAP item 1's table
    python3 benchmarks/run.py --record-reference

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports its per-layer metrics from a traced run.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it print the run record and every metric by name and unit.  Set-up, import
and workload timings run one after another, with BLAS and OpenMP pinned to
one thread; the set-up interpreters are spread over the measuring time.
Scratch artifacts, run records and span files go to ``.bench_out/`` in the
repository root.  See benchmarks/README.md for the
metric -> layer -> workload map.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (thread pins must precede the numpy import)
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("verify", "attack", "scalar_kernels")
MIN_PASSES = 3
# Fresh interpreters timed for setup_s, spread evenly over the measuring time.
SETUP_RUNS = 6
# Fresh ``-X importtime`` interpreters behind the import.* metrics.
IMPORT_RUNS = 4

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "call_us_p50": "us",
                    "call_us_p90": "us", "peak_rss_mb": "MB"}
LAYERS = ("cli", "attack", "analysis", "harness", "activations", "ctselect",
          "pade", "ops", "grids", "bench")


def per_layer_units() -> dict:
    kinds, classes = workloads.KINDS, workloads.INPUT_CLASSES
    units = {f"import.{m}_s": "s" for m in probes.IMPORT_MODULES}
    units.update({"ops.f_mul_off_ns": "ns", "ops.f_mul_on_ns": "ns",
                  "ops.numpy_mul_ns": "ns", "ops.calls": "count",
                  "pade.rational_tanh_us": "us"})
    units.update({f"activations.{k}_protected_us": "us" for k in kinds})
    units.update({f"activations.protected_us.{c}": "us" for c in classes})
    units.update({f"activations.{k}_ref_us": "us" for k in kinds})
    units.update({"harness.trace_eval_protected_us": "us",
                  "harness.trace_eval_unprotected_us": "us"})
    units.update({f"harness.check_uniformity_ms.{g}.{m}": "ms"
                  for g in ("dense", "wide") for m in ("protected", "unprotected")})
    units.update({"harness.trace_len": "count", "harness.traced_ops": "count",
                  "analysis.error_metrics_ms": "ms", "analysis.threshold_sweep_ms": "ms",
                  "analysis.solve_tanh_threshold_ms": "ms",
                  "attack.profile_phase_ms": "ms", "attack.run_attack_ms": "ms",
                  "attack.attack_experiment_s.desync": "s",
                  "attack.attack_experiment_s.constant_time": "s",
                  "attack.observations": "count"})
    commands = ("traces", "errors", "thresholds", "attack")
    units.update({f"cli.{c}_self_ms": "ms" for c in commands})
    units["cli.threshold_sweep_calls"] = "count"
    units.update({f"cli.artifact_bytes.{c}": "bytes" for c in commands})
    units.update({f"self_ms.{layer}": "ms" for layer in LAYERS + ("other",)})
    units.update({"trace.run_s": "s", "trace.untraced_run_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count",
                  "trace.passes": "count"})
    return units


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, one after another")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from the current tree")
    args = parser.parse_args(argv)
    if not (args.all or args.record_reference or args.workload):
        parser.error("give --workload, --all or --record-reference")
    return args


def default_seconds() -> float:
    return float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Passes:
    """Wall times of a run's passes and the fastest instance of each unit.

    A pass is a fixed sequence of units: a CLI command, or a block of
    consecutive kernel calls.  The host alternates between a fast and a slow
    phase (up to 2x; phases of seconds to minutes, many with fast moments of
    tens of ms inside), so whole-pass times depend on each run's mix of
    phases.  Each unit's fastest instance over the run sees past such slow
    phases and still holds every cost that recurs within the unit.
    """

    def __init__(self) -> None:
        self.pass_s: list = []
        self.unit_ns = None  # per unit: fastest wall ns so far
        self.unit_calls = None  # per unit: call ns of that fastest instance

    def __len__(self) -> int:
        return len(self.pass_s)

    def add(self, pass_ns: int, unit_ns: np.ndarray, call_ns) -> None:
        """``call_ns``: per unit, the wall ns of each call in it, or None."""
        self.pass_s.append(pass_ns / 1e9)
        if self.unit_ns is None:
            self.unit_ns = unit_ns.copy()
            self.unit_calls = None if call_ns is None else call_ns.copy()
            return
        faster = unit_ns < self.unit_ns
        self.unit_ns[faster] = unit_ns[faster]
        if call_ns is not None:
            self.unit_calls[faster] = call_ns[faster]

    def run_s(self) -> float:
        """Pass time as the sum of each unit's fastest wall time."""
        return float(self.unit_ns.sum()) / 1e9


def percentile_us(call_ns: np.ndarray, percent: float) -> float:
    """Nearest-rank percentile, in microseconds."""
    return float(np.percentile(call_ns, percent, method="inverted_cdf")) / 1e3


def measure(workload, seconds: float, tracer=None, setup_imports=()) -> tuple:
    """Closed loop: passes back to back until ``seconds`` have elapsed.

    With ``setup_imports``, SETUP_RUNS set-up interpreters are timed between
    passes, one every ``seconds / SETUP_RUNS``, so that they see the same
    host phases as the passes.  Returns (Passes, set-up seconds).
    """
    passes, setup = Passes(), []
    wanted = SETUP_RUNS if setup_imports else 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(setup) < wanted and elapsed >= len(setup) * seconds / wanted:
            setup.append(probes.setup_time(ROOT, setup_imports))
        elif len(passes) < MIN_PASSES or elapsed < seconds:
            if tracer is not None:
                tracer.pass_index = len(passes) + 1
            passes.add(*workload.run_pass(tracer))
        else:
            return passes, setup


def end_to_end(args, workload, record: dict) -> dict:
    workload.run_pass()  # warm-up, checked but untimed
    passes, setup = measure(workload, args.seconds, setup_imports=workload.imports)
    workload.finish()
    record.update(setup_s_samples=setup, pass_s=passes.pass_s,
                  pass_s_quartiles=quartiles(passes.pass_s),
                  fastest_pass_s=min(passes.pass_s),
                  units_per_pass=int(passes.unit_ns.size))
    calls = workload.call_ns(passes.unit_ns, passes.unit_calls)
    record["calls_per_pass"] = int(calls.size)
    if isinstance(workload, workloads.CliWorkload):
        record["fastest_ms_by_command"] = dict(zip(workload.labels, calls / 1e6))
    return {
        "setup_s": statistics.median(setup),
        "run_s": passes.run_s(),
        "call_us_p50": percentile_us(calls, 50),
        "call_us_p90": percentile_us(calls, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(args, workload, record: dict) -> dict:
    imports = probes.import_breakdown(ROOT, workload.imports, IMPORT_RUNS)
    metrics = {f"import.{m}_s": statistics.median(v) for m, v in imports.items()}
    record["import_s_quartiles"] = {m: quartiles(v) for m, v in imports.items()}
    metrics.update(probes.microbench(args.seed, workloads.draw_inputs,
                                     workloads.KINDS, workloads.INPUT_CLASSES))

    workload.run_pass()  # warm-up
    untraced, _ = measure(workload, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced, _ = measure(workload, args.seconds / 2, tracer)
    workload.finish()
    n = len(traced)
    stats = tracer.stats

    def mean_ns(name):
        acc = stats.get(name)
        return acc[2] / acc[1] if acc else 0.0

    def self_ns(prefix):
        return sum(acc[3] for key, acc in stats.items() if key.startswith(prefix))

    layer_self = tracer.layer_self_ns()
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = layer_self.pop(layer, 0) / n / 1e6
    metrics["self_ms.other"] = sum(layer_self.values()) / n / 1e6
    for grid in ("dense", "wide"):
        for mode in ("protected", "unprotected"):
            metrics[f"harness.check_uniformity_ms.{grid}.{mode}"] = (
                mean_ns(f"harness.check_uniformity[{grid}.{mode}]") / 1e6)
    for name in ("error_metrics", "threshold_sweep", "solve_tanh_threshold"):
        metrics[f"analysis.{name}_ms"] = mean_ns(f"analysis.{name}") / 1e6
    for name in ("profile_phase", "run_attack"):
        metrics[f"attack.{name}_ms"] = mean_ns(f"attack.{name}") / 1e6
    for label in ("desync", "constant_time"):
        metrics[f"attack.attack_experiment_s.{label}"] = (
            mean_ns(f"attack.attack_experiment[attack.{label}]") / 1e9)
    metrics["attack.observations"] = tracer.counts["attack.observations"] / n
    metrics["harness.traced_ops"] = tracer.counts["harness.traced_ops"] / n
    metrics["harness.trace_len"] = getattr(workload, "trace_len", 0)
    metrics["ops.calls"] = sum(acc[1] for acc in stats.values() if acc[0] == "ops") / n
    artifact_bytes = getattr(workload, "artifact_bytes", {})
    for command in ("traces", "errors", "thresholds", "attack"):
        metrics[f"cli.{command}_self_ms"] = self_ns(f"cli.main[{command}") / n / 1e6
        metrics[f"cli.artifact_bytes.{command}"] = sum(
            size for label, size in artifact_bytes.items()
            if label.split(".")[0] == command)
    metrics["cli.threshold_sweep_calls"] = tracer.calls("analysis.threshold_sweep") / n
    metrics["trace.run_s"] = traced.run_s()
    metrics["trace.untraced_run_s"] = untraced.run_s()
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    metrics["trace.spans"] = sum(acc[1] for acc in stats.values()
                                 if acc[0] not in ("ops", "bench")) / n
    metrics["trace.passes"] = n

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.csv"
    tracer.write(spans_path)
    accounted = sum(acc[3] for acc in stats.values()) / 1e9
    record.update(untraced_pass_s=untraced.pass_s, traced_pass_s=traced.pass_s,
                  spans_file=str(spans_path.relative_to(ROOT)),
                  spans_kept=len(tracer.spans), spans_dropped=tracer.dropped,
                  layer_self_share_of_traced_time=accounted / sum(traced.pass_s))
    return metrics


def print_metrics(metrics: dict, units: dict) -> None:
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")


def baseline_table(m: dict) -> list:
    """ROADMAP item 1's per-layer table, from per-layer and ``run_s`` metrics."""
    kinds = workloads.KINDS
    prot = [m[f"activations.{k}_protected_us"] for k in kinds]
    refs = [m[f"activations.{k}_ref_us"] for k in kinds]
    return [
        ("import", f"ctact {m['import.ctact_s']:.2f} s; numpy {m['import.numpy_s']:.2f} s; "
                   f"scipy.stats {m['import.scipy.stats_s']:.2f} s"),
        ("op layer", f"f_mul off {m['ops.f_mul_off_ns']:.0f} ns, on {m['ops.f_mul_on_ns']:.0f} ns; "
                     f"numpy multiply {m['ops.numpy_mul_ns']:.0f} ns"),
        ("kernels", f"protected {min(prot):.1f}-{max(prot):.1f} us/call; reference "
                    f"{min(refs):.1f}-{max(refs):.1f} us; trace_eval "
                    f"{m['harness.trace_eval_protected_us']:.1f} / "
                    f"{m['harness.trace_eval_unprotected_us']:.1f} us"),
        ("analyses", f"check_uniformity dense {m['harness.check_uniformity_ms.dense.protected']:.1f} ms/kind; "
                     f"error_metrics {m['analysis.error_metrics_ms']:.1f} ms; attack_experiment "
                     f"{m['attack.attack_experiment_s.desync']:.3f} s"),
        ("CLI / library", "; ".join(f"{name} run_s {m[name + '.run_s']:.3f} s"
                                    for name in WORKLOAD_NAMES)),
    ]


def run_workload(args) -> int:
    reference = json.loads(REFERENCE.read_text())
    outcome = workloads.Outcome()
    work_dir = OUT_DIR / "work" / args.workload
    workload = workloads.WORKLOADS[args.workload](
        args.seed, work_dir, reference.get(args.workload, {}), outcome)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "setup_runs": SETUP_RUNS, "import_runs": IMPORT_RUNS,
              "environment": probes.environment(ROOT)}
    if args.trace:
        metrics = per_layer(args, workload, record)
        units = per_layer_units()
    else:
        metrics = end_to_end(args, workload, record)
        units = END_TO_END_UNITS
    shutil.rmtree(work_dir, ignore_errors=True)
    metrics = {name: float(metrics[name]) for name in units}
    fail_ratio = outcome.failed / max(outcome.attempted, 1)
    record.update(metrics=metrics, attempted=outcome.attempted, failed=outcome.failed,
                  fail_ratio=fail_ratio, failure_notes=outcome.notes)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}  commit {env['git_commit'][:12]}")
    print(f"  {env['cpu_model']}, nproc {env['nproc']}, LLC {env['llc_size']}, "
          f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    if args.trace:
        print(f"  passes untraced {len(record['untraced_pass_s'])}, traced "
              f"{len(record['traced_pass_s'])}; layer self time covers "
              f"{record['layer_self_share_of_traced_time']:.1%} of traced pass time; "
              f"spans in {record['spans_file']}")
    else:
        q1, q2, q3 = record["pass_s_quartiles"]
        print(f"  passes {len(record['pass_s'])} of {record['units_per_pass']} units, "
              f"{record['calls_per_pass']} calls; whole-pass wall time: fastest "
              f"{record['fastest_pass_s']:.4f}, q1 {q1:.4f}, median {q2:.4f}, q3 {q3:.4f} s")
        print(f"  set-up interpreters {SETUP_RUNS}: "
              + " ".join(f"{t:.3f}" for t in record["setup_s_samples"]) + " s")
    print(f"  fail_ratio {fail_ratio:.6g} ({outcome.failed} of {outcome.attempted} operations)")
    for note in outcome.notes:
        print(f"  FAILED: {note}")
    print_metrics(metrics, units)
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process, in turn.

    Ends with ROADMAP item 1's per-layer table: each per-layer value comes
    from the first workload (in WORKLOAD_NAMES order) where it is not 0.
    """
    failed = False
    merged: dict = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            failed |= result is None or not result["correct"]
            for metric, entry in (result or {}).get("metrics", {}).items():
                key = f"{name}.{metric}" if metric == "run_s" else metric
                if not merged.get(key):
                    merged[key] = entry["value"]
    if failed:
        return 1
    print("per-layer baseline (ROADMAP item 1)")
    for layer, text in baseline_table(merged):
        print(f"  | {layer:13s} | {text} |")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.all:
        return run_all(args)
    if args.record_reference:
        reference = workloads.record_reference(OUT_DIR / "work" / "reference")
        shutil.rmtree(OUT_DIR / "work" / "reference", ignore_errors=True)
        REFERENCE.write_text(json.dumps(
            {"default_seed": workloads.DEFAULT_SEED, **reference}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    return run_workload(args)


if __name__ == "__main__":
    if not (ROOT / "src" / "ctact" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ctact sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import probes
    import tracing
    import workloads
    if not Path(workloads.ctact.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write("error: imported ctact from outside the checkout\n")
        sys.exit(2)
    sys.exit(main())
