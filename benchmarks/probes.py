"""Measurements outside the workload loop: set-up, imports, layer microbenchmarks.

Set-up and import timings start fresh interpreters, one at a time, and wait
for each to end.  The microbenchmarks time single public calls of each
layer on seeded inputs, with tracing off.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import timeit
from pathlib import Path
from time import perf_counter

import numpy as np

IMPORT_MODULES = ("ctact", "ctact.attack", "ctact.harness", "ctact.activations",
                  "scipy.stats", "numpy")
CHILD_TIMEOUT_S = 120


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(root: Path, imports) -> float:
    """Seconds from starting a fresh interpreter until ``imports`` are loaded."""
    code = (f"import {', '.join(imports)}\n"
            "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()")
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=root, env=_child_env(root),
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = perf_counter() - start
        child.stdout.read()
        status = child.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up process failed to import {imports}")
    return ready


def _importtime(root: Path, env: dict, code: str) -> tuple:
    """(cumulative seconds per module, stdout) of one ``-X importtime`` run."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    cumulative = {}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative, done.stdout


def import_breakdown(root: Path, imports, runs: int) -> dict:
    """Cumulative import seconds per module from ``-X importtime``, per run.

    ``scipy`` loads ``scipy.stats`` lazily on ``from scipy import stats``, so
    importtime has no line for it inside ctact's import tree.  When the
    workload's import leaves ``scipy.stats`` loaded, its cost is taken from
    a second fresh process that imports numpy and then scipy.stats; when it
    does not, the workload paid nothing for it and the sample is 0.
    """
    env = _child_env(root)
    samples: dict = {name: [] for name in IMPORT_MODULES}
    code = (f"import {', '.join(imports)}\n"
            "import sys; print('scipy.stats' in sys.modules)")
    for _ in range(runs):
        cumulative, out = _importtime(root, env, code)
        if out.strip() == "True":
            stats_only, _ = _importtime(root, env, "import numpy; import scipy.stats")
            cumulative["scipy.stats"] = stats_only.get("scipy.stats", 0.0)
        for name in IMPORT_MODULES:
            samples[name].append(cumulative.get(name, 0.0))
    return samples


def _per_call(stmt, number: int, repeat: int, namespace: dict) -> float:
    """Median seconds per execution of ``stmt`` over ``repeat`` timings."""
    timer = timeit.Timer(stmt, globals=namespace)
    return statistics.median(timer.repeat(repeat=repeat, number=number)) / number


def _loop_per_call(fn, xs, repeat: int = 3) -> float:
    def once():
        start = perf_counter()
        for x in xs:
            fn(x)
        return perf_counter() - start
    return statistics.median(once() for _ in range(repeat)) / len(xs)


def microbench(seed: int, draw_inputs, kinds, classes) -> dict:
    """Per-call times of single public calls, keyed by metric name."""
    import ctact
    from ctact import _ops

    rng = np.random.default_rng(seed)
    a, b = (np.float32(v) for v in rng.uniform(-8.0, 8.0, 2))
    space = {"f_mul": _ops.f_mul, "a": a, "b": b}
    out = {"ops.f_mul_off_ns": _per_call("f_mul(a, b)", 50_000, 7, space) * 1e9,
           "ops.numpy_mul_ns": _per_call("a * b", 50_000, 7, space) * 1e9}
    with _ops.recording() as buf:
        space["buf"] = buf
        out["ops.f_mul_on_ns"] = _per_call("f_mul(a, b)", 50_000, 7, space) * 1e9

    inputs = draw_inputs(seed)
    mixed = np.concatenate([inputs[c][:250] for c in classes])
    for kind in kinds:
        protected = getattr(ctact, f"{kind}_protected")
        out[f"activations.{kind}_protected_us"] = _loop_per_call(protected, mixed) * 1e6
        out[f"activations.{kind}_ref_us"] = _loop_per_call(getattr(ctact, f"{kind}_ref"), mixed) * 1e6
    kernels = [getattr(ctact, f"{kind}_protected") for kind in kinds]
    for cls in classes:
        def all_kinds(x):
            for kernel in kernels:
                kernel(x)
        out[f"activations.protected_us.{cls}"] = (
            _loop_per_call(all_kinds, inputs[cls][:400]) / len(kernels) * 1e6)

    interior = inputs["interior"][:1000]
    clamped = np.clip(interior, np.float32(-4.971), np.float32(4.971))
    out["pade.rational_tanh_us"] = _loop_per_call(ctact.rational_tanh, clamped) * 1e6
    for protected in (True, False):
        def traced(x):
            for kind in kinds:
                ctact.trace_eval(kind, x, protected=protected)
        mode = "protected" if protected else "unprotected"
        out[f"harness.trace_eval_{mode}_us"] = (
            _loop_per_call(traced, interior[:300]) / len(kinds) * 1e6)
    return out


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_commit(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(str(root / ".git" / head[5:])).strip() or "unknown"
    return head or "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    llc = ""
    for index in range(8):
        cache = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if _read(f"{cache}/level").strip() == "3":
            llc = _read(f"{cache}/size").strip()
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "llc_size": llc or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
