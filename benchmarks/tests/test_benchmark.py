"""Self-check of the benchmark itself, on smoke-sized runs.

Not part of the tier-1 suite (pytest's testpaths is ``tests``); run it with

    python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selfcheck"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--seconds", "0.5", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def copy_checkout(name: str, with_sources: bool) -> Path:
    """A fresh copy of BENCHMARK.json and the benchmark, optionally with src/."""
    tree = SCRATCH / name
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    for path in SPEC["paths"] + (["src"] if with_sources else []):
        shutil.copytree(ROOT / path, tree / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(run_benchmark("--workload", workload, "--seed", "5",
                                     "--trace", str(trace)))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload, label", [
    ("attack", "attack.desync"),
    ("scalar_kernels", "gelu.tiny"),
])
def test_wrong_reference_digest_counts_as_failure(workload, label):
    reference = json.loads((BENCH / "reference.json").read_text())
    entry = reference[workload]
    if isinstance(entry[label], dict):
        entry[label] = {name: "0" * 64 for name in entry[label]}
    else:
        entry[label] = "0" * 64
    tree = copy_checkout(f"wrong-{workload}", with_sources=True)
    (tree / "benchmarks" / "reference.json").write_text(json.dumps(reference))
    done = run_benchmark("--workload", workload, "--seed", "5", cwd=tree)
    shutil.rmtree(tree)
    result = result_of(done)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert {m["name"] for m in SPEC["end_to_end"]} == set(result["metrics"])


def test_same_seed_gives_identical_inputs():
    first, again, other = (workloads.draw_inputs(s) for s in (7, 7, 8))
    for cls in workloads.INPUT_CLASSES:
        assert first[cls].dtype == np.float32
        assert first[cls].tobytes() == again[cls].tobytes()
        assert first[cls].tobytes() != other[cls].tobytes()
    tiny = np.abs(first["tiny"])
    assert tiny.min() >= np.float32(1e-30) and tiny.max() <= np.float32(1e-20)
    outcome = workloads.Outcome()
    orders = [workloads.ScalarKernelsWorkload(7, SCRATCH, {}, outcome).order
              for _ in range(2)]
    assert np.array_equal(*orders)


def test_fails_without_the_sources():
    bare = copy_checkout("bare", with_sources=False)
    done = run_benchmark("--workload", "verify", "--seed", "1", cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
