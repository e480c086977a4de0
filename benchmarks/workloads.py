"""The three benchmark workloads: inputs, timed passes and correctness checks.

Each workload is closed loop: one caller runs one pass after another.  A
pass is a fixed sequence of timed units (a CLI command, or a block of
kernel calls); it returns its wall time, each unit's wall time and each
call's wall time, which is what ``run_s`` and ``call_us_*`` come from.
Inputs come from the workload seed only; the program under test receives
nothing but those inputs.  Every operation a
pass attempts is checked, and a failed check is counted, never raised, so a
run still reports its metrics when the program is wrong.

Only public ``ctact`` names are called here, so internal refactors of the
package do not break the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import ctact
import ctact.cli

DEFAULT_SEED = 0

KINDS = ("relu", "sigmoid", "tanh", "gelu", "swish")
INPUT_CLASSES = ("interior", "wide", "saturation", "tiny")
# 2,000 inputs x 5 kinds = 10,000 calls per pass, timed in units of
# BLOCK_INPUTS consecutive inputs (250 calls, about 6 ms).
INPUTS_PER_CLASS = 500
BLOCK_INPUTS = 50

# Saturation thresholds of tanh, sigmoid, gelu and swish as binary32; the
# saturation input class sits within a few ulps of each of them.
SATURATION_THRESHOLDS = np.array([4.971, 9.942, 3.6, 8.0], dtype=np.float32)
SATURATION_ULPS = 4

# Largest |protected - libm reference| accepted per kind.  Each sits above
# the worst case of its kernel: the balanced tanh error, gelu's and swish's
# saturation jumps at -3.6 and -8 (5.7e-4 and 2.7e-3).  relu must match
# exactly.
ERROR_TOLERANCE = {"relu": 0.0, "sigmoid": 1e-4, "tanh": 2e-4,
                   "gelu": 1e-3, "swish": 4e-3}

PROTECTED_TRACE_LENGTH = 59


class Outcome:
    """Attempted and failed operation counts plus the first failure notes."""

    MAX_NOTES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, count: int = 1, note: str = "") -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(note)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def draw_inputs(seed: int) -> dict:
    """Binary32 kernel inputs for one seed: INPUTS_PER_CLASS per input class."""
    rng = np.random.default_rng(seed)
    n = INPUTS_PER_CLASS

    def signs() -> np.ndarray:
        return np.where(rng.integers(0, 2, n) == 1, -1.0, 1.0)

    thresholds = SATURATION_THRESHOLDS[rng.integers(0, SATURATION_THRESHOLDS.size, n)]
    offsets = rng.integers(-SATURATION_ULPS, SATURATION_ULPS + 1, n)
    near = (thresholds.view(np.uint32).astype(np.int64) + offsets).astype(np.uint32)
    return {
        "interior": rng.uniform(-8.0, 8.0, n).astype(np.float32),
        "wide": rng.uniform(-500.0, 500.0, n).astype(np.float32),
        "saturation": (near.view(np.float32) * signs()).astype(np.float32),
        "tiny": (signs() * 10.0 ** rng.uniform(-30.0, -20.0, n)).astype(np.float32),
    }


def check_protected_traces(seed: int, outcome: Outcome) -> int:
    """Trace each protected kind on a seeded sample; one operation per kind.

    A trace fails when its length is not PROTECTED_TRACE_LENGTH or when it
    holds a BRANCH op.  Returns the trace length seen (0 if none matched).
    """
    sample = [x for xs in draw_inputs(seed).values() for x in xs[:16]]
    seen = 0
    for kind in KINDS:
        bad = []
        for x in sample:
            trace, _ = ctact.trace_eval(kind, x, protected=True)
            if trace.length != PROTECTED_TRACE_LENGTH or "BRANCH" in trace.ops:
                bad.append((float(x), trace.length))
            else:
                seen = trace.length
        outcome.record(not bad, note=f"{kind} protected trace deviates at {bad[:3]}")
    return seen


class CliWorkload:
    """Runs ``ctact.cli.main`` commands in process; one pass runs each once.

    ``commands`` maps a command label to its argv; each command is one call
    and one timed unit, and a pass's wall time is the sum of its command
    times.  Artifacts are written under ``work_dir/<label>`` and their sha256
    digests are compared with the recorded reference (or, where the seed has
    no reference, with the first pass, which makes the check a determinism
    check).
    """

    imports = ("ctact.cli",)
    commands: dict = {}
    artifacts: dict = {}

    def __init__(self, seed: int, work_dir: Path, reference: dict, outcome: Outcome):
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference
        self.outcome = outcome
        self.labels = list(self.commands)
        self.order = list(self.labels)
        self._rng = random.Random(seed)
        self.expected = self.expected_digests(seed)
        self.artifact_bytes = {label: 0 for label in self.commands}
        self.trace_len = 0

    def expected_digests(self, seed: int) -> dict:
        raise NotImplementedError

    def argv(self, label: str, seed: int) -> list:
        out = self.work_dir / label
        return self.commands[label] + ["--seed", str(seed), "--format", "csv",
                                       "--out", str(out), "--force"]

    def invoke(self, label: str, seed: int, tracer=None) -> tuple:
        """Run one command; returns (exit code, wall ns)."""
        argv = self.argv(label, seed)
        sink = io.StringIO()
        region = contextlib.nullcontext()
        if tracer is not None:
            tracer.tag = label
            region = tracer.root()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter_ns()
            with region:
                code = ctact.cli.main(argv)  # looked up per call so tracing can wrap it
            elapsed = perf_counter_ns() - start
        return code, elapsed

    def check(self, label: str, code: int, expected: dict) -> dict:
        """Count one operation; returns the artifact digests it produced."""
        out = self.work_dir / label
        digests = {}
        for name in self.artifacts[label]:
            path = out / name
            digests[name] = sha256_file(path) if path.is_file() else None
        if code != 0:
            self.outcome.record(False, note=f"{label}: exit code {code}")
        elif label in expected and digests != expected[label]:
            wrong = sorted(n for n in digests if digests[n] != expected[label].get(n))
            self.outcome.record(False, note=f"{label}: digest mismatch in {wrong}")
        else:
            self.outcome.record(True)
        return digests

    def run_pass(self, tracer=None) -> tuple:
        """One pass over the commands in a seeded order.

        Returns (pass wall ns, wall ns per command in ``labels`` order, None).
        """
        self._rng.shuffle(self.order)
        times = np.zeros(len(self.labels), dtype=np.int64)
        for label in self.order:
            code, times[self.labels.index(label)] = self.invoke(label, self.seed, tracer)
            digests = self.check(label, code, self.expected)
            self.expected.setdefault(label, digests)
            self.artifact_bytes[label] = sum(
                (self.work_dir / label / name).stat().st_size
                for name in self.artifacts[label] if digests.get(name))
        return int(times.sum()), times, None

    def call_ns(self, unit_ns: np.ndarray, unit_calls) -> np.ndarray:
        """Command times: a command is one unit."""
        return unit_ns

    def finish(self) -> None:
        """Checks run once after the timed passes."""


class VerifyWorkload(CliWorkload):
    """Trace uniformity, accuracy and thresholds on the dense and wide grids.

    ``traces --include-unprotected`` runs once per (grid, kind), which is the
    same work as one call over both grids and all kinds, in units of 20 to
    150 ms.  These commands take no randomness, so the recorded digests hold
    for every seed; the seed orders the commands within each pass and picks
    the inputs of the protected-trace check.
    """

    name = "verify"
    commands = {
        **{f"traces.{grid}.{kind}": ["traces", "--include-unprotected",
                                     "--grid", grid, "--kinds", kind]
           for grid in ("dense", "wide") for kind in KINDS},
        "errors": ["errors", "--grid", "both"],
        "thresholds": ["thresholds", "--sweep"],
    }
    artifacts = {label: (f"{label.split('.')[0]}.csv",) for label in commands}

    def expected_digests(self, seed: int) -> dict:
        return {label: dict(d) for label, d in self.reference.items()}

    def finish(self) -> None:
        self.trace_len = check_protected_traces(self.seed, self.outcome)
        for label in self.labels:
            if not label.startswith("traces."):
                continue
            path = self.work_dir / label / "traces.csv"
            bad = 0
            if path.is_file():
                with open(path, newline="", encoding="utf-8") as fh:
                    bad = sum(1 for row in csv.DictReader(fh)
                              if row["protected"] == "1"
                              and int(row["trace_len"]) != PROTECTED_TRACE_LENGTH)
            self.outcome.record(path.is_file() and bad == 0, note=(
                f"{label}: {bad} protected rows not {PROTECTED_TRACE_LENGTH} ops"))


class AttackWorkload(CliWorkload):
    """The template attack against the desync and the constant-time device.

    Artifacts depend on the seed.  The reference covers DEFAULT_SEED; other
    seeds are checked for determinism across passes and for the shape of
    their artifacts, and one untimed pass at DEFAULT_SEED after the timed
    ones is checked against the reference.
    """

    name = "attack"
    commands = {
        "attack.desync": ["attack", "--countermeasure", "desync", "--trials", "100"],
        "attack.constant_time": ["attack", "--countermeasure", "constant-time",
                                 "--trials", "100"],
    }
    artifacts = {label: ("attack_scores.csv", "attack_summary.json")
                 for label in commands}
    # One kept trial per true class: 3 classes x 3 scored classes x 8000.
    SCORE_ROWS = 72_000

    def expected_digests(self, seed: int) -> dict:
        if seed == DEFAULT_SEED:
            return {label: dict(d) for label, d in self.reference.items()}
        return {}

    def finish(self) -> None:
        for label in self.labels:
            scores = self.work_dir / label / "attack_scores.csv"
            with open(scores, "rb") as fh:
                rows = sum(1 for _ in fh) - 1
            self.outcome.record(rows == self.SCORE_ROWS,
                                note=f"{label}: {rows} score rows, expected {self.SCORE_ROWS}")
        golden = {label: dict(d) for label, d in self.reference.items()}
        for label in self.labels:
            code, _ = self.invoke(label, DEFAULT_SEED)
            self.check(label, code, golden)


class ScalarKernelsWorkload:
    """The five public ``*_protected`` kernels on scalar inputs.

    A pass sends every input, in a seeded order, through all five kernels,
    timing each call and each block of BLOCK_INPUTS inputs; each (input,
    kind) call is one operation.  A call fails when its
    output is not finite, differs from the first pass bit for bit, is not
    bit-exact (relu) or strays from the libm reference by more than
    ERROR_TOLERANCE.  An untimed pass at DEFAULT_SEED is compared with the
    recorded digest of each (kind, input class) group; a mismatch fails the
    group's calls.
    """

    name = "scalar_kernels"
    imports = ("ctact",)

    def __init__(self, seed: int, work_dir: Path, reference: dict, outcome: Outcome):
        self.seed = seed
        self.reference = reference
        self.outcome = outcome
        self.inputs = draw_inputs(seed)
        self.flat = np.concatenate([self.inputs[c] for c in INPUT_CLASSES])
        self.order = np.random.default_rng(seed).permutation(self.flat.size)
        scalars = [self.flat[i] for i in self.order]
        self.blocks = [scalars[i:i + BLOCK_INPUTS]
                       for i in range(0, len(scalars), BLOCK_INPUTS)]
        self.first_bits = None
        self.trace_len = 0
        self.refs = self._reference_values(self.flat)

    @staticmethod
    def _reference_values(xs: np.ndarray) -> np.ndarray:
        """Per (input, kind) reference value in binary64; columns in KINDS order."""
        refs = [getattr(ctact, f"{kind}_ref") for kind in KINDS]
        return np.array([[float(ref(x)) for ref in refs] for x in xs], dtype=np.float64)

    def call_ns(self, unit_ns: np.ndarray, unit_calls: np.ndarray) -> np.ndarray:
        """Kernel call times, from each block's fastest instance."""
        return unit_calls.ravel()

    @staticmethod
    def output_bits(outputs: list, order: np.ndarray) -> np.ndarray:
        """Bits, shape (len(order), 5), of kernel outputs made in ``order``."""
        bits = np.empty((order.size, len(KINDS)), dtype=np.uint32)
        bits[order] = np.array(outputs, dtype=np.float32).view(np.uint32).reshape(-1, len(KINDS))
        return bits

    def run_pass(self, tracer=None) -> tuple:
        """Returns (pass wall ns, wall ns per block, wall ns per call by block)."""
        kernels = [getattr(ctact, f"{kind}_protected") for kind in KINDS]
        region = contextlib.nullcontext() if tracer is None else tracer.root()
        outputs: list = []
        latencies: list = []
        block_ns: list = []
        append, record, clock = outputs.append, latencies.append, perf_counter_ns
        with region:
            pass_start = clock()
            for block in self.blocks:
                block_start = clock()
                for x in block:
                    for kernel in kernels:
                        start = clock()
                        y = kernel(x)
                        record(clock() - start)
                        append(y)
                block_ns.append(clock() - block_start)
            pass_ns = clock() - pass_start
        self._check_calls(self.output_bits(outputs, self.order))
        calls = np.array(latencies, dtype=np.int64).reshape(len(self.blocks), -1)
        return pass_ns, np.array(block_ns, dtype=np.int64), calls

    def _check_calls(self, bits: np.ndarray) -> None:
        values = bits.view(np.float32).astype(np.float64)
        bad = ~np.isfinite(values)
        tolerance = np.array([ERROR_TOLERANCE[k] for k in KINDS])
        with np.errstate(invalid="ignore"):
            bad |= np.abs(values - self.refs) > tolerance
        relu = KINDS.index("relu")
        exact = np.where(self.flat > 0, self.flat, np.float32(0.0)).view(np.uint32)
        bad[:, relu] |= bits[:, relu] != exact
        if self.first_bits is None:
            self.first_bits = bits
        bad |= bits != self.first_bits
        failed = int(bad.sum())
        self.outcome.record(True, count=bits.size - failed)
        if failed:
            rows, cols = np.nonzero(bad)
            self.outcome.record(False, count=failed, note=(
                f"{failed} kernel calls wrong, first {KINDS[cols[0]]}({self.flat[rows[0]]!r})"))

    def group_digests(self, inputs: dict) -> dict:
        flat = np.concatenate([inputs[c] for c in INPUT_CLASSES])
        kernels = [getattr(ctact, f"{kind}_protected") for kind in KINDS]
        bits = self.output_bits([kernel(x) for x in flat for kernel in kernels],
                                np.arange(flat.size))
        digests = {}
        for c_index, cls in enumerate(INPUT_CLASSES):
            block = bits[c_index * INPUTS_PER_CLASS:(c_index + 1) * INPUTS_PER_CLASS]
            for k_index, kind in enumerate(KINDS):
                digests[f"{kind}.{cls}"] = hashlib.sha256(
                    np.ascontiguousarray(block[:, k_index]).tobytes()).hexdigest()
        return digests

    def finish(self) -> None:
        self.trace_len = check_protected_traces(self.seed, self.outcome)
        for group, digest in self.group_digests(draw_inputs(DEFAULT_SEED)).items():
            self.outcome.record(
                digest == self.reference.get(group), count=INPUTS_PER_CLASS,
                note=f"{group}: output bits differ from the reference at seed {DEFAULT_SEED}")


WORKLOADS = {w.name: w for w in (VerifyWorkload, AttackWorkload, ScalarKernelsWorkload)}


def record_reference(work_dir: Path) -> dict:
    """Digests of every checked output at DEFAULT_SEED, from the current tree."""
    reference = {}
    for name, cls in WORKLOADS.items():
        outcome = Outcome()
        workload = cls(DEFAULT_SEED, work_dir / name, {}, outcome)
        if isinstance(workload, CliWorkload):
            workload.run_pass()
            reference[name] = workload.expected
        else:
            reference[name] = workload.group_digests(workload.inputs)
        if outcome.failed:
            raise RuntimeError(f"{name}: {outcome.notes}")
    return reference
