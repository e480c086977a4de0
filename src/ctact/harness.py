"""Timing harness: operation traces, uniformity checks, host timing, Welch test.

The harness treats a recorded opcode sequence as a deterministic surrogate
for an instruction-level timing trace.  A function is constant-time at this
abstraction exactly when its trace is identical for every input.

Protected kernels are traced by running them under the recording context.
Unprotected references are libm calls, so there is no op sequence to record
directly; instead the kind's instrumented model (see activations.SPECS) runs
under the recorder.  The model's arithmetic drives the trace; its numeric
output is discarded and trace_eval returns the reference value, bit-equal to
evaluate(kind, x, protected=False).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from ._ops import CONTROL_FLOW_TAGS, recording
from .activations import SPECS, ActivationKind, evaluate
from .ctselect import as_f32

__all__ = [
    "OpTrace",
    "TimingSample",
    "UniformityReport",
    "WelchResult",
    "NonUniformTraceError",
    "trace_eval",
    "check_uniformity",
    "aligned_lengths",
    "measure_host",
    "welch_t_test",
]

class NonUniformTraceError(AssertionError):
    """A kind that was required to be trace-uniform turned out not to be."""


@dataclass(frozen=True)
class OpTrace:
    """Ordered opcode tags recorded for one evaluation."""

    kind: ActivationKind
    protected: bool
    ops: tuple

    @property
    def length(self) -> int:
        return len(self.ops)

    def control_flow_count(self) -> int:
        return sum(1 for t in self.ops if t in CONTROL_FLOW_TAGS)


@dataclass(frozen=True)
class TimingSample:
    """One raw host-process timing measurement (never aggregated here)."""

    kind: ActivationKind
    protected: bool
    input: float
    elapsed_ns: int
    repetition: int


@dataclass(frozen=True)
class UniformityReport:
    kind: ActivationKind
    protected: bool
    uniform: bool
    canonical_length: int
    deviating_inputs: tuple  # (input, trace_length) pairs


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    dof: float
    threshold: float
    leak: bool


# -- tracing -----------------------------------------------------------------

def trace_eval(kind, x, protected: bool = True):
    """Evaluate one activation under the tracer.

    Returns ``(OpTrace, value)``.  The value is bit-equal to the
    uninstrumented ``evaluate(kind, x, protected)``: protected kernels are
    simply run with recording on, and for unprotected kinds the model only
    shapes the trace while the returned value comes from the reference.
    """
    kind = ActivationKind(kind)
    spec = SPECS[kind]
    v = as_f32(x)
    with recording() as ops:
        if protected:
            value = spec.core(v)
        else:
            with np.errstate(all="ignore"):
                spec.model(v)  # trace only; result discarded
            value = spec.reference(v)
    return OpTrace(kind, protected, tuple(ops)), value


def check_uniformity(kind, grid, protected: bool = True) -> UniformityReport:
    """Trace ``kind`` at every grid point and compare against the first trace.

    A kind is uniform when all traces match opcode-for-opcode.  Inputs whose
    trace differs from the canonical one are reported with their lengths.
    """
    kind = ActivationKind(kind)
    points = list(grid)
    if not points:
        raise ValueError("grid must contain at least one point")
    canonical = None
    deviating: list = []
    for x in points:
        trace, _ = trace_eval(kind, x, protected)
        if canonical is None:
            canonical = trace
        elif trace.ops != canonical.ops:
            deviating.append((float(x), trace.length))
    return UniformityReport(
        kind=kind,
        protected=protected,
        uniform=not deviating,
        canonical_length=canonical.length,
        deviating_inputs=tuple(deviating),
    )


def aligned_lengths(kinds: Iterable, grid, protected: bool = True) -> bool:
    """True when every kind is uniform on the grid with one shared length.

    Raises :class:`NonUniformTraceError` if any individual kind fails its
    own uniformity check, since comparing lengths is then meaningless.
    """
    points = list(grid)
    lengths = set()
    for kind in kinds:
        report = check_uniformity(kind, points, protected)
        if not report.uniform:
            raise NonUniformTraceError(
                f"{report.kind} is not trace-uniform on this grid "
                f"({len(report.deviating_inputs)} deviating inputs)"
            )
        lengths.add(report.canonical_length)
    if not lengths:
        raise ValueError("at least one kind is required")
    return len(lengths) == 1


# -- host timing --------------------------------------------------------------

_sink = 0.0  # results land here so the interpreter cannot drop the calls


def measure_host(kind, grid, repetitions: int, protected: bool = True):
    """Time scalar evaluations with the monotonic nanosecond clock.

    One warm-up pass over the grid runs untimed, then every (input,
    repetition) pair contributes one raw :class:`TimingSample`.  Samples are
    never aggregated here.  Host timing is noisy scheduling-wise; the trace
    checks, not these numbers, carry the constant-time argument.
    """
    global _sink
    kind = ActivationKind(kind)
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    points = [float(x) for x in grid]
    if not points:
        raise ValueError("grid must contain at least one point")
    for x in points:  # warm-up: caches, lazy imports, allocator
        _sink += float(evaluate(kind, x, protected))
    samples = []
    clock = time.perf_counter_ns
    for rep in range(repetitions):
        for x in points:
            begin = clock()
            value = evaluate(kind, x, protected)
            elapsed = clock() - begin
            _sink += float(value)
            samples.append(TimingSample(kind, protected, x, elapsed, rep))
    return samples


# -- leakage statistics --------------------------------------------------------

def welch_t_test(samples_a: Sequence[float], samples_b: Sequence[float],
                 alpha: float = 1e-5) -> WelchResult:
    """Welch's two-sample t-test as a timing-leakage decision.

    ``leak`` is True when |t| exceeds the two-sided Student-t critical value
    at significance ``alpha`` with Welch-Satterthwaite degrees of freedom.
    Degenerate variances are handled explicitly: when both sets are constant
    and equal the statistic is 0 (no leak); constant but different means is
    reported as an unbounded statistic (leak).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both sample sets need at least 2 observations")
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    se_sq = var_a / a.size + var_b / b.size
    if se_sq == 0.0:
        dof = float(a.size + b.size - 2)
        threshold = float(_scipy_stats.t.ppf(1.0 - alpha / 2.0, dof))
        if mean_a == mean_b:
            return WelchResult(0.0, dof, threshold, False)
        return WelchResult(float("inf"), dof, threshold, True)
    t_stat = (mean_a - mean_b) / np.sqrt(se_sq)
    dof = se_sq**2 / (
        (var_a / a.size) ** 2 / (a.size - 1) + (var_b / b.size) ** 2 / (b.size - 1)
    )
    threshold = float(_scipy_stats.t.ppf(1.0 - alpha / 2.0, dof))
    return WelchResult(float(t_stat), float(dof), threshold, bool(abs(t_stat) > threshold))
