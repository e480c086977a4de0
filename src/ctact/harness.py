"""Timing harness: operation traces, uniformity checks, host timing, Welch test.

The harness treats a recorded opcode sequence as a deterministic surrogate
for an instruction-level timing trace.  A function is constant-time at this
abstraction exactly when its trace is identical for every input.

Protected kernels are traced by running them under the recording context.
Unprotected references are libm calls, so there is no op sequence to record
directly; instead the kind's instrumented model (see activations.SPECS) runs
under the recorder.  The model records the reference's trace with one
``extend`` and computes only its exp's halving count; trace_eval returns
the reference value, bit-equal to evaluate(kind, x, protected=False).

check_uniformity records the same traces as trace_eval but resolves the
kind and the traced callable once per grid, enters one recording around a
whole grid, and computes no reference value, since it reads only the
opcodes.  Neither needs an errstate: a model's only arithmetic, the
halving count of its exp's binary32 argument, stays finite on every
finite binary32 input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._ops import recording
from .activations import SPECS, ActivationKind, evaluate
from .grids import as_f32

__all__ = [
    "OpTrace",
    "TimingSample",
    "UniformityReport",
    "WelchResult",
    "trace_eval",
    "check_uniformity",
    "measure_host",
    "welch_t_test",
]


@dataclass(frozen=True)
class OpTrace:
    """Ordered opcode tags recorded for one evaluation."""

    kind: ActivationKind
    protected: bool
    ops: tuple

    @property
    def length(self) -> int:
        return len(self.ops)


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
        value = (spec.core if protected else spec.model)(v)
    if not protected:
        value = evaluate(kind, v, protected=False)  # libm: emits no ops
    return OpTrace(kind, protected, tuple(ops)), value


def check_uniformity(kind, grid, protected: bool = True) -> UniformityReport:
    """Trace ``kind`` at every grid point and compare against the first trace.

    A kind is uniform when all traces match opcode-for-opcode.  Inputs whose
    trace differs from the canonical one are reported with their lengths.
    The traces are the ones trace_eval records, but no value is kept: the
    reference of an unprotected kind is never evaluated, and one recording
    covers the whole grid rather than one per point; the buffer is cleared
    after each point.
    """
    kind = ActivationKind(kind)
    points = list(grid)
    if not points:
        raise ValueError("grid must contain at least one point")
    spec = SPECS[kind]
    traced = spec.core if protected else spec.model
    canonical = None
    deviating: list = []
    with recording() as ops:
        for x in points:
            traced(as_f32(x))
            if canonical is None:
                canonical = ops.copy()
            elif ops != canonical:
                deviating.append((float(x), len(ops)))
            ops.clear()
    return UniformityReport(
        kind=kind,
        protected=protected,
        uniform=not deviating,
        canonical_length=len(canonical),
        deviating_inputs=tuple(deviating),
    )


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
    reported as an unbounded statistic (leak).  Samples the test cannot
    judge raise ValueError rather than read as no leak: a NaN or infinite
    observation, or finite ones so large that the variance, and with it the
    statistic or the degrees of freedom, overflows.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    from scipy import stats  # imported on first use: no CLI command needs it
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both sample sets need at least 2 observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    # numpy float64 scalars, not Python floats: an overflow gives inf (and
    # then inf / inf a NaN), which the check below turns into an error.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_a, mean_b = np.mean(a), np.mean(b)
        se_a = np.var(a, ddof=1) / a.size
        se_b = np.var(b, ddof=1) / b.size
        se_sq = se_a + se_b
        if se_sq == 0.0:
            dof = float(a.size + b.size - 2)
            threshold = float(stats.t.ppf(1.0 - alpha / 2.0, dof))
            if mean_a == mean_b:
                return WelchResult(0.0, dof, threshold, False)
            return WelchResult(float("inf"), dof, threshold, True)
        t_stat = (mean_a - mean_b) / np.sqrt(se_sq)
        dof = se_sq**2 / (se_a**2 / (a.size - 1) + se_b**2 / (b.size - 1))
    if not (np.isfinite(t_stat) and np.isfinite(dof)):
        raise ValueError(f"samples overflow the statistic: t={t_stat}, dof={dof}")
    threshold = float(stats.t.ppf(1.0 - alpha / 2.0, dof))
    return WelchResult(float(t_stat), float(dof), threshold, bool(abs(t_stat) > threshold))
