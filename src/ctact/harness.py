"""Timing harness: operation traces, uniformity checks, host timing, Welch test.

The harness treats a recorded opcode sequence as a deterministic surrogate
for an instruction-level timing trace.  A function is constant-time at this
abstraction exactly when its trace is identical for every input.

Protected kernels are traced by running them under the recording context.
Unprotected references are libm calls, so there is no op sequence to record
directly; instead the kind's trace model (see activations.SPECS) gives the
trace: its exp's halving count, SPECS[kind].halvings(x), picks one cached
tag tuple.  No model runs under the recorder.  trace_eval returns the
reference value, bit-equal to evaluate(kind, x, protected=False).

check_uniformity gives the traces trace_eval gives, but checks and casts
the grid to binary32 once (grids.binary32_grid), resolves the kind once,
and computes no reference value, since it reads only the opcodes.

A protected check runs the kernel once, on a read-only guarded view of
the whole grid, inside one recording.  The guard (_Guarded) raises on
every route by which a value reaches Python control flow, and every array
derived from a guarded one is guarded.  So a run that finishes recorded
no op that depends on any element: its trace holds for every binary32
input of the array body, not only the grid's.  A kernel that branches on
a value makes the guard raise, and the check then runs it at every
point, which names the deviating inputs.  The guard does not close the
routes that strip the subclass on purpose (np.asarray, .base, the buffer
protocol).  The tests check that no function a core reaches takes one
or branches on a value, and hold the guarded report to a per-point loop
over the scalar body.

An unprotected check takes the halving counts of the whole grid in one
numpy pass and compares each distinct count's trace once.  Neither check
sets an errstate: the kernels compute on clamped values, and a model's
only arithmetic, its halving count, stays finite on every finite
binary32 input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._ops import recording
from .activations import SPECS, ActivationKind, evaluate
from .grids import as_f32, binary32_grid

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
    gives the trace while the returned value comes from the reference.
    """
    kind = ActivationKind(kind)
    spec = SPECS[kind]
    v = as_f32(x)
    if protected:
        with recording() as ops:
            value = spec.core(v)
        return OpTrace(kind, protected, tuple(ops)), value
    ops = spec.model_ops(int(spec.halvings(v)))
    return OpTrace(kind, protected, ops), evaluate(kind, v, protected=False)


class _ValueEscape(Exception):
    """A value of a guarded array reached Python control flow."""


# Every route by which a guarded array's values reach Python control flow,
# as one tuple of names, so any other guarded type can close the same ones.
# Each raises _ValueEscape, so a kernel that branches on a value, loops a
# value-dependent number of times or reads a value out cannot finish a
# guarded run.
_ESCAPES = ("__bool__", "__int__", "__float__", "__index__", "__complex__", "__iter__",
            "item", "tolist", "tobytes")


def _plain(a):
    """``a`` with every guarded array in it, nested in lists and tuples, viewed as a plain one."""
    if isinstance(a, _Guarded):
        return np.ndarray.view(a, np.ndarray)
    if type(a) in (list, tuple):
        return type(a)(map(_plain, a))
    return a


def _guard(result):
    """``result`` with every array and number in it as a guarded array, 0-d for a number."""
    if isinstance(result, np.ndarray):
        return np.ndarray.view(result, _Guarded)
    if isinstance(result, (np.generic, int, float, complex)):
        return np.ndarray.view(np.asarray(result), _Guarded)
    if type(result) in (list, tuple):
        return type(result)(map(_guard, result))
    return result


class _Guarded(np.ndarray):
    """An array whose values cannot reach Python control flow.

    Every route in _ESCAPES raises _ValueEscape, in the manner of ctgrind
    (Langley, 2010), which marks secret bytes undefined so that valgrind
    reports each branch on them.  Every array derived from a guarded one is
    guarded too: numpy's ufuncs and array functions run on plain views and
    their results, reductions included, are wrapped again; an index gives a
    guarded 0-d array, never a numpy scalar; and every public method's
    result is wrapped again, so a view keeps the guard and ``argmax`` or
    ``dot``, which skip numpy's dispatch, cannot hand out a scalar.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        kwargs = {k: _plain(v) for k, v in kwargs.items()}
        return _guard(getattr(ufunc, method)(*map(_plain, inputs), **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        return _guard(func(*map(_plain, args), **{k: _plain(v) for k, v in kwargs.items()}))

    def __getitem__(self, key):
        return _guard(super().__getitem__(key))


def _rewrapped(name):
    method = getattr(np.ndarray, name)

    def guarded(self, *args, **kwargs):
        return _guard(method(self, *args, **kwargs))
    return guarded


def _escape(name):
    def escape(self, *args, **kwargs):
        raise _ValueEscape(f"{name} on a guarded array")
    return escape


for _name in dir(np.ndarray):
    if not _name.startswith("_") and callable(getattr(np.ndarray, _name)):
        setattr(_Guarded, _name, _rewrapped(_name))
for _name in _ESCAPES:
    setattr(_Guarded, _name, _escape(_name))


def _guarded(values: np.ndarray) -> np.ndarray:
    """A read-only guarded view of ``values``."""
    guarded = np.ndarray.view(values, _Guarded)
    guarded.flags.writeable = False
    return guarded


def _per_point(core, points, values):
    """Trace ``core`` at every point inside one recording: (canonical trace, deviating)."""
    canonical = None
    deviating = []
    with recording() as ops:
        for i, v in enumerate(values):
            core(v)
            if canonical is None:
                canonical = ops.copy()
            elif ops != canonical:
                deviating.append((float(points[i]), len(ops)))
            ops.clear()
    return canonical, deviating


def check_uniformity(kind, grid, protected: bool = True) -> UniformityReport:
    """Trace ``kind`` at every grid point and compare against the first trace.

    A kind is uniform when all traces match opcode-for-opcode.  Inputs whose
    trace differs from the canonical one are reported, in grid order and as
    given (``float(x)``, not rounded to binary32), with their lengths.  The
    traces are the ones trace_eval gives, but no value is kept.

    A protected kernel runs once, on a read-only guarded view of the whole
    binary32 grid, inside one recording.  If no value reaches Python control
    flow, no recorded op can depend on any element, so the kind is uniform
    with that run's trace length.  If one does, the guard raises, and the
    kernel runs at every point inside one recording, whose buffer is
    cleared after each point.  An unprotected model never runs: one numpy
    pass gives every point's halving count, and each distinct count's trace
    is built, or read from its cache, and compared once.
    """
    kind = ActivationKind(kind)
    points, values = binary32_grid(grid)
    spec = SPECS[kind]
    deviating: list = []
    if protected:
        try:
            with recording() as canonical:
                spec.core(_guarded(values))
        except _ValueEscape:
            canonical, deviating = _per_point(spec.core, points, values)
    else:
        counts = spec.halvings(values).tolist()
        traces = {h: spec.model_ops(h) for h in set(counts)}
        canonical = traces[counts[0]]
        lengths = {h: len(ops) for h, ops in traces.items() if ops != canonical}
        if lengths:
            deviating = [(float(x), lengths[h]) for x, h in zip(points, counts) if h in lengths]
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
