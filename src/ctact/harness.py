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

A protected check runs the kernel once, on the whole grid as a guarded
array (_Guarded), inside one recording.  The guard is default-deny: it
offers Python's operators, plain elementwise ufunc calls and
``view(dtype)``, wraps every result again, and raises on everything else,
np.asarray, indexing, reductions and truth tests included.  So a run that
finishes recorded no op that depends on any element: its trace holds for
every binary32 input of the array body, not only the grid's.  A kernel
that branches on a value makes the guard raise, and the check then runs
it at every point, which names the deviating inputs.  What the guard
cannot close is a deliberate read of its private slot and the buffer
protocol, which raises TypeError instead.  The tests check that no
function a core reaches names the slot, takes a stripping route or
branches on a value, and hold the guarded report to a per-point loop
over the scalar body.

An unprotected check takes the halving counts of the whole grid in one
numpy pass and compares each distinct count's trace once, into a table of
each count's trace length and whether its trace differs; indexing that
table with the counts gives every point's length and the deviating
positions.  Each check returns its per-point lengths and deviating
positions as int arrays, and the report derives its deviating inputs from
them only when they are read.  Neither check
sets an errstate: the kernels compute on clamped values, and a model's
only arithmetic, its halving count, stays finite on every finite
binary32 input.

measure_host times one scalar evaluate call per grid point and
repetition, in that sequential order, and returns the raw wall times as
one int64 array of shape (repetitions, len(grid)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._ops import recording
from .activations import SPECS, ActivationKind, evaluate
from .grids import as_f32, binary32_grid

__all__ = [
    "OpTrace",
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


@dataclass(frozen=True, eq=False)
class UniformityReport:
    """One kind's trace check over a grid.

    ``trace_lengths`` holds every grid point's trace length and
    ``deviating_at`` the positions of the points whose trace differs from
    the canonical one, the first point's, by its ops and not only by its
    length: two int arrays in grid order.  ``points`` is the grid as given.
    ``uniform`` and ``deviating_inputs``, the ``(float(x), length)`` pair
    of each deviating point, are derived when read, and two reports are
    equal when their kind, mode, canonical length and deviating inputs are.
    """

    kind: ActivationKind
    protected: bool
    canonical_length: int
    trace_lengths: np.ndarray
    deviating_at: np.ndarray
    points: Sequence = field(repr=False)

    @property
    def uniform(self) -> bool:
        return not len(self.deviating_at)

    @property
    def deviating_inputs(self) -> tuple:
        return tuple((float(self.points[i]), int(self.trace_lengths[i]))
                     for i in self.deviating_at.tolist())

    def _key(self):
        return self.kind, self.protected, self.canonical_length, self.deviating_inputs

    def __eq__(self, other):
        return type(other) is UniformityReport and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


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


class _Guarded(np.lib.mixins.NDArrayOperatorsMixin):
    """An array whose values cannot reach Python control flow.

    Default-deny, in the manner of ctgrind (Langley, 2010), which marks
    secret bytes undefined so that valgrind reports each branch on them.
    The values sit in a private slot.  A guarded array offers Python's
    operators, plain elementwise ufunc calls and ``view(dtype)``, and wraps
    every result again.  Everything else raises _ValueEscape: any other
    attribute (``np.asarray`` and numpy's other conversions ask for one),
    a ufunc method or keyword such as ``reduce``, ``at`` or ``out=``, every
    array function, and each protocol named below.  Python offers no hook
    for the buffer protocol, so ``memoryview`` raises TypeError.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        object.__setattr__(self, "_values", values)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            raise _ValueEscape(f"{ufunc.__name__}.{method} {list(kwargs)} on a guarded array")
        result = ufunc(*(a._values if type(a) is _Guarded else a for a in inputs))
        return tuple(map(_Guarded, result)) if ufunc.nout > 1 else _Guarded(result)

    def view(self, dtype):
        return _Guarded(self._values.view(dtype))

    def __getattr__(self, name):
        raise _ValueEscape(f"{name} of a guarded array")

    def _deny(self, *args, **kwargs):
        raise _ValueEscape("a value of a guarded array")

    __array_function__ = __bool__ = __float__ = __int__ = __index__ = __complex__ = _deny
    __iter__ = __len__ = __getitem__ = __setitem__ = __setattr__ = _deny
    __reduce_ex__ = __getstate__ = _deny


def _per_point(core, values):
    """Trace ``core`` at every point inside one recording: the canonical
    trace, every point's trace length and the positions of the deviating
    points."""
    lengths, deviating = [], []
    with recording() as ops:
        for i, v in enumerate(values):
            core(v)
            if not i:
                canonical = ops.copy()
            elif ops != canonical:
                deviating.append(i)
            lengths.append(len(ops))
            ops.clear()
    return canonical, np.array(lengths), np.array(deviating, dtype=np.intp)


def check_uniformity(kind, grid, protected: bool = True) -> UniformityReport:
    """Trace ``kind`` at every grid point and compare against the first trace.

    A kind is uniform when all traces match opcode-for-opcode.  The report
    holds every point's trace length and the positions of the points whose
    trace differs from the canonical one, in ops and not only in length, as
    int arrays in grid order; its ``deviating_inputs`` gives those points as
    given (``float(x)``, not rounded to binary32), with their lengths.  The
    traces are the ones trace_eval gives, but no value is kept.

    A protected kernel runs once, on the whole binary32 grid as a guarded
    array, inside one recording.  If no value reaches Python control
    flow, no recorded op can depend on any element, so the kind is uniform
    with that run's trace length.  If one does, the guard raises, and the
    kernel runs at every point inside one recording, whose buffer is
    cleared after each point.  An unprotected model never runs: one numpy
    pass gives every point's halving count, each distinct count's trace is
    built, or read from its cache, and compared once, and indexing a
    per-count table with the counts gives the lengths and the positions.
    """
    kind = ActivationKind(kind)
    points, values = binary32_grid(grid)
    spec = SPECS[kind]
    if protected:
        try:
            with recording() as canonical:
                spec.core(_Guarded(values))
        except _ValueEscape:
            canonical, lengths, deviating = _per_point(spec.core, values)
        else:
            lengths, deviating = np.full(len(values), len(canonical)), np.empty(0, np.intp)
    else:
        counts = spec.halvings(values)
        traces = {h: spec.model_ops(h) for h in set(counts.tolist())}
        canonical = traces[int(counts[0])]
        # Per distinct count: its trace length, and whether its trace differs.
        table = np.zeros((2, max(traces) + 1), dtype=np.int64)
        for h, ops in traces.items():
            table[:, h] = len(ops), ops != canonical
        lengths, differs = table[:, counts]
        deviating = np.flatnonzero(differs)
    return UniformityReport(kind, protected, len(canonical), lengths, deviating, points)


# -- host timing --------------------------------------------------------------

def measure_host(kind, grid, repetitions: int, protected: bool = True) -> np.ndarray:
    """Time scalar evaluations with the monotonic nanosecond clock.

    One warm-up pass over the grid runs untimed, then each repetition times
    one call per grid point, in grid order.  Returns the raw wall times in
    ns as one int64 array of shape ``(repetitions, len(grid))``: row ``r``,
    column ``i`` is repetition ``r`` at ``grid[i]``.  Nothing is aggregated
    here.  Host timing is noisy scheduling-wise; the trace checks, not
    these numbers, carry the constant-time argument.
    """
    kind = ActivationKind(kind)
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    points = [float(x) for x in grid]
    if not points:
        raise ValueError("grid must contain at least one point")
    for x in points:  # warm-up: caches, lazy imports, allocator
        evaluate(kind, x, protected)
    elapsed = np.empty((repetitions, len(points)), dtype=np.int64)
    clock = time.perf_counter_ns
    for row in elapsed:
        for i, x in enumerate(points):
            begin = clock()
            evaluate(kind, x, protected)
            row[i] = clock() - begin
    return elapsed


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
