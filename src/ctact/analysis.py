"""Accuracy analysis: error metrics, the balanced threshold, sensitivity sweeps.

All statistics are computed in double precision: binary32 outputs are
widened before differencing, squared errors are reduced with numpy's
pairwise summation over the full grid array (a fixed partition scheme, so
results are bit-reproducible run to run), and the reported MSE/RMSE/max-abs
are doubles.

The libm references are the binary64 functions of activations.SPECS.  Each
runs on the whole grid as one float64 array, with only its libm call made
once per point, and the grid of results is rounded to binary32 once, with
one astype: the same bits as the np.float32 of the scalar *_ref functions.

The tanh saturation threshold is not a tuned constant: it is the point
where the rational core's approximation error meets the saturation error
1 - tanh(t), solved by bisection on the double-precision rational.  The
gelu and swish thresholds are empirical; threshold_sweep reproduces the
max-abs-error curves that justify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activations import SPECS, ActivationKind, _threshold_bound
from .grids import as_f32, inclusive_grid
from .pade import DENOMINATOR_EXACT, NUMERATOR_EXACT

__all__ = [
    "ErrorReport",
    "ThresholdSolution",
    "error_metrics",
    "solve_tanh_threshold",
    "balancing_errors",
    "threshold_sweep",
]

_P64 = tuple(float(c) for c in NUMERATOR_EXACT)
_Q64 = tuple(float(c) for c in DENOMINATOR_EXACT)
# Far more halvings than the binary64 spacing of the bracket allows; a solve
# that runs out has a tolerance below what the residual can reach.
_MAX_BISECTION_STEPS = 200


@dataclass(frozen=True)
class ErrorReport:
    """Accuracy of one protected activation against its libm reference."""

    kind: ActivationKind
    lo: float
    hi: float
    step: float
    n_points: int
    mse: float
    rmse: float
    max_abs: float
    argmax_input: float


@dataclass(frozen=True)
class ThresholdSolution:
    threshold: float
    residual: float
    iterations: int


def _reference_f32(spec, grid: np.ndarray) -> np.ndarray:
    """The libm reference at every point of a binary32 grid, in binary32.

    The binary64 reference takes the grid widened to float64 and makes its
    libm call on each point as a Python float; the arithmetic around that
    call gives the bits it gives on Python floats.  The results are rounded
    to binary32 with one astype: the same C cast, and so the same bits, as
    the scalar *_ref functions' np.float32.  numpy's own vector tanh and exp
    are not the platform libm and may differ in the last bit, so they are
    not used here.
    """
    return spec.reference(grid.astype(np.float64)).astype(np.float32)


def error_metrics(kind, lo: float, hi: float, step: float) -> ErrorReport:
    """MSE, RMSE and max-abs error of a protected kernel over a grid.

    Kinds without a saturation threshold (relu) are rejected: they are exact
    by construction (a bit-equality check, not an approximation error, is
    the meaningful statement about them).
    """
    kind = ActivationKind(kind)
    spec = SPECS[kind]
    if spec.threshold is None:
        raise ValueError(
            f"{kind} carries no approximation error; verify bit-exactness instead"
        )
    grid = inclusive_grid(lo, hi, step)
    protected = spec.core(grid).astype(np.float64)
    reference = _reference_f32(spec, grid).astype(np.float64)
    diff = protected - reference
    mse = float(np.mean(diff * diff))
    abs_diff = np.abs(diff)
    peak = int(np.argmax(abs_diff))  # first occurrence on ties
    return ErrorReport(
        kind=kind,
        lo=float(lo),
        hi=float(hi),
        step=float(step),
        n_points=int(grid.size),
        mse=mse,
        rmse=math.sqrt(mse),
        max_abs=float(abs_diff[peak]),
        argmax_input=float(grid[peak]),
    )


def _rational_tanh_f64(x: float) -> float:
    """The rational core with exact coefficients, evaluated in double."""
    u = x * x
    p = ((_P64[3] * u + _P64[2]) * u + _P64[1]) * u + _P64[0]
    q = ((_Q64[3] * u + _Q64[2]) * u + _Q64[1]) * u + _Q64[0]
    return x * p / q


def balancing_errors(threshold: float) -> tuple:
    """(approximation error, saturation error) at a candidate threshold.

    Approximation error is |tanh(t) - R(t)| for the double-precision
    rational; saturation error is 1 - tanh(t), the cost of clamping to the
    sign beyond t.  The balanced threshold makes the two equal.
    """
    t = float(threshold)
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    approx = abs(math.tanh(t) - _rational_tanh_f64(t))
    saturation = 1.0 - math.tanh(t)
    return approx, saturation


def solve_tanh_threshold(tolerance: float = 1e-9,
                         bracket: tuple = (3.0, 7.0)) -> ThresholdSolution:
    """Bisect for the threshold where the two error sources balance.

    Solves |tanh(t) - R(t)| = 1 - tanh(t) on the bracket; the residual of
    the returned solution is at most ``tolerance``.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must be ordered, got {bracket}")

    def gap(t: float) -> float:
        approx, saturation = balancing_errors(t)
        return approx - saturation

    gap_lo, gap_hi = gap(lo), gap(hi)
    if gap_lo == 0.0:
        return ThresholdSolution(lo, 0.0, 0)
    if gap_hi == 0.0:
        return ThresholdSolution(hi, 0.0, 0)
    if (gap_lo > 0) == (gap_hi > 0):
        raise RuntimeError(
            f"no sign change on bracket [{lo}, {hi}]: "
            f"gap({lo})={gap_lo:.3e}, gap({hi})={gap_hi:.3e}"
        )
    mid, gap_mid = lo, gap_lo
    for iteration in range(1, _MAX_BISECTION_STEPS + 1):
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        if abs(gap_mid) <= tolerance:
            return ThresholdSolution(mid, gap_mid, iteration)
        if (gap_mid > 0) == (gap_hi > 0):
            hi, gap_hi = mid, gap_mid
        else:
            lo, gap_lo = mid, gap_mid
    raise RuntimeError(
        f"bisection did not reach residual {tolerance:g} in "
        f"{_MAX_BISECTION_STEPS} iterations (last residual {gap_mid:.3e})"
    )


def threshold_sweep(kind, candidates: Sequence[float],
                    lo: float, hi: float, step: float) -> list:
    """Max-abs error as a function of the saturation threshold.

    Supported for the empirically thresholded kinds, those whose spec lists
    sweep candidates (gelu, swish); the sigmoid/tanh thresholds come from
    the balancing solve instead.  Returns (threshold, max_abs) pairs over
    the given grid.
    """
    kind = ActivationKind(kind)
    spec = SPECS[kind]
    if not spec.sweep:
        sweepable = " and ".join(k.value for k, other in SPECS.items() if other.sweep)
        raise ValueError(f"threshold sweep applies to {sweepable}, not {kind}")
    grid = inclusive_grid(lo, hi, step)
    thresholds = []
    for candidate in candidates:
        t32 = as_f32(candidate)
        if not t32 > 0:
            raise ValueError(f"candidate threshold must be positive, got {candidate}")
        thresholds.append(t32)
    if not thresholds:
        return []
    # One kernel run for all candidates: a (C, 1) column of bounds against
    # the (N,) grid broadcasts to one (C, N) row per candidate, each the
    # bits of that candidate's own run.
    column = np.array(thresholds, dtype=np.float32)[:, None]
    values = spec.core(grid, bound=_threshold_bound(column)).astype(np.float64)
    reference = _reference_f32(spec, grid).astype(np.float64)
    worst = np.max(np.abs(values - reference), axis=1)
    return list(zip(column.ravel().tolist(), worst.tolist()))
