"""Constant-time activation functions and their libm-based references.

Five activations share one execution skeleton: clamp the argument into a
bounded interval, run the fixed-shape rational core, then merge saturation
candidates through branchless mask selects.  Every kernel executes the same
operation sequence for every input, and dummy arithmetic pads the shorter
kernels so all five record the same trace length.

Saturation thresholds:

* tanh switches to sign(x) beyond TANH_THRESHOLD, the binary32 constant
  nearest the balanced-error solution (see analysis.solve_tanh_threshold).
* sigmoid saturates to exactly 0.0 / 1.0 beyond SIGMOID_THRESHOLD, which is
  exactly twice TANH_THRESHOLD because sigmoid(x) = 1/2 + 1/2*tanh(x/2).
* gelu and swish use empirical constants (3.6 and 8.0) chosen by sweeping
  the max-abs error; analysis.threshold_sweep reproduces the sweep.

The unprotected references compute with double-precision libm and round the
result to binary32 once.  relu_ref, and relu_protected, return +0.0 for
every non-positive input, including -0.0.

A libm call has no op sequence to record, so each reference comes with a
small instrumented model of how such a function executes (an argument-
reduction exponential with an input-dependent number of halving and
squaring steps, plus a fixed polynomial).  The trace harness runs the model
for its opcodes and discards its value.

SPECS is the one registry of what each kind is: its constant-time core, its
reference, the reference's trace model, its saturation threshold and the
candidates a threshold sweep scans.  evaluate, the trace harness, the
accuracy analysis and the CLI all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._ops import cond_move, f_add, f_div, f_gt, f_mul, f_neg, take_branch
from .ctselect import _abs, _clamp, _gt_mask, _lt_mask, _select, _sign, as_f32
from .pade import _rational_tanh

__all__ = [
    "ActivationKind",
    "KindSpec",
    "SPECS",
    "TANH_THRESHOLD",
    "SIGMOID_THRESHOLD",
    "GELU_THRESHOLD",
    "SWISH_THRESHOLD",
    "relu_protected",
    "sigmoid_protected",
    "tanh_protected",
    "gelu_protected",
    "swish_protected",
    "relu_ref",
    "sigmoid_ref",
    "tanh_ref",
    "gelu_ref",
    "swish_ref",
    "evaluate",
]


class ActivationKind(str, Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    GELU = "gelu"
    SWISH = "swish"

    def __str__(self) -> str:  # plain value in reports and CSV cells
        return self.value


# Saturation thresholds (binary32).  TANH_THRESHOLD is the stored constant
# closest to the balanced-error root 4.9717868...; doubling is exact in
# binary32, giving the sigmoid threshold.
TANH_THRESHOLD = np.float32(4.971)
SIGMOID_THRESHOLD = np.float32(2.0) * TANH_THRESHOLD
GELU_THRESHOLD = np.float32(3.6)
SWISH_THRESHOLD = np.float32(8.0)

_HALF = np.float32(0.5)
_ONE = np.float32(1.0)
_ZERO = np.float32(0.0)
_TWO = np.float32(2.0)

# gelu(x) ~ x/2 * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))
GELU_CUBIC_COEFF = np.float32(0.044715)
SQRT_2_OVER_PI = np.float32(math.sqrt(2.0 / math.pi))

_PAD_SCALE = np.float32(1.25)
_PAD_SHIFT = np.float32(0.5)


def _burn(v, count: int):
    """Dummy arithmetic that pads a kernel to the shared trace length.

    Alternates multiplies and adds on a dead value; the caller discards the
    result.  Never a timing loop: the op count is a per-kernel constant.
    """
    for i in range(count):
        v = f_mul(v, _PAD_SCALE) if (i & 1) == 0 else f_add(v, _PAD_SHIFT)
    return v


# -- constant-time kernels (scalar or array, binary32 in and out) -----------
#
# Trace-length budget: gelu is the longest kernel at 59 ops, so the others
# pad up to 59 (tanh +10, sigmoid +5, swish +4, relu +5).  A harness test
# asserts the five lengths are identical.

def _tanh_core(x, threshold=TANH_THRESHOLD):
    clamped = _clamp(x, -threshold, threshold)
    approx = _rational_tanh(clamped)
    saturated = _sign(x)
    outside = _gt_mask(_abs(x), threshold)
    y = _select(approx, saturated, outside)
    _burn(approx, 10)
    return y


def _sigmoid_core(x, threshold=SIGMOID_THRESHOLD):
    clamped = _clamp(x, -threshold, threshold)
    gate = f_add(_HALF, f_mul(_HALF, _rational_tanh(f_mul(clamped, _HALF))))
    y = _select(gate, _ZERO, _lt_mask(x, -threshold))
    y = _select(y, _ONE, _gt_mask(x, threshold))
    _burn(gate, 5)
    return y


def _gelu_core(x, threshold=GELU_THRESHOLD):
    clamped = _clamp(x, -threshold, threshold)
    squared = f_mul(clamped, clamped)
    cubed = f_mul(squared, clamped)
    skewed = f_add(clamped, f_mul(GELU_CUBIC_COEFF, cubed))
    approx = _rational_tanh(f_mul(SQRT_2_OVER_PI, skewed))
    y = f_mul(f_mul(clamped, _HALF), f_add(_ONE, approx))
    y = _select(y, _ZERO, _lt_mask(x, -threshold))
    y = _select(y, x, _gt_mask(x, threshold))
    return y


def _swish_core(x, threshold=SWISH_THRESHOLD):
    clamped = _clamp(x, -threshold, threshold)
    gate = f_add(_HALF, f_mul(_HALF, _rational_tanh(f_mul(clamped, _HALF))))
    y = f_mul(clamped, gate)
    y = _select(y, _ZERO, _lt_mask(x, -threshold))
    y = _select(y, x, _gt_mask(x, threshold))
    _burn(gate, 4)
    return y


def _relu_core(x):
    y = _select(_ZERO, x, _gt_mask(x, _ZERO))
    # Dummy rational evaluation so relu costs what the smooth kernels cost.
    # The rational stays inside (-1.001, 1.001) on the clamp interval, so
    # the mask below is always all-zeros and y passes through untouched;
    # the compare consumes the dummy value, which keeps the work live.
    dummy = _rational_tanh(_clamp(x, -TANH_THRESHOLD, TANH_THRESHOLD))
    never = _gt_mask(_abs(dummy), _TWO)
    y = _select(y, dummy, never)
    _burn(dummy, 5)
    return y


def relu_protected(x) -> np.float32:
    """max(0, x), computed with the same op budget as the smooth kernels.

    Bit-exact x for x > 0, +0.0 otherwise (also for -0.0).
    """
    return _relu_core(as_f32(x))


def sigmoid_protected(x) -> np.float32:
    """Logistic function via the rational core on x/2.

    Saturates to exactly 0.0 / 1.0 beyond +/-SIGMOID_THRESHOLD.
    """
    return _sigmoid_core(as_f32(x))


def tanh_protected(x) -> np.float32:
    """tanh via the rational core; sign(x) beyond +/-TANH_THRESHOLD.

    Odd bit-exactly: tanh_protected(-x) encodes as the negation of
    tanh_protected(x) for every finite x.
    """
    return _tanh_core(as_f32(x))


def gelu_protected(x) -> np.float32:
    """Gaussian error linear unit via its tanh form on a clamped argument.

    Saturates to exactly 0.0 below -GELU_THRESHOLD and to bit-exact x above
    +GELU_THRESHOLD.  The cubic is computed after clamping, so no
    intermediate can overflow whatever the input magnitude.
    """
    return _gelu_core(as_f32(x))


def swish_protected(x) -> np.float32:
    """x * sigmoid(x) through the shared core; 0.0 / x beyond +/-SWISH_THRESHOLD.

    The gate steepness (beta) is fixed at 1, which is what lets swish reuse
    the sigmoid identity through the shared rational core.
    """
    return _swish_core(as_f32(x))


# -- unprotected references (double-precision libm, rounded once) -----------

def relu_ref(x) -> np.float32:
    v = as_f32(x)
    return v if v > 0 else np.float32(0.0)


def _logistic(v: float) -> float:
    if v >= 0.0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)  # stable form for large negative arguments
    return e / (1.0 + e)


def sigmoid_ref(x) -> np.float32:
    return np.float32(_logistic(float(as_f32(x))))


def tanh_ref(x) -> np.float32:
    return np.float32(math.tanh(float(as_f32(x))))


def gelu_ref(x) -> np.float32:
    v = float(as_f32(x))
    return np.float32(0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))))


def swish_ref(x) -> np.float32:
    v = float(as_f32(x))
    return np.float32(v * _logistic(v))


# -- instrumented models of the references (trace shape only) --------------

_EXP_C = tuple(np.float32(c) for c in (1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0))
_ERF_SLOPE = np.float32(0.3275911)
_ERF_C = tuple(np.float32(c) for c in
               (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))
_INV_SQRT2 = np.float32(1.0 / np.sqrt(2.0))


def _model_exp(t):
    # Halve the argument until it is small (data-dependent trip count),
    # evaluate a fixed polynomial, then square once per halving.
    halvings = 0
    while True:
        reduce_more = f_gt(_abs(t), _HALF)
        take_branch()
        if not reduce_more:
            break
        t = f_mul(t, _HALF)
        halvings += 1
    p = _EXP_C[4]
    for c in (_EXP_C[3], _EXP_C[2], _EXP_C[1], _EXP_C[0]):
        p = f_add(f_mul(p, t), c)
    for _ in range(halvings):
        p = f_mul(p, p)
        take_branch()
    return p


def _model_relu(x):
    # A compiler lowers the short ternary to one predicated move.
    return cond_move(f_gt(x, _ZERO), x, _ZERO)


def _model_sigmoid(x):
    e = _model_exp(f_neg(x))
    return f_div(_ONE, f_add(_ONE, e))


def _model_tanh(x):
    grow = _model_exp(x)
    decay = _model_exp(f_neg(x))
    return f_div(f_add(grow, f_neg(decay)), f_add(grow, decay))


def _model_erf(u):
    a = _abs(u)
    t = f_div(_ONE, f_add(_ONE, f_mul(_ERF_SLOPE, a)))
    poly = _ERF_C[4]
    for c in (_ERF_C[3], _ERF_C[2], _ERF_C[1], _ERF_C[0]):
        poly = f_add(f_mul(poly, t), c)
    poly = f_mul(poly, t)
    tail = f_mul(poly, _model_exp(f_neg(f_mul(a, a))))
    return f_mul(f_add(_ONE, f_neg(tail)), _sign(u))


def _model_gelu(x):
    cdf = f_mul(_HALF, f_add(_ONE, _model_erf(f_mul(x, _INV_SQRT2))))
    return f_mul(x, cdf)


def _model_swish(x):
    return f_mul(x, _model_sigmoid(x))


# -- the per-kind registry ------------------------------------------------------

@dataclass(frozen=True)
class KindSpec:
    """Everything that defines one activation kind.

    ``core`` is the constant-time kernel on binary32 scalars or arrays; a
    core with a saturation threshold also takes it as the ``threshold``
    keyword.  ``reference`` is the libm reference at a scalar and ``model``
    the instrumented model of its execution.  ``threshold`` is None for a
    kind that does not saturate (relu).  ``sweep`` holds the candidate
    thresholds analysis.threshold_sweep scans, and is empty for kinds whose
    threshold is solved rather than chosen empirically.
    """

    core: Callable
    reference: Callable
    model: Callable
    threshold: np.float32 | None = None
    sweep: tuple = ()


SPECS = {
    ActivationKind.RELU: KindSpec(_relu_core, relu_ref, _model_relu),
    ActivationKind.SIGMOID: KindSpec(_sigmoid_core, sigmoid_ref, _model_sigmoid,
                                     SIGMOID_THRESHOLD),
    ActivationKind.TANH: KindSpec(_tanh_core, tanh_ref, _model_tanh, TANH_THRESHOLD),
    ActivationKind.GELU: KindSpec(
        _gelu_core, gelu_ref, _model_gelu, GELU_THRESHOLD,
        sweep=tuple(round(3.0 + 0.1 * i, 1) for i in range(15)),     # 3.0 .. 4.4
    ),
    ActivationKind.SWISH: KindSpec(
        _swish_core, swish_ref, _model_swish, SWISH_THRESHOLD,
        sweep=tuple(round(6.5 + 0.25 * i, 2) for i in range(13)),    # 6.5 .. 9.5
    ),
}


def evaluate(kind: ActivationKind, x, protected: bool = True) -> np.float32:
    """Evaluate one activation at a finite binary32 scalar.

    Dispatches to the constant-time kernel or the libm reference.  The
    dispatch itself is a dict lookup on the kind, never on the value.
    """
    spec = SPECS[ActivationKind(kind)]
    if protected:
        return spec.core(as_f32(x))
    return spec.reference(x)
