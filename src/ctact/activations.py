"""Constant-time activation functions and their libm-based references.

Five activations share one execution skeleton: clamp the argument into a
bounded interval, run the fixed-shape rational core, then merge saturation
candidates through branchless mask selects.  Every kernel executes the same
operation sequence for every input, and dummy arithmetic pads the shorter
kernels so all five record the same trace length.

Each kernel is written twice, side by side: its program spells it out one
op at a time on values, and its core runs the same sequence as leaf ops on
bit words.  Each pad count is derived at import, as the longest unpadded
program's tag count minus the kernel's own.

Saturation thresholds:

* tanh switches to sign(x) beyond TANH_THRESHOLD, the binary32 constant
  nearest the balanced-error solution (see analysis.solve_tanh_threshold).
* sigmoid saturates to exactly 0.0 / 1.0 beyond SIGMOID_THRESHOLD, which is
  exactly twice TANH_THRESHOLD because sigmoid(x) = 1/2 + 1/2*tanh(x/2).
* gelu and swish use empirical constants (3.6 and 8.0) chosen by sweeping
  the max-abs error; analysis.threshold_sweep reproduces the sweep.

Each threshold t enters its kernel as a Bound, the interval [-t, t] with
the encodings of both ends, built once at import (the sweep builds one
whose ends are a column, one row per candidate), so no call casts a
constant.

The unprotected references compute with double-precision libm and round the
result to binary32 once.  Each kind's reference is defined once, here, as a
binary64 function of a Python float or a float64 array (_tanh64, _logistic
for sigmoid, _gelu64, _swish64 and _relu64) and stored in SPECS.  Only the
libm call (math.tanh, math.exp, math.erf) runs once per array element; the
arithmetic around it runs as numpy float64 ops in the order of the Python
expression, so an array gives the bits of its elements as floats.  The
scalar *_ref functions round the value with np.float32; analysis runs it on
a whole grid and rounds the grid with one astype, the same cast.  relu_ref,
and relu_protected, return +0.0 for every non-positive input, including
-0.0.

A libm call has no op sequence to record, so each reference comes with a
small model of how such a function executes: an argument-reduction
exponential with an input-dependent number of halving and squaring steps
around a fixed polynomial, inside the fixed chains of the kind's formula.
The exp's halving count is all of the trace that depends on the input, so
each model is stated in two parts: the count as a function of x, for a
scalar or a whole grid, and the trace for each count, a tag tuple built on
the count's first use.  _halvings reads the count from the exp argument's
exponent, with one np.frexp for an array, rather than halving in a loop,
and the trace harness checks a grid once per distinct count.  The tags are
those of the one-tag compositions in ``tests/reference_ops.py``, and a test
pins every unprotected trace.

SPECS is the one registry of what each kind is: its constant-time core and
program, its reference, the two parts of the reference's trace model, its
saturation threshold and the candidates a threshold sweep scans.  evaluate,
the trace harness, the accuracy analysis and the CLI all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from typing import Callable

import numpy as np

from ._ops import (
    OP_ADD,
    OP_AND,
    OP_BITCAST,
    OP_BRANCH,
    OP_CMP,
    OP_DIV,
    OP_MUL,
    OP_NEG,
    OP_SELECT,
    _ABS_OPS,
    _ONE_BITS,
    _SIGN_OPS,
    _ZERO_BITS,
    Bound,
    _abs,
    _abs_program,
    _active,
    _bound,
    _casts,
    _saturate,
    _saturate_program,
    _select_above,
    _select_above_program,
    _sign,
    _sign_program,
    _tags,
    f_add,
    f_mul,
)
from .grids import as_f32
from .pade import _rational_program, _rational_tanh

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


def _threshold_bound(threshold) -> Bound:
    """The clamp interval [-threshold, threshold] of a binary32 threshold."""
    return _bound(-threshold, threshold)


# Each kernel's default interval, with its endpoint words, built once.
_TANH_BOUND = _threshold_bound(TANH_THRESHOLD)
_SIGMOID_BOUND = _threshold_bound(SIGMOID_THRESHOLD)
_GELU_BOUND = _threshold_bound(GELU_THRESHOLD)
_SWISH_BOUND = _threshold_bound(SWISH_THRESHOLD)

_HALF = np.float32(0.5)
_ONE = np.float32(1.0)
_ZERO = np.float32(0.0)
_TWO = np.float32(2.0)

# gelu(x) ~ x/2 * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))
GELU_CUBIC_COEFF = np.float32(0.044715)
SQRT_2_OVER_PI = np.float32(math.sqrt(2.0 / math.pi))

_PAD_SCALE = np.float32(1.25)
_PAD_SHIFT = np.float32(0.5)


def _pad_program(v, count: int):
    for i in range(count):
        v = f_mul(v, _PAD_SCALE) if i % 2 == 0 else f_add(v, _PAD_SHIFT)
    return v


def _burn(v, count: int):
    """Dummy arithmetic that pads a kernel to the shared trace length.

    Alternates multiplies and adds on a dead value, starting with a
    multiply; the caller discards the result.  A leaf op: it records the
    tags ``_pad_program`` records for ``count``, with one ``extend``.
    Never a timing loop: the op count is a per-kernel constant, and no
    step looks at the value.
    """
    if (buf := _active()) is not None:
        buf.extend(_PAD_OPS[:count])
    for _ in range(count >> 1):
        v = v * _PAD_SCALE + _PAD_SHIFT
    if count & 1:
        v = v * _PAD_SCALE
    return v


# -- the kernel programs, each ending in ``pad`` ops of dummy arithmetic -----

def _clamp_program(x, bound):
    return _saturate_program(x, x, bound.lo, bound.hi, bound.lo, bound.hi)


def _tanh_program(x, bound=_TANH_BOUND, pad=0):
    approx = _rational_program(_clamp_program(x, bound))
    y = _select_above_program(approx, _sign_program(x), _abs_program(x), bound.hi)
    _pad_program(approx, pad)
    return y


def _sigmoid_program(x, bound=_SIGMOID_BOUND, pad=0):
    gate = f_add(_HALF, f_mul(_HALF, _rational_program(f_mul(_clamp_program(x, bound), _HALF))))
    y = _saturate_program(gate, x, bound.lo, bound.hi, _ZERO, _ONE)
    _pad_program(gate, pad)
    return y


def _gelu_program(x, bound=_GELU_BOUND, pad=0):
    clamped = _clamp_program(x, bound)
    cubed = f_mul(f_mul(clamped, clamped), clamped)
    skewed = f_add(clamped, f_mul(GELU_CUBIC_COEFF, cubed))
    approx = _rational_program(f_mul(SQRT_2_OVER_PI, skewed))
    y = f_mul(f_mul(clamped, _HALF), f_add(_ONE, approx))
    y = _saturate_program(y, x, bound.lo, bound.hi, _ZERO, x)
    _pad_program(approx, pad)
    return y


def _swish_program(x, bound=_SWISH_BOUND, pad=0):
    clamped = _clamp_program(x, bound)
    gate = f_add(_HALF, f_mul(_HALF, _rational_program(f_mul(clamped, _HALF))))
    y = _saturate_program(f_mul(clamped, gate), x, bound.lo, bound.hi, _ZERO, x)
    _pad_program(gate, pad)
    return y


def _relu_program(x, pad=0):
    y = _select_above_program(_ZERO, x, x, _ZERO)
    dummy = _rational_program(_clamp_program(x, _TANH_BOUND))
    y = _select_above_program(y, dummy, _abs_program(dummy), _TWO)
    _pad_program(dummy, pad)
    return y


_UNPADDED_LENGTHS = tuple(len(_tags(program, _ZERO)) for program in (
    _relu_program, _sigmoid_program, _tanh_program, _gelu_program, _swish_program))
_RELU_PAD, _SIGMOID_PAD, _TANH_PAD, _GELU_PAD, _SWISH_PAD = (
    max(_UNPADDED_LENGTHS) - length for length in _UNPADDED_LENGTHS)
# The tags of a pad as long as a whole trace, which no kernel's pad reaches.
# A pad slices it: a tag tuple built per call stays cached in CPython's tuple
# free lists, which raised the peak RSS of a traced grid by about 0.3 MB.
_PAD_OPS = _tags(_pad_program, _ZERO, max(_UNPADDED_LENGTHS))


# -- constant-time kernels (scalar or array, binary32 in and out) -----------
#
# The blocks that work on encodings take and return words, and each kernel
# casts through the one pair _casts picks for its operands: x once, each
# value a later block reads as a word once, and each word a later block
# reads as a value once.  A block records its casts in its own tags, so
# a word handed on is not cast again and the trace does not change.

def _tanh_core(x, bound=_TANH_BOUND):
    bits, value = _casts(x, bound.hi)
    w = bits(x)
    approx = _rational_tanh(value(_saturate(w, x, bound, bound.lo_bits, bound.hi_bits)))
    saturated = _sign(w)
    y = value(_select_above(bits(approx), saturated, value(_abs(w)), bound.hi))
    _burn(approx, _TANH_PAD)
    return y


def _sigmoid_core(x, bound=_SIGMOID_BOUND):
    bits, value = _casts(x, bound.hi)
    clamped = value(_saturate(bits(x), x, bound, bound.lo_bits, bound.hi_bits))
    gate = f_add(_HALF, f_mul(_HALF, _rational_tanh(f_mul(clamped, _HALF))))
    y = value(_saturate(bits(gate), x, bound, _ZERO_BITS, _ONE_BITS))
    _burn(gate, _SIGMOID_PAD)
    return y


def _gelu_core(x, bound=_GELU_BOUND):
    bits, value = _casts(x, bound.hi)
    w = bits(x)
    clamped = value(_saturate(w, x, bound, bound.lo_bits, bound.hi_bits))
    squared = f_mul(clamped, clamped)
    cubed = f_mul(squared, clamped)
    skewed = f_add(clamped, f_mul(GELU_CUBIC_COEFF, cubed))
    approx = _rational_tanh(f_mul(SQRT_2_OVER_PI, skewed))
    y = f_mul(f_mul(clamped, _HALF), f_add(_ONE, approx))
    # No _burn: gelu's program is the longest, so _GELU_PAD is 0, and even an
    # empty _burn call costs gelu about 5%.  test_cores fails if the pad grows.
    return value(_saturate(bits(y), x, bound, _ZERO_BITS, w))


def _swish_core(x, bound=_SWISH_BOUND):
    bits, value = _casts(x, bound.hi)
    w = bits(x)
    clamped = value(_saturate(w, x, bound, bound.lo_bits, bound.hi_bits))
    gate = f_add(_HALF, f_mul(_HALF, _rational_tanh(f_mul(clamped, _HALF))))
    y = value(_saturate(bits(f_mul(clamped, gate)), x, bound, _ZERO_BITS, w))
    _burn(gate, _SWISH_PAD)
    return y


def _relu_core(x):
    bits, value = _casts(x)
    w = bits(x)
    y = _select_above(_ZERO_BITS, w, x, _ZERO)
    # Dummy rational evaluation so relu costs what the smooth kernels cost.
    # The rational stays inside (-1.001, 1.001) on the clamp interval, so
    # the select below never takes the dummy and y passes through untouched;
    # the compare consumes the dummy value, which keeps the work live.
    clamped = value(_saturate(w, x, _TANH_BOUND, _TANH_BOUND.lo_bits, _TANH_BOUND.hi_bits))
    dummy = _rational_tanh(clamped)
    dummy_bits = bits(dummy)
    y = value(_select_above(y, dummy_bits, value(_abs(dummy_bits)), _TWO))
    _burn(dummy, _RELU_PAD)
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
#
# numpy's float64 add, multiply and divide round as Python's float ops do and
# are never fused, so written in the same order, an array's elements get the
# bits their floats get.

def _libm(f, v):
    """The math-module function f at a float, or at each element of a 1-D array."""
    if isinstance(v, np.ndarray):
        return np.fromiter(map(f, v.tolist()), np.float64, v.size)
    return f(v)


def _where(condition, a, b):
    """a where condition holds, else b: np.where on an array, a ternary on a bool."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


def _relu64(v):
    return _where(v > 0, v, 0.0)


def _tanh64(v):
    return _libm(math.tanh, v)


def _logistic(v):
    # e = exp(-|v|) never overflows: the logistic is 1 / (1 + e) for v >= 0
    # and e / (1 + e) for v < 0.
    e = _libm(math.exp, -abs(v))
    return _where(v >= 0.0, 1.0, e) / (1.0 + e)


def _gelu64(v):
    return 0.5 * v * (1.0 + _libm(math.erf, v / math.sqrt(2.0)))


def _swish64(v):
    return v * _logistic(v)


def relu_ref(x) -> np.float32:
    return np.float32(_relu64(float(as_f32(x))))


def sigmoid_ref(x) -> np.float32:
    return np.float32(_logistic(float(as_f32(x))))


def tanh_ref(x) -> np.float32:
    return np.float32(_tanh64(float(as_f32(x))))


def gelu_ref(x) -> np.float32:
    return np.float32(_gelu64(float(as_f32(x))))


def swish_ref(x) -> np.float32:
    return np.float32(_swish64(float(as_f32(x))))


# -- instrumented models of the references (trace shape only) --------------

_INV_SQRT2 = np.float32(1.0 / np.sqrt(2.0))
# An infinite exp argument, which no model computes from a finite input,
# halves as often as FLT_MAX, 129 times, the most a finite one needs,
# rather than forever.  FLT_MAX is written out: np.finfo at import raised
# a scalar_kernels run's peak RSS by about 0.3 MB.
_FLT_MAX = np.float32(2.0**128 - 2.0**104)
# The erf model's binary32 square of |u| halves 129 times from this cap
# (1.125 * 2**127) on, overflowed or not, so capping |u| keeps it finite.
_ERF_ARG_CAP = np.float32(1.5 * 2**63)

# Tag tuples of the models.  A halving records |t| > 1/2 as an abs and a
# compare, the branch it drives and the multiply; the last test, which
# stops the loop, runs into the polynomial.  A squaring is a multiply and
# its loop's branch.
_EXP_HALVE_OPS = (OP_BITCAST, OP_AND, OP_BITCAST, OP_CMP, OP_BRANCH, OP_MUL)
_EXP_POLY_OPS = _EXP_HALVE_OPS[:-1] + (OP_MUL, OP_ADD) * 4
_EXP_SQUARE_OPS = (OP_MUL, OP_BRANCH)
# erf (Abramowitz-Stegun 7.1.26): a = |u|, t = 1/(1 + s*a), the Horner
# chain times t, -(a*a) for the exp; then poly * exp, 1 - that, sign(u) * it.
_ERF_HEAD_OPS = (_ABS_OPS + (OP_MUL, OP_ADD, OP_DIV) + (OP_MUL, OP_ADD) * 4
                 + (OP_MUL, OP_MUL, OP_NEG))
_ERF_TAIL_OPS = (OP_MUL, OP_NEG, OP_ADD) + _SIGN_OPS + (OP_MUL,)


def _halvings(t):
    """How often the exp model halves its binary32 argument t, a scalar or an array.

    The model halves t while |t| > 1/2, at most 129 times.  A halving above
    1/2 is exact in binary32, so the count is read from the exponent of
    |t| = m * 2**e (1/2 <= m < 1), one np.frexp for a whole array: e when
    |t| is exactly 2**(e-1), else e + 1, which reaches the cap, 129, at
    FLT_MAX.  It is 0 for |t| <= 1/2 and NaN, and the cap for +-inf, which
    counts as FLT_MAX.  An int array comes back, 0-d for a scalar.  The
    caps and masks are np.where selects: np.minimum, or arithmetic on the
    bool masks, raised a verify run's peak RSS by 0.2-0.3 MB.
    """
    a = abs(t)
    a = np.where(a > _FLT_MAX, _FLT_MAX, a)
    m, e = np.frexp(a)
    return np.where(a > _HALF, np.where(m == _HALF, e, e + 1), 0)


def _exp_ops(halvings: int) -> tuple:
    # Halve the argument until it is small (data-dependent trip count), run
    # a fixed polynomial, then square once per halving.
    return _EXP_HALVE_OPS * halvings + _EXP_POLY_OPS + _EXP_SQUARE_OPS * halvings


# Each smooth model's whole trace per halving count, built on first use: the
# count is all of the trace that depends on the input.  Tables of all 130
# counts, built at import, would hold about 2.8 MB of tag pointers, 1.1 MB of
# them tanh's, whose capped trace is 2,095 tags.

@cache
def _sigmoid_ops(halvings: int) -> tuple:
    # 1 / (1 + exp(-x))
    return (OP_NEG,) + _exp_ops(halvings) + (OP_ADD, OP_DIV)


@cache
def _tanh_ops(halvings: int) -> tuple:
    # (exp(x) - exp(-x)) / (exp(x) + exp(-x)); |x| = |-x|, so both exps halve alike.
    exp = _exp_ops(halvings)
    return exp + (OP_NEG,) + exp + (OP_NEG, OP_ADD, OP_ADD, OP_DIV)


@cache
def _gelu_ops(halvings: int) -> tuple:
    # x/2 * (1 + erf(x * (1/sqrt(2)))), erf's exp taking -(a*a) for a = |u|.
    return ((OP_MUL,) + _ERF_HEAD_OPS + _exp_ops(halvings) + _ERF_TAIL_OPS
            + (OP_ADD, OP_MUL, OP_MUL))


@cache
def _swish_ops(halvings: int) -> tuple:
    # x * sigmoid(x)
    return _sigmoid_ops(halvings) + (OP_MUL,)


@cache
def _relu_ops(halvings: int) -> tuple:
    # A compare and the predicated move a compiler lowers the ternary to;
    # relu runs no exp, so its one count is 0.
    return (OP_CMP, OP_SELECT)


# Each model's halving count, a function of x, scalar or array.  sigmoid,
# tanh and swish count with _halvings itself: their exps take x or -x,
# which halve alike.

def _exp_of_erf(x):
    # gelu: erf's argument u is the binary32 product x * (1/sqrt(2)), and its
    # exp's argument minus the binary32 square of the capped |u|.
    a = abs(x * _INV_SQRT2)
    a = np.where(a > _ERF_ARG_CAP, _ERF_ARG_CAP, a)
    return _halvings(a * a)


def _no_exp(x):
    # relu: no exp, so a count of 0 for every input.
    return np.zeros_like(x, dtype=int)


# -- the per-kind registry ------------------------------------------------------

@dataclass(frozen=True)
class KindSpec:
    """Everything that defines one activation kind.

    ``core`` is the constant-time kernel on binary32 scalars or arrays; a
    core with a saturation threshold also takes its clamp interval, a
    ``_threshold_bound`` of the threshold, as the ``bound`` keyword, and
    defaults to the bound of ``threshold`` built at import.  ``program``,
    the kernel one op at a time and padded, takes what ``core`` takes.
    ``reference`` is the libm reference in binary64, a function of a Python
    float or of a float64 array, elementwise with the same bits, whose
    result the caller rounds to binary32 once.  Its trace model comes
    in two parts: ``halvings`` maps binary32 x, a scalar or an array, to
    the halving count of the model's exp, an int array (0-d for a scalar)
    that is all of the trace that depends on x, and ``model_ops`` maps a
    count to the reference's whole trace, a tag tuple cached per count.
    ``threshold`` is None for a kind that does not saturate (relu).
    ``sweep`` holds the candidate thresholds analysis.threshold_sweep scans,
    and is empty for kinds whose threshold is solved rather than chosen
    empirically.
    """

    core: Callable
    program: Callable
    reference: Callable
    halvings: Callable
    model_ops: Callable
    threshold: np.float32 | None = None
    sweep: tuple = ()


SPECS = {
    ActivationKind.RELU: KindSpec(_relu_core, partial(_relu_program, pad=_RELU_PAD),
                                  _relu64, _no_exp, _relu_ops),
    ActivationKind.SIGMOID: KindSpec(_sigmoid_core, partial(_sigmoid_program, pad=_SIGMOID_PAD),
                                     _logistic, _halvings, _sigmoid_ops, SIGMOID_THRESHOLD),
    ActivationKind.TANH: KindSpec(_tanh_core, partial(_tanh_program, pad=_TANH_PAD),
                                  _tanh64, _halvings, _tanh_ops, TANH_THRESHOLD),
    ActivationKind.GELU: KindSpec(
        _gelu_core, partial(_gelu_program, pad=_GELU_PAD), _gelu64, _exp_of_erf, _gelu_ops,
        GELU_THRESHOLD,
        sweep=tuple(round(3.0 + 0.1 * i, 1) for i in range(15)),     # 3.0 .. 4.4
    ),
    ActivationKind.SWISH: KindSpec(
        _swish_core, partial(_swish_program, pad=_SWISH_PAD), _swish64, _halvings, _swish_ops,
        SWISH_THRESHOLD,
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
    return np.float32(spec.reference(float(as_f32(x))))
