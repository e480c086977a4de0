"""The single-op reference semantics the leaf ops are checked against.

A leaf op of ``ctact._ops`` (and the rational core and the pads, which
record through its recorder) appends a fixed tag tuple and computes with
plain numpy.  Each is defined here a second time, one operation at a time:
every one-tag op below appends one opcode tag and does one numpy
operation, and each ``*_by_helpers`` function composes them, with the
kernels' own ``f_add`` and ``f_mul``, into the block or kernel body it
spells out.  ``TestLeafOps`` in ``test_ops.py`` requires the tags and
result bits of each leaf op to equal those of its composition.

The exp and erf models of the unprotected references are spelled out here
too, in full, with the polynomial coefficients that the package's models do
not evaluate: those compute only their exp's argument and return None, so
``TestLeafOps`` compares their tags alone with those of
``model_exp_by_helpers`` and ``model_erf_by_helpers``.

The bitcasts here are numpy views, not the struct-based scalar casts of
``_ops``, so a kernel's casts are checked against an independent route.
The adapters near the end hand the leaf ops that work on encodings the
words of their values and read their result words back as values, through
views, which record nothing.  ``edge_values`` is the binary32 edge sample
that the tests of the ops and of the input check share, and
``PROTECTED_TRACE_LENGTH`` the one pin of every protected trace's length.
"""

import numpy as np

from ctact._ops import (
    OP_AND,
    OP_BITCAST,
    OP_BRANCH,
    OP_CMP,
    OP_DIV,
    OP_MASK,
    OP_NEG,
    OP_NOT,
    OP_OR,
    U32_ABS_MASK,
    U32_ALL_ONES,
    U32_SIGN_BIT,
    _abs,
    _active,
    _bound,
    _saturate,
    _select_above,
    _sign,
    f_add,
    f_mul,
)
from ctact.activations import (
    _MAX_HALVINGS,
    GELU_CUBIC_COEFF,
    SPECS,
    SQRT_2_OVER_PI,
    TANH_THRESHOLD,
    ActivationKind,
)
from ctact.pade import DENOMINATOR_F32, NUMERATOR_F32

# gelu's 59 ops, which every other protected kernel pads up to.
PROTECTED_TRACE_LENGTH = 59


# -- one-tag ops --------------------------------------------------------------

def _record(tag):
    if (buf := _active()) is not None:
        buf.append(tag)


def f_gt(a, b):
    _record(OP_CMP)
    return a > b


def f_lt(a, b):
    _record(OP_CMP)
    return a < b


def f_div(a, b):
    _record(OP_DIV)
    return a / b


def f_neg(a):
    _record(OP_NEG)
    return -a


def to_bits(x):
    """Reinterpret a binary32 value, scalar or array, as its 32-bit encoding."""
    _record(OP_BITCAST)
    return x.view(np.uint32)


def from_bits(u):
    """Reinterpret a 32-bit word, scalar or array, as the binary32 value it encodes."""
    _record(OP_BITCAST)
    return u.view(np.float32)


def u_and(a, b):
    _record(OP_AND)
    return a & b


def u_or(a, b):
    _record(OP_OR)
    return a | b


def u_not(a):
    _record(OP_NOT)
    return ~a


def bool_to_mask(flag):
    """Spread a 0-or-1 comparison result into 0x00000000 or 0xFFFFFFFF."""
    _record(OP_MASK)
    return U32_ALL_ONES * flag


def take_branch():
    """Record a data-dependent branch decision, as the models' loops take them."""
    _record(OP_BRANCH)


# -- the leaf blocks, one op at a time ----------------------------------------

def select_by_helpers(a, b, mask):
    ua = to_bits(a)
    ub = to_bits(b)
    keep_a = u_and(ua, u_not(mask))
    keep_b = u_and(ub, mask)
    return from_bits(u_or(keep_a, keep_b))


def abs_by_helpers(x):
    return from_bits(u_and(to_bits(x), U32_ABS_MASK))


def sign_by_helpers(x):
    one = np.float32(1.0).view(np.uint32)
    return from_bits(u_or(u_and(to_bits(x), U32_SIGN_BIT), one))


def gt_mask_by_helpers(x, threshold):
    return bool_to_mask(f_gt(x, threshold))


def lt_mask_by_helpers(x, threshold):
    return bool_to_mask(f_lt(x, threshold))


def select_above_by_helpers(a, b, x, threshold):
    return select_by_helpers(a, b, gt_mask_by_helpers(x, threshold))


def clamp_by_helpers(x, lo, hi):
    x = select_by_helpers(x, lo, lt_mask_by_helpers(x, lo))
    return select_by_helpers(x, hi, gt_mask_by_helpers(x, hi))


def saturate_by_helpers(y, x, lo, hi, low, high):
    y = select_by_helpers(y, low, lt_mask_by_helpers(x, lo))
    return select_by_helpers(y, high, gt_mask_by_helpers(x, hi))


def rational_tanh_by_helpers(x):
    p0, p1, p2, p3 = NUMERATOR_F32
    q0, q1, q2, q3 = DENOMINATOR_F32
    u = f_mul(x, x)
    p = f_add(f_mul(p3, u), p2)
    p = f_add(f_mul(p, u), p1)
    p = f_add(f_mul(p, u), p0)
    q = f_add(f_mul(q3, u), q2)
    q = f_add(f_mul(q, u), q1)
    q = f_add(f_mul(q, u), q0)
    return f_mul(x, f_div(p, q))


def burn_by_helpers(v, count):
    for i in range(count):
        v = f_mul(v, np.float32(1.25)) if i % 2 == 0 else f_add(v, np.float32(0.5))
    return v


# -- the kernel bodies, one op at a time --------------------------------------

def tanh_by_helpers(x, t):
    approx = rational_tanh_by_helpers(clamp_by_helpers(x, -t, t))
    saturated = sign_by_helpers(x)
    outside = gt_mask_by_helpers(abs_by_helpers(x), t)
    y = select_by_helpers(approx, saturated, outside)
    burn_by_helpers(approx, 10)
    return y


def sigmoid_by_helpers(x, t):
    half, one, zero = np.float32(0.5), np.float32(1.0), np.float32(0.0)
    clamped = clamp_by_helpers(x, -t, t)
    gate = f_add(half, f_mul(half, rational_tanh_by_helpers(f_mul(clamped, half))))
    y = saturate_by_helpers(gate, x, -t, t, zero, one)
    burn_by_helpers(gate, 5)
    return y


def gelu_by_helpers(x, t):
    half, one, zero = np.float32(0.5), np.float32(1.0), np.float32(0.0)
    clamped = clamp_by_helpers(x, -t, t)
    cubed = f_mul(f_mul(clamped, clamped), clamped)
    skewed = f_add(clamped, f_mul(GELU_CUBIC_COEFF, cubed))
    approx = rational_tanh_by_helpers(f_mul(SQRT_2_OVER_PI, skewed))
    y = f_mul(f_mul(clamped, half), f_add(one, approx))
    return saturate_by_helpers(y, x, -t, t, zero, x)


def swish_by_helpers(x, t):
    half, zero = np.float32(0.5), np.float32(0.0)
    clamped = clamp_by_helpers(x, -t, t)
    gate = f_add(half, f_mul(half, rational_tanh_by_helpers(f_mul(clamped, half))))
    y = saturate_by_helpers(f_mul(clamped, gate), x, -t, t, zero, x)
    burn_by_helpers(gate, 4)
    return y


def relu_by_helpers(x):
    zero, t = np.float32(0.0), TANH_THRESHOLD
    y = select_by_helpers(zero, x, gt_mask_by_helpers(x, zero))
    dummy = rational_tanh_by_helpers(clamp_by_helpers(x, -t, t))
    never = gt_mask_by_helpers(abs_by_helpers(dummy), np.float32(2.0))
    y = select_by_helpers(y, dummy, never)
    burn_by_helpers(dummy, 5)
    return y


CORE_BY_HELPERS = {
    ActivationKind.RELU: relu_by_helpers,
    ActivationKind.SIGMOID: sigmoid_by_helpers,
    ActivationKind.TANH: tanh_by_helpers,
    ActivationKind.GELU: gelu_by_helpers,
    ActivationKind.SWISH: swish_by_helpers,
}


# -- the models' exp and erf, one op at a time --------------------------------

# The coefficients of the exp polynomial and of Abramowitz-Stegun 7.1.26.
_EXP_C = tuple(np.float32(c) for c in (1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0))
_ERF_SLOPE = np.float32(0.3275911)
_ERF_C = tuple(np.float32(c) for c in
               (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))


def model_exp_by_helpers(t):
    halvings = 0
    while True:
        reduce_more = f_gt(abs_by_helpers(t), np.float32(0.5))
        take_branch()
        if not reduce_more or halvings == _MAX_HALVINGS:
            break
        t = f_mul(t, np.float32(0.5))
        halvings += 1
    p = _EXP_C[4]
    for c in (_EXP_C[3], _EXP_C[2], _EXP_C[1], _EXP_C[0]):
        p = f_add(f_mul(p, t), c)
    for _ in range(halvings):
        p = f_mul(p, p)
        take_branch()
    return p


def model_erf_by_helpers(u):
    one = np.float32(1.0)
    a = abs_by_helpers(u)
    t = f_div(one, f_add(one, f_mul(_ERF_SLOPE, a)))
    poly = _ERF_C[4]
    for c in (_ERF_C[3], _ERF_C[2], _ERF_C[1], _ERF_C[0]):
        poly = f_add(f_mul(poly, t), c)
    poly = f_mul(poly, t)
    tail = f_mul(poly, model_exp_by_helpers(f_neg(f_mul(a, a))))
    return f_mul(f_add(one, f_neg(tail)), sign_by_helpers(u))


# -- word/value adapters ------------------------------------------------------

def bits(x) -> int:
    """The encoding of x, rounded to binary32, as a Python int."""
    return int(np.float32(x).view(np.uint32))


def word(x):
    return x.view(np.uint32)  # a numpy scalar has a view too


def value(w):
    return w.view(np.float32)


def select_above_on_values(a, b, x, threshold):
    return value(_select_above(word(a), word(b), x, threshold))


def clamp_on_values(x, lo, hi):
    """x clamped to [lo, hi] as the kernels clamp: ``_saturate`` with the bound's ends."""
    bound = _bound(lo, hi)
    return value(_saturate(word(x), x, bound, bound.lo_bits, bound.hi_bits))


def saturate_on_values(y, x, lo, hi, low, high):
    return value(_saturate(word(y), x, _bound(lo, hi), word(low), word(high)))


def abs_on_values(x):
    return value(_abs(word(x)))


def sign_on_values(x):
    return value(_sign(word(x)))


# -- edge values --------------------------------------------------------------

FLT_MAX = np.finfo(np.float32).max
SMALLEST_SUBNORMAL = np.float32(1e-45)
LARGEST_SUBNORMAL = np.uint32(0x007FFFFF).view(np.float32)


def edge_values() -> np.ndarray:
    """Signed zeros, subnormal and FLT_MAX extremes, and each threshold with
    its two neighbours, in both signs."""
    values = [0.0, -0.0, SMALLEST_SUBNORMAL, LARGEST_SUBNORMAL, FLT_MAX]
    for spec in SPECS.values():
        if spec.threshold is not None:
            t = spec.threshold
            values += [np.nextafter(t, np.float32(0)), t, np.nextafter(t, np.float32(np.inf))]
    edges = np.array(values, dtype=np.float32)
    return np.concatenate([edges, -edges])
