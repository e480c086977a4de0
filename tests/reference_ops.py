"""The unprotected models' exp and erf, one op at a time, and test helpers.

Each protected block and kernel is spelled out one op at a time in
``src/``, as its program, beside its fast counterpart; ``TestLeafOps`` in
``test_ops.py`` checks them against each other.  The package's exp and
erf models compute only their exp's argument and record typed tag
tuples, so the compositions below, with the polynomial coefficients, are
what ``TestLeafOps::test_model_blocks`` compares their tags with.

The adapters near the end hand the leaf ops on encodings the words of
their values and read their result words back as values, through views,
which record nothing.  ``edge_values`` is the binary32 edge sample that
the tests of the ops and of the input check share, and
``PROTECTED_TRACE_LENGTH`` the one pin of every protected trace's length.
"""

import operator

import numpy as np

from ctact._ops import (
    OP_BRANCH,
    OP_NEG,
    _abs,
    _abs_program,
    _bound,
    _f_div,
    _f_gt,
    _one_tag,
    _saturate,
    _select_above,
    _sign,
    _sign_program,
    f_add,
    f_mul,
)
from ctact.activations import _MAX_HALVINGS, SPECS

# gelu's 59 ops, which every other protected kernel pads up to.
PROTECTED_TRACE_LENGTH = 59


f_neg = _one_tag(OP_NEG, operator.neg)
# A data-dependent branch decision, as the models' loops take them.
take_branch = _one_tag(OP_BRANCH, lambda: None)


# -- the models' exp and erf, one op at a time --------------------------------

# The coefficients of the exp polynomial and of Abramowitz-Stegun 7.1.26.
_EXP_C = tuple(np.float32(c) for c in (1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0))
_ERF_SLOPE = np.float32(0.3275911)
_ERF_C = tuple(np.float32(c) for c in
               (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))


def model_exp_by_helpers(t):
    halvings = 0
    while True:
        reduce_more = _f_gt(_abs_program(t), np.float32(0.5))
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
    a = _abs_program(u)
    t = _f_div(one, f_add(one, f_mul(_ERF_SLOPE, a)))
    poly = _ERF_C[4]
    for c in (_ERF_C[3], _ERF_C[2], _ERF_C[1], _ERF_C[0]):
        poly = f_add(f_mul(poly, t), c)
    poly = f_mul(poly, t)
    tail = f_mul(poly, model_exp_by_helpers(f_neg(f_mul(a, a))))
    return f_mul(f_add(one, f_neg(tail)), _sign_program(u))


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
