"""The unprotected models one op at a time, and test helpers.

Each protected block and kernel is spelled out one op at a time in
``src/``, as its program, beside its fast counterpart; ``TestLeafOps`` in
``test_ops.py`` checks them against each other.  The package's models
give each trace from their exp's halving count and typed tag tuples, so
the compositions below, with the polynomial coefficients, are what
``TestLeafOps::test_model_blocks`` compares their tags with, and
``halving_counts`` is the loop the count stands for.

The adapters near the end hand the leaf ops on encodings the words of
their values and read their result words back as values, through views,
which record nothing.  ``edge_values`` is the binary32 edge sample that
the tests of the ops and of the input check share, ``random_encodings``
the random one the activation and harness tests share, and
``PROTECTED_TRACE_LENGTH`` the one pin of every protected trace's length.
"""

import operator

import numpy as np

from ctact._ops import (
    OP_BRANCH,
    OP_NEG,
    OP_SELECT,
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
from ctact.activations import _INV_SQRT2, SPECS, ActivationKind

# Halvings that bring FLT_MAX to 1/2 or below: no finite argument needs
# more, and an infinite one stops there rather than halving forever.
MAX_HALVINGS = 129

# gelu's 59 ops, which every other protected kernel pads up to.
PROTECTED_TRACE_LENGTH = 59


f_neg = _one_tag(OP_NEG, operator.neg)
# A data-dependent branch decision, as the models' loops take them.
take_branch = _one_tag(OP_BRANCH, lambda: None)
# A predicated move: a, where the condition holds, else b.
select = _one_tag(OP_SELECT, lambda condition, a, b: a if condition else b)


# -- the models, one op at a time ---------------------------------------------

# The coefficients of the exp polynomial and of Abramowitz-Stegun 7.1.26.
_EXP_C = tuple(np.float32(c) for c in (1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0))
_ERF_SLOPE = np.float32(0.3275911)
_ERF_C = tuple(np.float32(c) for c in
               (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))


def halving_counts(t) -> np.ndarray:
    """How often the exp model halves each binary32 t, by halving: where
    |t| > 1/2, halve and count, at most ``MAX_HALVINGS`` times."""
    a = np.abs(np.asarray(t, dtype=np.float32)).ravel()
    counts = np.full(a.size, MAX_HALVINGS)
    at = np.arange(a.size)  # where each still-halving value came from
    for halvings in range(MAX_HALVINGS):
        more = a > np.float32(0.5)
        counts[at[~more]] = halvings
        a, at = a[more] * np.float32(0.5), at[more]
    return counts


def model_exp_by_helpers(t):
    halvings = 0
    while True:
        reduce_more = _f_gt(_abs_program(t), np.float32(0.5))
        take_branch()
        if not reduce_more or halvings == MAX_HALVINGS:
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


# Each kind's model, one op at a time: SPECS[kind] must give these tags.

def _relu_by_helpers(x):
    # The compare, then the predicated move the ternary lowers to.
    return select(_f_gt(x, np.float32(0.0)), x, np.float32(0.0))


def _sigmoid_by_helpers(x):
    one = np.float32(1.0)
    return _f_div(one, f_add(one, model_exp_by_helpers(f_neg(x))))


def _tanh_by_helpers(x):
    up, down = model_exp_by_helpers(x), model_exp_by_helpers(f_neg(x))
    return _f_div(f_add(up, f_neg(down)), f_add(up, down))


def _gelu_by_helpers(x):
    erf = model_erf_by_helpers(f_mul(x, _INV_SQRT2))
    return f_mul(f_mul(f_add(np.float32(1.0), erf), x), np.float32(0.5))


def _swish_by_helpers(x):
    return f_mul(x, _sigmoid_by_helpers(x))


MODELS_BY_HELPERS = {
    ActivationKind.RELU: _relu_by_helpers,
    ActivationKind.SIGMOID: _sigmoid_by_helpers,
    ActivationKind.TANH: _tanh_by_helpers,
    ActivationKind.GELU: _gelu_by_helpers,
    ActivationKind.SWISH: _swish_by_helpers,
}


def model_trace(kind, x) -> tuple:
    """The package's model trace of ``kind`` at one binary32 x, non-finite
    ones included: the halving count of its exp's argument picks the tags."""
    spec = SPECS[kind]
    return spec.model_ops(int(spec.halvings(x)))


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


def random_encodings() -> np.ndarray:
    """The finite values among 2**20 seeded random binary32 bit patterns."""
    patterns = np.random.default_rng(20261018).integers(0, 2**32, 2**20, dtype=np.uint32)
    x = patterns.view(np.float32)
    return x[np.isfinite(x)]


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
