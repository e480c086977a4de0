"""Shared rational core: a [3/3] Pade approximant of tanh in u = x*x.

All four smooth activations reduce to one fixed-shape rational evaluation

    R(x) = x * P(x*x) / Q(x*x)

with degree-3 polynomials P and Q whose coefficients are exact rationals,
stored as their round-to-nearest binary32 values.  Both polynomials are
evaluated by Horner's rule, so every call costs exactly

    1 multiply (u = x*x) + 3 multiplies + 3 adds per polynomial
    + 1 divide + 1 final multiply

independent of the input.  Q(u) >= 1 for u >= 0 and Q has no real zeros, so
the divide cannot trap on any finite input.

The evaluation is written twice, side by side.  ``_rational_program``
spells it out one operation at a time with ``_ops``'s one-tag ops, and the
tags it records at import are the core's tag tuple.  ``_rational_tanh`` is
the leaf op the kernels call: it records that tuple with one ``extend``
and runs the same Horner arithmetic in the same order on plain numpy
binary32 values, so its bits are the program's too (``TestLeafOps`` in
``tests/test_ops.py``).

R is odd bit-exactly: negating x flips only the sign of the final multiply,
because u = (-x)*(-x) rounds to the identical product.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._ops import _ZERO, _active, _f_div, _tags, f_add, f_mul
from .grids import as_f32

__all__ = [
    "NUMERATOR_EXACT",
    "DENOMINATOR_EXACT",
    "NUMERATOR_F32",
    "DENOMINATOR_F32",
    "rational_tanh",
]

# Exact coefficients, low order first: P(u) = 1 + (5/39)u + ..., likewise Q.
NUMERATOR_EXACT: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(5, 39),
    Fraction(2, 715),
    Fraction(1, 135135),
)
DENOMINATOR_EXACT: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(6, 13),
    Fraction(10, 429),
    Fraction(4, 19305),
)


# The round-to-nearest binary32 values the kernel binds.
NUMERATOR_F32 = tuple(np.float32(float(c)) for c in NUMERATOR_EXACT)
DENOMINATOR_F32 = tuple(np.float32(float(c)) for c in DENOMINATOR_EXACT)

_P0, _P1, _P2, _P3 = NUMERATOR_F32
_Q0, _Q1, _Q2, _Q3 = DENOMINATOR_F32


def _rational_program(x):
    u = f_mul(x, x)
    p = f_add(f_mul(_P3, u), _P2)
    p = f_add(f_mul(p, u), _P1)
    p = f_add(f_mul(p, u), _P0)
    q = f_add(f_mul(_Q3, u), _Q2)
    q = f_add(f_mul(q, u), _Q1)
    q = f_add(f_mul(q, u), _Q0)
    return f_mul(x, _f_div(p, q))


_RATIONAL_OPS = _tags(_rational_program, _ZERO)


def _rational_tanh(x):
    """Fixed-shape kernel; accepts binary32 scalars or arrays."""
    if (buf := _active()) is not None:
        buf.extend(_RATIONAL_OPS)
    u = x * x
    p = ((_P3 * u + _P2) * u + _P1) * u + _P0
    q = ((_Q3 * u + _Q2) * u + _Q1) * u + _Q0
    return x * (p / q)


def rational_tanh(x) -> np.float32:
    """Evaluate the rational core at a finite binary32 scalar.

    Accurate as a tanh approximation on the clamp interval used by the
    activation kernels; callers are expected to clamp first.  The evaluation
    itself is defined for any input whose powers stay finite in binary32.
    """
    return _rational_tanh(as_f32(x))
