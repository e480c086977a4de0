"""Branchless binary32 selection primitives and the binary32 input check.

Data-independent building blocks for the constant-time activation kernels:
mask materialisation from comparison results, bitwise two-way selection,
clamping, and sign extraction.  None of these functions contain conditional
control flow on the value being processed; every call executes the same
opcode sequence for every input (the trace harness verifies this).

The kernels take binary32 scalars or arrays and do not validate them.
as_f32 is the one place where scalar inputs are rounded to binary32 and
checked for finiteness; every public scalar entry point calls it.
"""

from __future__ import annotations

import numpy as np

from ._ops import (
    U32_ABS_MASK,
    U32_SIGN_BIT,
    bool_to_mask,
    f_gt,
    f_lt,
    from_bits,
    to_bits,
    u_and,
    u_not,
    u_or,
)

__all__ = ["as_f32"]

_ONE_BITS = np.float32(1.0).view(np.uint32)  # encoding of +1.0


# Doubles of this magnitude or more round to infinity in binary32:
# 2**128 - 2**103 lies halfway between FLT_MAX and 2**128, and ties round
# to the even neighbour, which is 2**128.
_F32_OVERFLOW = 2.0**128 - 2.0**103


def as_f32(x) -> np.float32:
    """Round a numeric scalar to binary32 and insist on a finite result.

    The magnitude is checked on the double before the cast, so an input
    that would overflow is rejected without numpy's overflow warning and
    without the cost of an errstate context on every call.
    """
    if not abs(float(x)) < _F32_OVERFLOW:  # also false for NaN
        with np.errstate(over="ignore"):
            v = np.float32(x)
        raise ValueError(f"input must be finite in binary32, got {v!r}")
    return np.float32(x)


# -- array-capable kernels (no validation, used by the activation kernels) --

def _gt_mask(x, threshold):
    return bool_to_mask(f_gt(x, threshold))


def _lt_mask(x, threshold):
    return bool_to_mask(f_lt(x, threshold))


def _select(a, b, mask):
    # (bits(a) & ~mask) | (bits(b) & mask): mask all-ones picks b.
    ua = to_bits(a)
    ub = to_bits(b)
    keep_a = u_and(ua, u_not(mask))
    keep_b = u_and(ub, mask)
    return from_bits(u_or(keep_a, keep_b))


def _clamp(x, lo, hi):
    # Lower bound first, then upper; both substitutions are mask selects.
    x = _select(x, lo, _lt_mask(x, lo))
    return _select(x, hi, _gt_mask(x, hi))


def _sign(x):
    # Transplant the sign bit of x onto 1.0: +1.0 or -1.0, zeros included.
    s = u_and(to_bits(x), U32_SIGN_BIT)
    return from_bits(u_or(s, _ONE_BITS))


def _abs(x):
    return from_bits(u_and(to_bits(x), U32_ABS_MASK))
