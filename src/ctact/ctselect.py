"""Branchless comparison masks and clamping, and the binary32 input check.

Data-independent building blocks for the constant-time activation kernels:
comparison masks (a CMP then a MASK) and clamping, composed from the
comparison ops of ``_ops`` and its branchless select leaf op, ``_select``;
absolute value and sign transfer are ``_ops`` leaf ops too.  None of these
functions contain conditional control flow on the value being processed;
every call executes the same opcode sequence for every input (the trace
harness verifies this).

The kernels take binary32 scalars or arrays and do not validate them.
as_f32 is the one place where scalar inputs are rounded to binary32 and
checked for finiteness; every public scalar entry point calls it.
"""

from __future__ import annotations

import math

import numpy as np

from ._ops import _select, bool_to_mask, f_gt, f_lt

__all__ = ["as_f32"]

# Doubles of this magnitude or more round to infinity in binary32:
# 2**128 - 2**103 lies halfway between FLT_MAX and 2**128, and ties round
# to the even neighbour, which is 2**128.
_F32_OVERFLOW = 2.0**128 - 2.0**103


def as_f32(x) -> np.float32:
    """Round a numeric scalar to binary32 and insist on a finite result.

    The magnitude is checked on the double before the cast, so an input
    that would overflow is rejected without numpy's overflow warning and
    without the cost of an errstate context on every call.  An int too
    large even for a double is rejected the same way, as an infinity.  A
    finite ``np.float32`` passes the same check and comes back as it is,
    since rebuilding it would cost most of the call.
    """
    try:
        if abs(float(x)) < _F32_OVERFLOW:  # false for NaN
            return x if type(x) is np.float32 else np.float32(x)
    except OverflowError:  # float() of an int beyond the double range
        x = math.inf if x > 0 else -math.inf
    with np.errstate(over="ignore"):
        v = np.float32(x)
    raise ValueError(f"input must be finite in binary32, got {v!r}")


# -- array-capable kernels (no validation, used by the activation kernels) --

def _gt_mask(x, threshold):
    return bool_to_mask(f_gt(x, threshold))


def _lt_mask(x, threshold):
    return bool_to_mask(f_lt(x, threshold))


def _clamp(x, lo, hi):
    # Lower bound first, then upper; both substitutions are mask selects.
    x = _select(x, lo, _lt_mask(x, lo))
    return _select(x, hi, _gt_mask(x, hi))
