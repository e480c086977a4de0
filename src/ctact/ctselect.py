"""The binary32 input check.

The constant-time kernels take binary32 scalars or arrays and do not
validate them.  as_f32 is the one place where scalar inputs are rounded to
binary32 and checked for finiteness; every public scalar entry point calls
it.
"""

from __future__ import annotations

import math

import numpy as np

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
