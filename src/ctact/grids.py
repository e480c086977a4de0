"""The binary32 input check and the evaluation grids.

The constant-time kernels take binary32 scalars or arrays and do not
validate them.  This module decides the binary32 range once: as_f32, which
every public scalar entry point calls, rounds a scalar to binary32 and
insists it is finite, binary32_grid checks a whole grid with it, and
inclusive_grid holds every grid point to the same overflow bound.  Grid
points are computed as lo + i*step in double precision and rounded to
binary32 once, never by repeated addition, so point i is the same value no
matter how the grid is consumed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["GridSpec", "GRID_DENSE", "GRID_WIDE", "inclusive_grid"]

# Doubles of this magnitude or more round to infinity in binary32:
# 2**128 - 2**103 lies halfway between FLT_MAX and 2**128, and ties round
# to the even neighbour, which is 2**128.
_F32_OVERFLOW = 2.0**128 - 2.0**103

# float() parses these as text, and np.float32 reads some as byte codes.
# numpy's own str_ and bytes_ subclass them, and have __float__ besides.
_TEXT = (str, bytes)
_NOT_REAL = frozenset("cmM")  # numpy kinds: complex, timedelta64, datetime64


def as_f32(x) -> np.float32:
    """Round a numeric scalar to binary32 and insist on a finite result.

    A finite ``np.float32`` comes back as it is, since rebuilding it would
    cost most of the call.  Text, and any object without ``__float__`` or
    ``__index__`` (a bytearray, a memoryview, an ``array.array``: buffers,
    which float() would parse as text while np.float32 reads their
    elements), is a ``TypeError`` before float() sees it, and so is a numpy
    complex, timedelta64 or datetime64 value, whose float() drops the
    imaginary part or reads a tick count.  Other inputs are checked on the
    double before the cast, so one that would overflow is rejected without
    numpy's overflow warning and without an errstate context on every call.
    An int too large even for a double is rejected the same way, as an
    infinity.
    """
    if type(x) is np.float32:
        if abs(float(x)) < _F32_OVERFLOW:  # false for NaN and infinities
            return x
    elif (isinstance(x, _TEXT) or not (hasattr(x, "__float__") or hasattr(x, "__index__"))
          or getattr(getattr(x, "dtype", None), "kind", None) in _NOT_REAL):
        raise TypeError(f"input must be a number, not {type(x).__name__}")
    else:
        try:
            if abs(float(x)) < _F32_OVERFLOW:  # false for NaN
                return np.float32(x)
        except OverflowError:  # float() of an int beyond the double range
            x = math.inf if x > 0 else -math.inf
    with np.errstate(over="ignore"):
        v = np.float32(x)
    raise ValueError(f"input must be finite in binary32, got {v!r}")


def binary32_grid(grid):
    """The points of ``grid`` as given, and all of them as one binary32 array.

    A one-dimensional binary32 array is checked in one pass and is both;
    any other grid is cast point by point with as_f32.  Either way the
    first point as_f32 rejects raises its error, and an empty grid is a
    ValueError.
    """
    if isinstance(grid, np.ndarray) and grid.dtype == np.float32 and grid.ndim == 1:
        # One byte per point, searched as bytes: a numpy reduction here
        # (.all()) raised a verify run's peak RSS by about 0.4 MB.
        finite = np.isfinite(grid).tobytes()
        if 0 in finite:
            as_f32(grid[finite.index(0)])  # raises for the first non-finite point
        points = values = grid
    else:
        points = list(grid)
        values = np.array([as_f32(x) for x in points], dtype=np.float32)
    if not len(values):
        raise ValueError("grid must contain at least one point")
    return points, values


class GridSpec(NamedTuple):
    lo: float
    hi: float
    step: float


# The two canonical accuracy grids: a dense sweep of the working range and a
# coarse sweep far into both saturation regions.
GRID_DENSE = GridSpec(-8.0, 8.0, 0.01)
GRID_WIDE = GridSpec(-500.0, 500.0, 1.0)


def inclusive_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Binary32 grid over [lo, hi] with both endpoints included.

    The span must be an integral number of steps (to within rounding), and
    every point must be finite in binary32.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"interval is empty: [{lo}, {hi}]")
    count = int(round((hi - lo) / step))
    if abs(lo + count * step - hi) > 1e-9 * max(1.0, abs(hi)):
        raise ValueError(f"step {step} does not divide [{lo}, {hi}] evenly")
    points = lo + np.arange(count + 1) * step
    if max(abs(points[0]), abs(points[-1])) >= _F32_OVERFLOW:  # points are monotone
        raise ValueError(f"grid [{lo}, {hi}] has points that overflow binary32")
    return points.astype(np.float32)
