"""Evaluation grids.

Grid points are computed as lo + i*step in double precision and rounded to
binary32 once, never by repeated addition, so point i is the same value no
matter how the grid is consumed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ctselect import _F32_OVERFLOW

__all__ = ["GridSpec", "GRID_DENSE", "GRID_WIDE", "inclusive_grid"]


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
