"""Rational core: coefficients, fixed shape, symmetry, error bound."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctact._ops import OP_BRANCH, recording
from ctact.analysis import _rational_tanh_f64, balancing_errors
from ctact.pade import (
    DENOMINATOR_EXACT,
    DENOMINATOR_F32,
    NUMERATOR_EXACT,
    NUMERATOR_F32,
    _rational_tanh,
    rational_tanh,
)


def test_exact_coefficients():
    assert NUMERATOR_EXACT == (
        Fraction(1), Fraction(5, 39), Fraction(2, 715), Fraction(1, 135135),
    )
    assert DENOMINATOR_EXACT == (
        Fraction(1), Fraction(6, 13), Fraction(10, 429), Fraction(4, 19305),
    )


def test_stored_coefficients_are_nearest_binary32():
    # Each stored value must be at least as close to the exact rational as
    # both of its binary32 neighbours.
    for exact, stored in zip(
        NUMERATOR_EXACT + DENOMINATOR_EXACT,
        NUMERATOR_F32 + DENOMINATOR_F32,
    ):
        err = abs(Fraction(float(stored)) - exact)
        for direction in (np.float32(np.inf), np.float32(-np.inf)):
            neighbour = np.nextafter(stored, direction, dtype=np.float32)
            assert err <= abs(Fraction(float(neighbour)) - exact)


def test_coefficient_validation():
    # The kernel binds four binary32 coefficients per polynomial, and both
    # constant terms are exactly 1.0 (so Q(u) >= 1 for u >= 0).
    for coefficients in (NUMERATOR_F32, DENOMINATOR_F32):
        assert len(coefficients) == 4
        assert all(type(c) is np.float32 for c in coefficients)
        assert coefficients[0] == np.float32(1.0)


def test_value_against_double_tanh():
    # At x=1 the approximant agrees with tanh to well under a binary32 ulp
    # of analytical error; the remaining gap is evaluation rounding.
    assert abs(float(rational_tanh(1.0)) - math.tanh(1.0)) < 1e-6
    assert rational_tanh(0.0) == np.float32(0.0)


def test_exact_rational_is_a_high_order_tanh_match():
    # The exact-coefficient double evaluation should sit far below the
    # binary32 rounding floor near the origin.
    for x in (0.25, 0.5, 1.0):
        assert abs(_rational_tanh_f64(x) - math.tanh(x)) < 1e-10


@given(st.floats(width=32, min_value=-100.0, max_value=100.0))
def test_odd_symmetry_bit_exact(x):
    neg = rational_tanh(-x)
    pos = rational_tanh(x)
    assert int(neg.view(np.uint32)) == int((-pos).view(np.uint32))


def test_signed_zero():
    assert int(rational_tanh(-0.0).view(np.uint32)) == 0x80000000
    assert int(rational_tanh(0.0).view(np.uint32)) == 0x00000000


def test_fixed_shape_fifteen_ops():
    shapes = []
    for x in (0.0, 0.7, -4.9, 4.971):
        with recording() as ops:
            _rational_tanh(np.float32(x))
        shapes.append(tuple(ops))
    assert all(s == shapes[0] for s in shapes)
    assert len(shapes[0]) == 15
    assert OP_BRANCH not in shapes[0]


def test_denominator_stays_above_one():
    # Q(u) >= 1 for u >= 0 means the divide can never trap.
    q64 = [float(c) for c in DENOMINATOR_EXACT]
    for x in np.linspace(0.0, 50.0, 2001):
        u = x * x
        q = ((q64[3] * u + q64[2]) * u + q64[1]) * u + q64[0]
        assert q >= 1.0


def test_error_bounded_by_saturation_gap_on_clamp_interval():
    # On [0, t] with t the stored tanh threshold, the approximation error of
    # the exact-coefficient rational never exceeds the saturation error
    # 1 - tanh(t); that is what makes clamping at t sound.
    t = 4.971
    cap = 1.0 - math.tanh(t)
    worst = max(
        abs(_rational_tanh_f64(x) - math.tanh(x))
        for x in np.arange(0.0, t + 0.0005, 0.001)
    )
    assert worst <= cap


def test_error_grows_monotonically_toward_threshold():
    xs = np.arange(0.0, 4.98, 0.002)
    errs = [abs(_rational_tanh_f64(float(x)) - math.tanh(float(x))) for x in xs]
    diffs = np.diff(errs)
    assert diffs.min() >= -1e-15  # allowance for double rounding noise near 0


def test_balancing_errors_at_stored_threshold():
    approx, saturation = balancing_errors(4.971)
    assert approx <= saturation  # stored constant sits on the safe side
    assert saturation == pytest.approx(1.0 - math.tanh(4.971), rel=1e-12)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        rational_tanh(float("nan"))
    with pytest.raises(ValueError):
        rational_tanh(float("inf"))
