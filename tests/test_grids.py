"""The binary32 input check: as_f32 on scalars, and the grid bound it shares."""

import array
import functools
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import ctact
from ctact.grids import _F32_OVERFLOW, as_f32, inclusive_grid

from reference_ops import FLT_MAX, bits, edge_values

KINDS = ("relu", "sigmoid", "tanh", "gelu", "swish")

# Every public entry point that takes one scalar input, and check_uniformity
# on a one-point list grid, whose points as_f32 checks one by one.
SCALAR_ENTRIES = {
    **{f"{kind}_{variant}": getattr(ctact, f"{kind}_{variant}")
       for kind in KINDS for variant in ("protected", "ref")},
    "evaluate-protected": functools.partial(ctact.evaluate, "relu", protected=True),
    "evaluate-unprotected": functools.partial(ctact.evaluate, "relu", protected=False),
    "rational_tanh": ctact.rational_tanh,
    "trace_eval-protected": functools.partial(ctact.trace_eval, "tanh", protected=True),
    "trace_eval-unprotected": functools.partial(ctact.trace_eval, "tanh", protected=False),
    "check_uniformity-list": lambda x: ctact.check_uniformity("tanh", [x]),
}


def test_as_f32_rejects_out_of_range_and_non_finite():
    # Doubles that overflow binary32 and non-finite values are rejected,
    # without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (float("nan"), float("inf"), -float("inf"), 1e39, -1e39,
                    2.0**128 - 2.0**103):
            with pytest.raises(ValueError, match="finite in binary32"):
                as_f32(bad)
    # The largest double that rounds to FLT_MAX rather than infinity.
    edge = np.nextafter(2.0**128 - 2.0**103, 0.0)
    assert as_f32(edge) == FLT_MAX
    assert bits(as_f32(-0.0)) == 0x80000000
    assert as_f32(0.1) == np.float32(0.1)


def test_as_f32_returns_binary32_scalars_as_they_are():
    for x in edge_values():
        assert as_f32(x) is x
    for value, shown in ((np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")):
        with pytest.raises(ValueError, match=rf"finite in binary32, got np.float32\({shown}\)"):
            as_f32(np.float32(value))


def test_as_f32_takes_numbers_of_every_kind():
    # Python and numpy numbers, a 0-d array and the numeric tower all round
    # to a binary32 scalar.
    for number in (1.5, 3, True, np.float64(1.5), np.int8(3), np.array(1.5),
                   np.array(3, dtype=np.int64), Fraction(3, 2), Decimal("1.5")):
        v = as_f32(number)
        assert type(v) is np.float32 and v == np.float32(number), number


@pytest.mark.parametrize("entry", SCALAR_ENTRIES.values(), ids=SCALAR_ENTRIES.keys())
def test_text_inputs_are_type_errors(entry):
    # float() parses text, and any byte buffer as text, while np.float32
    # reads a buffer as an array of its elements; neither may reach a
    # kernel.  "inf" is refused as text, not as an infinity, and an
    # array.array of doubles is refused before float() fails to parse it.
    # numpy's complex, timedelta64 and datetime64 values have __float__,
    # which drops the imaginary part or reads the tick count; they are
    # refused like a Python complex, before numpy's ComplexWarning.
    for text in ("1.5", "inf", np.str_("1.5"), b"1.5", bytearray(b"1.5"),
                 bytearray(b"-7"), memoryview(b"1.5"), np.bytes_(b"1.5"),
                 array.array("b", b"1.5"), array.array("d", [1.5]),
                 1 + 0j, np.complex64(1 + 2j), np.complex128(1 + 0j),
                 np.array(np.complex64(1 + 2j)), np.timedelta64(3),
                 np.array(np.timedelta64(3)), np.datetime64(3, "ns")):
        with pytest.raises(TypeError, match="must be a number"):
            entry(text)


def test_scalar_and_grid_checks_agree_at_the_overflow_edge():
    edge = np.nextafter(_F32_OVERFLOW, 0.0)
    grid = inclusive_grid(-edge, edge, edge)
    assert [bits(v) for v in grid] == [bits(-FLT_MAX), bits(0.0), bits(FLT_MAX)]
    assert as_f32(edge) == FLT_MAX
    with pytest.raises(ValueError, match="overflow binary32"):
        inclusive_grid(0.0, _F32_OVERFLOW, _F32_OVERFLOW)
    with pytest.raises(ValueError, match="finite in binary32"):
        as_f32(_F32_OVERFLOW)
