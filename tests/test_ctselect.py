"""Branchless selection primitives: semantics, bit-exactness, trace shape."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctact._ops import (
    OP_AND,
    OP_BITCAST,
    OP_BRANCH,
    OP_CMP,
    OP_MASK,
    OP_NOT,
    OP_OR,
    _bound,
    _clamp,
    _gt_mask,
    _lt_mask,
    _select,
    _sign,
    bool_to_mask,
    from_bits,
    recording,
    to_bits,
    u_not,
)
from ctact.ctselect import as_f32

finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)

ALL_ZEROS = np.uint32(0x00000000)
ALL_ONES = np.uint32(0xFFFFFFFF)


def bits(x) -> int:
    return int(np.float32(x).view(np.uint32))


def f32(x) -> np.float32:
    return np.float32(x)


def word(x) -> np.uint32:
    return np.float32(x).view(np.uint32)


def value(w) -> np.float32:
    return w.view(np.float32)


# The leaf ops work on encodings: these feed them words and read back values.
def select(a, b, mask):
    return value(_select(word(a), word(b), mask))


def clamp(x, lo, hi):
    return value(_clamp(x, word(x), _bound(lo, hi)))


def sign(x):
    return value(_sign(word(x)))


class TestMask32:
    def test_valid_values(self):
        # Comparison masks are 32-bit words, all zeros or all ones.
        for mask in (_gt_mask(f32(2.0), f32(1.0)), _gt_mask(f32(1.0), f32(2.0)),
                     _lt_mask(f32(1.0), f32(2.0)), _lt_mask(f32(2.0), f32(1.0))):
            assert mask.dtype == np.uint32
            assert int(mask) in (0x00000000, 0xFFFFFFFF)

    def test_invert(self):
        assert u_not(ALL_ZEROS) == ALL_ONES
        assert u_not(ALL_ONES) == ALL_ZEROS

    def test_from_bool(self):
        assert bool_to_mask(np.bool_(True)) == ALL_ONES
        assert bool_to_mask(np.bool_(False)) == ALL_ZEROS


class TestSelect:
    def test_picks_by_mask(self):
        a, b = f32(1.5), f32(-2.25)
        assert select(a, b, ALL_ZEROS) == a
        assert select(a, b, ALL_ONES) == b

    def test_signed_zero_is_preserved(self):
        # Selection happens on encodings, so -0.0 survives.
        out = select(f32(0.0), f32(-0.0), ALL_ONES)
        assert bits(out) == 0x80000000
        out = select(f32(-0.0), f32(1.0), ALL_ZEROS)
        assert bits(out) == 0x80000000

    @given(a=finite_f32, b=finite_f32, pick_b=st.booleans())
    def test_matches_ternary(self, a, b, pick_b):
        out = select(f32(a), f32(b), bool_to_mask(np.bool_(pick_b)))
        expect = f32(b) if pick_b else f32(a)
        assert bits(out) == bits(expect)

    def test_trace_is_seven_ops_and_branch_free(self):
        with recording() as ops:
            select(f32(1.0), f32(2.0), np.uint32(0))
        # The exact shape: two casts in, NOT, two ANDs, OR, cast out.
        assert tuple(ops) == (
            OP_BITCAST, OP_BITCAST, OP_NOT, OP_AND, OP_AND, OP_OR, OP_BITCAST,
        )
        assert OP_BRANCH not in ops


class TestComparisonMasks:
    def test_gt_semantics(self):
        assert _gt_mask(f32(2.0), f32(1.0)) == ALL_ONES
        assert _gt_mask(f32(1.0), f32(1.0)) == ALL_ZEROS
        assert _gt_mask(f32(0.5), f32(1.0)) == ALL_ZEROS

    def test_lt_semantics(self):
        assert _lt_mask(f32(-3.0), f32(-1.0)) == ALL_ONES
        assert _lt_mask(f32(-1.0), f32(-1.0)) == ALL_ZEROS

    @given(x=finite_f32, t=finite_f32)
    def test_gt_agrees_with_comparison(self, x, t):
        expect = ALL_ONES if f32(x) > f32(t) else ALL_ZEROS
        assert _gt_mask(f32(x), f32(t)) == expect

    def test_trace_is_cmp_then_mask(self):
        with recording() as ops:
            _gt_mask(f32(1.0), f32(2.0))
        assert tuple(ops) == (OP_CMP, OP_MASK)


class TestClamp:
    def test_interior_passthrough_bit_exact(self):
        tiny = f32(1e-42)  # denormal
        assert bits(clamp(tiny, f32(-1.0), f32(1.0))) == bits(tiny)

    def test_bounds_are_exact_encodings(self):
        lo, hi = f32(-4.971), f32(4.971)
        assert bits(clamp(f32(-100.0), lo, hi)) == bits(lo)
        assert bits(clamp(f32(513.0), lo, hi)) == bits(hi)

    @given(x=finite_f32, a=finite_f32, b=finite_f32)
    def test_matches_branching_definition(self, a, b, x):
        lo, hi = (a, b) if a <= b else (b, a)
        lo32, hi32, x32 = f32(lo), f32(hi), f32(x)
        if x32 < lo32:
            expect = lo32
        elif x32 > hi32:
            expect = hi32
        else:
            expect = x32
        assert bits(clamp(x32, lo32, hi32)) == bits(expect)

    def test_trace_is_eighteen_ops(self):
        with recording() as ops:
            clamp(f32(0.3), f32(-1.0), f32(1.0))
        assert len(ops) == 18
        assert OP_BRANCH not in ops
        with recording() as ops2:
            clamp(f32(700.0), f32(-1.0), f32(1.0))
        assert list(ops) == list(ops2)  # same trace clamped or not


class TestSign:
    def test_sign_values(self):
        assert sign(f32(3.5)) == f32(1.0)
        assert sign(f32(-0.25)) == f32(-1.0)
        assert sign(f32(0.0)) == f32(1.0)
        assert bits(sign(f32(-0.0))) == bits(f32(-1.0))

    @given(x=finite_f32)
    def test_unit_magnitude(self, x):
        assert abs(sign(f32(x))) == f32(1.0)

    def test_trace_is_four_ops(self):
        with recording() as ops:
            sign(f32(-2.0))
        assert len(ops) == 4


class TestBitEncoding:
    def test_round_trip(self):
        for v in (0.0, -0.0, 1.0, -1.0, 0.1, 3.4e38, 1e-42):
            assert bits(from_bits(to_bits(f32(v)))) == bits(v)
        assert int(to_bits(f32(1.0))) == 0x3F800000

    def test_out_of_range_and_non_finite(self):
        # as_f32 is the one binary32 input check: doubles that overflow
        # binary32 and non-finite values are rejected, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (float("nan"), float("inf"), -float("inf"), 1e39, -1e39,
                        2.0**128 - 2.0**103):
                with pytest.raises(ValueError, match="finite in binary32"):
                    as_f32(bad)
        # The largest double that rounds to FLT_MAX rather than infinity.
        edge = np.nextafter(2.0**128 - 2.0**103, 0.0)
        assert as_f32(edge) == np.finfo(np.float32).max
        assert bits(as_f32(-0.0)) == 0x80000000
        assert as_f32(0.1) == f32(0.1)
