"""The instrumented op layer: leaf ops and kernels against their programs,
scalar/array agreement, the selection blocks and bitcasts on single values,
opcode sequences, recorder scope."""

import ast
import hashlib
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ctact
from ctact import _ops
from ctact._ops import (
    OP_AND,
    OP_BITCAST,
    OP_BRANCH,
    OP_CMP,
    OP_MASK,
    OP_NOT,
    OP_OR,
    U32_ALL_ONES,
    _abs,
    _abs_program,
    _f_gt,
    _f_lt,
    _saturate_program,
    _select_above,
    _select_above_program,
    _select_program,
    _sign,
    _sign_program,
    _to_mask,
    _u_not,
    f_add,
    f_mul,
    recording,
)
from ctact.activations import (
    SPECS,
    ActivationKind,
    _burn,
    _pad_program,
    _threshold_bound,
)
from ctact.grids import GRID_DENSE, GRID_WIDE, as_f32, inclusive_grid
from ctact.harness import trace_eval
from ctact.pade import _rational_program, _rational_tanh

from reference_ops import (
    FLT_MAX,
    MAX_HALVINGS,
    MODELS_BY_HELPERS,
    PROTECTED_TRACE_LENGTH,
    abs_on_values,
    bits,
    clamp_on_values,
    edge_values,
    model_trace,
    random_encodings,
    saturate_on_values,
    select_above_on_values,
    sign_on_values,
    value,
    word,
)

U32_ZERO = np.uint32(0)
F32_INF = np.float32(np.inf)
HALF = np.float32(0.5)
finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


def _sample() -> np.ndarray:
    """About 2,000 finite binary32 values, uniform over bit patterns, plus edges."""
    words = np.random.default_rng(2024).integers(0, 2**32, 2100, dtype=np.uint64)
    values = words.astype(np.uint32).view(np.float32)
    return np.concatenate([values[np.isfinite(values)][:2000], edge_values()])


SAMPLE = _sample()


@pytest.fixture(scope="module")
def encodings():
    """The seeded 2**20-encoding sample, built once for the module."""
    return random_encodings()


def gt_mask(x, t):
    """The mask of x > t: ``_select_above`` between the all-zeros and all-ones words."""
    return _select_above(U32_ZERO, U32_ALL_ONES, x, t)


def gt_mask_program(x, t):
    return word(_select_above_program(value(U32_ZERO), value(U32_ALL_ONES), x, t))


def textbook_clamp(x, lo, hi):
    """The clamp one op at a time, its upper compare reading the clamped x: the
    kernels' clamp, ``_saturate`` with the bound's ends, must give its bits."""
    x = _select_program(x, lo, _to_mask(_f_lt(x, lo)))
    return _select_above_program(x, hi, x, hi)


def above_half(mask):
    """The x that ``_select_above(a, b, x, HALF)`` reads as ``mask``: 1.0 where
    the mask is all-ones, 0.0 where it is all-zeros."""
    return np.float32(1.0) * (mask == U32_ALL_ONES)


# The casts the kernels pick: struct on scalars, views on arrays.
SCALAR_BITS, SCALAR_FLOAT = _ops._SCALAR_CASTS
ARRAY_BITS, ARRAY_FLOAT = _ops._ARRAY_CASTS


def _same_bits(scalars, array) -> bool:
    return np.array_equal(np.array(scalars).view(np.uint32), array.view(np.uint32))


class TestScalarMatchesArray:
    """Scalars take other bitcasts than arrays (struct, not views); the bits must agree."""

    def test_to_bits(self):
        scalars = [SCALAR_BITS(x) for x in SAMPLE]
        assert all(type(u) is np.uint32 for u in scalars)
        assert np.array_equal(np.array(scalars, dtype=np.uint32), ARRAY_BITS(SAMPLE))
        assert ARRAY_BITS(SAMPLE).dtype == np.uint32

    def test_from_bits(self):
        words = SAMPLE.view(np.uint32)
        scalars = [SCALAR_FLOAT(u) for u in words]
        assert all(type(v) is np.float32 for v in scalars)
        assert ARRAY_FLOAT(words).dtype == np.float32
        assert _same_bits(scalars, ARRAY_FLOAT(words))
        assert _same_bits(scalars, SAMPLE)

    def test_from_bits_keeps_nan_payloads(self):
        words = np.array([0x7F800001, 0xFFC12345, 0x7FBFFFFF], dtype=np.uint32)
        scalars = [SCALAR_FLOAT(u) for u in words]
        assert [int(v.view(np.uint32)) for v in scalars] == words.tolist()
        assert _same_bits(scalars, ARRAY_FLOAT(words))

    def test_from_bits_on_infinities_zeros_and_signed_payloads(self):
        # +-inf, +-0, a negative signalling NaN and the smallest negative
        # subnormal: the scalar cast must agree with the array view on each.
        words = np.array([0x7F800000, 0xFF800000, 0x00000000, 0x80000000,
                          0xFF800001, 0x80000001], dtype=np.uint32)
        scalars = [SCALAR_FLOAT(u) for u in words]
        assert all(type(v) is np.float32 for v in scalars)
        assert _same_bits(scalars, words.view(np.float32))

    def test_gt_mask(self):
        zero = np.float32(0)
        scalars = [gt_mask(x, zero) for x in SAMPLE]
        assert all(type(m) is np.uint32 for m in scalars)
        assert {int(m) for m in scalars} == {0, 0xFFFFFFFF}
        masks = gt_mask(SAMPLE, zero)
        assert masks.dtype == np.uint32
        assert np.array_equal(np.array(scalars, dtype=np.uint32), masks)

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_core(self, kind):
        core = SPECS[kind].core
        with np.errstate(all="ignore"):
            array = core(SAMPLE)
            scalars = [core(x) for x in SAMPLE]
        assert array.dtype == np.float32
        assert all(type(v) is np.float32 for v in scalars)
        assert _same_bits(scalars, array)


class TestLeafOps:
    """Each leaf op and fast kernel against its program in ``src/``; the
    clamp against a textbook clamp, and the models against ``reference_ops``.

    Tags and result bits must be those of the program, on scalars, arrays
    and mixes of the two, NaN payloads, infinities and zeros included.
    """

    SPECIALS = np.array([0x7F800001, 0xFFC12345, 0x7FBFFFFF, 0x7F800000,
                         0xFF800000, 0x00000000, 0x80000000],
                        dtype=np.uint32).view(np.float32)
    A = np.concatenate([SAMPLE, SPECIALS])
    B = A[::-1].copy()
    C = np.roll(A, 5)
    MASKS = np.where(np.arange(A.size) % 3 == 0, U32_ALL_ONES, U32_ZERO)
    # x, then the ends of an arbitrary bound, on arrays and mixes.  Where an
    # end pair is crossed (lo > hi) it is no clamp interval: test_clamp
    # takes the pairs in order, and test_saturation_tail takes them as
    # they are, with the bound's own ends as the words selected.
    ARBITRARY_BOUNDS = [(A, B, C), (A[0], B, C), (A, B[0], C[0]),
                        (A[-7:], np.float32(-0.0), C[:7])]

    # The kernels' bounds and thresholds, and relu's dummy-mask bound; the
    # sample holds each kernel threshold and its neighbours one ulp away.
    BOUNDS = [np.float32(0.0), np.float32(2.0)] + [
        sign * spec.threshold for spec in SPECS.values() if spec.threshold is not None
        for sign in (np.float32(1.0), np.float32(-1.0))]
    # The first and last threshold_sweep candidate of each swept kind.
    SWEEP_ENDS = [as_f32(c) for spec in SPECS.values() for c in spec.sweep[:1] + spec.sweep[-1:]]

    @staticmethod
    def assert_same(leaf, program, calls):
        # The rational core and the pads overflow and divide inf by inf on
        # the specials; both sides must do so alike.
        with np.errstate(all="ignore"):
            with recording() as ops:
                out = [leaf(*args) for args in calls]
            with recording() as expected_ops:
                expected = [program(*args) for args in calls]
        assert ops == expected_ops
        assert [type(v) for v in out] == [type(v) for v in expected]
        for got, want in zip(out, expected):
            assert np.array_equal(np.asarray(got).view(np.uint32),
                                  np.asarray(want).view(np.uint32))

    def test_select_on_scalars(self):
        for mask in (U32_ZERO, U32_ALL_ONES):
            calls = [(a, b, above_half(mask), HALF) for a, b in zip(self.A, self.B)]
            self.assert_same(select_above_on_values, _select_above_program, calls)
            assert all(type(_select_above(word(a), word(b), x, t)) is np.uint32
                       for a, b, x, t in calls)

    def test_select_on_arrays_and_mixes(self):
        a, b, picks = self.A, self.B, above_half(self.MASKS)
        none, every = above_half(U32_ZERO), above_half(U32_ALL_ONES)
        calls = [(a, b, picks), (a, b, none), (a, b, every),
                 (a[0], b, picks), (a, b[0], every), (a[0], b[0], picks),
                 (a[-7:], np.float32(-0.0), picks[:7])]
        self.assert_same(select_above_on_values, _select_above_program,
                         [call + (HALF,) for call in calls])

    @pytest.mark.parametrize("leaf, on_values, program",
                             [(_abs, abs_on_values, _abs_program),
                              (_sign, sign_on_values, _sign_program)],
                             ids=["abs", "sign"])
    def test_abs_and_sign(self, leaf, on_values, program):
        self.assert_same(on_values, program, [(x,) for x in self.A])
        self.assert_same(on_values, program, [(self.A,), (self.A[:1],)])
        assert all(type(leaf(word(x))) is np.uint32 for x in self.A)

    def test_gt_mask(self):
        # Between the all-zeros and all-ones words, the compare-then-select
        # gives the mask itself: the single-op compare spread into a mask.
        a, b = self.A, self.B
        scalar_calls = [(x, t) for t in self.BOUNDS for x in a] + list(zip(a, b))
        self.assert_same(gt_mask, gt_mask_program, scalar_calls)
        assert all(type(gt_mask(*args)) is np.uint32 for args in scalar_calls)
        assert all(gt_mask(*args) == _to_mask(_f_gt(*args)) for args in scalar_calls)
        array_calls = [(a, t) for t in self.BOUNDS] + [(a, b), (a[0], b), (a[-7:], b[0])]
        self.assert_same(gt_mask, gt_mask_program, array_calls)
        assert all(gt_mask(*args).dtype == np.uint32 for args in array_calls)
        assert all(np.array_equal(gt_mask(*args), _to_mask(_f_gt(*args)))
                   for args in array_calls)

    def test_clamp(self):
        a, b, c = self.A, self.B, self.C
        bounds = [(-t, t) for t in self.BOUNDS if t > 0]

        def in_order(lo, hi):
            # Ends swapped where crossed; a bound with none crossed stays as it is.
            crossed = lo > hi
            if not np.any(crossed):
                return lo, hi
            return np.where(crossed, hi, lo), np.where(crossed, lo, hi)

        # Kernel bounds, then arbitrary ordered ones, infinite and NaN ends
        # included; then each bound, and each of b, below +inf, so the
        # lower-bound select alone sees every compare of a with them.
        scalar_calls = ([(x, lo, hi) for lo, hi in bounds for x in a]
                        + [(x, lo, hi) for x, lo, hi in zip(a, b, c) if not lo > hi]
                        + [(x, t, F32_INF) for t in self.BOUNDS for x in a]
                        + [(x, t, F32_INF) for x, t in zip(a, b)])
        self.assert_same(clamp_on_values, textbook_clamp, scalar_calls)
        array_calls = [(a, lo, hi) for lo, hi in bounds] + [
            (x, *in_order(lo, hi)) for x, lo, hi in self.ARBITRARY_BOUNDS] + [
            (a, t, F32_INF) for t in self.BOUNDS] + [
            (a, b, F32_INF), (a[0], b, F32_INF), (a[-7:], b[0], F32_INF)]
        self.assert_same(clamp_on_values, textbook_clamp, array_calls)

    def test_saturation_tail(self):
        # The kernels' (low, high) pairs are (0, 1) and (0, x); arbitrary
        # ones, and crossed, infinite and NaN bounds, come from the sample.
        # Then x = a below each bound, and below each of b, with +inf above;
        # then test_clamp's crossed bounds, with their own ends selected.
        a, b, c = self.A, self.B, self.C
        d = np.roll(a, 11)
        zero, one = np.float32(0.0), np.float32(1.0)
        bounds = [(-t, t) for t in self.BOUNDS if t > 0]
        scalar_calls = ([(y, x, lo, hi, zero, one) for lo, hi in bounds for y, x in zip(a, b)]
                        + [(y, x, lo, hi, zero, x) for lo, hi in bounds for y, x in zip(a, b)]
                        + list(zip(a, b, c, d, np.roll(a, 3), np.roll(a, 7)))
                        + [(y, x, t, F32_INF, zero, one) for t in self.BOUNDS
                           for y, x in zip(b, a)]
                        + [(y, x, t, F32_INF, low, one) for y, x, t, low in zip(c, a, b, d)]
                        + [(x, x, lo, hi, lo, hi) for x, lo, hi in zip(a, b, c) if lo > hi])
        self.assert_same(saturate_on_values, _saturate_program, scalar_calls)
        array_calls = [(a, b, lo, hi, zero, b) for lo, hi in bounds] + [
            (a, b, c, d, zero, one), (a[0], b, c[0], d[0], zero, b), (a, b[0], c, d[0], a, one),
            (a[-7:], b[-7:], np.float32(-0.0), d[:7], zero, b[-7:])] + [
            (b, a, t, F32_INF, zero, one) for t in self.BOUNDS] + [
            (c, a, b, F32_INF, d, one), (c[0], a[0], b, F32_INF, d, one),
            (c[-7:], a[-7:], b[0], F32_INF, d[-7:], one)] + [
            (x, x, lo, hi, lo, hi) for x, lo, hi in self.ARBITRARY_BOUNDS if np.any(lo > hi)]
        self.assert_same(saturate_on_values, _saturate_program, array_calls)

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_cores(self, kind, encodings):
        # Each kernel, its words handed between leaf ops, against its
        # padded program: at its own bound, at the sweep candidates' ends,
        # and at a negative (inverted), infinite and NaN threshold; on
        # scalars, arrays, a scalar against an array of thresholds, and
        # arrays of both.  At its own bound it also runs on the 2**20
        # random encodings: all of them as one array, 4096 as scalars.
        spec = SPECS[kind]
        a = self.A
        calls = ([(x,) for x in a] + [(a,), (a[:1],)]
                 + [(x,) for x in encodings[:4096]] + [(encodings,)])
        if spec.threshold is None:
            self.assert_same(spec.core, spec.program, calls + [(a[-7:],)])
            return
        self.assert_same(spec.core, spec.program, calls)

        def at(kernel):
            return lambda x, t: kernel(x, bound=_threshold_bound(t))

        thresholds = self.SWEEP_ENDS + [-spec.threshold, np.float32(np.inf),
                                        np.float32(-np.inf), np.float32(np.nan)]
        many = np.array(thresholds, dtype=np.float32)
        calls = ([(x, t) for t in thresholds for x in a[::5]]
                 + [(a, t) for t in thresholds]
                 + [(x, many) for x in a[:: 97]]
                 + [(a[:many.size], many), (a[-7:], many[:1])])
        self.assert_same(at(spec.core), at(spec.program), calls)
        with np.errstate(all="ignore"):
            assert all(type(at(spec.core)(x, t)) is np.float32
                       for t in thresholds for x in a[::50])

    def test_rational_core(self):
        self.assert_same(_rational_tanh, _rational_program, [(x,) for x in self.A])
        self.assert_same(_rational_tanh, _rational_program, [(self.A,), (self.A[:1],)])
        with np.errstate(all="ignore"):
            assert all(type(_rational_tanh(x)) is np.float32 for x in self.A)

    def test_pads(self):
        counts = range(12)
        self.assert_same(_burn, _pad_program, [(x, n) for n in counts for x in self.A[::9]])
        self.assert_same(_burn, _pad_program, [(self.A, n) for n in counts])
        with np.errstate(all="ignore"):
            assert all(type(_burn(x, 5)) is np.float32 for x in self.A)

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_model_blocks(self, kind):
        # Each model gives its whole trace as one tag tuple, picked by its
        # exp argument's halving count; its composition runs the exp's
        # halving loop op by op.  The compositions branch on values, so they
        # take scalars only, and only their tags are compared.  The count of
        # the whole array must be each scalar's.  +-inf and +-FLT_MAX, all
        # in A, run each exp to the halving cap (gelu's erf through its
        # capped square, the composition's through an inf); NaN halves no time.
        def tags(f, x):
            with recording() as ops:
                f(x)
            return ops

        spec, composed = SPECS[kind], MODELS_BY_HELPERS[kind]
        with np.errstate(all="ignore"):
            for x in self.A:
                assert list(model_trace(kind, x)) == tags(composed, x), x
            counts = spec.halvings(self.A)
            assert counts.tolist() == [int(spec.halvings(x)) for x in self.A]
            exps = {ActivationKind.RELU: 0, ActivationKind.TANH: 2}.get(kind, 1)
            for x in (F32_INF, -F32_INF, FLT_MAX, -FLT_MAX):
                assert model_trace(kind, x).count("BRANCH") == exps * (2 * MAX_HALVINGS + 1)


class TestMask32:
    def test_valid_values(self):
        # Comparison masks are 32-bit words, all zeros or all ones.  The
        # below-bound mask is read through the lower-bound select of a clamp
        # with no upper bound, where a partial mask would blend the encodings
        # of 1.0 and 2.0.
        one, two = np.float32(1.0), np.float32(2.0)
        for mask in (gt_mask(two, one), gt_mask(one, two)):
            assert mask.dtype == np.uint32
            assert int(mask) in (0x00000000, 0xFFFFFFFF)
        assert bits(clamp_on_values(one, two, F32_INF)) == bits(2.0)
        assert bits(clamp_on_values(two, one, F32_INF)) == bits(2.0)

    def test_invert(self):
        assert _u_not(U32_ZERO) == U32_ALL_ONES
        assert _u_not(U32_ALL_ONES) == U32_ZERO

    def test_from_bool(self):
        assert _to_mask(np.bool_(True)) == U32_ALL_ONES
        assert _to_mask(np.bool_(False)) == U32_ZERO


class TestSelect:
    def test_picks_by_mask(self):
        a, b = np.float32(1.5), np.float32(-2.25)
        assert select_above_on_values(a, b, above_half(U32_ZERO), HALF) == a
        assert select_above_on_values(a, b, above_half(U32_ALL_ONES), HALF) == b

    def test_signed_zero_is_preserved(self):
        # Selection happens on encodings, so -0.0 survives.
        out = select_above_on_values(np.float32(0.0), np.float32(-0.0),
                                     above_half(U32_ALL_ONES), HALF)
        assert bits(out) == 0x80000000
        out = select_above_on_values(np.float32(-0.0), np.float32(1.0),
                                     above_half(U32_ZERO), HALF)
        assert bits(out) == 0x80000000

    @given(a=finite_f32, b=finite_f32, pick_b=st.booleans())
    def test_matches_ternary(self, a, b, pick_b):
        out = select_above_on_values(np.float32(a), np.float32(b), np.float32(pick_b), HALF)
        expect = np.float32(b) if pick_b else np.float32(a)
        assert bits(out) == bits(expect)

    def test_trace_is_nine_ops_and_branch_free(self):
        with recording() as ops:
            select_above_on_values(np.float32(1.0), np.float32(2.0),
                                   np.float32(0.0), HALF)
        # The exact shape: the compare spread into a mask, then two casts
        # in, NOT, two ANDs, OR, cast out.
        assert tuple(ops) == (
            OP_CMP, OP_MASK,
            OP_BITCAST, OP_BITCAST, OP_NOT, OP_AND, OP_AND, OP_OR, OP_BITCAST,
        )
        assert OP_BRANCH not in ops


class TestComparisonMasks:
    def test_gt_semantics(self):
        assert gt_mask(np.float32(2.0), np.float32(1.0)) == U32_ALL_ONES
        assert gt_mask(np.float32(1.0), np.float32(1.0)) == U32_ZERO
        assert gt_mask(np.float32(0.5), np.float32(1.0)) == U32_ZERO

    def test_lt_semantics(self):
        # Through the lower-bound select of a clamp with no upper bound: the
        # bound is taken strictly below it, so an equal -0.0 keeps its sign.
        assert bits(clamp_on_values(np.float32(-3.0), np.float32(-1.0), F32_INF)) == bits(-1.0)
        assert bits(clamp_on_values(np.float32(-1.0), np.float32(-1.0), F32_INF)) == bits(-1.0)
        assert bits(clamp_on_values(np.float32(-0.0), np.float32(0.0), F32_INF)) == 0x80000000

    @given(x=finite_f32, t=finite_f32)
    def test_gt_agrees_with_comparison(self, x, t):
        expect = U32_ALL_ONES if np.float32(x) > np.float32(t) else U32_ZERO
        assert gt_mask(np.float32(x), np.float32(t)) == expect

    def test_trace_is_cmp_then_mask(self):
        # The compare and its mask come first, before the select they drive.
        with recording() as ops:
            gt_mask(np.float32(1.0), np.float32(2.0))
        assert tuple(ops[:2]) == (OP_CMP, OP_MASK)


class TestClamp:
    def test_interior_passthrough_bit_exact(self):
        tiny = np.float32(1e-42)  # denormal
        assert bits(clamp_on_values(tiny, np.float32(-1.0), np.float32(1.0))) == bits(tiny)

    def test_bounds_are_exact_encodings(self):
        lo, hi = np.float32(-4.971), np.float32(4.971)
        assert bits(clamp_on_values(np.float32(-100.0), lo, hi)) == bits(lo)
        assert bits(clamp_on_values(np.float32(513.0), lo, hi)) == bits(hi)

    @given(x=finite_f32, a=finite_f32, b=finite_f32)
    def test_matches_branching_definition(self, a, b, x):
        lo, hi = (a, b) if a <= b else (b, a)
        lo32, hi32, x32 = np.float32(lo), np.float32(hi), np.float32(x)
        if x32 < lo32:
            expect = lo32
        elif x32 > hi32:
            expect = hi32
        else:
            expect = x32
        assert bits(clamp_on_values(x32, lo32, hi32)) == bits(expect)

    def test_trace_is_eighteen_ops(self):
        with recording() as ops:
            clamp_on_values(np.float32(0.3), np.float32(-1.0), np.float32(1.0))
        assert len(ops) == 18
        assert OP_BRANCH not in ops
        with recording() as ops2:
            clamp_on_values(np.float32(700.0), np.float32(-1.0), np.float32(1.0))
        assert list(ops) == list(ops2)  # same trace clamped or not


class TestSign:
    def test_sign_values(self):
        assert sign_on_values(np.float32(3.5)) == np.float32(1.0)
        assert sign_on_values(np.float32(-0.25)) == np.float32(-1.0)
        assert sign_on_values(np.float32(0.0)) == np.float32(1.0)
        assert bits(sign_on_values(np.float32(-0.0))) == bits(np.float32(-1.0))

    @given(x=finite_f32)
    def test_unit_magnitude(self, x):
        assert abs(sign_on_values(np.float32(x))) == np.float32(1.0)

    def test_trace_is_four_ops(self):
        with recording() as ops:
            sign_on_values(np.float32(-2.0))
        assert len(ops) == 4


class TestBitEncoding:
    def test_round_trip(self):
        # The kernels' casts: struct on scalars, views on arrays.
        for to_word, to_value in (_ops._SCALAR_CASTS, _ops._ARRAY_CASTS):
            for v in (0.0, -0.0, 1.0, -1.0, 0.1, 3.4e38, 1e-42):
                assert bits(to_value(to_word(np.float32(v)))) == bits(v)
            assert int(to_word(np.float32(1.0))) == 0x3F800000



def _digest(ops) -> str:
    return hashlib.sha256("|".join(ops).encode()).hexdigest()


# sha256 of "|".join(ops) for each kind's trace, recorded before the op layer
# read the recorder inline.  Protected traces are the same at every input.
PROTECTED_DIGESTS = {
    "relu": "e773c519636bec5ff7aafa5d513d3a091f440833d9aa05ada25fa8bbc90b4f4c",
    "sigmoid": "4bae72c5fce1715cb779bbae9b04c2d5cbdf146216fe9d5ab10332e7d2dd6bfa",
    "tanh": "2a99f27c41907054402d556d62edbbe5278bcb7f30247c54b0c0648c69d2b636",
    "gelu": "e17496f0dbc6b1bae29b951c2717ce274effe416346dce9dcb613344dd7590e5",
    "swish": "b8d9be8a5d61330314556e90c774c7c99f7f050048206cc6e3f10adbba6b8a51",
}

# (length, digest) of the unprotected model's trace at 0.0, 1e-30, 3.0, -500.0.
_RELU_MODEL = (2, "0ad045f250b5aadadce6c7c4ec0e9ea2b99e3c50f979517b3ff743d1ba7287fa")
_SIGMOID_SMALL = (16, "510d04acd2fd94387ec2b096587195715ef1dab315fe008bbcff3e2b84e87b64")
_TANH_SMALL = (31, "e651740c76f792acfbdf2865165b7f7faf6f44a9d813cbecd971a500cd5c7d5c")
_GELU_SMALL = (42, "382b53f6a31ec6444b221dd7821585fb720c789d9240a2df06d09277c6c7845b")
_SWISH_SMALL = (17, "4443a6485a6d3aeeeabbfece3e97af27cf48d8bd86e2e407b653d9ad4eca5e9c")
UNPROTECTED_INPUTS = (0.0, 1e-30, 3.0, -500.0)
UNPROTECTED_DIGESTS = {
    "relu": (_RELU_MODEL,) * 4,
    "sigmoid": (
        _SIGMOID_SMALL, _SIGMOID_SMALL,
        (40, "0ea3fa643322a5bd3bf115c1a98755be33c99a7c92eff9b32ffe600a1fb52d89"),
        (96, "e557e3051c9595633cfb596ad82e34629ea7e2e98a8669bd94326762d0af6394"),
    ),
    "tanh": (
        _TANH_SMALL, _TANH_SMALL,
        (79, "30f04ebc24932b2942baf4b661da9d415db457fff904e10187d513c2a4431407"),
        (191, "837313d71d5cbca51f5c918ef6a7416f502b9a63ab790fc065b2268c4e0fcc60"),
    ),
    "gelu": (
        _GELU_SMALL, _GELU_SMALL,
        (74, "bea6b044d3cea6da3034111934225a5ee6fa920466a8bc35738006a2da96c6fb"),
        (186, "535c2814b366b78aefd3a6eea2c02bd3ebf6f0e84e85724b40193a130b8c9f33"),
    ),
    "swish": (
        _SWISH_SMALL, _SWISH_SMALL,
        (41, "70b56a0591ae3e45c86612206d1876ee19fc8af290afb9e928e3ae057f099df2"),
        (97, "fca55542a045b7912f80f962a8daf76fd0db5c71e5cfb08317b41458656d3cae"),
    ),
}


class TestGoldenTraces:
    @pytest.mark.parametrize("kind", sorted(PROTECTED_DIGESTS))
    def test_protected_opcode_sequence(self, kind):
        for x in (0.0, 1e-30, 3.0, -500.0):
            trace, _ = trace_eval(kind, x, protected=True)
            assert trace.length == PROTECTED_TRACE_LENGTH
            assert _digest(trace.ops) == PROTECTED_DIGESTS[kind]

    @pytest.mark.parametrize("kind", sorted(UNPROTECTED_DIGESTS))
    def test_unprotected_opcode_sequence(self, kind):
        for x, (length, digest) in zip(UNPROTECTED_INPUTS, UNPROTECTED_DIGESTS[kind]):
            trace, _ = trace_eval(kind, x, protected=False)
            assert (trace.length, _digest(trace.ops)) == (length, digest), x


def _model_inputs() -> np.ndarray:
    """The two canonical grids, then zeros, subnormals, tiny, huge and extreme values."""
    extremes = np.array([0.0, 1e-40, 1e-30, 3e19, FLT_MAX], dtype=np.float32)
    return np.concatenate([inclusive_grid(*GRID_DENSE), inclusive_grid(*GRID_WIDE),
                           extremes, -extremes])


# sha256 over every kind's model trace at every _model_inputs() point, kinds
# in ActivationKind order, each trace hashed as "|".join(ops) + "\n".
# Recorded at the helper-composed models, before their blocks became leaf
# ops, when 3e19 and FLT_MAX squared to inf in the erf model; their capped
# squares halve the same 129 times.
MODEL_TRACES_DIGEST = "2b56c15664506b3858082e5d74c0b61440f5bf55f2793fa8343dd7f1ab21a05e"


def test_model_traces_are_pinned_tag_for_tag():
    # Each scalar's trace is hashed; the whole array's halving counts must
    # pick the same traces.
    digest = hashlib.sha256()
    inputs = _model_inputs()
    with np.errstate(all="ignore"):
        for kind in ActivationKind:
            spec = SPECS[kind]
            traces = [model_trace(kind, x) for x in inputs]
            for ops in traces:
                digest.update(("|".join(ops) + "\n").encode())
            counts = spec.halvings(inputs).tolist()
            assert [spec.model_ops(h) for h in counts] == traces, kind
    assert digest.hexdigest() == MODEL_TRACES_DIGEST


class CountingRecorder(list):
    """A recorder that counts its ``extend`` and ``append`` calls."""

    def __init__(self):
        super().__init__()
        self.extends = self.appends = self.extended = 0

    def extend(self, tags):
        tags = tuple(tags)
        self.extends += 1
        self.extended += len(tags)
        super().extend(tags)

    def append(self, tag):
        self.appends += 1
        super().append(tag)


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_each_model_records_its_trace_with_one_extend(kind):
    # Structural, not timed: a model's trace is one tag tuple, built once
    # per halving count and then the same object, so a recorder takes it
    # with one extend.  Reading the count records nothing, for a scalar or
    # a whole array: a model that loops over its exp's halvings, or records
    # its formula's ops one by one, calls the recorder.
    spec = SPECS[kind]
    inputs = _model_inputs()
    token = _ops._recorder.set(buf := CountingRecorder())
    try:
        with np.errstate(all="ignore"):
            counts = spec.halvings(inputs).tolist()
            for x, h in zip(inputs, counts):
                assert int(spec.halvings(x)) == h, x
                trace = spec.model_ops(h)
                assert type(trace) is tuple and spec.model_ops(h) is trace, x
        assert (buf.extends, buf.appends, len(buf)) == (0, 0, 0)
        for h in counts:
            buf.extend(spec.model_ops(h))
            assert (buf.extends, buf.appends, len(buf)) == (1, 0, buf.extended), h
            buf.clear()
            buf.extends = buf.extended = 0
    finally:
        _ops._recorder.reset(token)


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_models_raise_no_floating_point_error_on_the_grids(kind):
    # A model computes only its exp's argument and that argument's halving
    # count, and neither overflows or is invalid on the canonical grids or
    # at the extremes, FLT_MAX included, for a scalar or a whole array: the
    # gelu model caps its square's operand.  Underflow (gelu's square of a
    # subnormal) is the subnormal-latency question, not an error here.
    spec = SPECS[kind]
    inputs = _model_inputs()
    with np.errstate(all="raise", under="ignore"):
        spec.halvings(inputs)
        for x in inputs:
            spec.halvings(x)


def _core_output_blocks():
    """(core, inputs) per block: each kind on the sample and both grids, then
    gelu and swish at each sweep candidate threshold on the dense grid."""
    dense, wide = inclusive_grid(*GRID_DENSE), inclusive_grid(*GRID_WIDE)
    for kind in ActivationKind:
        spec = SPECS[kind]
        for x in (SAMPLE, dense, wide):
            yield spec.core, x
        for candidate in spec.sweep:
            bound = _threshold_bound(as_f32(candidate))
            yield (lambda x, core=spec.core, b=bound: core(x, bound=b)), dense


# sha256 over every _core_output_blocks() block, each hashed as the array
# call's output bytes, then the bytes of one scalar call per element.
# Recorded before the kernels passed bit words between their leaf ops.
PROTECTED_OUTPUTS_DIGEST = "3938bc34bf4c3276e50f216814b8299f199f4b11dd5e7dc292bc5d72baa42b66"


def test_protected_output_bits_are_pinned():
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):
        for core, x in _core_output_blocks():
            digest.update(core(x).tobytes())
            digest.update(np.array([core(v) for v in x], dtype=np.float32).tobytes())
    assert digest.hexdigest() == PROTECTED_OUTPUTS_DIGEST


# (float -> word, word -> float) scalar bitcasts per protected call: x's
# word, one word per computed value a select reads, and one value per word
# read as a value (the clamped argument, tanh's and relu's |.|, the result).
SCALAR_CASTS_PER_CALL = {
    "relu": (2, 3), "sigmoid": (2, 2), "tanh": (2, 3), "gelu": (2, 2), "swish": (2, 2),
}


def test_protected_calls_cast_each_value_at_most_once(monkeypatch):
    counts = [0, 0]

    def counting(slot, cast):
        def counted(v):
            counts[slot] += 1
            return cast(v)
        return counted

    def refuse(v):
        raise AssertionError("a scalar call took the array casts")

    bits, value = _ops._SCALAR_CASTS
    monkeypatch.setattr(_ops, "_SCALAR_CASTS", (counting(0, bits), counting(1, value)))
    monkeypatch.setattr(_ops, "_ARRAY_CASTS", (refuse, refuse))
    for kind, expected in SCALAR_CASTS_PER_CALL.items():
        protected = getattr(ctact, f"{kind}_protected")
        for x in (0.0, -0.0, 0.3, -2.5, 7.9, -100.0, 1e-30, 3e38):
            counts[:] = [0, 0]
            protected(x)
            assert tuple(counts) == expected, (kind, x)


class TestRecorderScope:
    def test_ops_outside_a_recording_emit_nothing(self):
        with recording() as before:
            pass
        f_add(np.float32(1), np.float32(2))
        SPECS[ActivationKind.GELU].core(np.float32(0.5))
        # A model's trace comes from its exp argument's halving count, which
        # records nothing and raises nothing, not even at -FLT_MAX.
        with np.errstate(all="raise"):
            for kind in SPECS:
                for x in (np.float32(0.5), -FLT_MAX):
                    assert model_trace(kind, x)
        with recording() as after:
            pass
        assert before == [] and after == []

    def test_nested_recording_shadows_the_outer_one(self):
        one = np.float32(1)
        with recording() as outer:
            f_add(one, one)
            with recording() as inner:
                f_mul(one, one)
            f_add(one, one)
        assert inner == ["MUL"]
        assert outer == ["ADD", "ADD"]

    def test_exit_restores_the_outer_recording_after_an_exception(self):
        one = np.float32(1)
        with recording() as outer:
            with pytest.raises(RuntimeError):
                with recording():
                    raise RuntimeError("inner body failed")
            f_mul(one, one)
        assert outer == ["MUL"]

    def test_threads_record_only_their_own_ops(self):
        kinds = tuple(ActivationKind)  # one thread per kind
        rounds = 200
        barrier = threading.Barrier(len(kinds), timeout=30)
        traces = {kind: [] for kind in kinds}

        def worker(kind):
            core = SPECS[kind].core
            barrier.wait()
            for i in range(rounds):
                with recording() as ops:
                    core(np.float32(i * 0.05 - 5.0))
                traces[kind].append(tuple(ops))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in kinds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for kind in kinds:
            assert len(traces[kind]) == rounds
            assert {len(ops) for ops in traces[kind]} == {PROTECTED_TRACE_LENGTH}
            assert {_digest(ops) for ops in traces[kind]} == {PROTECTED_DIGESTS[kind.value]}


def test_every_exported_op_is_imported_by_another_module():
    # _ops holds what the kernels, the models and the trace harness run.
    # Each name it exports must be imported by another module of the
    # package, and each function or class it defines without a leading
    # underscore must be exported, so a helper only tests use cannot linger.
    imported = set()
    for path in Path(_ops.__file__).parent.glob("*.py"):
        if path.name == "_ops.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("_ops", "ctact._ops"):
                imported.update(alias.name for alias in node.names)
    defined = {name for name, obj in vars(_ops).items()
               if not name.startswith("_") and getattr(obj, "__module__", None) == _ops.__name__}
    assert len(_ops.__all__) == len(set(_ops.__all__))
    assert set(_ops.__all__) <= imported, set(_ops.__all__) - imported
    assert defined <= set(_ops.__all__), defined - set(_ops.__all__)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second to import and only the
    # truncated-gaussian delay and welch_t_test need it.
    code = "import sys, ctact, ctact.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_import_derives_the_tags_with_no_warning_and_no_recording_left_on():
    # The leaf ops' tags and the pads are derived at import, which pytest's
    # filterwarnings does not reach, so a fresh interpreter turns warnings
    # into errors.
    code = "import ctact, ctact.cli; from ctact import _ops; print(_ops._active() is None)"
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "True"), done.stderr
