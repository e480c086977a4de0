"""The instrumented op layer: scalar/array agreement, opcode sequences, recorder scope."""

import hashlib
import subprocess
import sys
import threading

import numpy as np
import pytest

import ctact
from ctact import _ops
from ctact._ops import (
    U32_ABS_MASK,
    U32_ALL_ONES,
    U32_SIGN_BIT,
    _abs,
    _bound,
    _clamp,
    _gt_mask,
    _lt_mask,
    _saturate,
    _select,
    _sign,
    bool_to_mask,
    f_add,
    f_div,
    f_gt,
    f_lt,
    f_mul,
    f_neg,
    from_bits,
    recording,
    take_branch,
    to_bits,
    u_and,
    u_not,
    u_or,
)
from ctact.activations import (
    _ERF_C,
    _ERF_SLOPE,
    _EXP_C,
    _MAX_HALVINGS,
    GELU_CUBIC_COEFF,
    SPECS,
    SQRT_2_OVER_PI,
    TANH_THRESHOLD,
    ActivationKind,
    _burn,
    _model_erf,
    _model_exp,
    _threshold_bound,
)
from ctact.ctselect import as_f32
from ctact.grids import GRID_DENSE, GRID_WIDE, inclusive_grid
from ctact.harness import trace_eval
from ctact.pade import DENOMINATOR_F32, NUMERATOR_F32, _rational_tanh

FLT_MAX = np.finfo(np.float32).max
SMALLEST_SUBNORMAL = np.float32(1e-45)
LARGEST_SUBNORMAL = np.uint32(0x007FFFFF).view(np.float32)


def _edge_values() -> np.ndarray:
    values = [0.0, -0.0, SMALLEST_SUBNORMAL, LARGEST_SUBNORMAL, FLT_MAX]
    for spec in SPECS.values():
        if spec.threshold is not None:
            t = spec.threshold
            values += [np.nextafter(t, np.float32(0)), t, np.nextafter(t, np.float32(np.inf))]
    edges = np.array(values, dtype=np.float32)
    return np.concatenate([edges, -edges])


def _sample() -> np.ndarray:
    """About 2,000 finite binary32 values, uniform over bit patterns, plus edges."""
    words = np.random.default_rng(2024).integers(0, 2**32, 2100, dtype=np.uint64)
    values = words.astype(np.uint32).view(np.float32)
    return np.concatenate([values[np.isfinite(values)][:2000], _edge_values()])


SAMPLE = _sample()


def _same_bits(scalars, array) -> bool:
    return np.array_equal(np.array(scalars).view(np.uint32), array.view(np.uint32))


class TestScalarMatchesArray:
    """Scalars take a different bitcast path from arrays; the bits must agree."""

    def test_to_bits(self):
        scalars = [to_bits(x) for x in SAMPLE]
        assert all(type(u) is np.uint32 for u in scalars)
        assert np.array_equal(np.array(scalars, dtype=np.uint32), to_bits(SAMPLE))
        assert to_bits(SAMPLE).dtype == np.uint32

    def test_from_bits(self):
        words = SAMPLE.view(np.uint32)
        scalars = [from_bits(u) for u in words]
        assert all(type(v) is np.float32 for v in scalars)
        assert from_bits(words).dtype == np.float32
        assert _same_bits(scalars, from_bits(words))
        assert _same_bits(scalars, SAMPLE)

    def test_from_bits_keeps_nan_payloads(self):
        words = np.array([0x7F800001, 0xFFC12345, 0x7FBFFFFF], dtype=np.uint32)
        scalars = [from_bits(u) for u in words]
        assert [int(v.view(np.uint32)) for v in scalars] == words.tolist()
        assert _same_bits(scalars, from_bits(words))

    def test_from_bits_on_infinities_zeros_and_signed_payloads(self):
        # +-inf, +-0, a negative signalling NaN and the smallest negative
        # subnormal: the scalar path must agree with the array view on each.
        words = np.array([0x7F800000, 0xFF800000, 0x00000000, 0x80000000,
                          0xFF800001, 0x80000001], dtype=np.uint32)
        scalars = [from_bits(u) for u in words]
        assert all(type(v) is np.float32 for v in scalars)
        assert _same_bits(scalars, words.view(np.float32))

    def test_bool_to_mask(self):
        flags = SAMPLE > np.float32(0)
        scalars = [bool_to_mask(flag) for flag in flags]
        assert all(type(m) is np.uint32 for m in scalars)
        assert {int(m) for m in scalars} == {0, 0xFFFFFFFF}
        masks = bool_to_mask(flags)
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


def _select_by_helpers(a, b, mask):
    ua = to_bits(a)
    ub = to_bits(b)
    keep_a = u_and(ua, u_not(mask))
    keep_b = u_and(ub, mask)
    return from_bits(u_or(keep_a, keep_b))


def _abs_by_helpers(x):
    return from_bits(u_and(to_bits(x), U32_ABS_MASK))


def _sign_by_helpers(x):
    one = np.float32(1.0).view(np.uint32)
    return from_bits(u_or(u_and(to_bits(x), U32_SIGN_BIT), one))


def _gt_mask_by_helpers(x, threshold):
    return bool_to_mask(f_gt(x, threshold))


def _lt_mask_by_helpers(x, threshold):
    return bool_to_mask(f_lt(x, threshold))


def _clamp_by_helpers(x, lo, hi):
    x = _select_by_helpers(x, lo, _lt_mask_by_helpers(x, lo))
    return _select_by_helpers(x, hi, _gt_mask_by_helpers(x, hi))


def _saturate_by_helpers(y, x, lo, hi, low, high):
    y = _select_by_helpers(y, low, _lt_mask_by_helpers(x, lo))
    return _select_by_helpers(y, high, _gt_mask_by_helpers(x, hi))


# The leaf ops that work on encodings take and return words.  These feed
# them words and read back values through numpy views, which record nothing,
# so a leaf op and its helper composition compare as value functions.
def _word(x):
    return x.view(np.uint32)  # a numpy scalar has a view too


def _value(w):
    return w.view(np.float32)


def _select_on_values(a, b, mask):
    return _value(_select(_word(a), _word(b), mask))


def _clamp_on_values(x, lo, hi):
    return _value(_clamp(x, _word(x), _bound(lo, hi)))


def _saturate_on_values(y, x, lo, hi, low, high):
    return _value(_saturate(_word(y), x, _bound(lo, hi), _word(low), _word(high)))


def _rational_tanh_by_helpers(x):
    p0, p1, p2, p3 = NUMERATOR_F32
    q0, q1, q2, q3 = DENOMINATOR_F32
    u = f_mul(x, x)
    p = f_add(f_mul(p3, u), p2)
    p = f_add(f_mul(p, u), p1)
    p = f_add(f_mul(p, u), p0)
    q = f_add(f_mul(q3, u), q2)
    q = f_add(f_mul(q, u), q1)
    q = f_add(f_mul(q, u), q0)
    return f_mul(x, f_div(p, q))


def _burn_by_helpers(v, count):
    for i in range(count):
        v = f_mul(v, np.float32(1.25)) if i % 2 == 0 else f_add(v, np.float32(0.5))
    return v


# The parent kernels' bodies, one single-op helper per operation.
def _tanh_by_helpers(x, t):
    approx = _rational_tanh_by_helpers(_clamp_by_helpers(x, -t, t))
    saturated = _sign_by_helpers(x)
    outside = _gt_mask_by_helpers(_abs_by_helpers(x), t)
    y = _select_by_helpers(approx, saturated, outside)
    _burn_by_helpers(approx, 10)
    return y


def _sigmoid_by_helpers(x, t):
    half, one, zero = np.float32(0.5), np.float32(1.0), np.float32(0.0)
    clamped = _clamp_by_helpers(x, -t, t)
    gate = f_add(half, f_mul(half, _rational_tanh_by_helpers(f_mul(clamped, half))))
    y = _saturate_by_helpers(gate, x, -t, t, zero, one)
    _burn_by_helpers(gate, 5)
    return y


def _gelu_by_helpers(x, t):
    half, one, zero = np.float32(0.5), np.float32(1.0), np.float32(0.0)
    clamped = _clamp_by_helpers(x, -t, t)
    cubed = f_mul(f_mul(clamped, clamped), clamped)
    skewed = f_add(clamped, f_mul(GELU_CUBIC_COEFF, cubed))
    approx = _rational_tanh_by_helpers(f_mul(SQRT_2_OVER_PI, skewed))
    y = f_mul(f_mul(clamped, half), f_add(one, approx))
    return _saturate_by_helpers(y, x, -t, t, zero, x)


def _swish_by_helpers(x, t):
    half, zero = np.float32(0.5), np.float32(0.0)
    clamped = _clamp_by_helpers(x, -t, t)
    gate = f_add(half, f_mul(half, _rational_tanh_by_helpers(f_mul(clamped, half))))
    y = _saturate_by_helpers(f_mul(clamped, gate), x, -t, t, zero, x)
    _burn_by_helpers(gate, 4)
    return y


def _relu_by_helpers(x):
    zero, t = np.float32(0.0), TANH_THRESHOLD
    y = _select_by_helpers(zero, x, _gt_mask_by_helpers(x, zero))
    dummy = _rational_tanh_by_helpers(_clamp_by_helpers(x, -t, t))
    never = _gt_mask_by_helpers(_abs_by_helpers(dummy), np.float32(2.0))
    y = _select_by_helpers(y, dummy, never)
    _burn_by_helpers(dummy, 5)
    return y


_CORE_BY_HELPERS = {
    ActivationKind.RELU: _relu_by_helpers,
    ActivationKind.SIGMOID: _sigmoid_by_helpers,
    ActivationKind.TANH: _tanh_by_helpers,
    ActivationKind.GELU: _gelu_by_helpers,
    ActivationKind.SWISH: _swish_by_helpers,
}


def _model_exp_by_helpers(t):
    halvings = 0
    while True:
        reduce_more = f_gt(_abs_by_helpers(t), np.float32(0.5))
        take_branch()
        if not reduce_more or halvings == _MAX_HALVINGS:
            break
        t = f_mul(t, np.float32(0.5))
        halvings += 1
    p = _EXP_C[4]
    for c in (_EXP_C[3], _EXP_C[2], _EXP_C[1], _EXP_C[0]):
        p = f_add(f_mul(p, t), c)
    for _ in range(halvings):
        p = f_mul(p, p)
        take_branch()
    return p


def _model_erf_by_helpers(u):
    one = np.float32(1.0)
    a = _abs_by_helpers(u)
    t = f_div(one, f_add(one, f_mul(_ERF_SLOPE, a)))
    poly = _ERF_C[4]
    for c in (_ERF_C[3], _ERF_C[2], _ERF_C[1], _ERF_C[0]):
        poly = f_add(f_mul(poly, t), c)
    poly = f_mul(poly, t)
    tail = f_mul(poly, _model_exp_by_helpers(f_neg(f_mul(a, a))))
    return f_mul(f_add(one, f_neg(tail)), _sign_by_helpers(u))


class TestLeafOps:
    """Each leaf op against the single-op helper composition it replaces.

    Tags and result bits must be those of the helper composition, on scalars,
    arrays and mixes of the two, NaN payloads, infinities and zeros included.
    """

    SPECIALS = np.array([0x7F800001, 0xFFC12345, 0x7FBFFFFF, 0x7F800000,
                         0xFF800000, 0x00000000, 0x80000000],
                        dtype=np.uint32).view(np.float32)
    A = np.concatenate([SAMPLE, SPECIALS])
    B = A[::-1].copy()
    MASKS = np.where(np.arange(A.size) % 3 == 0, U32_ALL_ONES, np.uint32(0))

    # The kernels' bounds and thresholds, and relu's dummy-mask bound; the
    # sample holds each kernel threshold and its neighbours one ulp away.
    BOUNDS = [np.float32(0.0), np.float32(2.0)] + [
        sign * spec.threshold for spec in SPECS.values() if spec.threshold is not None
        for sign in (np.float32(1.0), np.float32(-1.0))]
    # The first and last threshold_sweep candidate of each swept kind.
    SWEEP_ENDS = [as_f32(c) for spec in SPECS.values() for c in spec.sweep[:1] + spec.sweep[-1:]]

    @staticmethod
    def assert_same(leaf, composed, calls):
        # The rational core and the pads overflow and divide inf by inf on
        # the specials; both sides must do so alike.
        with np.errstate(all="ignore"):
            with recording() as ops:
                out = [leaf(*args) for args in calls]
            with recording() as expected_ops:
                expected = [composed(*args) for args in calls]
        assert ops == expected_ops
        assert [type(v) for v in out] == [type(v) for v in expected]
        for got, want in zip(out, expected):
            assert np.array_equal(np.asarray(got).view(np.uint32),
                                  np.asarray(want).view(np.uint32))

    def test_select_on_scalars(self):
        for mask in (np.uint32(0), U32_ALL_ONES):
            calls = [(a, b, mask) for a, b in zip(self.A, self.B)]
            self.assert_same(_select_on_values, _select_by_helpers, calls)
            assert all(type(_select(_word(a), _word(b), m)) is np.uint32 for a, b, m in calls)

    def test_select_on_arrays_and_mixes(self):
        a, b, masks = self.A, self.B, self.MASKS
        calls = [(a, b, masks), (a, b, np.uint32(0)), (a, b, U32_ALL_ONES),
                 (a[0], b, masks), (a, b[0], U32_ALL_ONES), (a[0], b[0], masks),
                 (a[-7:], np.float32(-0.0), masks[:7])]
        self.assert_same(_select_on_values, _select_by_helpers, calls)

    @pytest.mark.parametrize("leaf, composed", [(_abs, _abs_by_helpers),
                                                (_sign, _sign_by_helpers)],
                             ids=["abs", "sign"])
    def test_abs_and_sign(self, leaf, composed):
        def on_values(x):
            return _value(leaf(_word(x)))

        self.assert_same(on_values, composed, [(x,) for x in self.A])
        self.assert_same(on_values, composed, [(self.A,), (self.A[:1],)])
        assert all(type(leaf(_word(x))) is np.uint32 for x in self.A)

    @pytest.mark.parametrize("leaf, composed", [(_gt_mask, _gt_mask_by_helpers),
                                                (_lt_mask, _lt_mask_by_helpers)],
                             ids=["gt", "lt"])
    def test_comparison_masks(self, leaf, composed):
        a, b = self.A, self.B
        scalar_calls = [(x, t) for t in self.BOUNDS for x in a] + list(zip(a, b))
        self.assert_same(leaf, composed, scalar_calls)
        assert all(type(leaf(*args)) is np.uint32 for args in scalar_calls)
        array_calls = [(a, t) for t in self.BOUNDS] + [(a, b), (a[0], b), (a[-7:], b[0])]
        self.assert_same(leaf, composed, array_calls)
        assert all(leaf(*args).dtype == np.uint32 for args in array_calls)

    def test_clamp(self):
        a, b = self.A, self.B
        c = np.roll(a, 5)
        bounds = [(-t, t) for t in self.BOUNDS if t > 0]
        # Kernel bounds, then arbitrary ones: inverted, infinite and NaN.
        scalar_calls = [(x, lo, hi) for lo, hi in bounds for x in a] + list(zip(a, b, c))
        self.assert_same(_clamp_on_values, _clamp_by_helpers, scalar_calls)
        assert all(type(_clamp(x, _word(x), _bound(lo, hi))) is np.uint32
                   for x, lo, hi in scalar_calls)
        array_calls = [(a, lo, hi) for lo, hi in bounds] + [
            (a, b, c), (a[0], b, c), (a, b[0], c[0]), (a[-7:], np.float32(-0.0), c[:7])]
        self.assert_same(_clamp_on_values, _clamp_by_helpers, array_calls)

    def test_saturation_tail(self):
        # The kernels' (low, high) pairs are (0, 1) and (0, x); arbitrary
        # ones, and inverted, infinite and NaN bounds, come from the sample.
        a, b = self.A, self.B
        c, d = np.roll(a, 5), np.roll(a, 11)
        zero, one = np.float32(0.0), np.float32(1.0)
        bounds = [(-t, t) for t in self.BOUNDS if t > 0]
        scalar_calls = ([(y, x, lo, hi, zero, one) for lo, hi in bounds for y, x in zip(a, b)]
                        + [(y, x, lo, hi, zero, x) for lo, hi in bounds for y, x in zip(a, b)]
                        + list(zip(a, b, c, d, np.roll(a, 3), np.roll(a, 7))))
        self.assert_same(_saturate_on_values, _saturate_by_helpers, scalar_calls)
        array_calls = [(a, b, lo, hi, zero, b) for lo, hi in bounds] + [
            (a, b, c, d, zero, one), (a[0], b, c[0], d[0], zero, b), (a, b[0], c, d[0], a, one),
            (a[-7:], b[-7:], np.float32(-0.0), d[:7], zero, b[-7:])]
        self.assert_same(_saturate_on_values, _saturate_by_helpers, array_calls)

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_cores(self, kind):
        # Each kernel, its words handed between leaf ops, against the parent
        # body built from single-op helpers: at its own bound, at the sweep
        # candidates' ends, and at a negative (inverted), infinite and NaN
        # threshold; on scalars, arrays, a scalar against an array of
        # thresholds, and arrays of both.
        spec, composed = SPECS[kind], _CORE_BY_HELPERS[kind]
        a = self.A
        if spec.threshold is None:
            self.assert_same(spec.core, composed,
                             [(x,) for x in a] + [(a,), (a[:1],), (a[-7:],)])
            return
        self.assert_same(spec.core, lambda x: composed(x, spec.threshold),
                         [(x,) for x in a] + [(a,), (a[:1],)])

        def at(x, t):
            return spec.core(x, bound=_threshold_bound(t))

        thresholds = self.SWEEP_ENDS + [-spec.threshold, np.float32(np.inf),
                                        np.float32(-np.inf), np.float32(np.nan)]
        many = np.array(thresholds, dtype=np.float32)
        calls = ([(x, t) for t in thresholds for x in a[::5]]
                 + [(a, t) for t in thresholds]
                 + [(x, many) for x in a[:: 97]]
                 + [(a[:many.size], many), (a[-7:], many[:1])])
        self.assert_same(at, composed, calls)
        with np.errstate(all="ignore"):
            assert all(type(at(x, t)) is np.float32 for t in thresholds for x in a[::50])

    def test_rational_core(self):
        self.assert_same(_rational_tanh, _rational_tanh_by_helpers, [(x,) for x in self.A])
        self.assert_same(_rational_tanh, _rational_tanh_by_helpers, [(self.A,), (self.A[:1],)])
        with np.errstate(all="ignore"):
            assert all(type(_rational_tanh(x)) is np.float32 for x in self.A)

    def test_pads(self):
        counts = range(12)
        self.assert_same(_burn, _burn_by_helpers, [(x, n) for n in counts for x in self.A[::9]])
        self.assert_same(_burn, _burn_by_helpers, [(self.A, n) for n in counts])
        with np.errstate(all="ignore"):
            assert all(type(_burn(x, 5)) is np.float32 for x in self.A)

    @pytest.mark.parametrize("leaf, composed", [(_model_exp, _model_exp_by_helpers),
                                                (_model_erf, _model_erf_by_helpers)],
                             ids=["exp", "erf"])
    def test_model_blocks(self, leaf, composed):
        # The models branch on values, so they take scalars only.  +-inf
        # (exp) and +-FLT_MAX (erf, whose square is inf) run to the
        # halving cap; NaN halves no time.
        self.assert_same(leaf, composed, [(x,) for x in self.A])
        extremes = [np.float32(np.inf), FLT_MAX] if leaf is _model_exp else [FLT_MAX]
        with np.errstate(all="ignore"):
            for x in extremes:
                for v in (x, -x):
                    with recording() as ops:
                        leaf(v)
                    assert ops.count("BRANCH") == 2 * _MAX_HALVINGS + 1
            assert all(type(leaf(x)) is np.float32 for x in self.A)


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_models_return_binary32_scalars(kind):
    # The relu model's predicated move goes through np.where, which gives a
    # 0-d array for scalar operands unless cond_move unwraps it.
    with np.errstate(all="ignore"):
        for x in (np.float32(1.5), np.float32(-0.0), np.float32(-3.0)):
            assert type(SPECS[kind].model(x)) is np.float32


def test_as_f32_returns_binary32_scalars_as_they_are():
    for x in _edge_values():
        assert as_f32(x) is x
    for value, shown in ((np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")):
        with pytest.raises(ValueError, match=rf"finite in binary32, got np.float32\({shown}\)"):
            as_f32(np.float32(value))


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
            assert trace.length == 59
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
# ops; 3e19 and FLT_MAX square to inf in the erf model.
MODEL_TRACES_DIGEST = "2b56c15664506b3858082e5d74c0b61440f5bf55f2793fa8343dd7f1ab21a05e"


def test_model_traces_are_pinned_tag_for_tag():
    digest = hashlib.sha256()
    with np.errstate(all="ignore"), recording() as ops:
        for kind in ActivationKind:
            model = SPECS[kind].model
            for x in _model_inputs():
                model(x)
                digest.update(("|".join(ops) + "\n").encode())
                ops.clear()
    assert digest.hexdigest() == MODEL_TRACES_DIGEST


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
            assert {len(ops) for ops in traces[kind]} == {59}
            assert {_digest(ops) for ops in traces[kind]} == {PROTECTED_DIGESTS[kind.value]}


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second to import and only the
    # truncated-gaussian delay and welch_t_test need it.
    code = "import sys, ctact, ctact.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"
