import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf, expit

from ctact import analysis
from ctact._ops import OP_BRANCH, Bound, recording
from ctact.analysis import error_metrics, threshold_sweep

from ctact.activations import (
    GELU_THRESHOLD,
    SIGMOID_THRESHOLD,
    SPECS,
    SWISH_THRESHOLD,
    TANH_THRESHOLD,
    ActivationKind,
    evaluate,
    gelu_protected,
    gelu_ref,
    relu_protected,
    relu_ref,
    sigmoid_protected,
    sigmoid_ref,
    swish_protected,
    swish_ref,
    tanh_protected,
    tanh_ref,
    _TANH_BOUND,
    _halvings,
    _threshold_bound,
)

from reference_ops import halving_counts


K = ActivationKind


def bits(x) -> int:
    return int(np.float32(x).view(np.uint32))


class TestThresholdConstants:
    def test_doubling_is_exact(self):
        assert SIGMOID_THRESHOLD == np.float32(2.0) * TANH_THRESHOLD

    def test_values(self):
        assert TANH_THRESHOLD == np.float32(4.971)
        assert GELU_THRESHOLD == np.float32(3.6)
        assert SWISH_THRESHOLD == np.float32(8.0)

    def test_ranges(self):
        # The tanh constant sits next to the balanced-error root 4.97; the
        # empirical gelu and swish constants are finite and positive.
        assert np.float32(4.90) <= TANH_THRESHOLD <= np.float32(5.05)
        for threshold in (GELU_THRESHOLD, SWISH_THRESHOLD):
            assert np.isfinite(threshold) and threshold > 0
        for threshold in (TANH_THRESHOLD, SIGMOID_THRESHOLD, GELU_THRESHOLD, SWISH_THRESHOLD):
            assert type(threshold) is np.float32


class TestRegistry:
    def test_every_kind_has_a_complete_spec(self):
        assert list(SPECS) == list(ActivationKind)
        for kind, spec in SPECS.items():
            assert callable(spec.core) and callable(spec.reference)
            assert callable(spec.model)
            assert spec.threshold is None or type(spec.threshold) is np.float32
            assert isinstance(spec.sweep, tuple)
            assert all(c > 0 for c in spec.sweep)
            # The model shapes a trace with real control flow; the core's
            # trace has none.
            with recording() as ops:
                spec.core(np.float32(0.5))
            assert ops and OP_BRANCH not in ops
            with recording() as ops, np.errstate(all="ignore"):
                spec.model(np.float32(0.5))
            assert ops

    def test_thresholds_are_the_module_constants(self):
        assert SPECS[ActivationKind.RELU].threshold is None
        assert SPECS[ActivationKind.SIGMOID].threshold == SIGMOID_THRESHOLD
        assert SPECS[ActivationKind.TANH].threshold == TANH_THRESHOLD
        assert SPECS[ActivationKind.GELU].threshold == GELU_THRESHOLD
        assert SPECS[ActivationKind.SWISH].threshold == SWISH_THRESHOLD

    def test_default_bounds_are_built_from_the_thresholds(self):
        for spec in SPECS.values():
            if spec.threshold is not None:
                [bound] = spec.core.__defaults__
                assert bound.hi is spec.threshold
                assert bound == _threshold_bound(spec.threshold)

    def test_clamp_bounds_are_ordered(self, monkeypatch):
        # A kernel clamps with _saturate on its bound's own ends, which is
        # the clamp only on an ordered bound.  Each default bound, relu's
        # dummy bound and every bound threshold_sweep builds must be [-t, t]
        # with t > 0, holding the words of both ends.
        built = []

        def recorded(threshold):
            built.append(_threshold_bound(threshold))
            return built[-1]

        monkeypatch.setattr(analysis, "_threshold_bound", recorded)
        for kind, spec in SPECS.items():
            if spec.sweep:
                threshold_sweep(kind, spec.sweep, -1.0, 1.0, 1.0)
        assert len(built) == sum(len(spec.sweep) for spec in SPECS.values())
        defaults = [spec.core.__defaults__[0] for spec in SPECS.values()
                    if spec.threshold is not None]
        assert Bound._fields == ("lo", "hi", "lo_bits", "hi_bits")
        for lo, hi, lo_bits, hi_bits in defaults + [_TANH_BOUND] + built:
            assert lo == -hi < hi
            assert (lo_bits, hi_bits) == (bits(lo), bits(hi))
            assert lo_bits == hi_bits | 0x80000000

    def test_sweeps_bracket_the_empirical_thresholds(self):
        for kind in (ActivationKind.GELU, ActivationKind.SWISH):
            spec = SPECS[kind]
            assert min(spec.sweep) < spec.threshold < max(spec.sweep)
            assert spec.threshold in [np.float32(c) for c in spec.sweep]

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_analyses_reject_exactly_the_kinds_without_the_data(self, kind):
        spec = SPECS[kind]
        if spec.threshold is None:
            with pytest.raises(ValueError):
                error_metrics(kind, -1.0, 1.0, 0.5)
        else:
            assert error_metrics(kind, -1.0, 1.0, 0.5).n_points == 5
        if not spec.sweep:
            with pytest.raises(ValueError):
                threshold_sweep(kind, [1.0], -1.0, 1.0, 0.5)
        else:
            assert len(threshold_sweep(kind, spec.sweep, -1.0, 1.0, 0.5)) == len(spec.sweep)


class TestRelu:
    def test_identity_above_zero(self):
        for v in (1e-45, 0.25, 1.0, 3.4e38):
            assert bits(relu_protected(v)) == bits(np.float32(v))

    def test_zero_below(self):
        for v in (-1e-45, -0.5, -3.4e38):
            assert bits(relu_protected(v)) == 0x00000000

    def test_negative_zero_maps_to_positive_zero(self):
        assert bits(relu_protected(-0.0)) == 0x00000000
        assert bits(relu_protected(0.0)) == 0x00000000
        assert bits(relu_ref(-0.0)) == 0x00000000

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_matches_reference_everywhere(self, x):
        assert bits(relu_protected(x)) == bits(relu_ref(x))


class TestTanh:
    def test_saturates_to_exact_sign(self):
        assert tanh_protected(4.98) == np.float32(1.0)
        assert tanh_protected(-4.98) == np.float32(-1.0)
        assert tanh_protected(500.0) == np.float32(1.0)

    def test_interior_accuracy(self):
        for x in (-3.0, -1.0, -0.1, 0.2, 1.5, 4.0):
            assert abs(float(tanh_protected(x)) - math.tanh(x)) < 1.0e-4

    def test_odd_signed_zero(self):
        assert bits(tanh_protected(-0.0)) == 0x80000000
        assert bits(tanh_protected(0.0)) == 0x00000000

    @given(st.floats(width=32, min_value=-200.0, max_value=200.0))
    def test_odd_bit_exact(self, x):
        assert bits(tanh_protected(-x)) == bits(-tanh_protected(x))


class TestSigmoid:
    def test_saturates_exactly(self):
        assert bits(sigmoid_protected(-9.95)) == 0x00000000
        assert sigmoid_protected(9.95) == np.float32(1.0)
        assert sigmoid_protected(-500.0) == np.float32(0.0)

    def test_midpoint(self):
        assert sigmoid_protected(0.0) == np.float32(0.5)

    def test_interior_accuracy(self):
        for x in (-8.0, -2.5, 0.7, 3.0, 8.0):
            ref = 1.0 / (1.0 + math.exp(-x))
            assert abs(float(sigmoid_protected(x)) - ref) < 1.0e-5

    def test_complement_symmetry_on_grid(self):
        # sigmoid(x) + sigmoid(-x) = 1, inherited from the odd rational core.
        for x in np.arange(-12.0, 12.0, 0.125, dtype=np.float32):
            total = float(sigmoid_protected(x)) + float(sigmoid_protected(-x))
            assert abs(total - 1.0) <= 2.0 ** -23


class TestGelu:
    def test_saturation_both_sides(self):
        assert bits(gelu_protected(-3.61)) == 0x00000000
        assert bits(gelu_protected(3.61)) == bits(np.float32(3.61))
        assert bits(gelu_protected(450.0)) == bits(np.float32(450.0))

    def test_no_overflow_from_the_cubic(self):
        # The cubic runs on the clamped argument, so huge inputs stay finite.
        assert np.isfinite(gelu_protected(3.0e38))
        assert gelu_protected(3.0e38) == np.float32(3.0e38)

    def test_interior_accuracy(self):
        for x in (-3.0, -1.0, 0.5, 2.0, 3.5):
            assert abs(float(gelu_protected(x)) - float(gelu_ref(x))) < 6.0e-4


class TestSwish:
    def test_saturation_both_sides(self):
        assert bits(swish_protected(-8.5)) == 0x00000000
        assert bits(swish_protected(8.5)) == bits(np.float32(8.5))

    def test_equals_x_times_sigmoid_inside_clamp(self):
        # Both kernels route the same gate through the shared core, so the
        # product identity holds bit-exactly on the swish clamp interval.
        for x in np.arange(-8.0, 8.0, 0.25, dtype=np.float32):
            expect = np.float32(x) * sigmoid_protected(x)
            assert bits(swish_protected(x)) == bits(expect)

    def test_interior_accuracy(self):
        for x in (-6.0, -1.0, 1.0, 4.0, 7.5):
            assert abs(float(swish_protected(x)) - float(swish_ref(x))) < 1.2e-3


class TestReferences:
    def test_against_math_module(self):
        # References quantize the input to binary32 before the double-precision
        # formula, matching what the protected kernels actually receive.
        t = float(np.float32(0.7))
        assert tanh_ref(0.7) == np.float32(math.tanh(t))
        g = float(np.float32(1.2))
        assert gelu_ref(1.2) == np.float32(0.5 * g * (1 + math.erf(g / math.sqrt(2))))
        assert sigmoid_ref(2.0) == np.float32(1.0 / (1.0 + math.exp(-2.0)))

    def test_stable_for_large_negative_inputs(self):
        # The two-branch form cannot overflow exp.
        assert sigmoid_ref(-500.0) == np.float32(0.0)
        assert float(swish_ref(-500.0)) == 0.0


class TestEvaluate:
    def test_dispatch_matches_direct_calls(self):
        cases = {
            ActivationKind.RELU: relu_protected,
            ActivationKind.SIGMOID: sigmoid_protected,
            ActivationKind.TANH: tanh_protected,
            ActivationKind.GELU: gelu_protected,
            ActivationKind.SWISH: swish_protected,
        }
        for kind, fn in cases.items():
            assert bits(evaluate(kind, 0.8)) == bits(fn(0.8))

    def test_accepts_kind_strings(self):
        assert bits(evaluate("tanh", -1.3)) == bits(tanh_protected(-1.3))
        assert bits(evaluate("gelu", 2.0, protected=False)) == bits(gelu_ref(2.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            evaluate("softmax", 1.0)

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -float("inf"), 1e39,
        # Ints beyond the double range, on which float() raises OverflowError.
        pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
    ])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite in binary32"):
            evaluate(ActivationKind.TANH, bad)
        with pytest.raises(ValueError, match="finite in binary32"):
            evaluate(ActivationKind.RELU, bad, protected=False)


class TestRandomEncodingContract:
    """The numeric contract on 2**20 seeded random binary32 bit patterns.

    Uniform over encodings rather than values, so huge magnitudes,
    subnormals, signed zeros and both saturation regions all appear, not
    just the canonical grids.  Underflow inside the cores is expected here
    (the subnormal timing channel), so it is not turned into an error.
    """

    # Max-abs error against the float64 references, over the whole domain.
    BOUNDS = {K.SIGMOID: 1e-4, K.TANH: 2e-4, K.GELU: 1e-3, K.SWISH: 4e-3}

    @pytest.fixture(scope="class")
    def x(self):
        patterns = np.random.default_rng(20261018).integers(0, 2**32, 2**20, dtype=np.uint32)
        x = patterns.view(np.float32)
        return x[np.isfinite(x)]

    @pytest.fixture(scope="class")
    def y(self, x):
        return {kind: spec.core(x) for kind, spec in SPECS.items()}

    def test_outputs_are_finite(self, y):
        for kind, out in y.items():
            assert np.isfinite(out).all(), kind

    def test_relu_is_bit_exact(self, x, y):
        # x itself above zero, +0.0 for every other input, -0.0 included.
        expected = np.where(x > 0, x.view(np.uint32), np.uint32(0))
        np.testing.assert_array_equal(y[K.RELU].view(np.uint32), expected)

    def test_tanh_is_odd_bit_exactly(self, x, y):
        negated = SPECS[K.TANH].core(-x).view(np.uint32)
        np.testing.assert_array_equal(negated, y[K.TANH].view(np.uint32) ^ np.uint32(0x80000000))

    def test_saturated_outputs_are_exact(self, x, y):
        def assert_bits(out, where, expected):
            assert where.any()
            got = out[where].view(np.uint32)
            np.testing.assert_array_equal(got, np.broadcast_to(expected, got.shape))

        one, minus_one, zero = (np.uint32(bits(v)) for v in (1.0, -1.0, 0.0))
        beyond = np.abs(x) > TANH_THRESHOLD
        assert_bits(y[K.TANH], beyond & (x > 0), one)
        assert_bits(y[K.TANH], beyond & (x < 0), minus_one)
        assert_bits(y[K.SIGMOID], x > SIGMOID_THRESHOLD, one)
        assert_bits(y[K.SIGMOID], x < -SIGMOID_THRESHOLD, zero)
        for kind, threshold in ((K.GELU, GELU_THRESHOLD), (K.SWISH, SWISH_THRESHOLD)):
            assert_bits(y[kind], x < -threshold, zero)
            above = x > threshold
            assert_bits(y[kind], above, x[above].view(np.uint32))

    def test_halving_count_matches_the_halving_loop(self, x):
        # The models read their exp's halving count from the argument's
        # exponent; halving it where |t| > 1/2 must count the same, on every
        # exponent at the mantissa ends and middle in both signs, +-0, +-inf
        # and NaN, and on the random sample.
        fields = np.arange(256, dtype=np.uint32)[:, None] << np.uint32(23)
        mantissas = np.array([0, 1, 2**22, 2**23 - 1], dtype=np.uint32)
        words = (fields | mantissas).ravel()
        every_exponent = np.concatenate([words, words | np.uint32(0x80000000)]).view(np.float32)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
        for t in (every_exponent, specials, x):
            assert list(map(_halvings, t.tolist())) == halving_counts(t).tolist()

    def test_max_abs_error_against_float64_references(self, x, y):
        v = x.astype(np.float64)
        references = {
            K.SIGMOID: expit(v),
            K.TANH: np.tanh(v),
            K.GELU: 0.5 * v * (1.0 + erf(v / math.sqrt(2.0))),
            K.SWISH: v * expit(v),
        }
        for kind, reference in references.items():
            worst = np.max(np.abs(y[kind].astype(np.float64) - reference))
            assert worst <= self.BOUNDS[kind], (kind, worst)
