"""Accuracy metrics and threshold analysis against frozen expected values.

The numeric constants asserted here were computed once from the
double-precision references on the exact grids in question and then frozen;
the comparisons use tolerances far tighter than the acceptance bounds, so a
regression in the kernels cannot hide behind the tolerance.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from ctact import activations
from ctact._ops import recording
from ctact.activations import (
    GELU_THRESHOLD,
    SIGMOID_THRESHOLD,
    SPECS,
    SWISH_THRESHOLD,
    TANH_THRESHOLD,
    ActivationKind,
)
from ctact.activations import _threshold_bound, relu_ref
from ctact.analysis import (
    _reference_f32,
    balancing_errors,
    error_metrics,
    solve_tanh_threshold,
    threshold_sweep,
)
from ctact.grids import GRID_DENSE, GRID_WIDE, as_f32, inclusive_grid

from reference_ops import FLT_MAX, SMALLEST_SUBNORMAL, random_encodings

K = ActivationKind

# kind -> (mse, max_abs, |argmax|) on [-8, 8] step 0.01
DENSE_EXPECTED = {
    K.SIGMOID: (2.9378604131779064e-12, 7.510185241699219e-06, 8.0),
    K.TANH: (6.139009442298666e-10, 9.578466415405273e-05, 4.97),
    K.GELU: (3.626627903808502e-08, 0.000552685814909637, 3.61),
    K.SWISH: (1.708575825176826e-10, 6.008148193359375e-05, 8.0),
}

# kind -> (max_abs, |argmax|) on [-500, 500] step 1.0
WIDE_EXPECTED = {
    K.SIGMOID: (4.5418739318847656e-05, 10.0),
    K.TANH: (9.077787399291992e-05, 5.0),
    K.GELU: (0.00041675567626953125, 3.0),
    K.SWISH: (0.001110551180317998, 9.0),
}

THRESHOLD_OF = {
    K.SIGMOID: float(SIGMOID_THRESHOLD),
    K.TANH: float(TANH_THRESHOLD),
    K.GELU: float(GELU_THRESHOLD),
    K.SWISH: float(SWISH_THRESHOLD),
}


class TestErrorMetrics:
    @pytest.mark.parametrize("kind", list(DENSE_EXPECTED))
    def test_dense_grid_frozen_values(self, kind):
        r = error_metrics(kind, -8.0, 8.0, 0.01)
        mse, max_abs, argmax = DENSE_EXPECTED[kind]
        assert r.n_points == 1601
        assert r.mse == pytest.approx(mse, rel=1e-9)
        assert r.rmse == pytest.approx(math.sqrt(mse), rel=1e-9)
        assert r.max_abs == pytest.approx(max_abs, rel=1e-9)
        assert abs(r.argmax_input) == pytest.approx(argmax, abs=1e-6)

    @pytest.mark.parametrize("kind", list(WIDE_EXPECTED))
    def test_wide_grid_frozen_values(self, kind):
        r = error_metrics(kind, -500.0, 500.0, 1.0)
        max_abs, argmax = WIDE_EXPECTED[kind]
        assert r.n_points == 1001
        assert r.max_abs == pytest.approx(max_abs, rel=1e-9)
        assert abs(r.argmax_input) == pytest.approx(argmax, abs=1e-6)

    @pytest.mark.parametrize("kind", list(WIDE_EXPECTED))
    def test_worst_error_sits_at_the_saturation_edge(self, kind):
        r = error_metrics(kind, -500.0, 500.0, 1.0)
        assert abs(abs(r.argmax_input) - THRESHOLD_OF[kind]) <= 2.0

    def test_relu_rejected(self):
        with pytest.raises(ValueError, match="bit-exactness"):
            error_metrics(K.RELU, -8.0, 8.0, 0.01)

    def test_grid_validation_propagates(self):
        with pytest.raises(ValueError):
            error_metrics(K.TANH, -8.0, 8.0, 0.0)
        with pytest.raises(ValueError):
            error_metrics(K.TANH, 8.0, -8.0, 0.01)
        with pytest.raises(ValueError):
            error_metrics(K.TANH, 0.0, 1.0, 0.3)  # step does not divide span


class TestThresholdSolver:
    def test_balanced_root(self):
        s = solve_tanh_threshold()
        assert 4.96 <= s.threshold <= 4.98
        assert abs(s.residual) <= 1e-9
        assert 9.92 <= 2.0 * s.threshold <= 9.96
        assert s.iterations >= 1
        approx, saturation = balancing_errors(s.threshold)
        assert approx == pytest.approx(saturation, rel=1e-4)

    def test_stored_constant_is_consistent_with_the_solve(self):
        s = solve_tanh_threshold()
        assert abs(float(TANH_THRESHOLD) - s.threshold) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_tanh_threshold(tolerance=0.0)
        with pytest.raises(ValueError):
            solve_tanh_threshold(bracket=(5.0, 5.0))

    def test_bracket_without_sign_change(self):
        with pytest.raises(RuntimeError, match="sign change"):
            solve_tanh_threshold(bracket=(5.5, 6.5))


class TestBalancingErrors:
    def test_trade_off_direction(self):
        # Approximation error grows with the threshold, saturation error
        # shrinks; they cross between 4.5 and 5.4.
        a45, s45 = balancing_errors(4.5)
        a50, s50 = balancing_errors(4.971)
        a54, s54 = balancing_errors(5.4)
        assert a45 < a50 < a54
        assert s45 > s50 > s54
        assert a45 < s45
        assert a54 > s54

    def test_validation(self):
        with pytest.raises(ValueError):
            balancing_errors(0.0)
        with pytest.raises(ValueError):
            balancing_errors(float("nan"))


class TestThresholdSweep:
    def test_gelu_sweep_shape(self):
        pairs = threshold_sweep(K.GELU, [3.2, 3.6, 4.0], -500.0, 500.0, 1.0)
        assert [t for t, _ in pairs] == pytest.approx([3.2, 3.6, 4.0], rel=1e-6)
        errs = dict((round(t, 1), e) for t, e in pairs)
        # Past the interior-dominated plateau the error starts growing.
        assert errs[3.6] <= errs[4.0]
        assert all(e > 0 for e in errs.values())

    def test_swish_error_decreases_with_larger_threshold(self):
        # Clamping swish at t costs about t*sigmoid(-t), which shrinks fast.
        pairs = threshold_sweep(K.SWISH, [7.0, 8.0, 9.0], -500.0, 500.0, 1.0)
        errs = [e for _, e in pairs]
        assert errs[0] > errs[1] > errs[2]

    def test_only_empirical_kinds_sweepable(self):
        with pytest.raises(ValueError):
            threshold_sweep(K.TANH, [4.9], -8.0, 8.0, 0.01)
        with pytest.raises(ValueError):
            threshold_sweep(K.RELU, [1.0], -8.0, 8.0, 0.01)

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            threshold_sweep(K.GELU, [0.0], -8.0, 8.0, 0.01)

    @staticmethod
    def per_candidate(kind, candidates, lo, hi, step):
        # The oracle: one kernel run per candidate, on that candidate's own
        # scalar bound.
        spec = SPECS[kind]
        grid = inclusive_grid(lo, hi, step)
        reference = _reference_f32(spec, grid).astype(np.float64)
        results = []
        for candidate in candidates:
            t32 = as_f32(candidate)
            values = spec.core(grid, bound=_threshold_bound(t32)).astype(np.float64)
            results.append((float(t32), float(np.max(np.abs(values - reference)))))
        return results

    @staticmethod
    def counted_core(monkeypatch, kind):
        calls = []
        spec = SPECS[kind]

        def core(x, bound):
            calls.append(bound)
            return spec.core(x, bound=bound)

        monkeypatch.setitem(SPECS, kind, dataclasses.replace(spec, core=core))
        return calls

    @pytest.mark.parametrize("kind", [K.GELU, K.SWISH])
    @pytest.mark.parametrize("grid", [GRID_DENSE, GRID_WIDE], ids=["dense", "wide"])
    def test_one_kernel_run_gives_each_candidates_own_result(self, kind, grid, monkeypatch):
        candidates = SPECS[kind].sweep
        expected = self.per_candidate(kind, candidates, *grid)
        calls = self.counted_core(monkeypatch, kind)
        got = threshold_sweep(kind, candidates, *grid)
        assert got == expected
        assert [tuple(map(type, pair)) for pair in got] == [(float, float)] * len(candidates)
        [bound] = calls
        assert bound.hi.shape == (len(candidates), 1)

    @pytest.mark.parametrize("kind", [K.GELU, K.SWISH])
    def test_the_batched_run_records_a_single_candidates_tags(self, kind):
        candidates = SPECS[kind].sweep
        with recording() as single:
            threshold_sweep(kind, candidates[:1], *GRID_WIDE)
        with recording() as batched:
            threshold_sweep(kind, candidates, *GRID_WIDE)
        assert single and batched == single

    def test_no_candidates_no_kernel_run(self, monkeypatch):
        calls = self.counted_core(monkeypatch, K.GELU)
        assert threshold_sweep(K.GELU, [], *GRID_DENSE) == []
        assert calls == []

    def test_candidates_are_checked_in_order_before_the_kernel_runs(self, monkeypatch):
        calls = self.counted_core(monkeypatch, K.SWISH)
        with pytest.raises(ValueError, match="must be positive, got -1.0"):
            threshold_sweep(K.SWISH, [3.0, -1.0, "x"], *GRID_WIDE)
        with pytest.raises(TypeError, match="must be a number"):
            threshold_sweep(K.SWISH, [3.0, "x", -1.0], *GRID_WIDE)
        assert calls == []

    @pytest.mark.parametrize("kind", [K.GELU, K.SWISH])
    @pytest.mark.parametrize("grid", [GRID_DENSE, GRID_WIDE], ids=["dense", "wide"])
    def test_default_threshold_matches_error_metrics(self, kind, grid):
        # The sweep builds its bound from the candidates; the kernel's
        # default bound is built once at import.  At the default threshold
        # both must give the same kernel output, so the same max-abs.
        [(threshold, max_abs)] = threshold_sweep(kind, [THRESHOLD_OF[kind]], *grid)
        assert threshold == THRESHOLD_OF[kind]
        assert max_abs == error_metrics(kind, *grid).max_abs


class TestGridReferences:
    """The grid form of each libm reference is the scalar form, bit for bit."""

    @staticmethod
    def inputs() -> np.ndarray:
        f32 = np.finfo(np.float32)
        thresholds = np.array([spec.threshold for spec in SPECS.values()
                               if spec.threshold is not None], dtype=np.float32)
        near = np.concatenate([np.nextafter(thresholds, np.float32(0)), thresholds,
                               np.nextafter(thresholds, np.float32(np.inf))])
        special = np.array([0.0, 1e-45, 1e-40, 1e-30, f32.max], dtype=np.float32)
        points = np.concatenate([inclusive_grid(*GRID_DENSE), inclusive_grid(*GRID_WIDE),
                                 special, near])
        return np.concatenate([points, -points]).astype(np.float32)

    @pytest.mark.parametrize("kind", list(K))
    def test_grid_and_scalar_references_agree(self, kind):
        x = self.inputs()
        assert {0x00000000, 0x80000000, 0x00000001, 0xFF7FFFFF} <= set(x.view(np.uint32).tolist())
        grid = _reference_f32(SPECS[kind], x)
        scalar_ref = getattr(activations, f"{kind.value}_ref")
        scalar = np.array([scalar_ref(v) for v in x], dtype=np.float32)
        assert grid.dtype == np.float32
        assert np.array_equal(grid.view(np.uint32), scalar.view(np.uint32))
        evaluated = np.array([activations.evaluate(kind, v, protected=False) for v in x[::97]],
                             dtype=np.float32)
        assert np.array_equal(evaluated.view(np.uint32), scalar[::97].view(np.uint32))


class TestArrayReferences:
    """Each reference on a float64 array is the reference on each point as a
    Python float, bit for bit."""

    @staticmethod
    def inputs() -> np.ndarray:
        edges = np.array([
            0.0, SMALLEST_SUBNORMAL, 5e-324, FLT_MAX, sys.float_info.max,
            # The logistic's exp(-|x|) underflows to a subnormal, then to 0.
            700.0, 745.0, 746.0, 800.0, 1e30,
            # erf(x / sqrt 2) rounds to +-1 from |x| of about 8.4 on.
            8.0, 8.5, 9.0, 12.0, 40.0, 1e5,
        ])
        points = np.concatenate([inclusive_grid(*GRID_DENSE), inclusive_grid(*GRID_WIDE),
                                 random_encodings()[::64], edges])
        return np.concatenate([points, -points]).astype(np.float64)

    @pytest.mark.parametrize("kind", list(K))
    def test_array_and_float_references_agree(self, kind):
        x = self.inputs()
        reference = SPECS[kind].reference
        array = reference(x)
        scalar = np.array([reference(v) for v in x.tolist()], dtype=np.float64)
        assert array.dtype == np.float64 and array.shape == x.shape
        assert np.array_equal(array.view(np.uint64), scalar.view(np.uint64))

    def test_the_edges_reach_the_saturated_ranges(self):
        x = self.inputs()
        assert {0x0000000000000000, 0x8000000000000000} <= set(x.view(np.uint64).tolist())
        sigmoid = SPECS[K.SIGMOID].reference(x)
        assert ((0.0 < sigmoid) & (sigmoid < sys.float_info.min)).any()  # exp(-|x|) subnormal
        assert (sigmoid == 0.0).any()  # and underflowed to 0
        erf = activations._libm(math.erf, x / math.sqrt(2.0))
        assert (erf == 1.0).any() and (erf == -1.0).any()

    def test_relu_of_negative_zero_is_positive_zero(self):
        for out in (relu_ref(-0.0), relu_ref(np.float32(-0.0)), SPECS[K.RELU].reference(-0.0),
                    SPECS[K.RELU].reference(np.array([-0.0]))[0]):
            assert out == 0.0 and math.copysign(1.0, out) == 1.0
