"""Accuracy metrics and threshold analysis against frozen expected values.

The numeric constants asserted here were computed once from the
double-precision references on the exact grids in question and then frozen;
the comparisons use tolerances far tighter than the acceptance bounds, so a
regression in the kernels cannot hide behind the tolerance.
"""

import math

import numpy as np
import pytest

from ctact import activations
from ctact.activations import (
    GELU_THRESHOLD,
    SIGMOID_THRESHOLD,
    SPECS,
    SWISH_THRESHOLD,
    TANH_THRESHOLD,
    ActivationKind,
)
from ctact.analysis import (
    _reference_f32,
    balancing_errors,
    error_metrics,
    solve_tanh_threshold,
    threshold_sweep,
)
from ctact.grids import GRID_DENSE, GRID_WIDE, inclusive_grid

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

    @pytest.mark.parametrize("kind", [K.GELU, K.SWISH])
    @pytest.mark.parametrize("grid", [GRID_DENSE, GRID_WIDE], ids=["dense", "wide"])
    def test_default_threshold_matches_error_metrics(self, kind, grid):
        # The sweep builds its bound per candidate; the kernel's default
        # bound is built once at import.  At the default threshold both
        # must give the same kernel output, so the same max-abs.
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
