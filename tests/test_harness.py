"""Trace recording, uniformity checks, host timing, Welch test."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from ctact._ops import OP_BRANCH, OP_CMP, OP_SELECT, recording
from ctact.activations import ActivationKind, evaluate
from ctact.grids import GRID_WIDE, inclusive_grid
from ctact.harness import (
    check_uniformity,
    measure_host,
    trace_eval,
    welch_t_test,
)

ALL_KINDS = list(ActivationKind)
SMALL_GRID = inclusive_grid(-6.0, 6.0, 0.5)


def bits(x) -> int:
    return int(np.float32(x).view(np.uint32))


class TestTraceEval:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("protected", [True, False])
    def test_value_transparent(self, kind, protected):
        # Tracing must not change the numeric result by a single bit.
        for x in (-7.5, -0.0, 0.0, 0.3, 2.0, 6.9):
            trace, value = trace_eval(kind, x, protected)
            assert bits(value) == bits(evaluate(kind, x, protected))
            assert trace.kind == kind
            assert trace.protected is protected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_protected_traces_are_branch_free(self, kind):
        trace, _ = trace_eval(kind, 1.7)
        assert OP_BRANCH not in trace.ops

    def test_all_protected_kinds_share_one_length(self):
        lengths = {trace_eval(kind, 0.9)[0].length for kind in ALL_KINDS}
        assert len(lengths) == 1

    def test_unprotected_models_branch(self):
        trace, _ = trace_eval(ActivationKind.SIGMOID, 3.0, protected=False)
        assert OP_BRANCH in trace.ops

    def test_unprotected_relu_trace_is_compare_plus_move(self):
        for x in (-5.0, 0.0, 5.0):
            trace, _ = trace_eval(ActivationKind.RELU, x, protected=False)
            assert trace.ops == (OP_CMP, OP_SELECT)

    def test_unprotected_value_is_finite_even_when_the_model_overflows(self):
        # Far out, where swish rounds to zero in binary32, the returned value
        # must still be the clean reference, with no warnings escaping.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, value = trace_eval(ActivationKind.SWISH, -420.0, protected=False)
        assert float(value) == 0.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            trace_eval(ActivationKind.TANH, float("inf"))

    def test_unprotected_models_end_on_the_largest_inputs(self):
        # Beyond about 2.6e19 the gelu model's erf squares its argument to
        # inf, which no number of halvings brings below 1/2.  Run in a
        # subprocess, so a model that never ends fails by timeout.
        code = ("import numpy as np\n"
                "from ctact.harness import trace_eval\n"
                "big = float(np.finfo(np.float32).max)\n"
                "for kind in ('relu', 'sigmoid', 'tanh', 'gelu', 'swish'):\n"
                "    for x in (3e19, -3e19, big, -big):\n"
                "        trace_eval(kind, x, protected=False)\n")
        subprocess.run([sys.executable, "-W", "error", "-c", code], timeout=60, check=True)


class TestUniformity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_protected_kinds_are_uniform(self, kind):
        report = check_uniformity(kind, SMALL_GRID)
        assert report.uniform
        assert report.deviating_inputs == ()

    def test_unprotected_sigmoid_and_tanh_are_not(self):
        for kind in (ActivationKind.SIGMOID, ActivationKind.TANH):
            report = check_uniformity(kind, SMALL_GRID, protected=False)
            assert not report.uniform
            lengths = {n for _, n in report.deviating_inputs}
            lengths.add(report.canonical_length)
            assert len(lengths) >= 2

    def test_unprotected_relu_is_uniform_but_short(self):
        relu = check_uniformity(ActivationKind.RELU, SMALL_GRID, protected=False)
        assert relu.uniform
        assert relu.canonical_length == 2
        sigmoid = check_uniformity(ActivationKind.SIGMOID, SMALL_GRID, protected=False)
        # Strictly shorter than sigmoid everywhere, not just on average.
        shortest_sigmoid = min(
            [sigmoid.canonical_length] + [n for _, n in sigmoid.deviating_inputs]
        )
        assert relu.canonical_length < shortest_sigmoid

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            check_uniformity(ActivationKind.TANH, [])

    @pytest.mark.parametrize("kind, protected", [
        *((kind, True) for kind in ALL_KINDS),
        (ActivationKind.SIGMOID, False),
        (ActivationKind.TANH, False),
    ])
    def test_matches_a_per_point_trace_eval_loop(self, kind, protected):
        # check_uniformity records its traces without trace_eval; the report
        # must be the one a plain per-point loop over trace_eval gives.
        traces = [trace_eval(kind, x, protected)[0].ops for x in SMALL_GRID]
        deviating = tuple((float(x), len(ops)) for x, ops in zip(SMALL_GRID, traces)
                          if ops != traces[0])
        assert bool(deviating) is not protected  # the unprotected cases deviate
        report = check_uniformity(kind, SMALL_GRID, protected)
        assert report.uniform == (not deviating)
        assert report.canonical_length == len(traces[0])
        assert report.deviating_inputs == deviating

    def test_a_check_inside_an_outer_recording_leaves_it_empty(self):
        # The check's own recording shadows the caller's for the whole grid.
        with recording() as outer:
            check_uniformity(ActivationKind.GELU, SMALL_GRID)
            check_uniformity(ActivationKind.TANH, SMALL_GRID, protected=False)
        assert outer == []

    def test_unprotected_check_restores_the_error_state(self):
        with np.errstate(all="warn"):  # not numpy's default state
            before = np.geterr()
            check_uniformity(ActivationKind.TANH, SMALL_GRID, protected=False)
            assert np.geterr() == before
            # A non-finite point raises midway through the grid, inside the recording.
            with pytest.raises(ValueError):
                check_uniformity(ActivationKind.TANH, [1.0, 500.0, float("inf"), 2.0],
                                 protected=False)
            assert np.geterr() == before

    def test_unprotected_wide_grid_check_lets_no_warning_escape(self):
        # No model computes a value that overflows: gelu's square of its erf
        # argument, the one product that could beyond about 2.6e19, has its
        # operand capped.
        grid = inclusive_grid(*GRID_WIDE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ALL_KINDS:
                check_uniformity(kind, grid, protected=False)


class TestMeasureHost:
    def test_sample_accounting(self):
        grid = inclusive_grid(-1.0, 1.0, 0.5)
        samples = measure_host(ActivationKind.RELU, grid, repetitions=3)
        assert len(samples) == 3 * grid.size
        reps = {s.repetition for s in samples}
        assert reps == {0, 1, 2}
        assert all(s.elapsed_ns >= 0 for s in samples)
        assert all(s.kind == ActivationKind.RELU and s.protected for s in samples)
        inputs = sorted({s.input for s in samples})
        assert inputs == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_bad_arguments(self):
        grid = inclusive_grid(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            measure_host(ActivationKind.RELU, grid, repetitions=0)
        with pytest.raises(ValueError):
            measure_host(ActivationKind.RELU, [], repetitions=1)


class TestWelch:
    def test_identical_constant_samples_do_not_leak(self):
        r = welch_t_test([5.0] * 10, [5.0] * 10)
        assert r.t_statistic == 0.0
        assert not r.leak

    def test_distinct_constant_samples_leak(self):
        r = welch_t_test([5.0] * 10, [6.0] * 10)
        assert r.t_statistic == float("inf")
        assert r.leak

    def test_separated_populations_leak(self):
        rng = np.random.default_rng(99)
        a = rng.normal(221.0, 20.0, 4000)
        b = rng.normal(403.0, 20.0, 4000)
        r = welch_t_test(a, b)
        assert r.leak
        assert abs(r.t_statistic) > 100.0

    def test_same_population_does_not_leak(self):
        rng = np.random.default_rng(7)
        a = rng.normal(88.0, 5.0, 4000)
        b = rng.normal(88.0, 5.0, 4000)
        r = welch_t_test(a, b)
        assert not r.leak
        assert r.threshold > 0

    def test_dof_for_balanced_equal_variance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, 500)
        b = rng.normal(0.0, 1.0, 500)
        r = welch_t_test(a, b)
        assert 400 < r.dof < 1000  # Welch-Satterthwaite near 2n-2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_t_test([1.0, 2.0], [1.0, 2.0], alpha=0.0)
        with pytest.raises(ValueError):
            welch_t_test([1.0, 2.0], [1.0, 2.0], alpha=1.0)

    @pytest.mark.parametrize("a, b", [
        ([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, float("inf"), 3.0]),
        ([1e308, -1e308] * 3, [-1e308, 1e308] * 3),
        ([1e100, -1e100] * 3, [1e100, -1e100, 1.0] * 2),
    ], ids=["nan", "inf", "overflow", "dof-overflow"])
    def test_samples_it_cannot_judge_raise(self, a, b):
        # None of these may come back as "no leak": a NaN or infinite
        # sample, a variance that overflows (t 0.0, dof NaN), and a dof
        # whose squared terms overflow.
        with pytest.raises(ValueError):
            welch_t_test(a, b)
