"""Trace recording, uniformity checks, host timing, Welch test."""

import dataclasses
import math
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from ctact._ops import OP_BRANCH, OP_CMP, OP_SELECT, f_mul, recording
from ctact.activations import SPECS, ActivationKind, _ERF_ARG_CAP, _halvings, evaluate
from ctact.grids import GRID_DENSE, GRID_WIDE, as_f32, inclusive_grid
from ctact.harness import (
    check_uniformity,
    measure_host,
    trace_eval,
    welch_t_test,
)

from reference_ops import FLT_MAX, SMALLEST_SUBNORMAL, random_encodings

ALL_KINDS = list(ActivationKind)
SMALL_GRID = inclusive_grid(-6.0, 6.0, 0.5)


def per_point_report(kind, grid, protected):
    """(uniform, canonical length, deviating inputs) from a trace_eval loop."""
    traces = [trace_eval(kind, x, protected)[0].ops for x in grid]
    deviating = tuple((float(x), len(ops)) for x, ops in zip(grid, traces)
                      if ops != traces[0])
    return not deviating, len(traces[0]), deviating


def report_of(kind, grid, protected):
    report = check_uniformity(kind, grid, protected)
    return report.uniform, report.canonical_length, report.deviating_inputs


def edge_grid() -> np.ndarray:
    """+-0, the smallest subnormal, every power of two from 2**-1 to 2**127
    with its next-up neighbour (the exact-power edge of the halving count),
    +-FLT_MAX and the points around gelu's erf-argument cap, x = cap * sqrt(2)."""
    powers = np.ldexp(np.float32(1.0), np.arange(-1, 128)).astype(np.float32)
    up = np.nextafter(powers, np.float32(np.inf))
    cap = np.float32(float(_ERF_ARG_CAP) * math.sqrt(2.0))
    around = [cap]
    for _ in range(4):
        around = [np.nextafter(around[0], np.float32(0.0))] + around
        around.append(np.nextafter(around[-1], np.float32(np.inf)))
    around = np.array(around, dtype=np.float32)
    points = np.concatenate([
        np.array([0.0, -0.0, SMALLEST_SUBNORMAL], dtype=np.float32),
        np.column_stack([powers, up]).ravel(),
        np.array([FLT_MAX, -FLT_MAX], dtype=np.float32),
        around, -around,
    ])
    assert points.dtype == np.float32 and np.isfinite(points).all()
    return points


def leaky_core(x):
    """A kernel whose trace leaks: one multiply per halving count of x."""
    for _ in range(int(_halvings(x))):
        f_mul(x, np.float32(0.5))
    return x


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
        for protected in (True, False):
            for grid in ([], (), np.array([], dtype=np.float32), np.array([])):
                with pytest.raises(ValueError, match="at least one point"):
                    check_uniformity(ActivationKind.TANH, grid, protected)

    @pytest.mark.parametrize("kind, protected", [
        *((kind, True) for kind in ALL_KINDS),
        *((kind, False) for kind in ALL_KINDS),
    ])
    def test_matches_a_per_point_trace_eval_loop(self, kind, protected):
        # check_uniformity gets its traces without trace_eval; the report
        # must be the one a plain per-point loop over trace_eval gives.
        expected = per_point_report(kind, SMALL_GRID, protected)
        # The unprotected cases deviate, bar relu, whose trace is fixed.
        assert expected[0] is (protected or kind is ActivationKind.RELU)
        assert report_of(kind, SMALL_GRID, protected) == expected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unprotected_reports_match_the_per_point_loop_everywhere(self, kind):
        # The whole-grid halving counts against trace_eval point by point:
        # both canonical grids, 4,096 random finite encodings, and the edges
        # of the count (powers of two and their next-up neighbours, the
        # extremes, gelu's capped erf argument).  The edges also run
        # protected.
        blocks = [inclusive_grid(*GRID_DENSE), inclusive_grid(*GRID_WIDE),
                  random_encodings()[:4096], edge_grid()]
        for grid in blocks:
            assert report_of(kind, grid, False) == per_point_report(kind, grid, False)
        edges = blocks[-1]
        assert report_of(kind, edges, True) == per_point_report(kind, edges, True)

    @pytest.mark.parametrize("protected", [True, False])
    def test_deviating_inputs_are_reported_as_given(self, protected, monkeypatch):
        # A grid that is not binary32 is checked at its points rounded to
        # binary32, but reports each deviating point as float(x) of the point
        # as given.  A protected kernel is uniform, so a leaky one stands in.
        if protected:
            spec = SPECS[ActivationKind.SIGMOID]
            monkeypatch.setitem(SPECS, ActivationKind.SIGMOID,
                                dataclasses.replace(spec, core=leaky_core))
        points = [1.0, 0.1, 1e-40, 2**100]
        assert float(np.float32(0.1)) != 0.1 and float(np.float32(1e-40)) != 1e-40
        for grid in (points, np.array(points, dtype=np.float64)):
            uniform, length, deviating = report_of(ActivationKind.SIGMOID, grid, protected)
            assert [x for x, _ in deviating] == [0.1, 1e-40, 2.0**100]
            assert all(type(x) is float for x, _ in deviating)
            assert (uniform, length, deviating) == per_point_report(
                ActivationKind.SIGMOID, points, protected)

    @pytest.mark.parametrize("protected", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e39, "1.0", b"1"],
                             ids=["nan", "inf", "-inf", "1e39", "str", "bytes"])
    def test_bad_points_raise_what_as_f32_raises(self, bad, protected):
        # The first point as_f32 rejects raises its exception and message,
        # in a list grid and, bar text, in a binary32 array (where 1e39 is
        # +inf, which as_f32 reports as it reports 1e39); an outer recording
        # stays empty either way.
        with pytest.raises((TypeError, ValueError)) as expected:
            as_f32(bad)
        raises = pytest.raises(type(expected.value), match=re.escape(str(expected.value)))
        grids = [[1.0, 2.0, bad, math.nan, 3.0]]
        if not isinstance(bad, (str, bytes)):
            with np.errstate(over="ignore"):
                grids.append(np.array([1.0, 2.0, bad, math.nan, 3.0], dtype=np.float32))
        for kind in ALL_KINDS:
            for grid in grids:
                with recording() as outer, raises:
                    check_uniformity(kind, grid, protected)
                assert outer == []

    def test_unprotected_check_takes_each_count_trace_once(self, monkeypatch):
        # Structural, not timed: on the dense grid the unprotected check
        # builds or reads each distinct halving count's trace at most once.
        grid = inclusive_grid(*GRID_DENSE)
        for kind in ALL_KINDS:
            spec = SPECS[kind]
            calls = Counter()

            def counted(halvings, model_ops=spec.model_ops):
                calls[halvings] += 1
                return model_ops(halvings)

            monkeypatch.setitem(SPECS, kind, dataclasses.replace(spec, model_ops=counted))
            check_uniformity(kind, grid, protected=False)
            assert set(calls) == set(spec.halvings(grid).tolist()), kind
            assert max(calls.values()) == 1, (kind, calls)
            calls.clear()
            check_uniformity(kind, grid, protected=True)
            assert not calls

    def test_a_check_inside_an_outer_recording_leaves_it_empty(self):
        # A protected check's own recording shadows the caller's for the
        # whole grid, and an unprotected check records nothing.
        with recording() as outer:
            for kind in ALL_KINDS:
                check_uniformity(kind, SMALL_GRID)
                check_uniformity(kind, SMALL_GRID, protected=False)
        assert outer == []

    def test_unprotected_check_restores_the_error_state(self):
        with np.errstate(all="warn"):  # not numpy's default state
            before = np.geterr()
            check_uniformity(ActivationKind.TANH, SMALL_GRID, protected=False)
            assert np.geterr() == before
            # A non-finite point midway through the grid raises before any tracing.
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
