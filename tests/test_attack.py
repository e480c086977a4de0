"""Device timing model, Gaussian templates, and the online attack."""

import math

import numpy as np
import pytest

from ctact.activations import ActivationKind
from ctact.attack import (
    BASE_CYCLES_DESYNC,
    CONSTANT_TIME_CYCLES,
    DEFAULT_CLOCK_HZ,
    DESYNC_CALIBRATION,
    GaussianTemplate,
    DelaySpec,
    attack_experiment,
    calibrated_delay,
    constant_time_model,
    default_desync_model,
    fit_template,
    profile_phase,
    run_attack,
    score_increment,
)

RELU, SIGMOID, TANH = (ActivationKind.RELU, ActivationKind.SIGMOID, ActivationKind.TANH)
THREE_CLASSES = [RELU, SIGMOID, TANH]


class TestDelaySpec:
    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            DelaySpec("uniform", low_us=5.0, high_us=1.0)
        with pytest.raises(ValueError):
            DelaySpec("uniform", low_us=-1.0, high_us=1.0)
        with pytest.raises(ValueError):
            DelaySpec("triangular")

    def test_truncated_gaussian_validation(self):
        with pytest.raises(ValueError):
            DelaySpec("truncated-gaussian", mean_us=5.0, std_us=0.0)

    def test_uniform_moments(self):
        d = DelaySpec("uniform", low_us=2.0, high_us=8.0)
        assert d.mean() == 5.0
        assert d.variance() == pytest.approx(36.0 / 12.0)

    def test_uniform_draw_range(self):
        d = DelaySpec("uniform", low_us=1.0, high_us=3.0)
        draws = d.draw(np.random.default_rng(0), 1000)
        assert draws.min() >= 1.0 and draws.max() <= 3.0

    def test_truncated_gaussian_stays_nonnegative(self):
        d = DelaySpec("truncated-gaussian", mean_us=0.5, std_us=2.0)
        draws = d.draw(np.random.default_rng(0), 2000)
        assert draws.min() >= 0.0
        assert d.mean() > 0.5  # truncation at zero pushes the mean up
        assert abs(draws.mean() - d.mean()) < 0.15

    def test_truncated_gaussian_stream_and_moments_are_pinned(self):
        # Values recorded while scipy.stats was still imported at module
        # level: importing it on first use must not change the draws.
        d = DelaySpec("truncated-gaussian", mean_us=0.5, std_us=2.0)
        draws = d.draw(np.random.default_rng(11), 5)
        assert draws.tolist() == pytest.approx(
            [0.39100534059484804, 1.5500350093384825, 1.9217202813055174,
             0.08838153786225672, 0.4491498579271083], rel=1e-12)
        assert d.mean() == pytest.approx(1.7916787420336346, rel=1e-12)
        assert d.variance() == pytest.approx(1.6857266563615898, rel=1e-12)


class TestCalibration:
    def test_delay_solved_from_first_calibration_row(self):
        d = calibrated_delay()
        assert d.distribution == "uniform"
        assert d.low_us == pytest.approx(2.008460859262745, rel=1e-12)
        assert d.high_us == pytest.approx(17.633824855022972, rel=1e-12)
        target_mean, target_var = DESYNC_CALIBRATION[RELU]
        base_us = BASE_CYCLES_DESYNC[RELU] / DEFAULT_CLOCK_HZ * 1e6
        assert d.mean() + base_us == pytest.approx(target_mean, rel=1e-12)
        assert d.variance() == pytest.approx(target_var, rel=1e-12)

    def test_class_moments_near_calibration_targets(self):
        model = default_desync_model()
        for kind, (mean_target, var_target) in DESYNC_CALIBRATION.items():
            assert model.class_mean_us(kind) == pytest.approx(mean_target, rel=0.05)
            assert model.class_var_us(kind) == pytest.approx(var_target, rel=0.05)
        # The relu row is matched exactly; it anchors the solve.
        assert model.class_mean_us(RELU) == pytest.approx(9.964, rel=1e-12)
        assert model.class_var_us(RELU) == pytest.approx(20.346, rel=1e-12)


class TestDeviceModel:
    def test_base_cycle_table(self):
        assert BASE_CYCLES_DESYNC == {RELU: 12, SIGMOID: 221, TANH: 403}
        assert CONSTANT_TIME_CYCLES == 88

    def test_zero_delay_latency_is_the_cycle_budget(self):
        quiet = DelaySpec("uniform", low_us=0.0, high_us=0.0)
        model = default_desync_model(quiet)
        rng = np.random.default_rng(0)
        # x=3 sits in the swing dead zone (neither |x|<2 nor |x|>6).
        assert model.latencies_us(RELU, [3.0], rng) == pytest.approx(
            [12 / 84e6 * 1e6], rel=1e-12
        )
        assert model.latencies_us(TANH, [3.0], rng) == pytest.approx(
            [403 / 84e6 * 1e6], rel=1e-12
        )

    def test_input_swing_direction(self):
        quiet = DelaySpec("uniform", low_us=0.0, high_us=0.0)
        model = default_desync_model(quiet)
        rng = np.random.default_rng(0)
        # |x| = 3 is in the dead zone, |x| < 2 runs slow, |x| > 6 runs fast.
        center, slow, fast = model.latencies_us(SIGMOID, [3.0, 0.5, 7.0], rng)
        swing = 10 / 84e6 * 1e6
        assert slow == pytest.approx(center + swing, rel=1e-9)
        assert fast == pytest.approx(center - swing, rel=1e-9)
        # relu has no input-dependent term.
        near, far = model.latencies_us(RELU, [0.5, 7.0], rng)
        assert near == far

    def test_constant_time_model_erases_class_information(self):
        model = constant_time_model(DelaySpec("uniform", low_us=0.0, high_us=0.0))
        rng = np.random.default_rng(0)
        values = {
            float(v)
            for kind in THREE_CLASSES
            for v in model.latencies_us(kind, [-7.0, 0.1, 5.0], rng)
        }
        assert len(values) == 1  # identical cycles for every class and input
        assert values.pop() == pytest.approx(88 / 84e6 * 1e6)

    def test_unknown_class_rejected(self):
        model = default_desync_model()
        with pytest.raises(KeyError):
            model.cycles_at(ActivationKind.GELU, np.array([0.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            default_desync_model(input_swing_cycles=-1)


class TestTemplates:
    def test_fit_mean_and_unbiased_variance(self):
        t = fit_template(SIGMOID, [9.0, 11.0])
        assert t.mean_us == 10.0
        assert t.var_us2 == 2.0  # ddof=1
        assert t.n_profiling == 2

    def test_degenerate_profiles_rejected(self):
        with pytest.raises(ValueError):
            fit_template(SIGMOID, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_template(SIGMOID, [1.0])

    def test_score_increment_oracle(self):
        t = GaussianTemplate(SIGMOID, 12.380, 20.575, 2)
        got = score_increment(t, 12.380)
        assert got == pytest.approx(-math.log(20.575), rel=1e-12)
        assert got == pytest.approx(-3.0240767465631335, rel=1e-12)

    def test_score_decreases_away_from_the_mean(self):
        t = GaussianTemplate(SIGMOID, 10.0, 4.0, 2)
        at_mean = score_increment(t, 10.0)
        one_sigma = score_increment(t, 12.0)
        far = score_increment(t, 30.0)
        assert at_mean > one_sigma > far
        assert one_sigma == pytest.approx(at_mean - 1.0)  # (t-mu)^2/var = 1

    def test_score_increment_is_elementwise(self):
        # run_attack scores whole arrays; each element must be bit-equal to
        # the scalar score of that observation.
        t = GaussianTemplate(SIGMOID, 12.380, 20.575, 2)
        observed = np.random.default_rng(1).uniform(0.0, 30.0, 64)
        scores = score_increment(t, observed)
        assert scores.shape == observed.shape
        assert scores.tolist() == [score_increment(t, float(o)) for o in observed]

    def test_profile_phase_shapes(self):
        model = default_desync_model()
        templates = profile_phase(model, THREE_CLASSES, 50, np.random.default_rng(5))
        assert set(templates) == set(THREE_CLASSES)
        assert all(t.n_profiling == 50 for t in templates.values())
        assert all(t.var_us2 > 0 for t in templates.values())

    def test_profile_phase_validation(self):
        model = default_desync_model()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            profile_phase(model, [RELU], 10, rng)
        with pytest.raises(ValueError):
            profile_phase(model, [RELU, RELU], 10, rng)
        with pytest.raises(ValueError):
            profile_phase(model, THREE_CLASSES, 1, rng)

    def test_fit_consistency_across_profile_sizes(self):
        # More profiling tightens the estimate toward the analytic moments.
        model = default_desync_model()
        rng = np.random.default_rng(21)
        small = profile_phase(model, THREE_CLASSES, 100, rng)
        large = profile_phase(model, THREE_CLASSES, 10000, rng)
        for kind in THREE_CLASSES:
            mu = model.class_mean_us(kind)
            assert abs(large[kind].mean_us - mu) < 0.15
            assert abs(large[kind].var_us2 - model.class_var_us(kind)) < 1.5
            assert abs(small[kind].mean_us - mu) < 1.5  # coarse but unbiased


class TestRunAttack:
    def test_immediate_separation_when_classes_are_far_apart(self):
        quiet = DelaySpec("uniform", low_us=0.0, high_us=0.001)
        model = default_desync_model(quiet)
        rng = np.random.default_rng(17)
        templates = profile_phase(model, THREE_CLASSES, 200, rng)
        result = run_attack(model, templates, TANH, 50, rng)
        assert result.separation_n == 1
        assert result.success
        assert result.final_argmax == TANH

    def test_score_history_shape(self):
        model = default_desync_model()
        rng = np.random.default_rng(2)
        templates = profile_phase(model, THREE_CLASSES, 500, rng)
        result = run_attack(model, templates, SIGMOID, 40, rng)
        assert set(result.score_history) == set(THREE_CLASSES)
        assert all(len(v) == 40 for v in result.score_history.values())
        assert result.n_measurements == 40
        if result.separation_n is not None:
            assert 1 <= result.separation_n <= 40

    def test_separation_definition_on_crafted_histories(self):
        # The reported n is the first count after which the true class leads
        # for good; leading only intermittently must not count.
        model = default_desync_model()
        rng = np.random.default_rng(2)
        templates = profile_phase(model, THREE_CLASSES, 500, rng)
        result = run_attack(model, templates, SIGMOID, 600, rng)
        assert result.success
        true_scores = result.score_history[SIGMOID]
        rivals = np.max(
            [result.score_history[k] for k in (RELU, TANH)], axis=0
        )
        n = result.separation_n
        assert bool(np.all(true_scores[n - 1:] > rivals[n - 1:]))
        if n >= 2:
            assert true_scores[n - 2] <= rivals[n - 2]

    def test_validation(self):
        model = default_desync_model()
        rng = np.random.default_rng(0)
        templates = profile_phase(model, [RELU, SIGMOID], 100, rng)
        with pytest.raises(ValueError):
            run_attack(model, templates, TANH, 10, rng)  # no template
        with pytest.raises(ValueError):
            run_attack(model, {RELU: templates[RELU]}, RELU, 10, rng)
        with pytest.raises(ValueError):
            run_attack(model, templates, RELU, 0, rng)


class TestExperiment:
    def test_deterministic_under_a_fixed_master_seed(self):
        model = default_desync_model()
        a, _ = attack_experiment(model, THREE_CLASSES, 200, 100, 3, master_seed=9)
        b, _ = attack_experiment(model, THREE_CLASSES, 200, 100, 3, master_seed=9)
        assert a == b
        c, _ = attack_experiment(model, THREE_CLASSES, 200, 100, 3, master_seed=10)
        assert a != c

    def test_record_layout_and_kept_histories(self):
        model = default_desync_model()
        records, kept = attack_experiment(
            model, THREE_CLASSES, 200, 100, 4, master_seed=1, keep_history_trials=2
        )
        assert len(records) == 3 * 4
        assert {r.true_kind for r in records} == set(THREE_CLASSES)
        assert set(kept) == {(k, t) for k in THREE_CLASSES for t in (0, 1)}
        for (kind, trial), result in kept.items():
            assert result.true_kind == kind
            match = [r for r in records if r.true_kind == kind and r.trial_index == trial]
            assert match[0].separation_n == result.separation_n

    def test_desync_attack_succeeds_quickly(self):
        model = default_desync_model()
        records, _ = attack_experiment(model, THREE_CLASSES, 2000, 4000, 5, master_seed=33)
        assert all(r.success for r in records)
        assert all(r.final_argmax == r.true_kind for r in records)
        assert max(r.separation_n for r in records) <= 4000

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            attack_experiment(default_desync_model(), THREE_CLASSES, 10, 10, 0, 0)
