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
    INPUT_RANGE,
    GaussianTemplate,
    DelaySpec,
    DeviceTimingModel,
    attack_experiment,
    calibrated_delay,
    device_model,
    fit_template,
    profile_phase,
    run_attack,
    score_increment,
)

RELU, SIGMOID, TANH = (ActivationKind.RELU, ActivationKind.SIGMOID, ActivationKind.TANH)
THREE_CLASSES = [RELU, SIGMOID, TANH]


def reference_observe(model, kind, n, rng):
    """The direct definition: draw every input, then integer cycles times us per cycle."""
    xs = rng.uniform(INPUT_RANGE[0], INPUT_RANGE[1], n)
    cycles = np.full(n, model.base_cycles[kind], dtype=np.int64)
    if kind in (SIGMOID, TANH) and model.input_swing_cycles:
        magnitude = np.abs(xs)
        cycles += np.where(magnitude < 2.0, model.input_swing_cycles, 0)
        cycles -= np.where(magnitude > 6.0, model.input_swing_cycles, 0)
    if model.delay.distribution == "uniform":
        delays = rng.uniform(model.delay.low_us, model.delay.high_us, n)
    else:
        delays = model.delay.draw(rng, n)
    return cycles * model.us_per_cycle + delays


class TestStreamFacts:
    """The numpy stream properties DeviceTimingModel.observe is built on."""

    @pytest.mark.parametrize("low,high", [INPUT_RANGE, (2.008460859262745, 17.633824855022972),
                                          (0.0, 0.5), (5.0, 5.0)])
    def test_affine_random_is_bit_equal_to_uniform(self, low, high):
        values = np.random.default_rng(3).random(10_000)
        values *= high - low
        values += low
        assert values.tobytes() == np.random.default_rng(3).uniform(low, high, 10_000).tobytes()

    @pytest.mark.parametrize("n,m", [(1, 5), (10_000, 300), (12_345, 1)])
    def test_advance_skips_exactly_n_doubles(self, n, m):
        skipped = np.random.default_rng(4)
        skipped.bit_generator.advance(n)
        assert skipped.random(m).tobytes() == np.random.default_rng(4).random(n + m)[n:].tobytes()


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

    @pytest.mark.parametrize("spec", [
        ("uniform", math.nan, 5.0), ("uniform", 1.0, math.nan), ("uniform", 1.0, math.inf),
        ("truncated-gaussian", 0.0, 0.0, math.nan, 1.0),
        ("truncated-gaussian", 0.0, 0.0, math.inf, 1.0),
        ("truncated-gaussian", 0.0, 0.0, 1.0, math.nan),
        ("truncated-gaussian", 0.0, 0.0, 1.0, math.inf),
    ])
    def test_non_finite_parameters_rejected(self, spec):
        with pytest.raises(ValueError):
            DelaySpec(*spec)

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
        model = device_model()
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
        model = device_model(delay=quiet)
        rng = np.random.default_rng(0)
        assert sorted(set(model.observe(RELU, 50, rng))) == pytest.approx(
            [12 / 84e6 * 1e6], rel=1e-12)
        # 403 cycles in the dead zone |x| in [2, 6], +-10 outside it.
        assert sorted(set(model.observe(TANH, 50, rng))) == pytest.approx(
            [c / 84e6 * 1e6 for c in (393, 403, 413)], rel=1e-12)

    def test_input_swing_direction(self):
        quiet = DelaySpec("uniform", low_us=0.0, high_us=0.0)
        model = device_model(delay=quiet)
        n = 400
        xs = np.abs(np.random.default_rng(0).uniform(*INPUT_RANGE, n))
        latencies = model.observe(SIGMOID, n, np.random.default_rng(0))
        # |x| in [2, 6] is the dead zone, |x| < 2 runs slow, |x| > 6 runs fast.
        center, swing = 221 / 84e6 * 1e6, 10 / 84e6 * 1e6
        assert set(latencies[(xs >= 2) & (xs <= 6)]) == {center}
        assert latencies[xs < 2] == pytest.approx(center + swing, rel=1e-12)
        assert latencies[xs > 6] == pytest.approx(center - swing, rel=1e-12)

    @pytest.mark.parametrize("model", [
        device_model(),
        device_model(input_swing_cycles=0),
        device_model(delay=DelaySpec("truncated-gaussian", mean_us=3.0, std_us=2.0),
                     input_swing_cycles=7),
        device_model("constant-time"),
        DeviceTimingModel({RELU: 12, TANH: 403}, DelaySpec("uniform", 0.0, 0.5), 1e8, 300),
    ], ids=["desync", "no-swing", "truncated-gaussian", "constant-time", "wide-swing"])
    def test_observe_matches_the_direct_definition(self, model):
        # Same latencies bit for bit, and the stream ends where drawing every
        # input would leave it.
        fast, direct = np.random.default_rng(8), np.random.default_rng(8)
        for kind in model.base_cycles:
            for n in (1, 2_000):
                assert (model.observe(kind, n, fast).tobytes()
                        == reference_observe(model, kind, n, direct).tobytes())
        assert fast.random(4).tolist() == direct.random(4).tolist()

    def test_constant_time_device_erases_class_information(self):
        model = device_model("constant-time", delay=DelaySpec("uniform", low_us=0.0, high_us=0.0))
        rng = np.random.default_rng(0)
        values = {float(v) for kind in THREE_CLASSES for v in model.observe(kind, 30, rng)}
        assert len(values) == 1  # identical cycles for every class and input
        assert values.pop() == pytest.approx(88 / 84e6 * 1e6)

    def test_unknown_class_rejected(self):
        model = device_model()
        with pytest.raises(KeyError):
            model.observe(ActivationKind.GELU, 1, np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            device_model(input_swing_cycles=-1)
        for clock_hz in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="clock_hz"):
                device_model(clock_hz=clock_hz)
        # Latencies are whole cycles: no NaN, fraction, bool or infinity.
        for swing in (math.nan, 2.5, -math.inf, True):
            with pytest.raises(ValueError, match="input_swing_cycles"):
                device_model(input_swing_cycles=swing)
        delay = calibrated_delay()
        for cycles in (True, np.True_, math.inf, math.nan, 12.5, 0, -3):
            with pytest.raises(ValueError, match="base cycles"):
                DeviceTimingModel({RELU: cycles, TANH: 403}, delay)
        # Integral values stay accepted, numpy integers included.
        for cycles in (12, 12.0, np.int64(12), np.uint16(12)):
            model = DeviceTimingModel({RELU: cycles, TANH: 403}, delay,
                                      input_swing_cycles=np.int32(7))
            assert model.class_mean_us(RELU) == device_model(classes=[RELU]).class_mean_us(RELU)

    def test_device_model_builds_each_countermeasure(self):
        desync = device_model(classes=[TANH, RELU], input_swing_cycles=7)
        assert desync.base_cycles == {TANH: 403, RELU: 12}
        assert desync.input_swing_cycles == 7
        assert desync.delay == calibrated_delay()
        assert desync.clock_hz == DEFAULT_CLOCK_HZ
        # The protected build ignores the swing: its latency never reads the input.
        quiet = DelaySpec("uniform", low_us=0.0, high_us=1.0)
        protected = device_model("constant-time", delay=quiet, clock_hz=1e8,
                                 input_swing_cycles=7)
        assert protected.base_cycles == dict.fromkeys(THREE_CLASSES, CONSTANT_TIME_CYCLES)
        assert (protected.input_swing_cycles, protected.delay, protected.clock_hz) == (
            0, quiet, 1e8)

    def test_device_model_rejects_what_the_device_cannot_run(self):
        with pytest.raises(ValueError, match="unknown countermeasure"):
            device_model("masking")
        with pytest.raises(ValueError, match="no base latency for: gelu; the modeled "
                                             "device dispatches relu, sigmoid, tanh"):
            device_model("constant-time", classes=[RELU, ActivationKind.GELU])

    def test_swing_must_stay_below_each_swinging_base_latency(self):
        delay = calibrated_delay()
        for swing in (221, 500):  # sigmoid would take 0 or -279 cycles
            with pytest.raises(ValueError, match="sigmoid"):
                device_model(input_swing_cycles=swing)
        device_model(input_swing_cycles=220)
        # Only the classes the model holds count, and relu never swings.
        DeviceTimingModel({RELU: 12, TANH: 403}, delay, input_swing_cycles=300)
        with pytest.raises(ValueError, match="tanh"):
            DeviceTimingModel({RELU: 12, TANH: 403}, delay, input_swing_cycles=403)


class TestTemplates:
    def test_fit_mean_and_unbiased_variance(self):
        t = fit_template(SIGMOID, [9.0, 11.0])
        assert t.mean_us == 10.0
        assert t.var_us2 == 2.0  # ddof=1
        assert t.n_profiling == 2

    @pytest.mark.parametrize("samples", [
        calibrated_delay().draw(np.random.default_rng(3), 10_000),
        1e6 + np.random.default_rng(4).uniform(0.0, 1.0, 10_000),
        [0.1, 0.7],
        [1e6 + 0.1, 1e6 + 0.2, 1e6 + 0.7],
    ], ids=["calibrated-delay", "offset-1e6", "n2", "n3"])
    def test_moments_are_numpy_mean_and_var_bit_for_bit(self, samples):
        t = fit_template(SIGMOID, samples)
        assert t.mean_us == float(np.mean(samples))
        assert t.var_us2 == float(np.var(samples, ddof=1))
        assert t.n_profiling == len(samples)

    def test_degenerate_profiles_rejected(self):
        with pytest.raises(ValueError):
            fit_template(SIGMOID, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_template(SIGMOID, [1.0])

    def test_non_finite_samples_rejected_as_such(self):
        # Not as a degenerate profile (NaN), nor through a NaN variance with
        # an invalid-subtract warning (inf).
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                fit_template(SIGMOID, [1.0, bad, 2.0])

    def test_constant_samples_rejected_despite_rounding(self):
        # 10,000 equal latencies: np.var(ddof=1) rounds to about 3e-30, not 0.
        samples = np.full(10_000, 88 / 84e6 * 1e6 + 5.0)
        assert np.var(samples, ddof=1) > 0
        with pytest.raises(ValueError, match="equal"):
            fit_template(RELU, samples)

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
        model = device_model()
        templates = profile_phase(model, THREE_CLASSES, 50, np.random.default_rng(5))
        assert set(templates) == set(THREE_CLASSES)
        assert all(t.n_profiling == 50 for t in templates.values())
        assert all(t.var_us2 > 0 for t in templates.values())

    def test_profile_phase_validation(self):
        model = device_model()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            profile_phase(model, [RELU], 10, rng)
        with pytest.raises(ValueError):
            profile_phase(model, [RELU, RELU], 10, rng)
        with pytest.raises(ValueError):
            profile_phase(model, THREE_CLASSES, 1, rng)

    def test_fit_consistency_across_profile_sizes(self):
        # More profiling tightens the estimate toward the analytic moments.
        model = device_model()
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
        model = device_model(delay=quiet)
        rng = np.random.default_rng(17)
        templates = profile_phase(model, THREE_CLASSES, 200, rng)
        result = run_attack(model, templates, TANH, 50, rng)
        assert result.separation_n == 1
        assert result.success
        assert result.final_argmax == TANH

    def test_score_history_shape(self):
        model = device_model()
        rng = np.random.default_rng(2)
        templates = profile_phase(model, THREE_CLASSES, 500, rng)
        result = run_attack(model, templates, SIGMOID, 40, rng)
        assert list(result.score_history) == list(templates)
        assert all(len(v) == 40 for v in result.score_history.values())
        rows = list(result.score_history.values())
        # The rows of one (classes, n) array.
        assert rows[0].base is not None and all(row.base is rows[0].base for row in rows)
        assert result.n_measurements == 40
        if result.separation_n is not None:
            assert 1 <= result.separation_n <= 40

    def test_separation_definition_on_crafted_histories(self):
        # The reported n is the first count after which the true class leads
        # for good; leading only intermittently must not count.
        model = device_model()
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
        model = device_model()
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
        # Without histories the results compare as plain values.
        model = device_model()
        a = attack_experiment(model, THREE_CLASSES, 200, 100, 3, master_seed=9,
                              keep_history_trials=0)
        b = attack_experiment(model, THREE_CLASSES, 200, 100, 3, master_seed=9,
                              keep_history_trials=0)
        assert a == b
        c = attack_experiment(model, THREE_CLASSES, 200, 100, 3, master_seed=10,
                              keep_history_trials=0)
        assert a != c

    def test_record_layout_and_kept_histories(self):
        model = device_model()
        results = attack_experiment(
            model, THREE_CLASSES, 200, 100, 4, master_seed=1, keep_history_trials=2
        )
        assert list(results) == [(k, t) for k in THREE_CLASSES for t in range(4)]
        for (kind, trial), result in results.items():
            assert result.true_kind == kind
            if trial < 2:
                assert [len(v) for v in result.score_history.values()] == [100] * 3
            else:
                assert result.score_history is None

    def test_desync_attack_succeeds_quickly(self):
        model = device_model()
        results = attack_experiment(model, THREE_CLASSES, 2000, 4000, 5, master_seed=33)
        assert all(r.success for r in results.values())
        assert all(r.final_argmax == r.true_kind for r in results.values())
        assert max(r.separation_n for r in results.values()) <= 4000

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            attack_experiment(device_model(), THREE_CLASSES, 10, 10, 0, 0)
