"""Profiled Gaussian template attack against a modeled timing side channel.

The device model produces one latency observation per activation call:

    latency_us = base_cycles(kind, x) / clock * 1e6 + delay_us

where base_cycles is an integer cycle count (with a small input-dependent
component for the unprotected sigmoid and tanh) and delay_us is a draw from
the desynchronisation countermeasure's nonnegative delay distribution.
Cycle counts stay integers internally; conversion to microseconds happens
only at this boundary.

The attack is the classic two-phase template attack.  Profiling fits one
Gaussian (mean, unbiased variance) per activation class; the online phase
accumulates per-class log-likelihood scores

    score_n(c) = -sum_i [ ln var_c + (t_i - mean_c)^2 / var_c ]

and the attack succeeds when the true class takes the lead and keeps it.

Randomness: PCG64 (numpy's default_rng).  Experiments derive one child
stream per trial from a master SeedSequence, so any trial can be reproduced
independently of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .activations import ActivationKind

__all__ = [
    "DelaySpec",
    "DeviceTimingModel",
    "GaussianTemplate",
    "AttackResult",
    "TrialRecord",
    "INPUT_RANGE",
    "BASE_CYCLES_DESYNC",
    "CONSTANT_TIME_CYCLES",
    "DESYNC_CALIBRATION",
    "DEFAULT_CLOCK_HZ",
    "calibrated_delay",
    "default_desync_model",
    "constant_time_model",
    "fit_template",
    "score_increment",
    "profile_phase",
    "run_attack",
    "attack_experiment",
]

# Inputs are drawn uniformly from this interval during profiling and attack.
INPUT_RANGE = (-8.0, 8.0)

# Unprotected per-call base latencies in cycles for the three-class device,
# and the shared constant latency of its protected counterpart.
BASE_CYCLES_DESYNC = {
    ActivationKind.RELU: 12,
    ActivationKind.SIGMOID: 221,
    ActivationKind.TANH: 403,
}
CONSTANT_TIME_CYCLES = 88

# Template moments (mean us, variance us^2) the default desynchronised model
# is calibrated against.  The delay distribution is solved from the relu row;
# the other two rows then follow from the base-cycle differences.
DESYNC_CALIBRATION = {
    ActivationKind.RELU: (9.964, 20.346),
    ActivationKind.SIGMOID: (12.380, 20.575),
    ActivationKind.TANH: (14.520, 20.645),
}

DEFAULT_CLOCK_HZ = 84e6
_DEFAULT_HISTORY_TRIALS = 1  # trials per true class whose score history is kept

# Input-dependent base component for the unprotected sigmoid/tanh: calls with
# |x| below the first breakpoint run slower by the swing, calls beyond the
# second run faster by it.  Chosen symmetric so the mean shift is zero under
# the uniform input distribution.
_DEFAULT_SWING_CYCLES = 10
_SWING_KINDS = frozenset({ActivationKind.SIGMOID, ActivationKind.TANH})
_SWING_SLOW_BELOW = 2.0
_SWING_FAST_ABOVE = 6.0


def _truncnorm():
    # Only the truncated-gaussian delay needs scipy.stats, which takes most
    # of a second to import, so it is imported on first use.
    from scipy.stats import truncnorm

    return truncnorm


@dataclass(frozen=True)
class DelaySpec:
    """Nonnegative random-delay distribution of the countermeasure.

    ``uniform`` draws from [low_us, high_us]; ``truncated-gaussian`` draws
    from a normal(mean_us, std_us) truncated to [0, inf).
    """

    distribution: str = "uniform"
    low_us: float = 0.0
    high_us: float = 0.0
    mean_us: float = 0.0
    std_us: float = 1.0

    def __post_init__(self) -> None:
        if self.distribution == "uniform":
            if self.low_us < 0 or self.high_us < self.low_us:
                raise ValueError(
                    f"uniform delay needs 0 <= low <= high, got "
                    f"[{self.low_us}, {self.high_us}]"
                )
        elif self.distribution == "truncated-gaussian":
            if self.std_us <= 0:
                raise ValueError(f"std_us must be positive, got {self.std_us}")
        else:
            raise ValueError(f"unknown delay distribution: {self.distribution!r}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.distribution == "uniform":
            return rng.uniform(self.low_us, self.high_us, size)
        lo = (0.0 - self.mean_us) / self.std_us
        return _truncnorm().rvs(
            lo, np.inf, loc=self.mean_us, scale=self.std_us,
            size=size, random_state=rng,
        )

    def mean(self) -> float:
        if self.distribution == "uniform":
            return 0.5 * (self.low_us + self.high_us)
        lo = (0.0 - self.mean_us) / self.std_us
        m, _ = _truncnorm().stats(
            lo, np.inf, loc=self.mean_us, scale=self.std_us, moments="mv"
        )
        return float(m)

    def variance(self) -> float:
        if self.distribution == "uniform":
            width = self.high_us - self.low_us
            return width * width / 12.0
        lo = (0.0 - self.mean_us) / self.std_us
        _, v = _truncnorm().stats(
            lo, np.inf, loc=self.mean_us, scale=self.std_us, moments="mv"
        )
        return float(v)


def calibrated_delay() -> DelaySpec:
    """Uniform delay solved from the relu calibration row.

    The mean makes base + delay hit the target template mean; the width
    makes the delay variance hit the target template variance.  The other
    classes then land within a fraction of a percent of their targets.
    """
    target_mean, target_var = DESYNC_CALIBRATION[ActivationKind.RELU]
    base_us = BASE_CYCLES_DESYNC[ActivationKind.RELU] / DEFAULT_CLOCK_HZ * 1e6
    mean = target_mean - base_us
    width = math.sqrt(12.0 * target_var)
    return DelaySpec("uniform", low_us=mean - width / 2.0, high_us=mean + width / 2.0)


@dataclass(frozen=True)
class DeviceTimingModel:
    """Per-class latency generator for one device configuration."""

    base_cycles: Mapping
    delay: DelaySpec
    clock_hz: float = DEFAULT_CLOCK_HZ
    input_swing_cycles: int = _DEFAULT_SWING_CYCLES

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {self.clock_hz}")
        for kind, cycles in self.base_cycles.items():
            if cycles <= 0 or cycles != int(cycles):
                raise ValueError(f"base cycles for {kind} must be a positive integer")
        if self.input_swing_cycles < 0:
            raise ValueError("input_swing_cycles must be >= 0")

    @property
    def us_per_cycle(self) -> float:
        return 1e6 / self.clock_hz

    def cycles_at(self, kind: ActivationKind, xs: np.ndarray) -> np.ndarray:
        """Integer cycle count per input (before the random delay)."""
        kind = ActivationKind(kind)
        if kind not in self.base_cycles:
            raise KeyError(f"model has no base latency for {kind}")
        base = np.full(np.shape(xs), int(self.base_cycles[kind]), dtype=np.int64)
        if kind in _SWING_KINDS and self.input_swing_cycles:
            magnitude = np.abs(np.asarray(xs, dtype=np.float64))
            base = base + np.where(magnitude < _SWING_SLOW_BELOW,
                                   self.input_swing_cycles, 0)
            base = base - np.where(magnitude > _SWING_FAST_ABOVE,
                                   self.input_swing_cycles, 0)
        return base

    def latencies_us(self, kind, xs, rng: np.random.Generator) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        cycles = self.cycles_at(kind, xs)
        return cycles * self.us_per_cycle + self.delay.draw(rng, xs.size)

    # Analytic moments under inputs ~ uniform(INPUT_RANGE); the template-fit
    # consistency checks compare sample estimates against these.

    def _swing_probabilities(self, kind) -> tuple:
        if ActivationKind(kind) not in _SWING_KINDS or not self.input_swing_cycles:
            return 0.0, 0.0
        lo, hi = INPUT_RANGE
        span = hi - lo
        slow = max(0.0, min(hi, _SWING_SLOW_BELOW) - max(lo, -_SWING_SLOW_BELOW))
        fast = max(0.0, hi - _SWING_FAST_ABOVE) + max(0.0, -_SWING_FAST_ABOVE - lo)
        return slow / span, fast / span

    def class_mean_us(self, kind) -> float:
        kind = ActivationKind(kind)
        p_slow, p_fast = self._swing_probabilities(kind)
        swing_us = self.input_swing_cycles * self.us_per_cycle
        base_us = self.base_cycles[kind] * self.us_per_cycle
        return base_us + swing_us * (p_slow - p_fast) + self.delay.mean()

    def class_var_us(self, kind) -> float:
        kind = ActivationKind(kind)
        p_slow, p_fast = self._swing_probabilities(kind)
        swing_us = self.input_swing_cycles * self.us_per_cycle
        mean_sw = swing_us * (p_slow - p_fast)
        var_sw = swing_us**2 * (p_slow + p_fast) - mean_sw**2
        return var_sw + self.delay.variance()


def default_desync_model(delay: DelaySpec | None = None,
                         input_swing_cycles: int = _DEFAULT_SWING_CYCLES) -> DeviceTimingModel:
    """Unprotected three-class device behind the random-delay countermeasure."""
    return DeviceTimingModel(
        base_cycles=dict(BASE_CYCLES_DESYNC),
        delay=delay if delay is not None else calibrated_delay(),
        input_swing_cycles=input_swing_cycles,
    )


def constant_time_model(delay: DelaySpec | None = None) -> DeviceTimingModel:
    """Every class shares one constant base latency (the protected build).

    The delay distribution still applies identically to all classes, so the
    observations carry variance but zero class information.
    """
    return DeviceTimingModel(
        base_cycles={kind: CONSTANT_TIME_CYCLES for kind in BASE_CYCLES_DESYNC},
        delay=delay if delay is not None else calibrated_delay(),
        input_swing_cycles=0,
    )


@dataclass(frozen=True)
class GaussianTemplate:
    """Gaussian timing profile of one activation class."""

    kind: ActivationKind
    mean_us: float
    var_us2: float
    n_profiling: int

    def __post_init__(self) -> None:
        if self.n_profiling < 2:
            raise ValueError("a template needs at least 2 profiling samples")
        if not self.var_us2 > 0.0:
            raise ValueError(
                f"degenerate template for {self.kind}: variance {self.var_us2} "
                "(constant samples carry no Gaussian profile)"
            )


def fit_template(kind, samples: Sequence[float]) -> GaussianTemplate:
    """Fit mean and unbiased (n-1) variance to profiling samples."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size < 2:
        raise ValueError("profiling needs at least 2 samples")
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1))
    return GaussianTemplate(ActivationKind(kind), mean, var, int(values.size))


def score_increment(template: GaussianTemplate, observed_us):
    """Log-likelihood contribution of observations under a template.

    Takes one observation (a float) or an array of them (elementwise).
    """
    residual = observed_us - template.mean_us
    return -(math.log(template.var_us2) + residual * residual / template.var_us2)


def profile_phase(model: DeviceTimingModel, classes: Sequence, n_profiling: int,
                  rng: np.random.Generator) -> dict:
    """Fit one template per class from fresh device measurements."""
    kinds = [ActivationKind(c) for c in classes]
    if len(kinds) < 2:
        raise ValueError("profiling needs at least 2 classes")
    if len(set(kinds)) != len(kinds):
        raise ValueError("classes must be distinct")
    if n_profiling < 2:
        raise ValueError("n_profiling must be >= 2")
    templates = {}
    for kind in kinds:
        inputs = rng.uniform(INPUT_RANGE[0], INPUT_RANGE[1], n_profiling)
        observations = model.latencies_us(kind, inputs, rng)
        templates[kind] = fit_template(kind, observations)
    return templates


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one online attack phase.

    ``separation_n`` is the first measurement count after which the true
    class's accumulated score exceeds every rival's and never falls behind
    again within this horizon; None when no such point exists (success is
    False in that case).  ``score_history`` maps each class to its running
    score, one entry per measurement.
    """

    true_kind: ActivationKind
    n_measurements: int
    score_history: dict
    separation_n: int | None
    success: bool
    final_argmax: ActivationKind


def run_attack(model: DeviceTimingModel, templates: Mapping, true_kind,
               n_measurements: int, rng: np.random.Generator) -> AttackResult:
    """Accumulate per-class scores over measurements of the true class."""
    true_kind = ActivationKind(true_kind)
    if true_kind not in templates:
        raise ValueError(f"no template for true class {true_kind}")
    if len(templates) < 2:
        raise ValueError("attack needs at least 2 candidate classes")
    if n_measurements < 1:
        raise ValueError("n_measurements must be >= 1")
    inputs = rng.uniform(INPUT_RANGE[0], INPUT_RANGE[1], n_measurements)
    observed = model.latencies_us(true_kind, inputs, rng)
    history = {
        kind: np.cumsum(score_increment(template, observed))
        for kind, template in templates.items()
    }
    rivals = np.max([history[k] for k in history if k != true_kind], axis=0)
    lead = history[true_kind] > rivals
    if lead[-1]:
        behind = np.nonzero(~lead)[0]
        separation_n = 1 if behind.size == 0 else int(behind[-1]) + 2
    else:
        separation_n = None
    finals = {kind: float(series[-1]) for kind, series in history.items()}
    final_argmax = max(finals, key=finals.get)
    return AttackResult(
        true_kind=true_kind,
        n_measurements=n_measurements,
        score_history=history,
        separation_n=separation_n,
        success=separation_n is not None,
        final_argmax=final_argmax,
    )


@dataclass(frozen=True)
class TrialRecord:
    """Bookkeeping row for one profile-plus-attack trial."""

    true_kind: ActivationKind
    trial_index: int
    separation_n: int | None
    success: bool
    final_argmax: ActivationKind


def attack_experiment(model: DeviceTimingModel, classes: Sequence,
                      n_profiling: int, n_measurements: int, trials: int,
                      master_seed: int, keep_history_trials: int = _DEFAULT_HISTORY_TRIALS):
    """Run ``trials`` independent profile+attack rounds per true class.

    Each trial owns a child RNG stream spawned from the master seed in a
    fixed order (true classes outer, trials inner), so results are
    reproducible trial-by-trial.  Returns ``(records, kept)`` where records
    is a list of :class:`TrialRecord` and kept maps (true_kind, trial_index)
    to the full :class:`AttackResult` for the first ``keep_history_trials``
    trials of each class.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    kinds = [ActivationKind(c) for c in classes]
    root = np.random.SeedSequence(master_seed)
    streams = root.spawn(len(kinds) * trials)
    records = []
    kept = {}
    stream_index = 0
    for target in kinds:
        for trial in range(trials):
            rng = np.random.default_rng(streams[stream_index])
            stream_index += 1
            templates = profile_phase(model, kinds, n_profiling, rng)
            result = run_attack(model, templates, target, n_measurements, rng)
            records.append(TrialRecord(target, trial, result.separation_n,
                                       result.success, result.final_argmax))
            if trial < keep_history_trials:
                kept[(target, trial)] = result
    return records, kept
