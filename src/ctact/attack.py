"""Profiled Gaussian template attack against a modeled timing side channel.

The device model produces one latency observation per activation call:

    latency_us = base_cycles(kind, x) / clock * 1e6 + delay_us

where base_cycles is an integer cycle count (with a small input-dependent
component for the unprotected sigmoid and tanh) and delay_us is a draw from
the desynchronisation countermeasure's nonnegative delay distribution.
A class's base latency takes at most three values (base and base +- swing
cycles), each converted to microseconds once per call batch.  Each
distribution states its analytic (mean, variance) in one method:
``DelaySpec.moments`` for the delay, ``DeviceTimingModel.class_moments`` for
a class's latency under inputs ~ uniform(INPUT_RANGE).

The attack is the classic two-phase template attack.  Profiling fits one
Gaussian (mean, unbiased variance) per activation class; the online phase
accumulates per-class log-likelihood scores

    score_n(c) = -sum_i [ ln var_c + (t_i - mean_c)^2 / var_c ]

and the attack succeeds when the true class takes the lead and keeps it.

The device behind each countermeasure is built by ``device_model``:
``desync`` keeps each class's own base latency behind the random delay, and
``constant-time`` pins every class to one latency that ignores the input.

Randomness: PCG64 (numpy's default_rng).  Experiments derive one child
stream per trial from a master SeedSequence, so any trial can be reproduced
independently of the others.  Within a trial, each batch of n calls takes n
inputs and then n delays from the stream (numpy's own ``uniform`` for the
inputs and a uniform delay), class by class through profiling
and then the attack.  Inputs that no latency reads (relu, and every class
without a swing) are skipped with ``advance(n)`` rather than drawn: PCG64
spends one 64-bit word per double, so the stream position, and every later
draw, is the same as if they had been drawn.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .activations import ActivationKind

__all__ = [
    "DelaySpec", "DeviceTimingModel", "GaussianTemplate", "AttackResult",
    "INPUT_RANGE", "BASE_CYCLES_DESYNC", "CONSTANT_TIME_CYCLES", "DESYNC_CALIBRATION",
    "DEFAULT_CLOCK_HZ", "COUNTERMEASURES", "DELAY_DISTRIBUTIONS",
    "calibrated_delay", "device_model", "fit_template", "score_increment",
    "profile_phase", "run_attack", "attack_experiment",
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
COUNTERMEASURES = ("desync", "constant-time")
DELAY_DISTRIBUTIONS = ("uniform", "truncated-gaussian")
_DEFAULT_HISTORY_TRIALS = 1  # trials per true class whose score history is kept

# Input-dependent base component for the unprotected sigmoid/tanh: calls with
# |x| below the first breakpoint run slower by the swing, calls beyond the
# second run faster by it.  Chosen symmetric so the mean shift is zero under
# the uniform input distribution.
_DEFAULT_SWING_CYCLES = 10
_SWING_KINDS = frozenset({ActivationKind.SIGMOID, ActivationKind.TANH})
_SWING_SLOW_BELOW = 2.0
_SWING_FAST_ABOVE = 6.0
# Probabilities of the slow and the fast band under inputs ~ uniform(INPUT_RANGE).
_LOW, _HIGH = INPUT_RANGE
_P_SLOW = max(0.0, min(_HIGH, _SWING_SLOW_BELOW) - max(_LOW, -_SWING_SLOW_BELOW)) / (_HIGH - _LOW)
_P_FAST = (max(0.0, _HIGH - _SWING_FAST_ABOVE)
           + max(0.0, -_SWING_FAST_ABOVE - _LOW)) / (_HIGH - _LOW)
_BOOLS = (bool, np.bool_)  # numbers to Python and numpy, rejected as parameters


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
        if self.distribution not in DELAY_DISTRIBUTIONS:
            raise ValueError(f"unknown delay distribution: {self.distribution!r}")
        if any(isinstance(v, _BOOLS) for v in dataclasses.astuple(self)):
            raise ValueError("delay parameters must be numbers, not bools")
        # Chained comparisons are False for NaN, so NaN fails each check.
        if self.distribution == "uniform":
            if not 0 <= self.low_us <= self.high_us < math.inf:
                raise ValueError(f"uniform delay needs 0 <= low <= high < inf, "
                                 f"got [{self.low_us}, {self.high_us}]")
            return
        if not (-math.inf < self.mean_us < math.inf and 0 < self.std_us < math.inf):
            raise ValueError(f"truncated-gaussian delay needs a finite mean and a positive "
                             f"finite std, got mean {self.mean_us}, std {self.std_us}")
        mean, var = self.moments()
        if not (math.isfinite(mean) and 0.0 < var < math.inf):
            raise ValueError(f"scipy gives the truncated-gaussian delay (mean {self.mean_us}, "
                             f"std {self.std_us}) mean {mean} and variance {var}; it needs "
                             f"a finite mean and a positive finite variance")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.distribution == "uniform":
            return rng.uniform(self.low_us, self.high_us, size)
        lo = (0.0 - self.mean_us) / self.std_us
        return _truncnorm().rvs(lo, np.inf, loc=self.mean_us, scale=self.std_us,
                                size=size, random_state=rng)

    def moments(self) -> tuple:
        """Mean (us) and variance (us^2) of one delay."""
        if self.distribution == "uniform":
            width = self.high_us - self.low_us
            return 0.5 * (self.low_us + self.high_us), width * width / 12.0
        lo = (0.0 - self.mean_us) / self.std_us
        # scipy also computes the skew, which is never read and warns where
        # the truncation is deep; __post_init__ judges the two moments kept.
        with np.errstate(all="ignore"):
            mean, var = _truncnorm().stats(lo, np.inf, loc=self.mean_us,
                                           scale=self.std_us, moments="mv")
        return float(mean), float(var)


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


def _whole(v) -> bool:
    """Whether ``v`` is a finite integral number and no bool: 12, 12.0, np.int64(12)."""
    return not isinstance(v, _BOOLS) and math.isfinite(v) and v == int(v)


@dataclass(frozen=True)
class DeviceTimingModel:
    """Per-class latency generator for one device configuration.

    ``input_swing_cycles`` applies to the sigmoid and tanh classes only and
    must stay below each of their base latencies, so every call takes at
    least one cycle.
    """

    base_cycles: Mapping
    delay: DelaySpec
    clock_hz: float = DEFAULT_CLOCK_HZ
    input_swing_cycles: int = _DEFAULT_SWING_CYCLES

    def __post_init__(self) -> None:
        if isinstance(self.clock_hz, _BOOLS) or not 0 < self.clock_hz < math.inf:
            raise ValueError(f"clock_hz must be positive and finite, got {self.clock_hz}")
        for kind, cycles in self.base_cycles.items():
            if not (_whole(cycles) and cycles > 0):
                raise ValueError(f"base cycles for {kind} must be a positive integer")
        if not (_whole(self.input_swing_cycles) and self.input_swing_cycles >= 0):
            raise ValueError("input_swing_cycles must be an integer >= 0")
        for kind, cycles in self.base_cycles.items():
            if self._swing_cycles(kind) >= cycles:
                raise ValueError(f"input swing of {self.input_swing_cycles} cycles takes "
                                 f"{ActivationKind(kind).value} ({cycles} cycles) to "
                                 f"{cycles - self.input_swing_cycles}; it must stay below "
                                 f"the base latency")

    @property
    def us_per_cycle(self) -> float:
        return 1e6 / self.clock_hz

    def _swing_cycles(self, kind) -> int:
        """Input-dependent swing of the class's base latency; 0 if it ignores its input."""
        return self.input_swing_cycles if ActivationKind(kind) in _SWING_KINDS else 0

    def observe(self, kind, n: int, rng: np.random.Generator) -> np.ndarray:
        """Latencies in us of ``n`` calls to ``kind`` on inputs ~ uniform(INPUT_RANGE).

        Takes n inputs and then n delays from ``rng``.  Inputs are drawn only
        when the latency reads them; otherwise the stream is advanced past
        them, which leaves it where drawing them would.
        """
        kind = ActivationKind(kind)
        if kind not in self.base_cycles:
            raise KeyError(f"model has no base latency for {kind}")
        cycles, swing = self.base_cycles[kind], self._swing_cycles(kind)
        if swing:
            magnitude = rng.uniform(*INPUT_RANGE, n)
            np.abs(magnitude, out=magnitude)
            # Band 0 is |x| < 2 (slow), 1 the dead zone, 2 is |x| > 6 (fast).
            band = np.add(magnitude >= _SWING_SLOW_BELOW, magnitude > _SWING_FAST_ABOVE,
                          dtype=np.intp)
            levels = np.array([cycles + swing, cycles, cycles - swing]) * self.us_per_cycle
            base_us = levels.take(band)
        else:
            rng.bit_generator.advance(n)
            base_us = cycles * self.us_per_cycle
        latencies = self.delay.draw(rng, n)
        latencies += base_us
        return latencies

    def class_moments(self, kind) -> tuple:
        """Mean (us) and variance (us^2) of one latency of ``kind``.

        Analytic, under inputs ~ uniform(INPUT_RANGE); the template-fit
        consistency checks compare sample estimates against these.
        """
        kind = ActivationKind(kind)
        swing_us = self._swing_cycles(kind) * self.us_per_cycle
        base_us = self.base_cycles[kind] * self.us_per_cycle
        delay_mean, delay_var = self.delay.moments()
        mean_sw = swing_us * (_P_SLOW - _P_FAST)
        # Products, not **2: a float ** overflow raises, a product gives inf.
        var_sw = swing_us * swing_us * (_P_SLOW + _P_FAST) - mean_sw * mean_sw
        return base_us + mean_sw + delay_mean, var_sw + delay_var


def device_model(countermeasure: str = "desync", classes: Sequence = tuple(BASE_CYCLES_DESYNC),
                 delay: DelaySpec | None = None, clock_hz: float = DEFAULT_CLOCK_HZ,
                 input_swing_cycles: int = _DEFAULT_SWING_CYCLES) -> DeviceTimingModel:
    """The modeled device behind one countermeasure, dispatching ``classes``.

    ``desync`` is the unprotected build: each class keeps its own base latency
    from BASE_CYCLES_DESYNC, and sigmoid and tanh swing with the input.
    ``constant-time`` is the protected build: every class takes
    CONSTANT_TIME_CYCLES whatever the input, so ``input_swing_cycles`` is
    ignored and the model's swing is 0.  The delay applies identically to all
    classes, so its observations carry variance but no class information.
    ``delay`` defaults to :func:`calibrated_delay`.
    """
    if countermeasure not in COUNTERMEASURES:
        raise ValueError(f"unknown countermeasure: {countermeasure!r} "
                         f"(known: {', '.join(COUNTERMEASURES)})")
    kinds = [ActivationKind(c) for c in classes]
    unsupported = [k.value for k in kinds if k not in BASE_CYCLES_DESYNC]
    if unsupported:
        raise ValueError(f"no base latency for: {', '.join(unsupported)}; the modeled device "
                         f"dispatches {', '.join(k.value for k in BASE_CYCLES_DESYNC)}")
    if countermeasure == "constant-time":
        base_cycles, input_swing_cycles = dict.fromkeys(kinds, CONSTANT_TIME_CYCLES), 0
    else:
        base_cycles = {k: BASE_CYCLES_DESYNC[k] for k in kinds}
    return DeviceTimingModel(base_cycles, delay if delay is not None else calibrated_delay(),
                             clock_hz, input_swing_cycles)


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
        # A NaN mean would win every argmax, an infinite variance none.
        if not (math.isfinite(self.mean_us) and 0.0 < self.var_us2 < math.inf):
            raise ValueError(f"template for {self.kind} needs a finite mean and a positive "
                             f"finite variance, got mean {self.mean_us}, variance "
                             f"{self.var_us2} (constant samples carry no Gaussian profile)")


class _DegenerateProfile(ValueError):
    """Profiling samples that are all equal: they carry no Gaussian profile."""


def fit_template(kind, samples: Sequence[float]) -> GaussianTemplate:
    """Fit mean and unbiased (n-1) variance to profiling samples.

    The reductions are numpy's own ``mean`` and ``var(ddof=1)``, made once
    each: the sum over n, then the sum of squared deviations from that mean
    over n - 1, so both moments are bit-identical to those two calls.
    Samples that are all equal are rejected: their true variance is zero,
    but summation rounding can leave a tiny positive estimate.
    """
    values = np.asarray(samples, dtype=np.float64)
    n = values.size
    if n < 2:
        raise ValueError("profiling needs at least 2 samples")
    # A NaN or infinite sample makes the sum non-finite, so the samples are
    # checked one by one only then.  inf + -inf is NaN, with no warning; an
    # overflowing sum of finite samples still warns, and the template
    # rejects its infinite mean.
    with np.errstate(invalid="ignore"):
        total = values.sum()
    if not math.isfinite(total) and not np.isfinite(values).all():
        raise ValueError(f"profiling samples for {kind} must be finite")
    if not values.max() > values.min():
        raise _DegenerateProfile(f"degenerate profile for {kind}: all {n} samples "
                                 f"equal (constant samples carry no Gaussian profile)")
    mean = total / n
    dev = values - mean
    dev *= dev
    return GaussianTemplate(ActivationKind(kind), float(mean), float(dev.sum() / (n - 1)), n)


def score_increment(template: GaussianTemplate, observed_us, out=None):
    """Log-likelihood contribution of observations under a template.

    Takes one observation (a float, scored as a ``numpy.float64``) or an
    array of them (elementwise), and writes an array's scores into ``out``
    when one is given.
    """
    score = np.subtract(observed_us, template.mean_us, out=out)
    score = np.multiply(score, score, out=out)
    score = np.divide(score, template.var_us2, out=out)
    score = np.add(score, math.log(template.var_us2), out=out)
    return np.negative(score, out=out)


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
    return {kind: fit_template(kind, model.observe(kind, n_profiling, rng))
            for kind in kinds}


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one online attack phase.

    ``separation_n`` is the first measurement count after which the true
    class's accumulated score exceeds every rival's and never falls behind
    again within this horizon; None when no such point exists (success is
    False in that case).  ``score_history`` maps each class to its running
    score, one entry per measurement; the values are the rows of one
    (classes, n_measurements) array, in template order.  It is None for a
    trial whose history :func:`attack_experiment` did not keep.
    """

    true_kind: ActivationKind
    n_measurements: int
    score_history: dict | None
    separation_n: int | None
    success: bool
    final_argmax: ActivationKind


def run_attack(model: DeviceTimingModel, templates: Mapping, true_kind,
               n_measurements: int, rng: np.random.Generator) -> AttackResult:
    """Accumulate per-class scores over measurements of the true class.

    Each template's score increments fill one row of a (classes, n) array,
    and one cumulative sum along the rows turns them into running scores.
    """
    true_kind = ActivationKind(true_kind)
    if true_kind not in templates:
        raise ValueError(f"no template for true class {true_kind}")
    if len(templates) < 2:
        raise ValueError("attack needs at least 2 candidate classes")
    if n_measurements < 1:
        raise ValueError("n_measurements must be >= 1")
    observed = model.observe(true_kind, n_measurements, rng)
    kinds = list(templates)
    scores = np.empty((len(kinds), n_measurements))
    for row, template in zip(scores, templates.values()):
        score_increment(template, observed, out=row)
    np.cumsum(scores, axis=1, out=scores)
    true_row = kinds.index(true_kind)
    rivals = functools.reduce(np.maximum, (row for i, row in enumerate(scores) if i != true_row))
    lead = scores[true_row] > rivals
    if lead[-1]:
        behind = np.nonzero(~lead)[0]
        separation_n = 1 if behind.size == 0 else int(behind[-1]) + 2
    else:
        separation_n = None
    return AttackResult(
        true_kind=true_kind,
        n_measurements=n_measurements,
        score_history=dict(zip(kinds, scores)),
        separation_n=separation_n,
        success=separation_n is not None,
        # argmax takes the first of tied rows, as max() over the classes would.
        final_argmax=kinds[int(np.argmax(scores[:, -1]))],
    )


def attack_experiment(model: DeviceTimingModel, classes: Sequence,
                      n_profiling: int, n_measurements: int, trials: int,
                      master_seed: int,
                      keep_history_trials: int = _DEFAULT_HISTORY_TRIALS) -> dict:
    """Run ``trials`` independent profile+attack rounds per true class.

    Each trial owns a child RNG stream spawned from the master seed in a
    fixed order (true classes outer, trials inner), so results are
    reproducible trial-by-trial.  Returns ``{(true_kind, trial_index):
    AttackResult}`` in that order.  Only the first ``keep_history_trials``
    trials of each class keep their score history; the others carry
    ``score_history=None``, so memory does not grow with ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    kinds = [ActivationKind(c) for c in classes]
    streams = iter(np.random.SeedSequence(master_seed).spawn(len(kinds) * trials))
    results = {}
    for target in kinds:
        for trial in range(trials):
            rng = np.random.default_rng(next(streams))
            templates = profile_phase(model, kinds, n_profiling, rng)
            result = run_attack(model, templates, target, n_measurements, rng)
            if trial >= keep_history_trials:
                result = dataclasses.replace(result, score_history=None)
            results[(target, trial)] = result
    return results
