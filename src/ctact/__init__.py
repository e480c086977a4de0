"""ctact: constant-time activation functions and a timing-leakage bench.

The package has two halves.  The construction half provides branchless
binary32 selection primitives and the one binary32 input check
(:mod:`ctact.ctselect`), a shared fixed-shape rational core
(:mod:`ctact.pade`), and five activation kernels built on them
(:mod:`ctact.activations`), whose ``SPECS`` registry defines each kind in
one place: kernel, libm reference, trace model, threshold and sweep
candidates.  The evaluation half checks what the construction claims:
operation-trace uniformity and host timing (:mod:`ctact.harness`), a
profiled Gaussian-template timing attack against a modeled device
(:mod:`ctact.attack`), and accuracy plus threshold analysis
(:mod:`ctact.analysis`).  ``ctact.cli`` exposes all of it as the ``ctact``
command.
"""

from .activations import (
    SPECS,
    ActivationKind,
    GELU_THRESHOLD,
    SIGMOID_THRESHOLD,
    SWISH_BETA,
    SWISH_THRESHOLD,
    TANH_THRESHOLD,
    KindSpec,
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
)
from .analysis import (
    ErrorReport,
    ThresholdSolution,
    balancing_errors,
    error_metrics,
    solve_tanh_threshold,
    threshold_sweep,
)
from .attack import (
    AttackResult,
    BASE_CYCLES_DESYNC,
    CONSTANT_TIME_CYCLES,
    DEFAULT_CLOCK_HZ,
    DESYNC_CALIBRATION,
    DelaySpec,
    DeviceTimingModel,
    GaussianTemplate,
    INPUT_RANGE,
    TrialRecord,
    attack_experiment,
    calibrated_delay,
    constant_time_model,
    default_desync_model,
    fit_template,
    profile_phase,
    run_attack,
    score_increment,
)
from .grids import GRID_DENSE, GRID_WIDE, GridSpec, inclusive_grid
from .harness import (
    NonUniformTraceError,
    OpTrace,
    TimingSample,
    UniformityReport,
    WelchResult,
    aligned_lengths,
    check_uniformity,
    measure_host,
    trace_eval,
    welch_t_test,
)
from .pade import (
    DENOMINATOR_EXACT,
    DENOMINATOR_F32,
    NUMERATOR_EXACT,
    NUMERATOR_F32,
    rational_tanh,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kinds and kernels
    "ActivationKind",
    "KindSpec",
    "SPECS",
    "TANH_THRESHOLD",
    "SIGMOID_THRESHOLD",
    "GELU_THRESHOLD",
    "SWISH_THRESHOLD",
    "SWISH_BETA",
    "relu_protected",
    "sigmoid_protected",
    "tanh_protected",
    "gelu_protected",
    "swish_protected",
    "relu_ref",
    "sigmoid_ref",
    "tanh_ref",
    "gelu_ref",
    "swish_ref",
    "evaluate",
    # rational core
    "NUMERATOR_EXACT",
    "DENOMINATOR_EXACT",
    "NUMERATOR_F32",
    "DENOMINATOR_F32",
    "rational_tanh",
    # grids
    "GridSpec",
    "GRID_DENSE",
    "GRID_WIDE",
    "inclusive_grid",
    # harness
    "OpTrace",
    "TimingSample",
    "UniformityReport",
    "WelchResult",
    "NonUniformTraceError",
    "trace_eval",
    "check_uniformity",
    "aligned_lengths",
    "measure_host",
    "welch_t_test",
    # attack
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
    # analysis
    "ErrorReport",
    "ThresholdSolution",
    "error_metrics",
    "balancing_errors",
    "solve_tanh_threshold",
    "threshold_sweep",
]
