"""Wavelet denoising with an Epanechnikov spike-and-slab shrinkage rule."""

from .dwt import (
    DaubechiesFilter,
    WaveletPyramid,
    dwt_forward,
    dwt_inverse,
    make_daubechies_filter,
)
from .elicitation import (
    ElicitationConfig,
    SigmaEstimator,
    alpha_level,
    beta_level,
    estimate_sigma,
    lambda_from_s,
)
from .errors import (
    ConfigError,
    DomainError,
    EpashrinkError,
    InputError,
    NumericError,
)
from .shrinkage import (
    DoubleExponential,
    Gaussian,
    MixturePriorParams,
    RuleStatistics,
    esr,
    marginal_m,
    rule_statistics,
)
from .signals import Signal, TestFunctionKind, add_noise, generate_test_function
from .study import (
    CellResult,
    Denoised,
    RuleSpec,
    StudyConfig,
    StudyReport,
    benchmark_elicitation,
    denoise,
    mse,
    run_study,
    shrink_pyramid,
    study_preset,
)
from .thresholds import hard_threshold, soft_threshold, universal_threshold

__all__ = [
    "CellResult",
    "ConfigError",
    "DaubechiesFilter",
    "Denoised",
    "DomainError",
    "DoubleExponential",
    "ElicitationConfig",
    "EpashrinkError",
    "Gaussian",
    "InputError",
    "MixturePriorParams",
    "NumericError",
    "RuleSpec",
    "RuleStatistics",
    "SigmaEstimator",
    "Signal",
    "StudyConfig",
    "StudyReport",
    "TestFunctionKind",
    "WaveletPyramid",
    "add_noise",
    "alpha_level",
    "benchmark_elicitation",
    "beta_level",
    "denoise",
    "dwt_forward",
    "dwt_inverse",
    "esr",
    "estimate_sigma",
    "generate_test_function",
    "hard_threshold",
    "lambda_from_s",
    "make_daubechies_filter",
    "marginal_m",
    "mse",
    "rule_statistics",
    "run_study",
    "shrink_pyramid",
    "soft_threshold",
    "study_preset",
    "universal_threshold",
]

__version__ = "0.1.0"
