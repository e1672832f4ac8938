"""Choquet-regularized exploratory mean-variance portfolio control.

Closed-form solutions, distortion-induced exploration samplers, a wealth
simulator and a model-free actor-critic trainer, plus a CLI that drives
the simulation-study experiments.
"""

from .closedform import (
    EMVSpec,
    FeedbackPolicyParams,
    MarketParams,
    QuadraticValueFn,
    classical_solution,
    cost_ratio,
    expected_wealth,
    exploration_cost,
    hjb_residual,
    improvement_step,
    lagrange_multiplier,
    optimal_policy,
    policy_iteration,
    value_log,
    value_plain,
)
from .distortion import (
    BUILTIN_DISTORTIONS,
    DistortionFn,
    custom_distortion,
    get_distortion,
    l2_norm,
    max_constrained,
    regularizer_of_quantile,
)
from .market import SimConfig
from .policy import (
    LocationScalePolicy,
    log_density,
    log_density_grad,
    moments,
    regularizer_value,
    sample,
)
from .rl import TrainConfig, TrainLog, train

__all__ = [
    "BUILTIN_DISTORTIONS",
    "DistortionFn",
    "EMVSpec",
    "FeedbackPolicyParams",
    "LocationScalePolicy",
    "MarketParams",
    "QuadraticValueFn",
    "SimConfig",
    "TrainConfig",
    "TrainLog",
    "classical_solution",
    "cost_ratio",
    "custom_distortion",
    "expected_wealth",
    "exploration_cost",
    "get_distortion",
    "hjb_residual",
    "improvement_step",
    "l2_norm",
    "lagrange_multiplier",
    "log_density",
    "log_density_grad",
    "max_constrained",
    "moments",
    "optimal_policy",
    "policy_iteration",
    "regularizer_of_quantile",
    "regularizer_value",
    "sample",
    "train",
    "value_log",
    "value_plain",
]

__version__ = "0.1.0"
