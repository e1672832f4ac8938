"""Location-scale exploration policies induced by a distortion function.

A policy is the distribution with quantile Q(p) = M + S h'(1 - p).  Its
mean is M (h' integrates to zero) and its variance is S^2 ||h'||_2^2.  The
three built-in distortions carry closed-form densities in their family
record (``DistortionFn.family``):

* gaussian_score: N(M, S^2),
* entropy_like:   shifted exponential, density exp(-((u-M)/S + 1))/S on
                  u >= M - S,
* gini:           uniform on [M - S, M + S].

Log-densities and their exact (M, S) partials feed the policy-gradient
estimator; the CDFs feed sampling-law tests.  Outside-support points are a
zero-density condition (log-density -inf), not an error, so trajectories
replayed after a location shift degrade gracefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionFn, Family


class DensityUnavailableError(ValueError):
    """The distortion carries no closed-form family record."""


@dataclass(frozen=True)
class LocationScalePolicy:
    """Exploratory action distribution with quantile M + S h'(1 - p)."""

    h: DistortionFn
    location: float
    scale: float

    def __post_init__(self):
        if not self.scale >= 0.0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")

    @property
    def support(self) -> tuple[float, float]:
        lo, hi = self.h.hprime_range
        return self.location + self.scale * lo, self.location + self.scale * hi


def sample(policy: LocationScalePolicy, p):
    """Inverse-transform sample: Q(p) = M + S h'(1 - p) for a uniform draw p
    in (0, 1), on the same unit-scale template as the trainer's draws."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("uniform draw must lie strictly inside (0, 1)")
    out = policy.location + policy.scale * standardized_draw(policy.h, p)
    return out if np.ndim(out) else float(out)


def moments(policy: LocationScalePolicy) -> tuple[float, float]:
    """(mean, variance) = (M, S^2 ||h'||_2^2)."""
    return policy.location, policy.scale**2 * policy.h.l2_norm**2


MODES = ("plain", "log")


def check_mode(mode: str) -> str:
    """The regularizer form's name, if it is one of ``MODES``."""
    if mode not in MODES:
        raise ValueError(f"mode must be 'plain' or 'log', got {mode!r}")
    return mode


def running_reward(phi, mode: str):
    """Running exploration reward of a regularizer value Phi: Phi in plain
    mode, log Phi in log mode (-inf where Phi = 0)."""
    if check_mode(mode) == "plain":
        return phi
    with np.errstate(divide="ignore"):
        return np.where(phi > 0.0, np.log(np.where(phi > 0.0, phi, 1.0)), -np.inf)


def regularizer_value(policy: LocationScalePolicy, mode: str) -> float:
    """Running reward of the policy's Choquet regularizer S ||h'||_2^2.

    A degenerate policy (S = 0) in log mode reports -inf rather than
    raising; the caller decides whether that is acceptable.
    """
    return float(running_reward(policy.scale * policy.h.l2_norm**2, mode))


def _family(h: DistortionFn) -> Family:
    if h.family is None:
        raise DensityUnavailableError(f"no closed-form density for distortion {h.name!r}")
    return h.family


def log_density(policy: LocationScalePolicy, u):
    """log of the policy density at u; -inf outside the support."""
    if policy.scale <= 0.0:
        raise ValueError("log_density requires a nondegenerate policy (S > 0)")
    y = (np.asarray(u, dtype=float) - policy.location) / policy.scale
    out = _family(policy.h).logpdf(y) - math.log(policy.scale)
    return out if np.ndim(out) else float(out)


def log_density_grad_fields(h: DistortionFn, u, location, scale):
    """(d/dM, d/dS) of the log-density, vectorized over aligned arrays.

    With y = (u - M)/S and g the standardized log-density derivative, the
    partials are -g/S and (-1 - y g)/S.  Outside the support both come back
    NaN, mirroring the zero-density condition.
    """
    s = np.asarray(scale, dtype=float)
    y = (np.asarray(u, dtype=float) - np.asarray(location, dtype=float)) / s
    g = _family(h).dlogpdf(y)
    return -g / s, (-1.0 - y * g) / s


def log_density_grad(policy: LocationScalePolicy, u):
    """Exact partials (d/dM, d/dS) of log_density at u.

    At the support boundary of the uniform and exponential families the
    right-derivative in S is used.
    """
    if policy.scale <= 0.0:
        raise ValueError("log_density_grad requires a nondegenerate policy (S > 0)")
    dm, ds = log_density_grad_fields(policy.h, u, policy.location, policy.scale)
    if np.ndim(dm):
        return dm, ds
    return float(dm), float(ds)


def cdf(policy: LocationScalePolicy, u):
    """Closed-form CDF of the policy's family (test and KS oracle)."""
    family = _family(policy.h)
    if policy.scale == 0.0:
        return (np.asarray(u, dtype=float) >= policy.location).astype(float)
    y = (np.asarray(u, dtype=float) - policy.location) / policy.scale
    out = family.cdf(y)
    return out if np.ndim(out) else float(out)


def standardized_draw(h: DistortionFn, p):
    """h'(1 - p) for uniform draws p: the unit-scale sampling template.

    Without a family record h' is evaluated at 1 - p, capped at 1 - 2**-53:
    for p < 2**-54 the difference rounds to 1, where h' may be unbounded.
    """
    p = np.asarray(p, dtype=float)
    if h.family is not None:
        return h.family.draw(p)
    return np.asarray(h.hprime(np.minimum(1.0 - p, 1.0 - 2.0**-53)), dtype=float)
