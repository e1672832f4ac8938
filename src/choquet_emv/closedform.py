"""Closed-form solutions of the exploratory mean-variance problem.

Everything here is exact algebra over a market with one risky asset
(drift mu, volatility sigma, risk-free rate r, Sharpe ratio
rho = (mu - r)/sigma) and a quadratic terminal objective pinned by a
Lagrange multiplier w.  Two regularizer modes are supported:

* "plain": the Choquet randomness measure Phi_h itself weights the
  running exploration reward, giving value function

      V(t,x) = (x-w)^2 e^{-rho^2 (T-t)}
               - lam^2 ||h'||^2 (e^{rho^2 (T-t)} - 1) / (4 rho^2 sigma^2)
               - (w-z)^2,

  and an optimal policy with mean -rho/sigma (x-w) and scale
  S(t) = lam e^{rho^2 (T-t)} / (2 sigma^2).

* "log": log Phi_h weights the running reward; the optimal mean is the
  same, the scale becomes sqrt(lam / (2 sigma^2 ||h'||^2)) e^{rho^2(T-t)/2}
  so the optimal action variance lam e^{rho^2(T-t)} / (2 sigma^2) no
  longer depends on the distortion.

The policy-improvement operator maps any quadratic value function
A(t)(x-w)^2 + F(t) to a location-scale policy; starting from the feedback
family a(x-w) + c1 e^{c2 (T-t)} h'(1-p) it reaches the optimum in exactly
two steps, which `policy_iteration` reproduces in parameter space.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distortion import DistortionFn
from .policy import LocationScalePolicy, check_mode, running_reward
from .quadrature import gauss_legendre_01


class DegenerateSharpeError(ValueError):
    """rho = 0 makes the requested closed form ill-defined."""


class ConvexityError(ValueError):
    """The value function is not strictly convex in x where required."""


@dataclass(frozen=True)
class MarketParams:
    """Single risky asset: annualized drift, volatility and risk-free rate."""

    mu: float
    sigma: float
    r: float = 0.0

    def __post_init__(self):
        _require_finite(self, "mu", "sigma", "r")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.rho):
            raise ValueError(f"price of risk (mu - r) / sigma must be finite, got {self.rho}")

    @property
    def rho(self) -> float:
        return (self.mu - self.r) / self.sigma


@dataclass(frozen=True)
class EMVSpec:
    """Problem data: horizon, exploration weight, wealth target and mode."""

    T: float
    lam: float
    z: float
    x0: float
    mode: str
    h: DistortionFn

    def __post_init__(self):
        _require_finite(self, "T", "lam", "z", "x0")
        if not self.T > 0.0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.lam < 0.0:
            raise ValueError(f"exploration weight must be nonnegative, got {self.lam}")
        if check_mode(self.mode) == "log" and self.lam <= 0.0:
            raise ValueError("log mode requires a positive exploration weight")


@dataclass(frozen=True)
class FeedbackPolicyParams:
    """Feedback family Q(p) = a (x - w) + c1 e^{c2 (T-t)} h'(1-p)."""

    mean_coef: float
    scale_base: float
    scale_rate: float

    def scale(self, t: float, T: float) -> float:
        return self.scale_base * math.exp(self.scale_rate * (T - t))


@dataclass(frozen=True)
class QuadraticValueFn:
    """Value function A(t)(x-w)^2 + F(t) with F absorbing the -(w-z)^2 shift."""

    A: Callable[[float], float]
    F: Callable[[float], float]
    w: float

    def value(self, t: float, x: float) -> float:
        return self.A(t) * (x - self.w) ** 2 + self.F(t)

    def vx(self, t: float, x: float) -> float:
        return 2.0 * self.A(t) * (x - self.w)

    def vxx(self, t: float) -> float:
        return 2.0 * self.A(t)


def _require_finite(record, *names: str):
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite, got {getattr(record, name)}")


def _require_int(record, *names: str):
    """Store each named field of a frozen record as an int; refuse floats and bools."""
    for name in names:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(record, name, int(value))


def _require_rho(market: MarketParams) -> float:
    rho = market.rho
    if rho == 0.0:
        raise DegenerateSharpeError(
            "degenerate Sharpe ratio: mu = r leaves the multiplier and "
            "exploratory closed forms undefined"
        )
    return rho


def _check_time(t: float, T: float):
    if not (0.0 <= t <= T * (1.0 + 1e-12)):
        raise ValueError(f"time {t} outside the horizon [0, {T}]")


def lagrange_multiplier(spec: EMVSpec, market: MarketParams) -> float:
    """w = (z e^{rho^2 T} - x0) / (e^{rho^2 T} - 1), pinning E[X_T] = z."""
    rho = _require_rho(market)
    growth = math.exp(rho**2 * spec.T)
    return (spec.z * growth - spec.x0) / (growth - 1.0)


def classical_solution(t, x, spec: EMVSpec, market: MarketParams, w: float):
    """Non-exploratory optimum: action -rho/sigma (x-w) and its value."""
    _check_time(t, spec.T)
    rho = market.rho
    decay = np.exp(-(rho**2) * (spec.T - t))
    u = -(rho / market.sigma) * (x - w)
    v = (x - w) ** 2 * decay - (w - spec.z) ** 2
    return u, v


def value_plain(t, x, spec: EMVSpec, market: MarketParams, w: float):
    _check_time(t, spec.T)
    rho = _require_rho(market)
    tau = spec.T - t
    l2sq = spec.h.l2_norm**2
    gap = (spec.lam**2 * l2sq / (4.0 * rho**2 * market.sigma**2)) * np.expm1(rho**2 * tau)
    return (x - w) ** 2 * np.exp(-(rho**2) * tau) - gap - (w - spec.z) ** 2


def value_log(t, x, spec: EMVSpec, market: MarketParams, w: float):
    _check_time(t, spec.T)
    rho = _require_rho(market)
    T, lam = spec.T, spec.lam
    l2sq = spec.h.l2_norm**2
    tau = T - t
    quad = (x - w) ** 2 * np.exp(-(rho**2) * tau)
    running = (lam * rho**2 / 4.0) * (T**2 - t**2) - (lam / 2.0) * (
        rho**2 * T + math.log(lam * l2sq / (2.0 * math.e * market.sigma**2))
    ) * tau
    return quad + running - (w - spec.z) ** 2


def value(t, x, spec: EMVSpec, market: MarketParams, w: float):
    fn = value_plain if spec.mode == "plain" else value_log
    return fn(t, x, spec, market, w)


def value_derivatives(t, x, spec: EMVSpec, market: MarketParams, w: float):
    """Analytic (V_t, V_x, V_xx) of the mode's value function."""
    _check_time(t, spec.T)
    rho = _require_rho(market)
    tau = spec.T - t
    decay = math.exp(-(rho**2) * tau)
    l2sq = spec.h.l2_norm**2
    vx = 2.0 * (x - w) * decay
    vxx = 2.0 * decay
    if spec.mode == "plain":
        vt = rho**2 * (x - w) ** 2 * decay + (
            spec.lam**2 * l2sq / (4.0 * market.sigma**2)
        ) * math.exp(rho**2 * tau)
    else:
        vt = (
            rho**2 * (x - w) ** 2 * decay
            - (spec.lam * rho**2 / 2.0) * t
            + (spec.lam / 2.0)
            * (rho**2 * spec.T + math.log(spec.lam * l2sq / (2.0 * math.e * market.sigma**2)))
        )
    return vt, vx, vxx


def hjb_residual(t, x, spec: EMVSpec, market: MarketParams, w: float) -> float:
    """Residual of the mode's HJB equation at (t, x); zero at the solution.

    plain: V_t - rho^2 V_x^2 / (2 V_xx) - lam^2 ||h'||^2 / (2 sigma^2 V_xx)
    log:   V_t - rho^2 V_x^2 / (2 V_xx) + lam/2
           - (lam/2) log(lam ||h'||^2 / (sigma^2 V_xx))
    """
    vt, vx, vxx = value_derivatives(t, x, spec, market, w)
    rho = market.rho
    l2sq = spec.h.l2_norm**2
    hamiltonian = vt - 0.5 * rho**2 * vx**2 / vxx
    if spec.mode == "plain":
        return hamiltonian - spec.lam**2 * l2sq / (2.0 * market.sigma**2 * vxx)
    return hamiltonian + 0.5 * spec.lam - 0.5 * spec.lam * math.log(
        spec.lam * l2sq / (market.sigma**2 * vxx)
    )


def _scale(spec: EMVSpec, sigma: float, vxx) -> tuple[float, float]:
    """Hamiltonian-maximising scale at curvature V_xx, and the power of
    1/V_xx it grows with: lam / (sigma^2 V_xx) in plain mode,
    sqrt(lam / (sigma^2 ||h'||^2 V_xx)) in log mode."""
    if spec.mode == "plain":
        return spec.lam / (sigma**2 * vxx), 1.0
    return math.sqrt(spec.lam / (sigma**2 * spec.h.l2_norm**2 * vxx)), 0.5


def optimal_scale(t, spec: EMVSpec, market: MarketParams):
    """Scale S(t) of the optimal exploratory policy for the mode."""
    c1, power = _scale(spec, market.sigma, 2.0)
    return c1 * np.exp(power * market.rho**2 * (spec.T - t))


def optimal_policy(t, x, spec: EMVSpec, market: MarketParams, w: float) -> LocationScalePolicy:
    """Optimal exploratory action distribution at state (t, x)."""
    _check_time(t, spec.T)
    rho = market.rho
    mean = -(rho / market.sigma) * (x - w)
    return LocationScalePolicy(h=spec.h, location=mean,
                               scale=float(optimal_scale(t, spec, market)))


def optimal_feedback(spec: EMVSpec, market: MarketParams) -> FeedbackPolicyParams:
    """The optimum expressed in the feedback family's (a, c1, c2) parameters."""
    classical = FeedbackPolicyParams(-_require_rho(market) / market.sigma, 0.0, 0.0)
    return improve_feedback(classical, spec, market)


def exploration_cost(spec: EMVSpec, market: MarketParams) -> float:
    """Objective loss caused by exploration relative to the classical optimum."""
    if spec.mode == "log":
        return spec.lam * spec.T / 2.0
    rho = _require_rho(market)
    l2sq = spec.h.l2_norm**2
    return spec.lam**2 * l2sq / (4.0 * rho**2 * market.sigma**2) * math.expm1(rho**2 * spec.T)


def cost_ratio(spec: EMVSpec, market: MarketParams) -> float:
    """plain-mode cost divided by log-mode cost at the same lam."""
    rho = _require_rho(market)
    l2sq = spec.h.l2_norm**2
    x = rho**2 * spec.T
    return spec.lam * l2sq / (2.0 * market.sigma**2) * math.expm1(x) / x


def expected_wealth(t, spec: EMVSpec, market: MarketParams, w: float):
    """E[X_t] under any of the optimal policies: (x0-w) e^{-rho^2 t} + w."""
    rho = market.rho
    return (spec.x0 - w) * np.exp(-(rho**2) * np.asarray(t, dtype=float)) + w


def _expint(rate: float, tau: float) -> float:
    # integral_0^tau e^{rate s} ds, stable through rate -> 0
    if abs(rate * tau) < 1e-14:
        return tau * (1.0 + 0.5 * rate * tau)
    return math.expm1(rate * tau) / rate


def feedback_value_fn(
    fb: FeedbackPolicyParams, spec: EMVSpec, market: MarketParams, w: float
) -> QuadraticValueFn:
    """Exact value function of a feedback-family policy.

    The quadratic coefficient solves A' = -(2 rho sigma a + sigma^2 a^2) A
    backwards from A(T) = 1, so A(t) = e^{k (T-t)} with
    k = 2 rho sigma a + sigma^2 a^2; the state-independent part integrates
    the policy's diffusion load and regularizer reward in closed form.
    """
    if spec.mode == "log" and fb.scale_base <= 0.0:
        raise ValueError("log mode needs a strictly positive policy scale")
    rho, sigma = market.rho, market.sigma
    a, c1, c2 = fb.mean_coef, fb.scale_base, fb.scale_rate
    k = 2.0 * rho * sigma * a + sigma**2 * a**2
    l2sq = spec.h.l2_norm**2
    T, lam = spec.T, spec.lam
    shift = (w - spec.z) ** 2

    def A(t: float, _k=k, _T=T) -> float:
        return math.exp(_k * (_T - t))

    def F(t: float) -> float:
        tau = T - t
        load = sigma**2 * c1**2 * l2sq * _expint(k + 2.0 * c2, tau)
        if spec.mode == "plain":
            reward = lam * c1 * l2sq * _expint(c2, tau)
        else:
            reward = lam * (tau * math.log(c1 * l2sq) + 0.5 * c2 * tau**2)
        return load - reward - shift

    return QuadraticValueFn(A=A, F=F, w=w)


def improvement_step(
    value_fn: QuadraticValueFn, spec: EMVSpec, market: MarketParams, t, x
) -> LocationScalePolicy:
    """One policy-improvement update from a quadratic value function.

    Mean -rho/sigma V_x/V_xx is invariant across the quadratic family;
    the scale is lam / (sigma^2 V_xx) in plain mode and
    sqrt(lam / (sigma^2 ||h'||^2 V_xx)) in log mode.
    """
    _check_time(t, spec.T)
    a_t = value_fn.A(t)
    if a_t <= 0.0:
        raise ConvexityError(f"convexity violated: A({t}) = {a_t} <= 0")
    rho, sigma = market.rho, market.sigma
    mean = -(rho / sigma) * (x - value_fn.w)
    scale, _ = _scale(spec, sigma, 2.0 * a_t)
    return LocationScalePolicy(h=spec.h, location=mean, scale=scale)


def improve_feedback(
    fb: FeedbackPolicyParams, spec: EMVSpec, market: MarketParams
) -> FeedbackPolicyParams:
    """The improvement step expressed inside the feedback family."""
    rho, sigma = market.rho, market.sigma
    k = 2.0 * rho * sigma * fb.mean_coef + sigma**2 * fb.mean_coef**2
    c1, power = _scale(spec, sigma, 2.0)
    return FeedbackPolicyParams(-rho / sigma, c1, -power * k)


def policy_iteration(
    initial: FeedbackPolicyParams | tuple[float, float, float],
    spec: EMVSpec,
    market: MarketParams,
) -> list[tuple[FeedbackPolicyParams, QuadraticValueFn]]:
    """Three rounds of evaluation and improvement from a feedback-family policy.

    Returns [(policy_k, value_k) for steps k = 0, 1, 2, 3]: policy_0 is the
    initial one, policy_2 equals the mode's optimum and policy_3 confirms it
    is a fixed point.
    """
    if not isinstance(initial, FeedbackPolicyParams):
        initial = FeedbackPolicyParams(*initial)
    w = lagrange_multiplier(spec, market)
    out = []
    fb = initial
    for _ in range(4):
        out.append((fb, feedback_value_fn(fb, spec, market, w)))
        fb = improve_feedback(fb, spec, market)
    return out


# ---------------------------------------------------------------------------
# Schedules: vectorized (t, states) -> (action mean, action std) maps
# consumed by the market simulator.  The std is scale * ||h'||_2.
# ---------------------------------------------------------------------------


def optimal_schedule(spec: EMVSpec, market: MarketParams, w: float):
    rho, sigma = market.rho, market.sigma
    l2 = spec.h.l2_norm

    def schedule(t, x):
        mean = -(rho / sigma) * (np.asarray(x, dtype=float) - w)
        return mean, optimal_scale(t, spec, market) * l2

    return schedule


def exploration_cost_by_quadrature(spec: EMVSpec, market: MarketParams) -> float:
    """Definitional exploration cost: value gap plus the regularizer integral.

    Evaluates V(0,x0) - Vcl(0,x0) + lam * integral_0^T reg(S(t)) dt with the
    optimal scale schedule under the mode's regularizer, by 512-node
    Gauss-Legendre quadrature in time.  Serves as the independent check of
    the closed form.
    """
    w = lagrange_multiplier(spec, market)
    nodes, weights = gauss_legendre_01(512)
    scales = optimal_scale(nodes * spec.T, spec, market)
    reg = running_reward(scales * spec.h.l2_norm**2, spec.mode)
    integral = float(np.dot(weights, reg)) * spec.T
    _, vcl = classical_solution(0.0, spec.x0, spec, market, w)
    return value(0.0, spec.x0, spec, market, w) + spec.lam * integral - vcl
