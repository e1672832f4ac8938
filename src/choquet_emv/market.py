"""Discounted-wealth simulation.

The wealth SDE is dX = sigma u (rho dt + dW) for a single action u, and

    dX = rho sigma mu_t dt + sigma sqrt(mu_t^2 + s_t^2) dW

under a randomized action with mean mu_t and standard deviation s_t.  Both
are discretized with Euler-Maruyama on the time grid, by ``rollout`` (the one
action-by-action path) and ``pathwise_objectives`` (many paths on the moments).
Noise comes from counter-based Philox streams keyed by (seed, path index),
so paths are reproducible independently of chunking or parallel order.  A run
holds one generator and rekeys it for each path or episode, which draws the
same bytes as a fresh generator per path at a fraction of the set-up cost.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .closedform import EMVSpec, MarketParams, _require_int
from .policy import running_reward

_U64 = 2**64 - 1


@dataclass(frozen=True)
class SimConfig:
    """Time grid and path-count configuration for Monte Carlo runs."""

    n_steps: int
    dt: float
    n_paths: int = 1
    seed: int = 0

    def __post_init__(self):
        _require_int(self, "n_steps", "n_paths", "seed")
        if self.n_steps < 1 or not (0.0 < self.dt < math.inf) or self.n_paths < 1:
            raise ValueError("SimConfig requires n_steps >= 1, finite dt > 0, n_paths >= 1")
        try:
            horizon = self.horizon
        except OverflowError:  # n_steps too large for a float
            horizon = math.inf
        if not math.isfinite(horizon):
            raise ValueError(f"horizon n_steps * dt must be finite, got {horizon}")

    @classmethod
    def from_horizon(cls, T: float, n_steps: int, n_paths: int = 1, seed: int = 0) -> "SimConfig":
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        try:
            dt = T / n_steps
        except OverflowError:  # an integer beyond float range
            raise ValueError("n_steps is too large: T / n_steps overflows a float") from None
        return cls(n_steps=n_steps, dt=dt, n_paths=n_paths, seed=seed)

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def check_horizon(self, T: float):
        if abs(self.horizon - T) > 1e-12 * max(1.0, abs(T)):
            raise ValueError(f"grid covers {self.horizon}, spec horizon is {T}")


def path_stream(seed: int, path_index: int,
                rng: np.random.Generator | None = None) -> np.random.Generator:
    """Philox stream for one path: counter-based, keyed by (seed, index).

    A given Philox-backed ``rng`` is rekeyed in place and returned; its draws
    then equal those of a fresh ``Generator(Philox(key=[seed, index]))`` bit
    for bit, whatever it drew before.  Without one, a new generator is keyed.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([operator.index(seed) & _U64,
                                  operator.index(path_index) & _U64], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def increment(market: MarketParams, dt: float, noise):
    """rho dt + sqrt(dt) Z per step: wealth moves by sigma u times this."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return market.rho * dt + math.sqrt(dt) * np.asarray(noise)


def rollout(x0, w, mean_coef, scale, eta, market: MarketParams, dt: float, noise):
    """(states, actions): n + 1 wealths from x0 under the n feedback actions
    u_i = mean_coef (x_i - w) + scale_i eta_i.  A diverging path runs on to
    inf/nan without warnings; callers check the last state."""
    # Python floats round like float64 scalars and overflow to inf/nan
    # silently, at a fraction of the per-step cost of numpy scalars
    sigma, a, w = float(market.sigma), float(mean_coef), float(w)
    x = float(x0)
    states, actions = [x], []
    for s, e, c in zip(scale.tolist(), eta.tolist(), increment(market, dt, noise).tolist()):
        u = a * (x - w) + s * e
        x = x + sigma * u * c
        actions.append(u)
        states.append(x)
    return np.array(states), np.array(actions)


def pathwise_objectives(
    schedule, spec: EMVSpec, market: MarketParams, sim: SimConfig, w: float,
    chunk: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """(terminal wealths, pathwise objectives) for every configured path.

    Paths evolve on the schedule's (t, x) -> (action mean, action std) in
    chunks of ``chunk`` paths.  Per path the objective is (X_T - w)^2
    - lam * sum_i reg(t_i) dt - (w - z)^2, with the regularizer evaluated at
    the left grid endpoint of each step.
    """
    sim.check_horizon(spec.T)
    rho, sigma = market.rho, market.sigma
    sdt = math.sqrt(sim.dt)
    xs = np.empty(sim.n_paths)
    vals = np.empty(sim.n_paths)
    rng = np.random.Generator(np.random.Philox())  # rekeyed for every path
    for start in range(0, sim.n_paths, chunk):
        n = min(chunk, sim.n_paths - start)
        noise = np.empty((n, sim.n_steps))
        for row in range(n):
            path_stream(sim.seed, start + row, rng).standard_normal(sim.n_steps, out=noise[row])
        x = np.full(n, float(spec.x0))
        reg_acc = np.zeros(n)
        for i in range(sim.n_steps):
            mean, std = schedule(i * sim.dt, x)
            mean = np.broadcast_to(np.asarray(mean, dtype=float), x.shape)
            std = np.broadcast_to(np.asarray(std, dtype=float), x.shape)
            if spec.lam != 0.0:
                # Phi_h of the policy is (action std) * ||h'||_2, independent of location
                reg_acc = reg_acc + spec.lam * running_reward(std * spec.h.l2_norm,
                                                              spec.mode) * sim.dt
            x = (x + rho * sigma * mean * sim.dt
                 + sigma * np.sqrt(mean**2 + std**2) * sdt * noise[:, i])
        xs[start:start + n] = x
        vals[start:start + n] = (x - w) ** 2 - reg_acc - (w - spec.z) ** 2
    return xs, vals


def mean_and_std_error(values) -> tuple[float, float]:
    """Sample mean of per-path values and its standard error (inf for one path)."""
    n = len(values)
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return float(np.mean(values)), se
