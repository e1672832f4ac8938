"""Discounted-wealth simulation.

The wealth SDE is dX = sigma u (rho dt + dW) for a single action u, and

    dX = rho sigma mu_t dt + sigma sqrt(mu_t^2 + s_t^2) dW

under a randomized action with mean mu_t and standard deviation s_t.  Both
are discretized with Euler-Maruyama on the time grid.  Noise comes from
counter-based Philox streams keyed by (seed, path index), so paths are
reproducible independently of chunking or parallel order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import EMVSpec, MarketParams
from .policy import running_reward

_U64 = np.uint64(2**64 - 1)


@dataclass(frozen=True)
class SimConfig:
    """Time grid and path-count configuration for Monte Carlo runs."""

    n_steps: int
    dt: float
    n_paths: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 1 or not (0.0 < self.dt < math.inf) or self.n_paths < 1:
            raise ValueError("SimConfig requires n_steps >= 1, finite dt > 0, n_paths >= 1")

    @classmethod
    def from_horizon(cls, T: float, n_steps: int, n_paths: int = 1, seed: int = 0) -> "SimConfig":
        return cls(n_steps=n_steps, dt=T / n_steps, n_paths=n_paths, seed=seed)

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def check_horizon(self, T: float):
        if abs(self.horizon - T) > 1e-12 * max(1.0, abs(T)):
            raise ValueError(f"grid covers {self.horizon}, spec horizon is {T}")


@dataclass
class WealthPath:
    """One simulated trajectory on the grid.

    ``actions`` holds sampled controls for action-by-action episodes and is
    None for exploratory-dynamics paths, which evolve on distribution
    moments only.  ``running_regularizer`` is the cumulative
    lam * sum reg(t_i) dt term, one entry per grid time.
    """

    times: np.ndarray
    states: np.ndarray
    actions: np.ndarray | None
    running_regularizer: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        if len(self.states) != n or len(self.running_regularizer) != n:
            raise ValueError("grid arrays must share one length")
        if self.actions is not None and len(self.actions) != n - 1:
            raise ValueError("need exactly one action per step")

    @property
    def terminal_wealth(self) -> float:
        return float(self.states[-1])


def path_stream(seed: int, path_index: int) -> np.random.Generator:
    """Philox stream for one path: counter-based, keyed by (seed, index)."""
    key = np.array([np.uint64(seed & int(_U64)), np.uint64(path_index & int(_U64))])
    return np.random.Generator(np.random.Philox(key=key))


def increment(market: MarketParams, dt: float, noise):
    """rho dt + sqrt(dt) Z per step: wealth moves by sigma u times this."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return market.rho * dt + math.sqrt(dt) * np.asarray(noise)


def step(x, u, market: MarketParams, dt: float, noise):
    """One Euler step of the wealth SDE under action u."""
    return x + market.sigma * u * increment(market, dt, noise)


def _path_normals(seed: int, first_path: int, n_paths: int, n_steps: int) -> np.ndarray:
    out = np.empty((n_paths, n_steps))
    for row in range(n_paths):
        out[row] = path_stream(seed, first_path + row).standard_normal(n_steps)
    return out


def _evolve_chunk(schedule, spec, market, sim, noise, record_paths: bool):
    """Euler evolution of a chunk of exploratory paths.

    Returns (terminal states, accumulated lam*reg integral) and, when
    requested, the full state and regularizer histories.
    """
    n_paths, n_steps = noise.shape
    rho, sigma = market.rho, market.sigma
    sdt = math.sqrt(sim.dt)
    x = np.full(n_paths, float(spec.x0))
    reg_acc = np.zeros(n_paths)
    states_hist = np.empty((n_paths, n_steps + 1)) if record_paths else None
    reg_hist = np.empty((n_paths, n_steps + 1)) if record_paths else None
    if record_paths:
        states_hist[:, 0] = x
        reg_hist[:, 0] = 0.0
    for i in range(n_steps):
        t = i * sim.dt
        mean, std = schedule(t, x)
        mean = np.broadcast_to(np.asarray(mean, dtype=float), x.shape)
        std = np.broadcast_to(np.asarray(std, dtype=float), x.shape)
        if spec.lam != 0.0:
            # Phi_h of the policy is (action std) * ||h'||_2, independent of location
            reg_acc = reg_acc + spec.lam * running_reward(std * spec.h.l2_norm, spec.mode) * sim.dt
        x = x + rho * sigma * mean * sim.dt + sigma * np.sqrt(mean**2 + std**2) * sdt * noise[:, i]
        if record_paths:
            states_hist[:, i + 1] = x
            reg_hist[:, i + 1] = reg_acc
    return x, reg_acc, states_hist, reg_hist


def simulate_exploratory(
    schedule, spec: EMVSpec, market: MarketParams, sim: SimConfig, path_index: int = 0
) -> WealthPath:
    """One exploratory-dynamics path under a (t, x) -> (mean, std) schedule."""
    sim.check_horizon(spec.T)
    noise = _path_normals(sim.seed, path_index, 1, sim.n_steps)
    _, _, states, reg = _evolve_chunk(schedule, spec, market, sim, noise, record_paths=True)
    return WealthPath(times=sim.times(), states=states[0], actions=None,
                      running_regularizer=reg[0])


def pathwise_objectives(
    schedule, spec: EMVSpec, market: MarketParams, sim: SimConfig, w: float,
    chunk: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """(terminal wealths, pathwise objectives) for every configured path.

    Per path the objective is (X_T - w)^2 - lam * sum_i reg(t_i) dt
    - (w - z)^2, with the regularizer evaluated at the left grid endpoint of
    each step.
    """
    sim.check_horizon(spec.T)
    xs = np.empty(sim.n_paths)
    vals = np.empty(sim.n_paths)
    for start in range(0, sim.n_paths, chunk):
        n = min(chunk, sim.n_paths - start)
        noise = _path_normals(sim.seed, start, n, sim.n_steps)
        xT, reg_acc, _, _ = _evolve_chunk(schedule, spec, market, sim, noise,
                                          record_paths=False)
        xs[start:start + n] = xT
        vals[start:start + n] = (xT - w) ** 2 - reg_acc - (w - spec.z) ** 2
    return xs, vals


def terminal_wealths(
    schedule, spec: EMVSpec, market: MarketParams, sim: SimConfig, chunk: int = 4096
) -> np.ndarray:
    """Terminal wealth of every configured path (vectorized, chunked)."""
    xs, _ = pathwise_objectives(schedule, spec, market, sim, w=0.0, chunk=chunk)
    return xs


def mc_objective(
    schedule,
    spec: EMVSpec,
    market: MarketParams,
    sim: SimConfig,
    w: float,
    chunk: int = 4096,
) -> tuple[float, float]:
    """Monte Carlo estimate of the exploratory objective and its std error."""
    _, vals = pathwise_objectives(schedule, spec, market, sim, w, chunk=chunk)
    return mean_and_std_error(vals)


def mean_and_std_error(values) -> tuple[float, float]:
    """Sample mean of per-path values and its standard error (inf for one path)."""
    n = len(values)
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return float(np.mean(values)), se
