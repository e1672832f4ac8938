"""Model-free actor-critic trainer for the exploratory mean-variance task.

Critic and actor are parameterized on the closed-form solution shapes:

    V_theta(t, x)  = (x-w)^2 e^{-theta2 (T-t)} - theta1 e^{theta0 (T-t)} - (w-z)^2
    policy(t, x)   = location -phi0 (x-w), scale e^{phi1/2 + phi2 (T-t)/2}

Each episode samples one wealth trajectory action by action, forms the
one-step temporal-difference errors

    delta_i = -lam p(t_i) dt + V(t_{i+1}, x_{i+1}) - V(t_i, x_i)

with p the policy's (log-)regularizer value, and applies semi-gradient
updates: the critic moves along -sum dV/dtheta * delta_i, the actor along
the score-function sum plus the explicit regularizer gradient.  Targets
are frozen (no gradient flows through V at t_{i+1}).  A stochastic
approximation step moves the multiplier w toward the wealth target every
``avg_window`` episodes.  Update magnitudes decay like j^{-decay}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import MarketParams, _require_finite
from .distortion import DistortionFn
from .market import SimConfig, path_stream, rollout
from .policy import check_mode, log_density_grad_fields, standardized_draw

_CRITIC_FORMS = ("standard", "corrected")


class TrainingDivergedError(RuntimeError):
    """A parameter became non-finite during training."""

    def __init__(self, episode: int, detail: str = ""):
        self.episode = episode
        super().__init__(f"training diverged at episode {episode}{': ' + detail if detail else ''}")


@dataclass(frozen=True)
class TrainConfig:
    """Inputs of the training loop; defaults follow the simulation study."""

    episodes: int
    h: DistortionFn
    lam: float
    mode: str
    sim: SimConfig
    z: float
    x0: float = 1.0
    avg_window: int = 10
    alpha_theta: float = 0.01
    alpha_phi: float = 0.01
    alpha_w: float = 0.01
    decay: float = 0.51
    # phi defaults give a modest initial exploration scale (about 0.4 near
    # the horizon) and a mean-reversion coefficient of 2; at the study's
    # learning rates the scale parameters barely move, so the init sets the
    # converged exploration level.
    theta_init: tuple[float, float, float] = (1.0, 0.1, 1.0)
    phi_init: tuple[float, float, float] = (2.0, -2.0, 1.0)
    w_init: float | None = None  # defaults to the wealth target z
    critic_form: str = "standard"
    grad_clip: float | None = None

    def __post_init__(self):
        if self.episodes < 1 or self.avg_window < 1:
            raise ValueError("episodes and avg_window must be >= 1")
        _require_finite(self, "alpha_theta", "alpha_phi", "alpha_w", "lam", "decay", "z", "x0")
        starts = (*self.theta_init, *self.phi_init, 0.0 if self.w_init is None else self.w_init)
        if not all(map(math.isfinite, starts)):
            raise ValueError("theta_init, phi_init and w_init must be finite")
        if min(self.alpha_theta, self.alpha_phi, self.alpha_w) <= 0.0:
            raise ValueError("learning rates must be positive")
        if min(self.lam, self.decay) < 0.0:
            raise ValueError(f"lam and decay must be nonnegative, got {self.lam}, {self.decay}")
        check_mode(self.mode)
        if self.critic_form not in _CRITIC_FORMS:
            raise ValueError(f"critic_form must be one of {_CRITIC_FORMS}")
        if self.grad_clip is not None and not 0.0 < self.grad_clip < math.inf:
            raise ValueError(f"grad_clip must be positive and finite (or None for no clipping), "
                             f"got {self.grad_clip}")

    @property
    def T(self) -> float:
        return self.sim.horizon


@dataclass
class TrainLog:
    """Per-episode history of one training run; reproducible from the seed."""

    terminal_wealth: np.ndarray
    theta: np.ndarray  # (episodes, 3), post-update snapshots
    phi: np.ndarray
    w: np.ndarray
    skipped_actions: int = 0
    clip_events: int = 0

    @property
    def episodes(self) -> int:
        return len(self.terminal_wealth)

    def last_window_stats(self) -> tuple[float, float, float]:
        """(mean, variance, Sharpe) of the last 200 terminal wealths.

        Sharpe is the study's statistic (mean - 1)/sqrt(variance), i.e.
        excess over a unit initial wealth.
        """
        tail = self.terminal_wealth[-min(200, self.episodes):]
        mean = float(np.mean(tail))
        var = float(np.var(tail, ddof=0))
        sharpe = (mean - 1.0) / math.sqrt(var) if var > 0.0 else math.inf
        return mean, var, sharpe

    def block_means(self) -> np.ndarray:
        """Means of the consecutive 100-episode blocks of terminal wealth."""
        n = (self.episodes // 100) * 100
        return self.terminal_wealth[:n].reshape(-1, 100).mean(axis=1)


# ---------------------------------------------------------------------------
# Critic
# ---------------------------------------------------------------------------


def critic_value(theta, t, x, w, z, T, form: str = "standard"):
    """Parameterized value surface V_theta(t, x).

    The standard form carries a theta1 e^{theta0 (T-t)} offset whose
    terminal value is -theta1 rather than 0; "corrected" replaces it with
    theta1 (e^{theta0 (T-t)} - 1), which meets the terminal condition
    exactly.  Both share the same TD differences up to that constant.
    """
    th = np.asarray(theta, dtype=float)
    tau = T - np.asarray(t, dtype=float)
    xw2 = (np.asarray(x, dtype=float) - w) ** 2
    if form == "standard":
        offset = th[1] * np.exp(th[0] * tau)
    else:
        offset = th[1] * np.expm1(th[0] * tau)
    return xw2 * np.exp(-th[2] * tau) - offset - (w - z) ** 2


def critic_grad(theta, t, x, w, T, form: str = "standard"):
    """dV_theta/dtheta, stacked on the last axis."""
    th = np.asarray(theta, dtype=float)
    tau = T - np.asarray(t, dtype=float)
    xw2 = (np.asarray(x, dtype=float) - w) ** 2
    grow = np.exp(th[0] * tau)
    grad = np.empty(np.broadcast_shapes(tau.shape, xw2.shape) + (3,))
    grad[..., 0] = -th[1] * tau * grow
    grad[..., 1] = -grow if form == "standard" else -np.expm1(th[0] * tau)
    grad[..., 2] = -tau * xw2 * np.exp(-th[2] * tau)
    return grad


# ---------------------------------------------------------------------------
# Actor
# ---------------------------------------------------------------------------


def actor_scale(phi, t, T):
    ph = np.asarray(phi, dtype=float)
    return np.exp(0.5 * ph[1] + 0.5 * ph[2] * (T - np.asarray(t, dtype=float)))


def regularizer_schedule(phi, t, h: DistortionFn, mode: str, T):
    """Regularizer value p(t; phi) of the actor and its phi-gradient.

    plain: p = S(t) ||h'||^2 with gradient (0, p/2, p (T-t)/2);
    log:   p = phi1/2 + phi2 (T-t)/2 + 2 log ||h'||_2 with gradient
           (0, 1/2, (T-t)/2).
    """
    ph = np.asarray(phi, dtype=float)
    tau = T - np.asarray(t, dtype=float)
    l2 = h.l2_norm
    grad = np.zeros(tau.shape + (3,))
    if check_mode(mode) == "plain":
        p = np.exp(0.5 * ph[1] + 0.5 * ph[2] * tau) * l2**2
        grad[..., 1] = 0.5 * p
        grad[..., 2] = 0.5 * tau * p
    else:
        p = 0.5 * ph[1] + 0.5 * ph[2] * tau + 2.0 * math.log(l2)
        grad[..., 1] = 0.5
        grad[..., 2] = 0.5 * tau
    return p, grad


# ---------------------------------------------------------------------------
# TD machinery
# ---------------------------------------------------------------------------


def episode_gradients(times, states, actions, theta, phi, w, config: TrainConfig):
    """Semi-gradient updates accumulated over one episode: n + 1 grid times
    and wealths, and the n actions taken between them.

    Returns (grad_theta, grad_phi, n_skipped): the critic gradient
    -sum_i dV/dtheta(t_i) delta_i, the actor gradient
    sum_i [dlog policy(u_i) delta_i - lam dp/dphi dt], and the count of
    replayed actions that fell outside the current policy support (their
    score terms are skipped).
    """
    th, ph = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    T, lam, mode, h = config.T, config.lam, config.mode, config.h
    t_left, x_left = times[:-1], states[:-1]
    dts = np.diff(times)
    tau = T - t_left

    # overflow in a diverging run shows up as non-finite parameters and is
    # reported by the caller; keep the arithmetic silent here
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = critic_value(th, times, states, w, config.z, T, config.critic_form)
        p, dp = regularizer_schedule(ph, t_left, h, mode, T)
        delta = v[1:] - v[:-1] - lam * p * dts

        dv = critic_grad(th, t_left, x_left, w, T, config.critic_form)
        grad_theta = -dv.T @ delta

        scale = actor_scale(ph, t_left, T)
        xw = x_left - w
        dm, ds = log_density_grad_fields(h, actions, -ph[0] * xw, scale)
        in_support = np.isfinite(dm) & np.isfinite(ds)
        n_skipped = int(np.size(in_support) - np.count_nonzero(in_support))
        dm = np.where(in_support, dm, 0.0)
        ds = np.where(in_support, ds, 0.0)
        # chain rule through (M, S): M = -phi0 (x-w), S = e^{phi1/2 + phi2 tau/2}
        dlog = np.empty(xw.shape + (3,))
        dlog[:, 0] = -xw * dm
        dlog[:, 1] = 0.5 * scale * ds
        dlog[:, 2] = 0.5 * tau * scale * ds
        grad_phi = dlog.T @ delta - lam * dp.T @ dts

    return grad_theta, grad_phi, n_skipped


def lagrange_update(w: float, terminal_batch, alpha_w: float, z: float) -> float:
    """Stochastic-approximation step toward the terminal wealth constraint."""
    batch = np.asarray(terminal_batch, dtype=float)
    return w - alpha_w * (float(np.mean(batch)) - z)


def _clip(vec: np.ndarray, limit: float | None) -> tuple[np.ndarray, bool]:
    if limit is None:
        return vec, False
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        return vec, False  # diverged; the parameter check reports it
    if norm > limit:
        return vec * (limit / norm), True
    return vec, False


def episode_draws(h: DistortionFn, seed: int, index: int, n_steps: int,
                  rng: np.random.Generator | None = None):
    """(eta, noise) of one action path from the Philox stream keyed (seed, index):
    eta = h'(1 - p) at uniforms p clipped into (0, 1), then the wealth normals.
    A given ``rng`` is rekeyed for the path (see ``market.path_stream``)."""
    rng = path_stream(seed, index, rng)
    eta = standardized_draw(h, np.clip(rng.random(n_steps), 2.0**-53, 1.0 - 2.0**-53))
    return eta, rng.standard_normal(n_steps)


def train(config: TrainConfig, market: MarketParams) -> TrainLog:
    """Run the episodic actor-critic loop and return the full history.

    Deterministic given config.sim.seed: episode j draws its uniforms and
    noise from a Philox stream keyed (seed, j), one generator rekeyed per
    episode.
    """
    n_steps, dt = config.sim.n_steps, config.sim.dt
    T, h, z = config.T, config.h, config.z
    times = config.sim.times()

    theta = np.array(config.theta_init, dtype=float)
    phi = np.array(config.phi_init, dtype=float)
    w = float(config.w_init) if config.w_init is not None else float(z)

    K = config.episodes
    tw_log = np.empty(K)
    theta_log = np.empty((K, 3))
    phi_log = np.empty((K, 3))
    w_log = np.empty(K)
    skipped = 0
    clip_events = 0
    rng = np.random.Generator(np.random.Philox())  # rekeyed for every episode

    for j in range(1, K + 1):
        eta, noise = episode_draws(h, config.sim.seed, j, n_steps, rng)
        with np.errstate(over="ignore"):
            scale = actor_scale(phi, times[:-1], T)
        states, actions = rollout(config.x0, w, -phi[0], scale, eta, market, dt, noise)
        if not math.isfinite(states[-1]):
            raise TrainingDivergedError(j, "non-finite wealth")

        g_theta, g_phi, n_skip = episode_gradients(times, states, actions, theta, phi, w, config)
        skipped += n_skip
        g_theta, c1 = _clip(g_theta, config.grad_clip)
        g_phi, c2 = _clip(g_phi, config.grad_clip)
        clip_events += int(c1) + int(c2)

        lr = j ** (-config.decay)
        theta = theta - config.alpha_theta * lr * g_theta
        phi = phi - config.alpha_phi * lr * g_phi
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
            raise TrainingDivergedError(j, "non-finite parameters")

        tw_log[j - 1] = states[-1]
        if j % config.avg_window == 0:
            w = lagrange_update(w, tw_log[j - config.avg_window:j], config.alpha_w, z)
            if not math.isfinite(w):
                raise TrainingDivergedError(j, "non-finite multiplier")
        theta_log[j - 1] = theta
        phi_log[j - 1] = phi
        w_log[j - 1] = w

    return TrainLog(terminal_wealth=tw_log, theta=theta_log, phi=phi_log, w=w_log,
                    skipped_actions=skipped, clip_events=clip_events)
