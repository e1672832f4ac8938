"""Model-free actor-critic trainer for the exploratory mean-variance task.

Critic and actor are parameterized on the closed-form solution shapes:

    V_theta(t, x)  = (x-w)^2 e^{-theta2 (T-t)} - theta1 e^{theta0 (T-t)} - (w-z)^2
    policy(t, x)   = location -phi0 (x-w), scale e^{phi1/2 + phi2 (T-t)/2}

Each episode samples one wealth trajectory action by action, forms the
one-step temporal-difference errors

    delta_i = -lam p(t_i) dt + V(t_{i+1}, x_{i+1}) - V(t_i, x_i)

with p the policy's (log-)regularizer value, and applies semi-gradient
updates: the TD pass (``episode_gradients``) moves the critic along -sum
dV/dtheta * delta_i, and the actor (``score_gradient``) follows the score
sum less the explicit regularizer gradient.  Targets are frozen (no
gradient flows through V at t_{i+1}).  A stochastic approximation step
moves the multiplier w toward the wealth target every ``avg_window``
episodes.  Update magnitudes decay like j^{-decay}.  w is fixed within an
episode, so V's -(w - z)^2 cancels from each delta_i: the TD pass omits it.

``train_many`` runs a batch of such loops in lockstep: each cell draws
its episodes by block and steps its own ``market.wealth_recurrence`` row;
the actor's log scale and scale, the gaps x - w, the policy location and
the actions are formed once per episode over the batch, and the TD pass
and the actor read them under one ``np.errstate``.  Each cell gives the
bytes it gives alone (``train`` is the one-cell case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .closedform import MarketParams, _require_finite, _require_int
from .distortion import DistortionFn
from .market import SimConfig, increment, path_stream, wealth_recurrence
from .policy import check_mode, log_density_grad_fields, standardized_draw

CRITIC_FORMS = ("standard", "corrected")
THETA_INIT = (1.0, 0.1, 1.0)
# the phi start gives a modest initial exploration scale (about 0.4 near
# the horizon) and a mean-reversion coefficient of 2; at the study's
# learning rates the scale parameters barely move, so the start sets the
# converged exploration level.
PHI_INIT = (2.0, -2.0, 1.0)


def _check_form(form: str) -> str:
    if form not in CRITIC_FORMS:
        raise ValueError(f"critic form must be one of {CRITIC_FORMS}, got {form!r}")
    return form


class TrainingDivergedError(RuntimeError):
    """A cell's wealth, parameters or multiplier became non-finite in training."""

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
    alpha: float = 0.01  # learning rate of theta, phi and w
    decay: float = 0.51
    critic_form: str = "standard"
    grad_clip: float | None = None

    def __post_init__(self):
        _require_int(self, "episodes", "avg_window")
        if self.episodes < 1 or self.avg_window < 1:
            raise ValueError("episodes and avg_window must be >= 1")
        _require_finite(self, "alpha", "lam", "decay", "z", "x0")
        if not self.alpha > 0.0:
            raise ValueError(f"learning rate alpha must be positive, got {self.alpha}")
        if min(self.lam, self.decay) < 0.0:
            raise ValueError(f"lam and decay must be nonnegative, got {self.lam}, {self.decay}")
        check_mode(self.mode)
        _check_form(self.critic_form)
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
        excess over a unit initial wealth.  A window of zero variance reads
        +inf or -inf by the sign of the excess, and NaN without one.
        """
        tail = self.terminal_wealth[-min(200, self.episodes):]
        mean = float(np.mean(tail))
        var = float(np.var(tail, ddof=0))
        if var > 0.0:
            sharpe = (mean - 1.0) / math.sqrt(var)
        else:
            sharpe = math.copysign(math.inf, mean - 1.0) if mean != 1.0 else math.nan
        return mean, var, sharpe

    def block_means(self) -> np.ndarray:
        """Means of the consecutive 100-episode blocks of terminal wealth."""
        n = (self.episodes // 100) * 100
        return self.terminal_wealth[:n].reshape(-1, 100).mean(axis=1)


# ---------------------------------------------------------------------------
# Batch layout
# ---------------------------------------------------------------------------
# The critic, actor and TD functions take a (B, 3) batch of parameters, one
# row per cell, B = 1 included, or a (3,) vector of one actor.  Wealths and
# actions are (B, ...) rows, per-cell values such as the multipliers are
# (B, 1) columns that broadcast against them, and the grid times stay shared.


def _columns(params) -> np.ndarray:
    """A (B, 3) batch as three (B, 1) columns, or a (3,) vector as three
    scalars: ``p[k]`` broadcasts against a time grid either way."""
    p = np.asarray(params, dtype=float)
    return p if p.ndim == 1 else p.T[..., None]


def _transpose_dot(a, b):
    """a^T b per cell, (B, n, 3) by (B, n) or a shared (n,) to (B, 3).

    numpy's stacked matmul runs the single-cell ``a.T @ b`` product matrix by
    matrix, so each row rounds as it would alone (``np.einsum`` does not).
    """
    return (a.swapaxes(-1, -2) @ b[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Critic
# ---------------------------------------------------------------------------


def _critic_pass(theta, tau, xw, form: str):
    """theta's columns and the grid terms V and dV/dtheta share, each
    evaluated once at the times to go ``tau`` and the gaps ``xw`` = x - w:
    e^{theta0 tau}, the factor of theta1 in the offset (that exponential,
    or its expm1 in the corrected form), e^{-theta2 tau} and (x - w)^2."""
    th = _columns(theta)
    grow = np.exp(th[0] * tau)
    offset = grow if form == "standard" else np.expm1(th[0] * tau)
    return th, grow, offset, np.exp(-th[2] * tau), xw ** 2


def _value(th, offset, decay, xw2):
    """V less its multiplier term -(w - z)^2."""
    return xw2 * decay - th[1] * offset


def _neg_grad(tau, th, grow, offset, decay, xw2, out):
    """``out`` filled with -dV/dtheta.  Each entry is the exact negation of
    the gradient's own product, (-theta1 tau) e^{theta0 tau} and
    (-tau (x - w)^2) e^{-theta2 tau}: IEEE products round symmetrically."""
    np.multiply(th[1] * tau, grow, out=out[..., 0])
    out[..., 1] = offset
    np.multiply(tau * xw2, decay, out=out[..., 2])
    return out


def critic_value(theta, t, x, w, z, T, form: str = "standard"):
    """Parameterized value surface V_theta(t, x).

    The standard form carries a theta1 e^{theta0 (T-t)} offset whose
    terminal value is -theta1 rather than 0; "corrected" replaces it with
    theta1 (e^{theta0 (T-t)} - 1), which meets the terminal condition
    exactly.  Both share the same TD differences up to that constant.
    """
    th, _, offset, decay, xw2 = _critic_pass(theta, T - np.asarray(t, dtype=float),
                                             np.asarray(x, dtype=float) - w, _check_form(form))
    gap = np.asarray(w, dtype=float) - z  # squared by one multiply, in a batch and alone
    return _value(th, offset, decay, xw2) - gap * gap


def critic_grad(theta, t, x, w, T, form: str = "standard"):
    """dV_theta/dtheta, stacked on the last axis."""
    tau = T - np.asarray(t, dtype=float)
    th, grow, offset, decay, xw2 = _critic_pass(theta, tau, np.asarray(x, dtype=float) - w,
                                                _check_form(form))
    out = np.empty(np.broadcast(grow, xw2).shape + (3,))
    return -_neg_grad(tau, th, grow, offset, decay, xw2, out)


# ---------------------------------------------------------------------------
# Actor
# ---------------------------------------------------------------------------


def actor_log_scale(phi, tau):
    """The log of the actor scale, phi1/2 + phi2 tau/2, at the times to go
    ``tau``; the trainer's scale is its exponential."""
    ph = _columns(phi)
    return 0.5 * ph[1] + 0.5 * ph[2] * tau


def _regularizer_forms(hs, modes):
    """(plain?, the constant of p) of a batch's rows, as two (B, 1) columns:
    ||h'||^2 in plain mode, 2 log ||h'||_2 in log."""
    plain = [check_mode(mode) == "plain" for mode in modes]
    const = [h.l2_norm**2 if is_plain else 2.0 * math.log(h.l2_norm)
             for h, is_plain in zip(hs, plain)]
    return np.array(plain)[:, None], np.array(const)[:, None]


def _regularizer(log_scale, half_tau, forms, scale, grad, lam):
    """The actor's regularizer value p for rows whose ``_regularizer_forms``
    are ``forms``, with ``grad`` filled with lam dp/dphi at times to go tau
    whose halves are ``half_tau``:

    plain: p = S ||h'||^2 with gradient (0, p/2, p tau/2);
    log:   p = log S + 2 log ||h'||_2 = phi1/2 + phi2 tau/2 + 2 log ||h'||_2
           with gradient (0, 1/2, tau/2).

    S is ``scale``, the actor scale at those times, and log S ``log_scale``
    (``actor_log_scale``); ``grad`` is a buffer of p's shape by 3 whose
    first column is 0."""
    plain, const = forms
    p = np.where(plain, scale * const, log_scale + const)
    # dp: dp/d(phi1/2), which is p in plain mode and 1 in log mode
    dp = np.where(plain, p, 1.0)
    np.multiply(0.5 * dp, lam, out=grad[..., 1])
    np.multiply(half_tau * dp, lam, out=grad[..., 2])
    return p, grad


# ---------------------------------------------------------------------------
# TD machinery
# ---------------------------------------------------------------------------


class _Batch(NamedTuple):
    """What the TD pass reads of a batch's configs and time grid, and the
    buffers it fills: fixed while the batch keeps its cells, so built once
    per layout."""

    form: str
    tau: np.ndarray  # T - t on the n + 1 grid times
    half_tau: np.ndarray  # (T - t)/2 on the first n
    dts: np.ndarray
    lam: np.ndarray  # a (B, 1) column
    forms: tuple  # the rows' ``_regularizer_forms``
    groups: list  # (distortion, rows) per family record among the rows
    # (B, n, 3) buffers: -dV/dtheta, the score's chain-rule factors, and
    # lam dp/dphi, whose first column stays 0
    neg_dv: np.ndarray
    dlog: np.ndarray
    lam_dp: np.ndarray


def _rows(rows: list[int]):
    """Ascending ``rows`` as a slice when they form one contiguous run, an
    index that views the batch's arrays instead of copying them."""
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows


def _batch(times, configs) -> _Batch:
    groups: dict[int, tuple[DistortionFn, list[int]]] = {}
    for row, c in enumerate(configs):
        groups.setdefault(id(c.h.family), (c.h, []))[1].append(row)
    first = configs[0]
    tau = first.T - times
    buffers = np.empty((3, len(configs), len(times) - 1, 3))
    buffers[2, ..., 0] = 0.0
    return _Batch(first.critic_form, tau, 0.5 * tau[:-1], times[1:] - times[:-1],
                  np.array([[c.lam] for c in configs], dtype=float),
                  _regularizer_forms([c.h for c in configs], [c.mode for c in configs]),
                  [(h, _rows(rows)) for h, rows in groups.values()], *buffers)


def episode_gradients(batch: _Batch, xw, theta, log_scale, scale):
    """The TD pass over one episode of each of the batch's B cells, which
    reads no density: the (B, n + 1) gaps ``xw`` = x - w of the wealths on
    the grid times, (B, 3) theta, and the actor scale ``scale`` with its
    log ``log_scale`` (``actor_log_scale`` on the grid's first n times).
    ``batch`` is the cells' ``_batch`` layout.  The critic values omit
    -(w - z)^2, which cancels from each TD error (``_value``).

    Returns (grad_theta, delta, grad_reg), each with a leading axis of B:
    the critic gradient -sum_i dV/dtheta(t_i) delta_i, the (B, n) TD errors
    and sum_i lam dp/dphi dt, the regularizer term every actor subtracts.
    A diverging row runs on to inf/nan, silently under the one
    ``np.errstate`` ``train_many`` enters for this and ``score_gradient``.
    """
    lam, tau, dts = batch.lam, batch.tau[:-1], batch.dts
    # one critic pass: V on the n + 1 grid, dV/dtheta on its first n points
    th, grow, offset, decay, xw2 = _critic_pass(theta, batch.tau, xw, batch.form)
    v = _value(th, offset, decay, xw2)
    neg_dv = _neg_grad(tau, th, *(a[..., :-1] for a in (grow, offset, decay, xw2)), batch.neg_dv)
    p, lam_dp = _regularizer(log_scale, batch.half_tau, batch.forms, scale, batch.lam_dp, lam)
    delta = v[:, 1:] - v[:, :-1] - lam * p * dts
    return _transpose_dot(neg_dv, delta), delta, _transpose_dot(lam_dp, dts)


def score_gradient(batch: _Batch, xw, location, actions, scale, delta):
    """The score-function actor: sum_i dlog policy(u_i)/dphi delta_i over
    the (B, n) actions taken at the policy location ``location`` = -phi0 (x
    - w) and actor scale ``scale`` from the first n of the (B, n + 1) gaps
    ``xw``, with the TD errors ``delta`` of ``episode_gradients``.

    Returns the (B, 3) sums and the (B,) counts of actions outside their
    policy's support, whose terms are skipped; an action leaves it only
    through the rounding of (u - M) / S.  Warnings are the caller's."""
    # log_density_grad_fields once per family record among the rows
    if len(batch.groups) == 1:
        dm, ds = log_density_grad_fields(batch.groups[0][0], actions, location, scale)
    else:
        dm, ds = np.empty_like(location), np.empty_like(location)
        for h, rows in batch.groups:
            dm[rows], ds[rows] = log_density_grad_fields(h, actions[rows], location[rows],
                                                         scale[rows])
    in_support = np.isfinite(dm) & np.isfinite(ds)
    if in_support.all():
        n_skipped = np.zeros(len(in_support), dtype=int)
    else:
        n_skipped = (~in_support).sum(axis=1)
        dm = np.where(in_support, dm, 0.0)
        ds = np.where(in_support, ds, 0.0)
    # chain rule through (M, S): M = -phi0 (x-w), S = e^{phi1/2 + phi2 tau/2};
    # -(xw dm) is (-xw) dm exactly
    dlog = batch.dlog
    np.negative(np.multiply(xw[:, :-1], dm, out=dlog[..., 0]), out=dlog[..., 0])
    np.multiply(0.5 * scale, ds, out=dlog[..., 1])
    np.multiply(batch.half_tau * scale, ds, out=dlog[..., 2])
    return _transpose_dot(dlog, delta), n_skipped


def lagrange_update(w, terminal_batch, alpha_w: float, z: float):
    """Stochastic-approximation step toward the terminal wealth constraint:
    w moves against the mean of its window of terminal wealths less z.
    Takes a (B,) w with a (B, m) window, one row per cell, or a scalar w
    with an (m,) window."""
    return w - alpha_w * (np.mean(np.asarray(terminal_batch, dtype=float), axis=-1) - z)


def _clip(vec: np.ndarray, limit: float):
    """``vec``, gradient rows of any leading shape (..., 3), with each row
    scaled down to norm ``limit`` where its norm exceeds it, and an array
    of that leading shape of whether it was: one norm per row.  A
    non-finite norm is left to the parameter check.  Input that needs no
    clipping comes back as is."""
    with np.errstate(over="ignore", invalid="ignore"):
        # a 1 x 3 by 3 x 1 matmul is the dot product np.linalg.norm takes
        norm = np.sqrt((vec[..., None, :] @ vec[..., :, None])[..., 0, 0])
    engaged = (norm > limit) & np.isfinite(norm)
    if engaged.any():
        # unclipped rows divide limit by itself: a factor of exactly 1
        vec = vec * (limit / np.where(engaged, norm, limit))[..., None]
    return vec, engaged


# episodes drawn at once: a block holds 16 n bytes per episode and cell,
# 4 KB at 252 steps, so a 48-cell batch's draws stay near 6 MB
DRAW_BLOCK = 32


def episode_draws(h: DistortionFn, market: MarketParams, sim: SimConfig, index: int,
                  count: int = 1, rng: np.random.Generator | None = None):
    """(eta, increments) of the action paths of episodes index ... index +
    count - 1, as (count, n) arrays.  Episode j draws from the Philox stream
    keyed (sim.seed, j): uniforms p, clipped into (0, 1) and mapped to
    eta = h'(1 - p), then the normals of the wealth increments (see
    ``market.increment``).  A given ``rng`` is rekeyed for each episode (see
    ``market.path_stream``)."""
    p, noise = np.empty((2, count, sim.n_steps))
    for k in range(count):
        rng = path_stream(sim.seed, index + k, rng)
        rng.random(out=p[k])
        rng.standard_normal(out=noise[k])
    eta = standardized_draw(h, np.clip(p, 2.0**-53, 1.0 - 2.0**-53))
    return eta, increment(market, sim.dt, noise)


# the divergence cause of each column of an episode's (wealth, theta, phi,
# w) rows, in the order a cell's checks run
_CAUSES = ("non-finite wealth",) + ("non-finite parameters",) * 6 + ("non-finite multiplier",)

# the fields cells of one batch may differ in, and sim.n_paths, which the
# trainer never reads; the rest set the loop every cell runs
_PER_CELL_FIELDS = ("h", "lam", "mode", "sim.seed", "sim.n_paths")


def _shared_settings(config: TrainConfig) -> dict:
    flat = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "sim"}
    flat.update({f"sim.{f.name}": getattr(config.sim, f.name) for f in fields(config.sim)})
    return {k: v for k, v in flat.items() if k not in _PER_CELL_FIELDS}


def _check_batch(configs: list, markets: list) -> TrainConfig:
    """The first config, once every cell is known to share its loop settings."""
    if not configs:
        raise ValueError("train_many needs at least one config")
    if len(markets) != len(configs):
        raise ValueError(f"train_many got {len(configs)} configs but {len(markets)} markets")
    shared = _shared_settings(configs[0])
    for i, c in enumerate(configs[1:], 1):
        for name, value in _shared_settings(c).items():
            if value != shared[name]:
                raise ValueError(f"cells of one batch must share {name}: config {i} has "
                                 f"{value!r}, config 0 {shared[name]!r}")
    return configs[0]


def train_many(configs, markets) -> list[TrainLog | TrainingDivergedError]:
    """Train a batch of cells in lockstep; cell i gives the bytes ``train``
    gives for (configs[i], markets[i]), or the error it would raise.

    Each cell draws from its own Philox stream and steps its own wealth
    path; the actions, critic, regularizer, gradients and updates run once
    per episode over the whole batch.  Cells may differ only in h, lam, mode,
    sim.seed, sim.n_paths and market; any other differing field raises
    ValueError.  A cell whose wealth, parameters or multiplier turn
    non-finite leaves the batch with the ``TrainingDivergedError`` of that
    episode and cause.  The logs of one batch are views of shared arrays.
    """
    configs, markets = list(configs), list(markets)
    first = _check_batch(configs, markets)
    n_steps, x0 = first.sim.n_steps, float(first.x0)
    K, m = first.episodes, first.avg_window
    times = first.sim.times()
    B = len(configs)

    tw_log = np.empty((B, K))
    theta_log = np.empty((B, K, 3))
    phi_log = np.empty((B, K, 3))
    w_log = np.empty((B, K))
    results: list = [None] * B
    rng = np.random.Generator(np.random.Philox())  # rekeyed for each cell's episodes

    # the batch rows: the cells still training, by index into configs
    live = np.arange(B)
    cols = slice(None)  # live as an index into the logs; a slice while no cell has left
    sigmas = [float(m.sigma) for m in markets]  # the rows' market volatilities
    batch = _batch(times, configs)
    theta = np.tile(np.array(THETA_INIT, dtype=float), (B, 1))
    phi = np.tile(np.array(PHI_INIT, dtype=float), (B, 1))
    w = np.full(B, float(first.z))
    skipped = np.zeros(B, dtype=int)
    clip_events = np.zeros(B, dtype=int)

    for j in range(1, K + 1):
        k = (j - 1) % DRAW_BLOCK  # episode j's row in the rows' draw blocks
        if k == 0:
            count = min(DRAW_BLOCK, K + 1 - j)
            eta, incs = np.empty((2, len(live), count, n_steps))
            for row, b in enumerate(live.tolist()):
                eta[row], incs[row] = episode_draws(configs[b].h, markets[b], configs[b].sim,
                                                    j, count, rng)
        # a failing row rides along to the end of the episode, silently: every
        # batched step is row by row, so it touches no other cell's numbers
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            log_scale = actor_log_scale(phi, batch.tau[:-1])
            scale = np.exp(log_scale)
            explore = scale * eta[:, k]
            coef = -phi[:, :1]  # the location's coefficient of x - w
            states = wealth_recurrence([x0] * len(w), w.tolist(), coef[:, 0].tolist(), sigmas,
                                       explore, incs[:, k])
            xw = states - w[:, None]
            location = coef * xw[:, :-1]
            g_theta, delta, g_reg = episode_gradients(batch, xw, theta, log_scale, scale)
            g_score, n_skip = score_gradient(batch, xw, location, location + explore, scale,
                                             delta)
            g_phi = g_score - g_reg
            skipped += n_skip
            if first.grad_clip is not None:
                (g_theta, g_phi), engaged = _clip(np.stack((g_theta, g_phi)), first.grad_clip)
                clip_events += engaged.sum(axis=0)

            lr = j ** (-first.decay)
            theta = theta - first.alpha * lr * g_theta
            phi = phi - first.alpha * lr * g_phi
            tw_log[cols, j - 1] = states[:, -1]
            if j % m == 0:
                w = lagrange_update(w, tw_log[cols, j - m:j], first.alpha, first.z)
        theta_log[cols, j - 1] = theta
        phi_log[cols, j - 1] = phi
        w_log[cols, j - 1] = w

        finite = np.isfinite(np.concatenate((states[:, -1:], theta, phi, w[:, None]), axis=1))
        if not finite.all():
            keep = finite.all(axis=1)
            # a failed row's cause is its first non-finite column
            for row, col in zip(np.flatnonzero(~keep).tolist(),
                                finite[~keep].argmin(axis=1).tolist()):
                results[live[row]] = TrainingDivergedError(j, _CAUSES[col])
            live, theta, phi, w = live[keep], theta[keep], phi[keep], w[keep]
            skipped, clip_events = skipped[keep], clip_events[keep]
            eta, incs = eta[keep], incs[keep]
            cols = live
            if not len(live):
                break
            sigmas = [sigmas[row] for row in np.flatnonzero(keep).tolist()]
            batch = _batch(times, [configs[b] for b in live.tolist()])

    for b, n_skipped, n_clipped in zip(live.tolist(), skipped.tolist(), clip_events.tolist()):
        results[b] = TrainLog(terminal_wealth=tw_log[b], theta=theta_log[b], phi=phi_log[b],
                              w=w_log[b], skipped_actions=n_skipped, clip_events=n_clipped)
    return results


def train(config: TrainConfig, market: MarketParams) -> TrainLog:
    """Run the episodic actor-critic loop and return the full history: the
    one-cell case of ``train_many``, raising its ``TrainingDivergedError``.

    Starts from THETA_INIT, PHI_INIT (read when called) and w = z.
    Deterministic given config.sim.seed: episode j draws its uniforms and
    noise from a Philox stream keyed (seed, j), one generator rekeyed per
    episode.
    """
    (result,) = train_many([config], [market])
    if isinstance(result, TrainingDivergedError):
        raise result
    return result
