"""Random feasible quantile functions for stress-testing the Choquet bound.

Candidates are convex combinations of the three built-in maximizer shapes
plus nondecreasing piecewise-linear perturbations, affinely renormalized
to a target mean and variance by ``quantile_moments``, on the tanh-sinh
rule the regularizer uses too.  Affine renormalization with a positive
slope preserves monotonicity, so every candidate is a genuine quantile
function with the requested first two moments.  A candidate is a plain
callable p -> Q(p), the form every quantile takes in the library.
"""

from __future__ import annotations

import numpy as np

from choquet_emv import rl
from choquet_emv.distortion import (
    BUILTIN_DISTORTIONS,
    ScalarFn,
    quantile_moments,
)
from choquet_emv.policy import standardized_draw

_TEMPLATES = tuple(BUILTIN_DISTORTIONS.values())


def random_feasible_quantile(rng: np.random.Generator, m: float, s: float) -> ScalarFn:
    weights = rng.dirichlet(np.ones(len(_TEMPLATES))) * rng.uniform(0.2, 3.0)
    n_knots = rng.integers(1, 6)
    knots = np.sort(rng.uniform(0.05, 0.95, size=n_knots))
    slopes = rng.uniform(0.0, 2.0, size=n_knots)
    linear = rng.uniform(0.0, 1.0)

    def raw(p, _w=weights, _k=knots, _s=slopes, _lin=linear):
        p = np.asarray(p, dtype=float)
        out = _lin * p
        for w, tpl in zip(_w, _TEMPLATES):
            out = out + w * standardized_draw(tpl, p)
        for k, sl in zip(_k, _s):
            out = out + sl * np.maximum(p - k, 0.0)
        return out

    mean, var = quantile_moments(raw)
    gain = s / np.sqrt(var)

    def q(p, _raw=raw, _mean=mean, _gain=gain, _m=m):
        return _m + _gain * (_raw(p) - _mean)

    return q


def regularizer(phi, t, h, mode, T):
    """``rl._regularizer`` (p and dp/dphi) of one actor, a batch of one, at
    times t, in the shape of t."""
    tau = (T - np.asarray(t, dtype=float)).reshape(1, -1)
    log_scale = rl.actor_log_scale([phi], tau)
    p, grad = rl._regularizer(log_scale, 0.5 * tau, rl._regularizer_forms([h], [mode]),
                              np.exp(log_scale), np.zeros(tau.shape + (3,)), 1.0)
    return p.reshape(np.shape(t)), grad.reshape(np.shape(t) + (3,))


def episode_terms(states, phi, w):
    """(xw, location) of (B, n + 1) states, formed as ``rl.train_many``
    forms them: the gaps x - w and the policy location -phi0 (x - w) on the
    first n times."""
    xw = np.asarray(states, dtype=float) - np.asarray(w, dtype=float)[:, None]
    return xw, -np.asarray(phi, dtype=float)[:, :1] * xw[:, :-1]


def trainer_gradients(batch, states, actions, theta, phi, w, log_scale):
    """(grad_theta, grad_phi, n_skipped) of one episode at the actor log scale
    ``log_scale``: ``rl.episode_gradients``, the TD pass, then
    ``rl.score_gradient``, the actor, composed as ``rl.train_many`` composes
    them, under its ``np.errstate``."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xw, location = episode_terms(states, phi, w)
        scale = np.exp(log_scale)
        grad_theta, delta, grad_reg = rl.episode_gradients(batch, xw, theta, log_scale, scale)
        grad_score, n_skipped = rl.score_gradient(batch, xw, location, actions, scale, delta)
    return grad_theta, grad_score - grad_reg, n_skipped
