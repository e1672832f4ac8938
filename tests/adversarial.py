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
