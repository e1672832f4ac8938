"""Concave distortion functions and the Choquet randomness measure.

A distortion is a concave h on [0, 1] with h(0) = h(1) = 0.  On quantile
functions the induced Choquet measure of randomness has the representation

    Phi_h(Q) = integral_0^1 Q(p) h'(1 - p) dp,

where h' is the right-derivative of h.  Phi_h is location invariant,
positively homogeneous in scale, and zero exactly on degenerate
distributions.  Over all distributions with mean m and standard deviation
s > 0 it is maximized by the quantile function

    Q*(p) = m + s h'(1 - p) / ||h'||_2,

with maximum value s ||h'||_2.  That maximizer is what turns each
distortion into a location-scale family of exploration samplers: the
standard normal quantile weight yields Gaussians, -p log p yields shifted
exponentials and the Gini weight p - p^2 yields uniforms.

The Gaussian records evaluate ``scipy.special``'s ``ndtri`` and ``ndtr``
through this module's functions of the same names, which import
``scipy.special`` on their first call.  A run that never evaluates a
Gaussian quantile or CDF never loads it.  A grid run split into more than
one shard loads it once, in the parent, before ``market.fork_map`` forks
the shards; a one-shard grid forks none and loads it on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .quadrature import gauss_legendre_01, integrate_01, tanh_sinh_01

Array = np.ndarray
ScalarFn = Callable[[Array], Array]

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def ndtri(p):
    """The standard normal quantile, ``scipy.special.ndtri``; loads scipy.special
    on the first call."""
    import scipy.special

    return scipy.special.ndtri(p)


def ndtr(y):
    """The standard normal CDF, ``scipy.special.ndtr``; loads scipy.special on
    the first call."""
    import scipy.special

    return scipy.special.ndtr(y)


class DivergentNormError(ValueError):
    """The quadrature for ||h'||_2 did not return a finite value."""


class DivergentIntegralError(ValueError):
    """A Choquet integral failed to evaluate to a finite value."""


@dataclass(frozen=True)
class Family:
    """Closed forms of the location-scale family a distortion induces.

    ``draw`` maps uniforms p to h'(1 - p).  The others act on the
    standardized coordinate y = (u - M)/S of the policy with quantile
    M + S h'(1 - p): ``logpdf`` and ``dlogpdf`` are the log-density and its
    y-derivative (-inf and NaN outside the support), ``cdf`` the
    distribution function.
    """

    draw: ScalarFn
    logpdf: ScalarFn
    dlogpdf: ScalarFn
    cdf: ScalarFn


@dataclass(frozen=True)
class DistortionFn:
    """A concave distortion h with its right-derivative and L2 norm.

    ``l2_norm`` is ||h'||_2: exact for the built-ins, measured by
    ``l2_norm()`` for user-supplied distortions.  ``hprime_singular`` marks
    derivatives that are unbounded at an endpoint of (0, 1); it picks the
    rule for ||h'||_2 (tanh-sinh if set, else Gauss-Legendre).
    ``hprime_range`` is (inf h', sup h') over (0, 1), i.e. the limits at
    p -> 1 and p -> 0 since h' is nonincreasing; it determines the support
    of the induced location-scale family.  ``family`` holds that family's
    closed forms; it is None when none are known, as for user-supplied
    distortions.  The record keeps its h'(1 - p) on the tanh-sinh nodes, so
    the Choquet integrals evaluate h' once per distortion.
    """

    name: str
    h: ScalarFn
    hprime: ScalarFn
    l2_norm: float
    hprime_singular: bool = False
    hprime_range: tuple[float, float] = (-math.inf, math.inf)
    family: Family | None = None

    def rule(self) -> tuple[Array, Array]:
        """The quadrature rule for ||h'||_2."""
        return tanh_sinh_01() if self.hprime_singular else gauss_legendre_01()

    def _hprime_on_rule(self) -> Array:
        """h'(1 - p) on the tanh-sinh nodes, evaluated once and kept read-only.

        1 - p is read off the symmetric node layout (``nodes[::-1]``), so h'
        sees each node's exact distance to 1, never a rounded ``1.0 - p``.
        """
        kept = self.__dict__.get("_hprime_kept")
        if kept is None:
            kept = np.array(self.hprime(tanh_sinh_01()[0][::-1]), dtype=float)
            kept.flags.writeable = False
            object.__setattr__(self, "_hprime_kept", kept)
        return kept


def _entropy_h(p: Array) -> Array:
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(p > 0.0, -p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return out


def _gaussian_h(p: Array) -> Array:
    # h(p) = integral_0^p z(1-s) ds = phi(z(p)) - phi(z(0+)) = pdf of N(0,1) at z(p)
    p = np.asarray(p, dtype=float)
    inner = np.clip(p, 1e-300, 1.0 - 1e-16)
    zp = ndtri(inner)
    out = np.exp(-0.5 * zp * zp) / math.sqrt(2.0 * math.pi)
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, out)


BUILTIN_DISTORTIONS: dict[str, DistortionFn] = {
    "entropy_like": DistortionFn(
        name="entropy_like",
        h=_entropy_h,
        hprime=lambda p: -np.log(p) - 1.0,
        l2_norm=1.0,
        hprime_singular=True,
        hprime_range=(-1.0, math.inf),
        # shifted exponential: standardized density exp(-(y+1)) on y >= -1
        family=Family(
            draw=lambda p: -np.log1p(-p) - 1.0,
            logpdf=lambda y: np.where(y >= -1.0, -(y + 1.0), -np.inf),
            dlogpdf=lambda y: np.where(y >= -1.0, -1.0, np.nan),
            cdf=lambda y: np.where(y >= -1.0, 1.0 - np.exp(-np.minimum(y + 1.0, 700.0)), 0.0),
        ),
    ),
    "gaussian_score": DistortionFn(
        name="gaussian_score",
        h=_gaussian_h,
        hprime=lambda p: -ndtri(p),
        l2_norm=1.0,
        hprime_singular=True,
        hprime_range=(-math.inf, math.inf),
        family=Family(
            draw=ndtri,
            logpdf=lambda y: -0.5 * y * y - LOG_SQRT_2PI,
            dlogpdf=lambda y: -y,
            cdf=ndtr,
        ),
    ),
    "gini": DistortionFn(
        name="gini",
        h=lambda p: np.asarray(p, dtype=float) * (1.0 - np.asarray(p, dtype=float)),
        hprime=lambda p: 1.0 - 2.0 * np.asarray(p, dtype=float),
        l2_norm=math.sqrt(1.0 / 3.0),
        hprime_singular=False,
        hprime_range=(-1.0, 1.0),
        # uniform on [-1, 1]
        family=Family(
            draw=lambda p: 2.0 * p - 1.0,
            logpdf=lambda y: np.where(np.abs(y) <= 1.0, -math.log(2.0), -np.inf),
            dlogpdf=lambda y: np.where(np.abs(y) <= 1.0, 0.0, np.nan),
            cdf=lambda y: np.clip(0.5 * (y + 1.0), 0.0, 1.0),
        ),
    ),
}


def get_distortion(name: str) -> DistortionFn:
    try:
        return BUILTIN_DISTORTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown distortion {name!r}; available: {sorted(BUILTIN_DISTORTIONS)}"
        ) from None


def validate_distortion(fn: DistortionFn):
    """Sampled validity checks: h(0) = h(1) = 0 and h' nonincreasing."""
    ends = np.asarray(fn.h(np.array([0.0, 1.0])), dtype=float)
    if np.max(np.abs(ends)) > 1e-12:
        raise ValueError(f"distortion {fn.name!r} must vanish at 0 and 1, got {ends}")
    grid = np.linspace(1e-9, 1.0 - 1e-9, 2048)
    vals = np.asarray(fn.hprime(grid), dtype=float)
    if np.any(np.diff(vals) > 1e-10):
        raise ValueError(f"distortion {fn.name!r} is not concave: h' increases on (0,1)")


def custom_distortion(
    name: str,
    h: ScalarFn,
    hprime: ScalarFn,
    hprime_singular: bool = True,
    hprime_range: tuple[float, float] | None = None,
) -> DistortionFn:
    """Wrap a user-supplied (h, h') pair; ||h'||_2 is computed by quadrature.

    The pair is checked on a sampled grid (endpoints of h vanish, h'
    nonincreasing) before the norm is measured.  The default ``hprime_range``
    is h' at 1 - 2**-53 and 2**-53, the extremes at which the sampler
    (``policy.standardized_draw``) evaluates it, so every draw lies in the
    support.
    """
    if hprime_range is None:
        ends = np.asarray(hprime(np.array([1.0 - 2.0**-53, 2.0**-53])), dtype=float)
        hprime_range = (float(ends[0]), float(ends[1]))
    fn = DistortionFn(
        name=name,
        h=h,
        hprime=hprime,
        l2_norm=1.0,  # placeholder until measured below
        hprime_singular=hprime_singular,
        hprime_range=hprime_range,
    )
    validate_distortion(fn)
    return replace(fn, l2_norm=l2_norm(fn))


def scale_distortion(fn: DistortionFn, c: float) -> DistortionFn:
    """Return the distortion c*h, whose derivative norm is c*||h'||_2.

    Its family, if fn has one, is fn's stretched by c: the standardized
    coordinate y of c*h is c times that of h.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"scale factor must be positive and finite, got {c}")
    lo, hi = fn.hprime_range
    base, log_c = fn.family, math.log(c)
    return replace(
        fn,
        name=f"{fn.name}_x{c:g}",
        h=lambda p, _f=fn.h: c * _f(p),
        hprime=lambda p, _f=fn.hprime: c * _f(p),
        l2_norm=c * fn.l2_norm,
        hprime_range=(c * lo, c * hi),
        family=None if base is None else Family(
            draw=lambda p: c * base.draw(p),
            logpdf=lambda y: base.logpdf(y / c) - log_c,
            dlogpdf=lambda y: base.dlogpdf(y / c) / c,
            cdf=lambda y: base.cdf(y / c),
        ),
    )


def l2_norm(fn: DistortionFn) -> float:
    """||h'||_2 measured by quadrature on the distortion's rule."""
    with np.errstate(over="ignore"):
        sq = integrate_01(lambda p: np.asarray(fn.hprime(p), dtype=float) ** 2, fn.rule())
    if not math.isfinite(sq) or sq <= 0.0:
        raise DivergentNormError(f"divergent derivative norm for distortion {fn.name!r}")
    return math.sqrt(sq)


def regularizer_of_quantile(fn: DistortionFn, quantile: ScalarFn) -> float:
    """Phi_h of a distribution given through its quantile function.

    Evaluates integral_0^1 Q(p) h'(1-p) dp on the tanh-sinh rule, which
    handles a quantile or an h' unbounded at an endpoint.  It reads the
    h'(1-p) that ``fn`` keeps on the rule's nodes.
    """
    nodes, weights = tanh_sinh_01()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(quantile(nodes), dtype=float) * fn._hprime_on_rule()
        total = float(np.dot(weights, vals))
    if not math.isfinite(total):
        raise DivergentIntegralError(
            f"Choquet integral for distortion {fn.name!r} did not converge"
        )
    return total


def max_constrained(fn: DistortionFn, m: float, s: float) -> tuple[ScalarFn, float]:
    """Maximize Phi_h over distributions with mean m and variance s^2.

    Returns the maximizing quantile Q*(p) = m + s h'(1-p)/||h'||_2 together
    with the maximum value s ||h'||_2.  On the tanh-sinh rule's own nodes
    the quantile reads ``fn``'s kept h'(1-p), at the nodes' exact complements.
    """
    if not math.isfinite(m):
        raise ValueError(f"mean must be finite, got {m}")
    if not 0.0 < s < math.inf:
        raise ValueError(f"scale must be positive and finite, got {s}")
    norm = fn.l2_norm
    if not (norm > 0.0):
        raise ValueError(f"distortion {fn.name!r} is constantly zero")

    def q(p: Array, _fn=fn, _m=m, _c=s / norm) -> Array:
        if p is tanh_sinh_01()[0]:
            return _m + _c * _fn._hprime_on_rule()
        return _m + _c * np.asarray(_fn.hprime(1.0 - np.asarray(p, dtype=float)), dtype=float)

    return q, s * norm


def quantile_moments(quantile: ScalarFn) -> tuple[float, float]:
    """(mean, variance) of a distribution given by its quantile function.

    Both integrals run on the tanh-sinh rule; a non-finite one raises
    ``DivergentIntegralError``.
    """
    nodes, weights = tanh_sinh_01()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(quantile(nodes), dtype=float)
        mean = float(np.dot(weights, vals))
        var = float(np.dot(weights, (vals - mean) ** 2))
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DivergentIntegralError("moment integrals of the quantile did not converge")
    return mean, var
