"""Fixed-node quadrature rules on the open unit interval.

Two rules cover everything the library integrates:

* a tanh-sinh (double-exponential) rule whose nodes approach 0 and 1
  double-exponentially fast, so integrable endpoint singularities such as
  log(p)^2 or squared normal quantiles converge to near machine precision.
  Every integral over a quantile function (the Choquet regularizer and the
  quantile's mean and variance) uses it, since nothing tells the library
  whether a caller's quantile is bounded; so does ||h'||_2 for a distortion
  whose ``hprime_singular`` is set;
* a composite Gauss-Legendre rule for ||h'||_2 when h' is smooth up to the
  endpoints (e.g. the Gini weight 1 - 2p), where it is exact to rounding
  and tanh-sinh would drop the ~2e-15 of mass beyond its last node.

The time integral in ``closedform.exploration_cost_by_quadrature`` uses a
512-node Gauss-Legendre rule: its integrand is smooth in t.

Both rules are cached and returned as plain, read-only (nodes, weights)
arrays, so callers can evaluate vectorized integrands once and reuse the
rule across many integrals, and no caller can change another's rule in
place.  Nodes are strictly inside (0, 1); the tanh-sinh rule truncates
where the node would be closer to an endpoint than 1e-15, which for
integrands with at worst logarithmic singularities contributes an error
far below the tolerances used in this package.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def gauss_legendre_01(n_nodes: int = 256, panels: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on (0, 1) with ``n_nodes`` total nodes."""
    if n_nodes < panels:
        panels = 1
    per_panel = max(1, n_nodes // panels)
    x, w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(0.0, 1.0, panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(half * x + 0.5 * (a + b))
        weights.append(half * w)
    return _read_only(np.concatenate(nodes), np.concatenate(weights))


@lru_cache(maxsize=8)
def tanh_sinh_01() -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh rule on (0, 1): nodes, weights with sum(weights) ~= 1.

    The node at level k is x = 1/2 + 1/2 tanh((pi/2) sinh(k/128)); the
    distance to the nearer endpoint is computed from exp(-2u) directly so
    nodes stay meaningful down to 1e-15 instead of rounding to 0 or 1.
    """
    step, cutoff = 1.0 / 128.0, 1e-15
    # largest level still above the cutoff: pc = exp(-2u)/(1+exp(-2u)) >= cutoff
    u_max = -0.5 * math.log(cutoff)
    t_max = math.asinh(2.0 * u_max / math.pi)
    ks = np.arange(1, int(math.ceil(t_max / step)) + 1)
    t = ks * step
    u = 0.5 * math.pi * np.sinh(t)
    pc = np.exp(-2.0 * u) / (1.0 + np.exp(-2.0 * u))  # distance to endpoint
    w = step * (0.25 * math.pi * np.cosh(t)) / np.cosh(u) ** 2
    keep = pc >= cutoff
    pc, w = pc[keep], w[keep]
    nodes = np.concatenate([pc[::-1], [0.5], 1.0 - pc])
    weights = np.concatenate([w[::-1], [step * 0.25 * math.pi], w])
    return _read_only(nodes, weights)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def integrate_01(f, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """Integrate a vectorized callable over (0, 1) with a precomputed rule."""
    nodes, weights = rule
    vals = np.asarray(f(nodes), dtype=float)
    return float(np.dot(weights, vals))
