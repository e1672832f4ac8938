"""Discounted-wealth simulation.

The wealth SDE is dX = sigma u (rho dt + dW) for a single action u, and

    dX = rho sigma mu_t dt + sigma sqrt(mu_t^2 + s_t^2) dW

under a randomized action with mean mu_t and standard deviation s_t.  Both
are discretized with Euler-Maruyama on the time grid, by ``wealth_recurrence``
(action-by-action paths) and ``pathwise_objectives``.
Noise comes from counter-based Philox streams keyed by (seed, path index),
so paths are reproducible independently of chunking or parallel order.  A run
holds one generator per worker, rekeyed per path or episode, which draws the
same bytes as a fresh generator per path at a fraction of the set-up cost.
``pathwise_objectives`` cuts its chunks into one contiguous block per usable
CPU (at most one per chunk) and runs the blocks through ``fork_map``, the
package's one way to use several CPUs.  A block allocates one noise, wealth,
drift and vol set of one chunk's size; each of its chunks uses the first rows,
and each Euler step is written in place into the wealth array.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .closedform import EMVSpec, MarketParams, _gap_overflow, _require_int
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
        if (self.n_steps + 1) * 8 > sys.maxsize:  # numpy's largest array, in bytes
            raise ValueError(f"n_steps = {self.n_steps:.3g} is too large: its time grid of "
                             f"n_steps + 1 float64 values exceeds the largest possible array")

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

    The key is the uint64 array ``[seed mod 2**64, index mod 2**64]``.  A
    given Philox-backed ``rng`` is rekeyed in place and returned; its draws
    then equal those of a fresh ``Generator(Philox(key=key))`` bit for bit,
    whatever it drew before.  Without one, a new generator is keyed.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox())
    # plain ints: the state setter reads each word by indexing, which costs
    # far more on a uint64 array than on a list
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0],
                  "key": [operator.index(seed) & _U64, operator.index(path_index) & _U64]},
        "buffer": [0, 0, 0, 0],
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


def wealth_recurrence(x0, w, mean_coef, sigma, explore, increments) -> np.ndarray:
    """(B, n + 1) wealths from x0 under the feedback actions
    u_i = mean_coef (x_i - w) + explore_i, wealth moving by sigma u_i times
    ``increments`` (see ``increment``).  x0, w, mean_coef and sigma hold one
    Python float per row, ``explore`` (scale eta) and ``increments`` are
    (B, n) float64 rows, all unchecked.  A diverging path runs on to inf/nan
    without warnings; callers check the states."""
    states = np.empty((len(explore), explore.shape[1] + 1))
    # Python floats round like float64 scalars and overflow to inf/nan
    # silently, at a fraction of the per-step cost of numpy scalars;
    # memoryviews hand the loop the rows' floats without a list copy
    for out, x, wr, ar, sr, e, c in zip(states, x0, w, mean_coef, sigma, explore, increments):
        out[0] = x
        out[1:] = [x := x + sr * (ar * (x - wr) + ei) * ci
                   for ei, ci in zip(memoryview(e), memoryview(c))]
    return states


def pathwise_objectives(
    schedule, spec: EMVSpec, market: MarketParams, sim: SimConfig, w: float,
    chunk: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """(terminal wealths, pathwise objectives) for every configured path.

    Paths evolve on the schedule's (t, x) -> (action mean, action std) in
    chunks of ``chunk`` paths, an integer >= 1.  Per path the objective is
    (X_T - w)^2 - lam * sum_i reg(t_i) dt - (w - z)^2, with the regularizer
    evaluated at the left grid endpoint of each step, once per step when the
    std is shared by all paths.

    The chunks are cut into one contiguous block per usable CPU, at most one
    per chunk, run by ``fork_map``; there is one generator per block, rekeyed
    per path, and ``chunk`` bounds each block's memory.  A block allocates
    one noise, wealth, drift and vol set of one chunk's size, and each of its
    chunks steps a view of the first rows in place, so the schedule receives
    the same memory at every step of the whole block and must not keep it
    between calls.  A (w - z)^2 beyond float range raises ValueError.
    """
    if isinstance(chunk, bool) or not isinstance(chunk, numbers.Integral) or chunk < 1:
        raise ValueError(f"chunk must be an integer >= 1, got {chunk!r}")
    sim.check_horizon(spec.T)
    rho, sigma = market.rho, market.sigma
    sdt = math.sqrt(sim.dt)
    xs = np.empty(sim.n_paths)
    vals = np.empty(sim.n_paths)
    try:
        gap = (w - spec.z) ** 2
    except OverflowError:
        raise _gap_overflow(spec, w) from None

    def fill(lo, hi):
        rng = np.random.Generator(np.random.Philox())  # rekeyed for every path
        # one working set per block; a chunk uses the first n rows of each
        size = min(chunk, hi - lo)
        noise_set = np.empty((size, sim.n_steps))
        x_set, drift_set, vol_set = np.empty(size), np.empty(size), np.empty(size)
        # a diverging path runs on to inf/nan without warnings; callers check
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(lo, hi, chunk):
                n = min(chunk, hi - start)
                noise = noise_set[:n]
                for row in range(n):
                    path_stream(sim.seed, start + row, rng).standard_normal(out=noise[row])
                x = x_set[:n]
                x.fill(float(spec.x0))
                drift, vol = drift_set[:n], vol_set[:n]  # the step's two terms
                reg_acc = 0.0  # in the std's shape: a scalar while it depends on t only
                for i in range(sim.n_steps):
                    mean, std = schedule(i * sim.dt, x)
                    std = np.asarray(std, dtype=float)
                    if spec.lam != 0.0:
                        # Phi_h of the policy is (action std) * ||h'||_2, independent of location
                        reg_acc = reg_acc + spec.lam * running_reward(std * spec.h.l2_norm,
                                                                      spec.mode) * sim.dt
                    # x + rho sigma mean dt + sigma sqrt(mean^2 + std^2) sdt Z, rounded
                    # in that expression's operand order; outputs of x's shape refuse
                    # a mean or std that does not broadcast to it
                    mean = np.asarray(mean, dtype=float)
                    np.square(mean, out=vol)
                    vol += np.square(std, out=drift)
                    np.sqrt(vol, out=vol)
                    vol *= sigma
                    vol *= sdt
                    vol *= noise[:, i]
                    np.multiply(rho * sigma, mean, out=drift)
                    drift *= sim.dt
                    x += drift
                    x += vol
                xs[start:start + n] = x
                vals[start:start + n] = (x - w) ** 2 - reg_acc - gap
        return xs[lo:hi], vals[lo:hi]

    n_chunks = -(-sim.n_paths // chunk)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(n_chunks, cpus)
    edges = [min(b * n_chunks // workers * chunk, sim.n_paths) for b in range(workers + 1)]
    blocks = list(zip(edges, edges[1:]))
    for (lo, hi), (x, v) in zip(blocks, fork_map(lambda block: fill(*block), blocks)):
        xs[lo:hi], vals[lo:hi] = x, v
    return xs, vals


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, the first item run by the caller and
    each other one by a child made with ``os.fork``.

    A child pickles its result back over a pipe, so neither ``fn`` nor the
    items are ever pickled.  An item runs in-process when there is no
    ``os.fork`` or its fork raises OSError, and again in-process when its
    child fails, which raises the child's own exception.  An exception in
    the caller kills every child; no child outlives the call.
    """
    items = list(items)
    results = [None] * len(items)
    to_fork = range(1, len(items)) if hasattr(os, "fork") else range(0)
    own = [k for k in range(len(items)) if k not in to_fork]  # the items this process runs
    children = []  # (pid, read end of its pipe, item index), until reaped
    try:
        for k in to_fork:
            try:
                children.append((*_fork_child(fn, items[k]), k))
            except OSError:  # no process to spare
                own.append(k)
        for k in own:
            results[k] = fn(items[k])
        while children:
            pid, reader, k = children[0]
            with reader:
                sent = reader.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            results[k] = pickle.loads(sent) if status == 0 else fn(items[k])
    finally:
        for pid, reader, _ in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _fork_child(fn, item):
    """(pid, reader) of a forked child that pickles ``fn(item)`` into the
    pipe behind ``reader``."""
    r, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(wfd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(wfd, "wb") as writer:
                pickle.dump(fn(item), writer, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)  # never return into the caller's frames
    os.close(wfd)
    return pid, open(r, "rb")


def mean_and_std_error(values) -> tuple[float, float]:
    """Sample mean of per-path values and its standard error (inf for one path)."""
    n = len(values)
    with np.errstate(over="ignore"):  # a spread beyond float range reads inf
        se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
        return float(np.mean(values)), se
