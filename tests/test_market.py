import hashlib
import math
import os
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from choquet_emv.closedform import (
    EMVSpec,
    MarketParams,
    classical_solution,
    lagrange_multiplier,
    optimal_feedback,
    optimal_schedule,
    value,
)
from choquet_emv.distortion import BUILTIN_DISTORTIONS, get_distortion
from choquet_emv.market import (
    SimConfig,
    increment,
    mean_and_std_error,
    path_stream,
    pathwise_objectives,
    wealth_recurrence,
)
from choquet_emv.policy import running_reward
from choquet_emv.rl import episode_draws

GAUSS = get_distortion("gaussian_score")
MARKET = MarketParams(mu=0.1, sigma=0.2, r=0.02)


def spec_for(mode, lam, h=GAUSS):
    return EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode=mode, h=h)


def step(x, u, market, dt, noise):
    """One Euler step of the wealth SDE under action u: the reference that
    ``wealth_recurrence`` is checked against."""
    return x + market.sigma * u * increment(market, dt, noise)


def draws(h, n, dt):
    """(eta, noise) of the trainer's episode 2 at seed 4 on n steps of dt."""
    sim = SimConfig(n_steps=n, dt=dt, seed=4)
    (eta,), (increments,) = episode_draws(h, MARKET, sim, 2)
    rng = path_stream(4, 2)
    rng.random(n)  # the uniforms come first
    noise = rng.standard_normal(n)
    assert increments.tobytes() == increment(MARKET, dt, noise).tobytes()
    return eta, noise


def mc_estimate(spec, sim, w, chunk=4096):
    """Mean objective and its standard error under the optimal schedule."""
    _, vals = pathwise_objectives(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w,
                                  chunk=chunk)
    return mean_and_std_error(vals)


class TestSimConfig:
    def test_horizon_consistency(self):
        sim = SimConfig.from_horizon(1.0, 252)
        assert sim.n_steps * sim.dt == pytest.approx(1.0, abs=1e-12)
        sim.check_horizon(1.0)
        with pytest.raises(ValueError):
            sim.check_horizon(2.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SimConfig(n_steps=0, dt=0.1)
        with pytest.raises(ValueError):
            SimConfig(n_steps=10, dt=-0.1)
        for dt in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SimConfig(n_steps=10, dt=dt)
        # the horizon overflows to inf, or an int beyond float range overflows in the product
        for n_steps, dt in ((10, 1e308), (2**1100, 0.25)):
            with pytest.raises(ValueError, match="horizon"):
                SimConfig(n_steps=n_steps, dt=dt)
        # the step count overflows in T / n_steps before SimConfig sees it
        with pytest.raises(ValueError, match="n_steps is too large"):
            SimConfig.from_horizon(1.0, 2**1100)

    @pytest.mark.parametrize("seed, numpy_seed", [(3, np.int64(3)),
                                                  (2**63 + 5, np.uint64(2**63 + 5))],
                             ids=["int64", "uint64"])
    def test_numpy_integer_seed_runs_as_its_int(self, seed, numpy_seed):
        assert type(SimConfig(4, 0.25, seed=numpy_seed).seed) is int
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        a, b = (pathwise_objectives(optimal_schedule(spec, MARKET, w), spec, MARKET,
                                    SimConfig.from_horizon(1.0, 64, n_paths=5, seed=s), w)
                for s in (seed, numpy_seed))
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(n_steps=4, dt=0.25, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            SimConfig.from_horizon(1.0, 4, seed=seed)
        # the step and path counts take the same check
        for name in ("n_steps", "n_paths"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(**{"n_steps": 4, "dt": 0.25, name: seed})
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            SimConfig.from_horizon(1.0, seed)


class TestStep:
    def test_no_position_is_inert(self):
        assert step(1.3, 0.0, MARKET, 0.01, 0.7) == 1.3

    def test_drift_only(self):
        x1 = step(1.0, 2.0, MARKET, 0.01, 0.0)
        assert x1 == pytest.approx(1.0 + MARKET.sigma * 2.0 * MARKET.rho * 0.01)

    def test_mean_over_many_draws(self):
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(1_000_000)
        xs = step(1.0, 1.5, MARKET, 1 / 252, noise)
        se = xs.std(ddof=1) / math.sqrt(xs.size)
        expected = 1.0 + MARKET.sigma * 1.5 * MARKET.rho / 252
        assert abs(xs.mean() - expected) < 4 * se

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            step(1.0, 1.0, MARKET, 0.0, 0.0)


class TestRollout:
    """Action-by-action paths through ``wealth_recurrence``, with the actions
    formed from its states as ``choquet-emv trajectory`` forms them."""

    @pytest.mark.parametrize("h_name", sorted(BUILTIN_DISTORTIONS))
    @pytest.mark.parametrize("level", [0.0, 0.4, 40.0])
    def test_matches_step_loop_bitwise(self, h_name, level):
        n, dt, w, mean_coef = 64, 1.0 / 64, 1.6, -1.3
        eta, noise = draws(get_distortion(h_name), n, dt)
        explore = level * np.exp(0.6 * (1.0 - np.arange(n) * dt)) * eta
        (states,) = wealth_recurrence([1.0], [w], [mean_coef], [MARKET.sigma], explore[None],
                                      increment(MARKET, dt, noise)[None])
        actions = mean_coef * (states[:-1] - w) + explore
        x, xs, us = 1.0, [1.0], []
        for i in range(n):
            u = mean_coef * (x - w) + explore[i]
            x = step(x, u, MARKET, dt, noise[i])
            us.append(u)
            xs.append(x)
        np.testing.assert_array_equal(actions, us)
        np.testing.assert_array_equal(states, xs)

    def test_diverging_path_matches_step_loop_bytes_silently(self):
        n, dt, w, mean_coef = 64, 1.0 / 64, 1.6, 1e200
        eta, noise = draws(GAUSS, n, dt)
        explore = 0.4 * eta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (states,) = wealth_recurrence([1.0], [w], [mean_coef], [MARKET.sigma],
                                          explore[None], increment(MARKET, dt, noise)[None])
        assert np.isinf(states).any() and np.isnan(states[-1])
        x, xs = 1.0, [1.0]
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n):
                x = step(x, mean_coef * (x - w) + explore[i], MARKET, dt, noise[i])
                xs.append(x)
        assert states.tobytes() == np.array(xs).tobytes()

    def test_rows_match_the_step_loop_bitwise(self):
        # the trainer's call: (B, n) explore and increment rows, and a
        # different x0, w, mean_coef, sigma and scale level on every row.
        # Each row gives the bytes of its step loop and of its own call as
        # a batch of one, and the diverging last row stays silent.
        n, dt = 64, 1.0 / 64
        markets = [MARKET, MarketParams(mu=0.3, sigma=0.5, r=0.02),
                   MarketParams(mu=-0.5, sigma=0.1, r=0.02), MARKET]
        x0s, ws, coefs = [1.0, 0.8, 1.1, 1.0], [1.6, 1.2, 0.9, 1.6], [-1.3, -0.4, 2.1, 1e200]
        levels = [0.4, 0.0, 0.4, 0.4]
        paths = [draws(get_distortion(h_name), n, dt)
                 for h_name in ("gaussian_score", "gini", "entropy_like", "gaussian_score")]
        explore = np.array([level * np.exp(0.6 * (1.0 - np.arange(n) * dt)) * e
                            for level, (e, _) in zip(levels, paths)])
        increments = np.array([increment(m, dt, z) for m, (_, z) in zip(markets, paths)])
        sigmas = [m.sigma for m in markets]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = wealth_recurrence(x0s, ws, coefs, sigmas, explore, increments)
        assert states.shape == (4, n + 1)
        assert np.isfinite(states[:3]).all() and not np.isfinite(states[3, -1])
        for i, market in enumerate(markets):
            alone = wealth_recurrence(x0s[i:i + 1], ws[i:i + 1], coefs[i:i + 1],
                                      sigmas[i:i + 1], explore[i:i + 1], increments[i:i + 1])
            assert states[i].tobytes() == alone.tobytes()
            x, xs = x0s[i], [x0s[i]]
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(n):
                    x = step(x, coefs[i] * (x - ws[i]) + explore[i, k], market, dt,
                             paths[i][1][k])
                    xs.append(x)
            assert states[i].tobytes() == np.array(xs).tobytes()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_recurrence_matches_step_loop_and_rollout_bitwise(self, rows):
        # Python-float x0, w, mean_coef and sigma per row, a different one of
        # each on every row, with one shared scale times each row's eta and
        # the increments as (B, n) rows; each row is also rolled out alone
        n, dt = 64, 1.0 / 64
        markets = [MARKET, MarketParams(mu=0.3, sigma=0.5, r=0.02),
                   MarketParams(mu=-0.5, sigma=0.1, r=0.02)][:rows]
        ws, coefs = [1.6, 1.2, 0.9][:rows], [-1.3, -0.4, 2.1][:rows]
        paths = [draws(get_distortion(h_name), n, dt)
                 for h_name in ("gaussian_score", "gini", "entropy_like")[:rows]]
        eta = np.array([e for e, _ in paths])
        increments = np.array([increment(m, dt, z) for m, (_, z) in zip(markets, paths)])
        scale = 0.4 * np.exp(0.6 * (1.0 - np.arange(n) * dt))
        sigmas = [m.sigma for m in markets]
        states = wealth_recurrence([1.0] * rows, ws, coefs, sigmas, scale * eta, increments)
        assert states.shape == (rows, n + 1)
        for i, market in enumerate(markets):
            (alone,) = wealth_recurrence([1.0], ws[i:i + 1], coefs[i:i + 1], sigmas[i:i + 1],
                                         (scale * eta[i])[None], increments[i:i + 1])
            assert states[i].tobytes() == alone.tobytes()
            x, xs = 1.0, [1.0]
            for k in range(n):
                u = coefs[i] * (x - ws[i]) + scale[k] * eta[i, k]
                x = step(x, u, market, dt, paths[i][1][k])
                xs.append(x)
            assert states[i].tobytes() == np.array(xs).tobytes()


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to the caller, with three usable CPUs
    reported; every child must be reaped by the end of the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pids, real_fork = [], os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield pids
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


class TestMCObjective:
    def test_degenerate_schedule_keeps_wealth_constant(self):
        spec = spec_for("plain", 0.0)
        sim = SimConfig.from_horizon(1.0, 64, n_paths=3, seed=5)
        xt, _ = pathwise_objectives(lambda t, x: (0.0, 0.0), spec, MARKET, sim, w=0.0)
        np.testing.assert_array_equal(xt, np.ones(3))

    def test_terminal_mean_hits_target(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=20_000, seed=11)
        xt, _ = pathwise_objectives(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w)
        se = xt.std(ddof=1) / math.sqrt(sim.n_paths)
        assert abs(xt.mean() - spec.z) < 4 * se
        assert 0.0 < xt.var() < np.inf

    @pytest.mark.parametrize("mode, lam", [("plain", 0.01), ("log", 0.1)], ids=["plain", "log"])
    def test_regularizer_integral_is_exact(self, mode, lam):
        # the objective subtracts lam * sum_i reg(S(t_i) ||h'||^2) dt over the
        # left grid endpoints; gini's ||h'|| != 1 makes the norm factor count
        h = get_distortion("gini")
        spec = spec_for(mode, lam, h)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 32, n_paths=8, seed=5)
        xt, vals = pathwise_objectives(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w)
        recovered = (xt - w) ** 2 - (w - spec.z) ** 2 - vals
        scale = optimal_feedback(spec, MARKET).scale(spec.T - sim.times()[:-1])
        reg = running_reward(scale * h.l2_norm**2, mode)
        np.testing.assert_allclose(recovered, np.full(8, lam * np.sum(reg) * sim.dt), rtol=1e-9)

    def test_determinism(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 128, n_paths=4, seed=42)
        a = pathwise_objectives(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w)
        b = pathwise_objectives(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w)
        np.testing.assert_array_equal(a, b)

    def test_classical_limit(self):
        spec = spec_for("plain", 0.0)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=30_000, seed=7)
        est, se = mc_estimate(spec, sim, w)
        _, vcl = classical_solution(0.0, spec.x0, spec, MARKET, w)
        assert abs(est - vcl) < 3 * se

    def test_plain_mode(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=30_000, seed=7)
        est, se = mc_estimate(spec, sim, w)
        assert abs(est - value(0.0, spec.x0, spec, MARKET, w)) < 3 * se

    def test_log_mode(self):
        spec = spec_for("log", 0.1)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=30_000, seed=7)
        est, se = mc_estimate(spec, sim, w)
        assert abs(est - value(0.0, spec.x0, spec, MARKET, w)) < 3 * se

    def test_chunking_does_not_change_results(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 64, n_paths=1000, seed=9)
        assert mc_estimate(spec, sim, w, chunk=64) == mc_estimate(spec, sim, w, chunk=1000)

    @pytest.mark.parametrize("chunk", [-1, 0, 2.5])
    def test_bad_chunk_rejected(self, chunk):
        spec = spec_for("plain", 0.01)
        sim = SimConfig.from_horizon(1.0, 8, n_paths=3, seed=5)
        with pytest.raises(ValueError, match="chunk"):
            pathwise_objectives(lambda t, x: (0.0, 0.1), spec, MARKET, sim, w=1.0, chunk=chunk)

    @pytest.mark.parametrize("mode, lam", [("plain", 0.01), ("log", 0.1)], ids=["plain", "log"])
    def test_per_path_std_matches_shared_std(self, mode, lam):
        # a scalar std runs the regularizer once per step, an array per path
        spec = spec_for(mode, lam)
        w = lagrange_multiplier(spec, MARKET)
        shared = optimal_schedule(spec, MARKET, w)

        def per_path(t, x):
            mean, std = shared(t, x)
            return mean, np.full(x.shape, std)

        sim = SimConfig.from_horizon(1.0, 64, n_paths=300, seed=4)
        a, b = (pathwise_objectives(s, spec, MARKET, sim, w, chunk=128) for s in (shared, per_path))
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_column_std_is_rejected(self):
        # an (n, 1) std must not broadcast against the n paths to (n, n)
        spec = spec_for("plain", 0.01)
        sim = SimConfig.from_horizon(1.0, 8, n_paths=3, seed=5)
        with pytest.raises(ValueError):
            pathwise_objectives(lambda t, x: (0.0, np.full((len(x), 1), 0.1)), spec, MARKET,
                                sim, w=1.0)
        # nor an (n, 1) mean
        with pytest.raises(ValueError):
            pathwise_objectives(lambda t, x: (np.full((len(x), 1), 0.1), 0.1), spec, MARKET,
                                sim, w=1.0)

    def test_overflowing_paths_come_back_non_finite_without_a_warning(self):
        # at rho / sigma = 19.2 the action std at t = 0 is 1e161: its square overflows
        market = MarketParams(mu=0.5, sigma=0.025, r=0.02)
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, market)
        sim = SimConfig.from_horizon(1.0, 8, n_paths=8, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xt, vals = pathwise_objectives(optimal_schedule(spec, market, w), spec, market,
                                           sim, w)
            spread = mean_and_std_error([1e300, -1e300])
        assert not np.isfinite(xt).any() and not np.isfinite(vals).any()
        assert spread == (0.0, math.inf)

    def test_discretization_consistency(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        fine = SimConfig.from_horizon(1.0, 504, n_paths=100_000, seed=23)
        coarse = SimConfig.from_horizon(1.0, 252, n_paths=100_000, seed=23)
        est_c, se_c = mc_estimate(spec, coarse, w)
        est_f, _ = mc_estimate(spec, fine, w)
        assert abs(est_f - est_c) < 3 * se_c


class TestForkedWorkers:
    """``pathwise_objectives`` over several processes, forced by reporting
    three usable CPUs: 300 paths in chunks of 37 make blocks of 111, 111 and
    78 paths, the last ending in the partial chunk of 4."""

    SIM = SimConfig.from_horizon(1.0, 16, n_paths=300, seed=11)

    @pytest.mark.parametrize("mode, lam", [("plain", 0.01), ("log", 0.1), ("plain", 0.0)],
                             ids=["plain", "log", "lam0"])
    def test_blocks_match_one_chunk_in_process(self, mode, lam, forks):
        spec = spec_for(mode, lam)
        w = lagrange_multiplier(spec, MARKET)
        schedule = optimal_schedule(spec, MARKET, w)
        forked = pathwise_objectives(schedule, spec, MARKET, self.SIM, w, chunk=37)
        assert len(forks) == 2
        whole = pathwise_objectives(schedule, spec, MARKET, self.SIM, w, chunk=300)
        assert len(forks) == 2
        assert forked[0].tobytes() == whole[0].tobytes()
        assert forked[1].tobytes() == whole[1].tobytes()

    @pytest.mark.parametrize("seed, same", [(13 + 2**64, 13), (-1, 2**64 - 1)],
                             ids=["wrapped", "negative"])
    def test_block_keys_mask_the_seed_like_path_stream(self, seed, same, forks):
        # each block rekeys one state dict per path; its seed word is the
        # seed mod 2**64, as in path_stream
        spec = spec_for("log", 0.1)
        w = lagrange_multiplier(spec, MARKET)
        schedule = optimal_schedule(spec, MARKET, w)
        got, want = (pathwise_objectives(schedule, spec, MARKET,
                                         SimConfig.from_horizon(1.0, 16, n_paths=300, seed=s),
                                         w, chunk=37)
                     for s in (seed, same))
        assert len(forks) == 4
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_child_exception_reaches_the_caller(self, forks):
        def fails_on_last_chunk(t, x):
            if len(x) == 4:
                raise ValueError("schedule failed on the partial chunk")
            return 0.0, 0.1

        with pytest.raises(ValueError, match="partial chunk"):
            pathwise_objectives(fails_on_last_chunk, spec_for("plain", 0.01), MARKET,
                                self.SIM, w=1.0, chunk=37)
        assert len(forks) == 2

    def test_killed_child_is_recomputed_in_process(self, forks):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        schedule, parent = optimal_schedule(spec, MARKET, w), os.getpid()

        def child_dies(t, x):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return schedule(t, x)

        got = pathwise_objectives(child_dies, spec, MARKET, self.SIM, w, chunk=37)
        want = pathwise_objectives(schedule, spec, MARKET, self.SIM, w, chunk=300)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_caller_exception_kills_and_reaps_children(self, exc, forks):
        parent = os.getpid()

        def caller_fails(t, x):
            if os.getpid() == parent:
                raise exc("the caller's block failed")
            time.sleep(60)  # a child that would outlast the test unless killed

        start = time.monotonic()
        with pytest.raises(exc, match="caller's block"):
            pathwise_objectives(caller_fails, spec_for("plain", 0.01), MARKET, self.SIM,
                                w=1.0, chunk=37)
        assert time.monotonic() - start < 30
        assert len(forks) == 2

    def test_failed_fork_runs_the_block_in_process(self, monkeypatch):
        def fork_fails():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        spec = spec_for("log", 0.1)
        w = lagrange_multiplier(spec, MARKET)
        schedule = optimal_schedule(spec, MARKET, w)
        want = pathwise_objectives(schedule, spec, MARKET, self.SIM, w, chunk=300)
        monkeypatch.setattr(os, "fork", fork_fails)
        got = pathwise_objectives(schedule, spec, MARKET, self.SIM, w, chunk=37)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("chunk, cpus", [(300, {0, 1, 2}), (37, {0})],
                             ids=["one_chunk", "one_cpu"])
    def test_runs_in_process_without_forking(self, chunk, cpus, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        xs, vals = pathwise_objectives(optimal_schedule(spec, MARKET, w), spec, MARKET,
                                       self.SIM, w, chunk=chunk)
        assert np.isfinite(xs).all() and np.isfinite(vals).all()


class TestWorkingSet:
    def test_block_holds_one_chunk_noise_buffer(self, monkeypatch):
        # 8 chunks of 32 paths x 1024 steps on two reported CPUs: the caller's
        # block runs 4 of them, through one noise buffer of 32 x 1024 floats
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        schedule = optimal_schedule(spec, MARKET, w)
        sim = SimConfig.from_horizon(1.0, 1024, n_paths=8 * 32, seed=7)
        # untraced, a first call loads what later calls reuse: lazy imports
        pathwise_objectives(schedule, spec, MARKET, sim, w, chunk=32)
        tracemalloc.start()
        try:
            pathwise_objectives(schedule, spec, MARKET, sim, w, chunk=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 32 * 1024 * 8


class TestMonteCarloBytes:
    """A sha256 over the full-precision bytes of many Monte Carlo runs.  The
    simulate goldens print 6 digits; this digest moves with any last-bit
    change in ``pathwise_objectives``.  Each run has 300 paths in chunks of
    37, cut into three forked blocks that end in a partial chunk."""

    SIM = SimConfig.from_horizon(1.0, 64, n_paths=300, seed=13)
    # the bytes of the kernel that formed each Euler step from fresh arrays
    # and drew each path with an explicit size; an in-place step must not
    # move them
    DIGEST = "d639b1cc8e4bd3b8457e5df6f29f7491b5f4495b413072ecfc12f1b526a7f014"

    def runs(self):
        """(schedule, spec, market, w) of every run: the optimal schedule of
        each family at plain lam 0.01, log lam 0.1 and plain lam 0 on two
        markets, and a scalar mean with a per-path std that depends on x,
        built from arithmetic alone: numpy's SIMD tanh, exp and log may round
        differently on another CPU, arithmetic rounds the same everywhere.
        The optimal schedules are not built so: the 12 runs with lam > 0 form
        their std through ``np.exp`` in ``FeedbackPolicyParams.scale``, and
        the 6 log-mode runs form their reward through ``np.log`` in
        ``policy.running_reward``.  So the digest holds only where numpy
        dispatches exp and log to its AVX-512 kernels, as on the host that
        recorded it (ROADMAP item 16)."""
        for h_name in ("gaussian_score", "entropy_like", "gini"):
            for mode, lam in (("plain", 0.01), ("log", 0.1), ("plain", 0.0)):
                for mu, sigma in ((0.1, 0.2), (-0.5, 0.1)):
                    market = MarketParams(mu=mu, sigma=sigma, r=0.02)
                    spec = spec_for(mode, lam, get_distortion(h_name))
                    w = lagrange_multiplier(spec, market)
                    yield optimal_schedule(spec, market, w), spec, market, w
        yield ((lambda t, x: (0.3 * (1.0 - t), 0.1 + 0.05 / (1.0 + (x - 1.0) ** 2))),
               spec_for("plain", 0.01, get_distortion("gini")), MARKET, 1.2)

    def test_digest(self, forks):
        digest = hashlib.sha256()
        for count, (schedule, spec, market, w) in enumerate(self.runs(), 1):
            xs, vals = pathwise_objectives(schedule, spec, market, self.SIM, w, chunk=37)
            assert len(forks) == 2 * count
            assert np.isfinite(xs).all() and np.isfinite(vals).all()
            digest.update(xs.tobytes() + vals.tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestLawAgreement:
    def test_single_action_step_matches_exploratory_step(self):
        # first/second moments of one Euler step agree between sampling the
        # action and evolving on the policy's (mean, std)
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        schedule = optimal_schedule(spec, MARKET, w)
        mean_arr, std = schedule(0.0, np.array([1.0]))
        mean = float(mean_arr[0])
        rng = np.random.default_rng(31)
        n = 1_000_000
        us = mean + std * rng.standard_normal(n)  # gaussian family
        x_sampled = step(1.0, us, MARKET, 1 / 252, rng.standard_normal(n))
        x_expl = (1.0 + MARKET.rho * MARKET.sigma * mean / 252
                  + MARKET.sigma * math.sqrt(mean**2 + std**2) * math.sqrt(1 / 252)
                  * rng.standard_normal(n))
        se_mean = x_sampled.std(ddof=1) / math.sqrt(n) + x_expl.std(ddof=1) / math.sqrt(n)
        assert abs(x_sampled.mean() - x_expl.mean()) < 4 * se_mean
        v1, v2 = x_sampled.var(ddof=1), x_expl.var(ddof=1)
        se_var = (v1 + v2) * math.sqrt(2.0 / n)
        assert abs(v1 - v2) < 4 * se_var


class TestStreams:
    def test_distinct_paths_differ(self):
        a = path_stream(1, 0).standard_normal(8)
        b = path_stream(1, 1).standard_normal(8)
        assert not np.allclose(a, b)

    def test_same_key_reproduces(self):
        a = path_stream(9, 4).standard_normal(8)
        b = path_stream(9, 4).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1, -1])
    def test_rekeyed_generator_matches_a_fresh_one(self, seed):
        rng = np.random.Generator(np.random.Philox(key=[5, 6]))
        for index in (0, 1, 7, 2**63, -3):
            # leave a half-used 32-bit word, a part-drawn buffer and an advanced counter
            rng.integers(0, 2**32, size=3, dtype=np.uint32)
            rng.random(3)
            key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert path_stream(seed, index, rng) is rng
            for k in (1, 5):
                np.testing.assert_array_equal(rng.random(k), fresh.random(k))
                np.testing.assert_array_equal(rng.standard_normal(k), fresh.standard_normal(k))
            np.testing.assert_array_equal(
                rng.integers(0, 2**32, size=3, dtype=np.uint32),
                fresh.integers(0, 2**32, size=3, dtype=np.uint32))
