import math
import warnings

import numpy as np
import pytest

from choquet_emv.closedform import (
    EMVSpec,
    MarketParams,
    classical_solution,
    lagrange_multiplier,
    optimal_scale,
    optimal_schedule,
    value_log,
    value_plain,
)
from choquet_emv.distortion import BUILTIN_DISTORTIONS, get_distortion
from choquet_emv.market import (
    SimConfig,
    increment,
    mean_and_std_error,
    path_stream,
    pathwise_objectives,
    rollout,
)
from choquet_emv.policy import running_reward
from choquet_emv.rl import episode_draws

GAUSS = get_distortion("gaussian_score")
MARKET = MarketParams(mu=0.1, sigma=0.2, r=0.02)


def spec_for(mode, lam, h=GAUSS):
    return EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode=mode, h=h)


def step(x, u, market, dt, noise):
    """One Euler step of the wealth SDE under action u: the reference that
    ``rollout`` is checked against."""
    return x + market.sigma * u * increment(market, dt, noise)


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
    @pytest.mark.parametrize("h_name", sorted(BUILTIN_DISTORTIONS))
    @pytest.mark.parametrize("level", [0.0, 0.4])
    def test_matches_step_loop_bitwise(self, h_name, level):
        n, dt, w, mean_coef = 64, 1.0 / 64, 1.6, -1.3
        eta, noise = episode_draws(get_distortion(h_name), 4, 2, n)
        scale = level * np.exp(0.6 * (1.0 - np.arange(n) * dt))
        states, actions = rollout(1.0, w, mean_coef, scale, eta, MARKET, dt, noise)
        x, xs, us = 1.0, [1.0], []
        for i in range(n):
            u = mean_coef * (x - w) + scale[i] * eta[i]
            x = step(x, u, MARKET, dt, noise[i])
            us.append(u)
            xs.append(x)
        np.testing.assert_array_equal(actions, us)
        np.testing.assert_array_equal(states, xs)

    def test_diverging_path_matches_step_loop_bytes_silently(self):
        n, dt, w, mean_coef = 64, 1.0 / 64, 1.6, 1e200
        eta, noise = episode_draws(GAUSS, 4, 2, n)
        scale = 0.4 * np.ones(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, actions = rollout(1.0, w, mean_coef, scale, eta, MARKET, dt, noise)
        assert np.isinf(states).any() and np.isnan(states[-1])
        x, xs, us = 1.0, [1.0], []
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n):
                u = mean_coef * (x - w) + scale[i] * eta[i]
                x = step(x, u, MARKET, dt, noise[i])
                us.append(u)
                xs.append(x)
        assert states.tobytes() == np.array(xs).tobytes()
        assert actions.tobytes() == np.array(us).tobytes()

    def test_numpy_scalar_inputs_match_python_floats(self):
        n, dt = 64, 1.0 / 64
        eta, noise = episode_draws(GAUSS, 4, 2, n)
        scale = 0.4 * np.exp(0.6 * (1.0 - np.arange(n) * dt))
        a = rollout(1.0, 1.6, -1.3, scale, eta, MARKET, dt, noise)
        b = rollout(np.float64(1.0), np.float64(1.6), -np.float64(1.3), scale, eta, MARKET, dt,
                    noise)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


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
        reg = running_reward(optimal_scale(sim.times()[:-1], spec, MARKET) * h.l2_norm**2, mode)
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
        assert abs(est - value_plain(0.0, spec.x0, spec, MARKET, w)) < 3 * se

    def test_log_mode(self):
        spec = spec_for("log", 0.1)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=30_000, seed=7)
        est, se = mc_estimate(spec, sim, w)
        assert abs(est - value_log(0.0, spec.x0, spec, MARKET, w)) < 3 * se

    def test_chunking_does_not_change_results(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 64, n_paths=1000, seed=9)
        assert mc_estimate(spec, sim, w, chunk=64) == mc_estimate(spec, sim, w, chunk=1000)

    def test_discretization_consistency(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        fine = SimConfig.from_horizon(1.0, 504, n_paths=100_000, seed=23)
        coarse = SimConfig.from_horizon(1.0, 252, n_paths=100_000, seed=23)
        est_c, se_c = mc_estimate(spec, coarse, w)
        est_f, _ = mc_estimate(spec, fine, w)
        assert abs(est_f - est_c) < 3 * se_c


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
