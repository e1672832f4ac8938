import math

import numpy as np
import pytest

from choquet_emv.closedform import (
    EMVSpec,
    MarketParams,
    classical_schedule,
    classical_solution,
    lagrange_multiplier,
    optimal_schedule,
    value_log,
    value_plain,
)
from choquet_emv.distortion import BUILTIN_DISTORTIONS, get_distortion
from choquet_emv.market import (
    SimConfig,
    WealthPath,
    mc_objective,
    path_stream,
    rollout,
    simulate_exploratory,
    step,
    terminal_wealths,
)
from choquet_emv.rl import episode_draws

GAUSS = get_distortion("gaussian_score")
MARKET = MarketParams(mu=0.1, sigma=0.2, r=0.02)


def spec_for(mode, lam):
    return EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode=mode, h=GAUSS)


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


class TestWealthPath:
    def test_length_checks(self):
        with pytest.raises(ValueError):
            WealthPath(times=np.arange(3.0), states=np.arange(4.0),
                       running_regularizer=np.zeros(3))
        with pytest.raises(ValueError):
            WealthPath(times=np.arange(3.0), states=np.arange(3.0),
                       running_regularizer=np.zeros(2))


class TestSimulateExploratory:
    def test_degenerate_schedule_keeps_wealth_constant(self):
        spec = spec_for("plain", 0.0)
        sim = SimConfig.from_horizon(1.0, 64, seed=5)
        path = simulate_exploratory(lambda t, x: (0.0, 0.0), spec, MARKET, sim)
        np.testing.assert_array_equal(path.states, np.ones(65))
        assert path.terminal_wealth == 1.0

    def test_terminal_mean_hits_target(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=20_000, seed=11)
        xt = terminal_wealths(optimal_schedule(spec, MARKET, w), spec, MARKET, sim)
        se = xt.std(ddof=1) / math.sqrt(sim.n_paths)
        assert abs(xt.mean() - spec.z) < 4 * se
        assert 0.0 < xt.var() < np.inf

    def test_regularizer_accumulates(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 32, seed=5)
        path = simulate_exploratory(optimal_schedule(spec, MARKET, w), spec, MARKET, sim)
        assert path.running_regularizer[0] == 0.0
        assert np.all(np.diff(path.running_regularizer) > 0)

    def test_determinism(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 128, seed=42)
        a = simulate_exploratory(optimal_schedule(spec, MARKET, w), spec, MARKET, sim)
        b = simulate_exploratory(optimal_schedule(spec, MARKET, w), spec, MARKET, sim)
        np.testing.assert_array_equal(a.states, b.states)


class TestMCObjective:
    def test_classical_limit(self):
        spec = spec_for("plain", 0.0)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=30_000, seed=7)
        est, se = mc_objective(classical_schedule(spec, MARKET, w), spec, MARKET, sim, w)
        _, vcl = classical_solution(0.0, spec.x0, spec, MARKET, w)
        assert abs(est - vcl) < 3 * se

    def test_plain_mode(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=30_000, seed=7)
        est, se = mc_objective(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w)
        assert abs(est - value_plain(0.0, spec.x0, spec, MARKET, w)) < 3 * se

    def test_log_mode(self):
        spec = spec_for("log", 0.1)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=30_000, seed=7)
        est, se = mc_objective(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w)
        assert abs(est - value_log(0.0, spec.x0, spec, MARKET, w)) < 3 * se

    def test_chunking_does_not_change_results(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 64, n_paths=1000, seed=9)
        a = mc_objective(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w, chunk=64)
        b = mc_objective(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w, chunk=1000)
        assert a == b

    def test_discretization_consistency(self):
        spec = spec_for("plain", 0.01)
        w = lagrange_multiplier(spec, MARKET)
        fine = SimConfig.from_horizon(1.0, 504, n_paths=100_000, seed=23)
        coarse = SimConfig.from_horizon(1.0, 252, n_paths=100_000, seed=23)
        est_c, se_c = mc_objective(optimal_schedule(spec, MARKET, w), spec, MARKET, coarse, w)
        est_f, _ = mc_objective(optimal_schedule(spec, MARKET, w), spec, MARKET, fine, w)
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
