import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from choquet_emv import rl
from choquet_emv.closedform import (
    EMVSpec,
    MarketParams,
    lagrange_multiplier,
    optimal_policy,
    optimal_schedule,
    value_plain,
)
from choquet_emv.distortion import get_distortion
from choquet_emv.market import SimConfig, path_stream, pathwise_objectives
from choquet_emv.policy import LocationScalePolicy, standardized_draw
from choquet_emv.rl import (
    TrainConfig,
    TrainingDivergedError,
    _clip,
    actor_scale,
    critic_grad,
    critic_value,
    episode_gradients,
    lagrange_update,
    regularizer_schedule,
    train,
)

GAUSS = get_distortion("gaussian_score")
MARKET = MarketParams(mu=0.1, sigma=0.2, r=0.02)
T = 1.0


# scalar reference oracles for the trainer's vectorized actor and TD terms


def actor_policy(phi, t, x, w, h, T) -> LocationScalePolicy:
    """The actor's action distribution at state (t, x)."""
    ph = np.asarray(phi, dtype=float)
    return LocationScalePolicy(h=h, location=-ph[0] * (x - w),
                               scale=float(actor_scale(ph, t, T)))


def td_error(theta, phi, t0, x0, t1, x1, lam, mode, h, w, z, T,
             critic_form: str = "standard") -> float:
    """One-step TD error; the t1 side is a frozen target in all gradients."""
    p, _ = regularizer_schedule(phi, t0, h, mode, T)
    dt = t1 - t0
    v0 = critic_value(theta, t0, x0, w, z, T, critic_form)
    v1 = critic_value(theta, t1, x1, w, z, T, critic_form)
    return float(-lam * p * dt + v1 - v0)


def base_config(**kw):
    defaults = dict(episodes=10, h=GAUSS, lam=0.01, mode="plain",
                    sim=SimConfig.from_horizon(T, 252, seed=1), z=1.4, x0=1.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class Episode(NamedTuple):
    """The arrays episode_gradients takes, in its argument order."""

    times: np.ndarray
    states: np.ndarray
    actions: np.ndarray


def rollout(phi, w, h, config, episode_seed=0, market=MARKET):
    """Simulate one episode under a fixed actor, mirroring the trainer with
    its own draw and Euler loop, independent of market.rollout."""
    n, dt = config.sim.n_steps, config.sim.dt
    times = config.sim.times()
    rng = path_stream(config.sim.seed, episode_seed)
    draws = np.clip(rng.random(n), 2.0**-53, 1.0 - 2.0**-53)
    eta = standardized_draw(h, draws)
    noise = rng.standard_normal(n)
    scale = np.exp(0.5 * phi[1] + 0.5 * phi[2] * (T - times[:-1]))
    x = config.x0
    states, actions = np.empty(n + 1), np.empty(n)
    states[0] = x
    for i in range(n):
        u = -phi[0] * (x - w) + scale[i] * eta[i]
        x = x + market.sigma * u * (market.rho * dt + math.sqrt(dt) * noise[i])
        actions[i] = u
        states[i + 1] = x
    return Episode(times, states, actions)


class TestCritic:
    def test_terminal_values(self):
        th = (0.8, 0.3, 1.1)
        v = critic_value(th, T, 2.0, 1.5, 1.4, T, "standard")
        assert v == pytest.approx((2.0 - 1.5) ** 2 - 0.3 - (1.5 - 1.4) ** 2)
        v = critic_value(th, T, 2.0, 1.5, 1.4, T, "corrected")
        assert v == pytest.approx((2.0 - 1.5) ** 2 - (1.5 - 1.4) ** 2)

    @pytest.mark.parametrize("form", ["standard", "corrected"])
    def test_gradient_matches_finite_differences(self, form, rng):
        e = 1e-7
        for _ in range(200):
            th = rng.uniform(-1.5, 1.5, size=3)
            t, x, w = rng.uniform(0, T), rng.uniform(-1, 3), rng.uniform(0.5, 2)
            grad = critic_grad(th, t, x, w, T, form)
            for k in range(3):
                d = np.zeros(3)
                d[k] = e
                fd = (critic_value(th + d, t, x, w, 1.4, T, form)
                      - critic_value(th - d, t, x, w, 1.4, T, form)) / (2 * e)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_exact_parameters_reproduce_plain_value_up_to_offset(self):
        spec = EMVSpec(T=T, lam=0.01, z=1.4, x0=1.0, mode="plain", h=GAUSS)
        w = lagrange_multiplier(spec, MARKET)
        rho = MARKET.rho
        th1 = spec.lam**2 * GAUSS.l2_norm**2 / (4 * rho**2 * MARKET.sigma**2)
        th = (rho**2, th1, rho**2)
        for t, x in ((0.0, 1.0), (0.4, 2.1)):
            vp = value_plain(t, x, spec, MARKET, w)
            assert critic_value(th, t, x, w, spec.z, T, "standard") + th1 == pytest.approx(vp, rel=1e-12)
            assert critic_value(th, t, x, w, spec.z, T, "corrected") == pytest.approx(vp, rel=1e-12)


class TestActor:
    def test_mean_zero_at_multiplier(self):
        pol = actor_policy((2.0, 0.0, 1.0), 0.3, 1.5, 1.5, GAUSS, T)
        assert pol.location == 0.0

    def test_unit_scale_when_flat(self):
        for t in (0.0, 0.5, 1.0):
            assert actor_policy((2.0, 0.0, 0.0), t, 1.0, 1.4, GAUSS, T).scale == 1.0

    def test_plain_optimum_is_representable(self):
        spec = EMVSpec(T=T, lam=0.01, z=1.4, x0=1.0, mode="plain", h=GAUSS)
        w = lagrange_multiplier(spec, MARKET)
        rho, sigma = MARKET.rho, MARKET.sigma
        phi = (rho / sigma, 2 * math.log(spec.lam / (2 * sigma**2)), 2 * rho**2)
        for t, x in ((0.0, 0.8), (0.7, 1.9)):
            pol = actor_policy(phi, t, x, w, GAUSS, T)
            target = optimal_policy(t, x, spec, MARKET, w)
            assert pol.location == pytest.approx(target.location, rel=1e-12, abs=1e-14)
            assert pol.scale == pytest.approx(target.scale, rel=1e-12)


class TestRegularizerSchedule:
    def test_plain_unit_norm(self):
        p, grad = regularizer_schedule((0.0, 0.0, 0.0), 0.25, GAUSS, "plain", T)
        assert p == pytest.approx(1.0)
        np.testing.assert_allclose(grad, [0.0, 0.5, 0.5 * 0.75])

    def test_log_gradient_shape(self):
        _, grad = regularizer_schedule((1.0, -2.0, 3.0), 0.25, GAUSS, "log", T)
        np.testing.assert_allclose(grad, [0.0, 0.5, 0.5 * 0.75])

    def test_log_value_includes_norm(self):
        gini = get_distortion("gini")
        p, _ = regularizer_schedule((0.0, 0.0, 0.0), T, gini, "log", T)
        assert p == pytest.approx(math.log(gini.l2_norm**2))

    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_gradient_matches_finite_differences(self, mode, rng):
        e = 1e-7
        for _ in range(200):
            phi = rng.uniform(-2, 2, size=3)
            t = rng.uniform(0, T)
            _, grad = regularizer_schedule(phi, t, GAUSS, mode, T)
            for k in range(3):
                d = np.zeros(3)
                d[k] = e
                fd = (regularizer_schedule(phi + d, t, GAUSS, mode, T)[0]
                      - regularizer_schedule(phi - d, t, GAUSS, mode, T)[0]) / (2 * e)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestTDError:
    def test_zero_length_step(self):
        th, ph = (0.9, 0.2, 1.1), (1.5, -1.0, 0.5)
        d = td_error(th, ph, 0.4, 1.2, 0.4, 1.2, 0.01, "plain", GAUSS, 1.5, 1.4, T)
        assert d == 0.0

    def test_zero_weight_is_value_increment(self):
        th, ph = (0.9, 0.2, 1.1), (1.5, -1.0, 0.5)
        d = td_error(th, ph, 0.4, 1.2, 0.5, 1.3, 0.0, "plain", GAUSS, 1.5, 1.4, T)
        dv = (critic_value(th, 0.5, 1.3, 1.5, 1.4, T)
              - critic_value(th, 0.4, 1.2, 1.5, 1.4, T))
        assert d == pytest.approx(dv)

    def test_martingale_property_at_optimum(self):
        spec = EMVSpec(T=T, lam=0.01, z=1.4, x0=1.0, mode="plain", h=GAUSS)
        w = lagrange_multiplier(spec, MARKET)
        rho, sigma = MARKET.rho, MARKET.sigma
        phi = np.array([rho / sigma, 2 * math.log(spec.lam / (2 * sigma**2)), 2 * rho**2])
        theta = np.array([rho**2,
                          spec.lam**2 * GAUSS.l2_norm**2 / (4 * rho**2 * sigma**2),
                          rho**2])
        cfg = base_config(sim=SimConfig.from_horizon(T, 252, seed=42))
        deltas = []
        for ep in range(100):
            path = rollout(phi, w, GAUSS, cfg, episode_seed=ep)
            v = critic_value(theta, path.times, path.states, w, spec.z, T)
            p, _ = regularizer_schedule(phi, path.times[:-1], GAUSS, "plain", T)
            deltas.append(v[1:] - v[:-1] - spec.lam * p * cfg.sim.dt)
        d = np.concatenate(deltas)
        se = d.std(ddof=1) / math.sqrt(d.size)
        assert abs(d.mean()) < 4 * se


class TestEpisodeGradients:
    def make_episode(self, phi=None, w=1.5, seed=0):
        phi = np.array([1.2, -0.8, 0.9]) if phi is None else np.asarray(phi)
        cfg = base_config(sim=SimConfig.from_horizon(T, 64, seed=3))
        return rollout(phi, w, GAUSS, cfg, episode_seed=seed), phi, w, cfg

    def test_empty_episode_gives_zero(self):
        cfg = base_config()
        gt, gp, skipped = episode_gradients(np.array([0.0]), np.array([1.0]), np.empty(0),
                                            (1.0, 0.1, 1.0), (1.0, 0.0, 1.0), 1.4, cfg)
        assert np.all(gt == 0.0) and np.all(gp == 0.0) and skipped == 0

    def test_critic_gradient_matches_frozen_target_loss(self):
        # loss(theta) = 1/2 sum (U_i - V_theta(t_i, x_i))^2 with U_i frozen at
        # the base parameters; its gradient at the base point is grad_theta
        episode, phi, w, cfg = self.make_episode()
        theta = np.array([0.9, 0.2, 1.1])
        gt, _, _ = episode_gradients(*episode, theta, phi, w, cfg)

        p, _ = regularizer_schedule(phi, episode.times[:-1], GAUSS, cfg.mode, T)
        v_base = critic_value(theta, episode.times, episode.states, w, cfg.z, T)
        targets = -cfg.lam * p * cfg.sim.dt + v_base[1:]

        def loss(th):
            v = critic_value(th, episode.times[:-1], episode.states[:-1], w, cfg.z, T)
            return 0.5 * np.sum((targets - v) ** 2)

        e = 1e-6
        for k in range(3):
            d = np.zeros(3)
            d[k] = e
            fd = (loss(theta + d) - loss(theta - d)) / (2 * e)
            assert gt[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_actor_gradient_matches_frozen_critic_surrogate(self):
        # surrogate(phi) = sum_i [log pdf_phi(u_i) delta_i - lam p(t_i; phi) dt]
        # with the trajectory, the critic, and the deltas frozen at the base
        # point (common random numbers); its gradient is grad_phi
        from choquet_emv.policy import LocationScalePolicy, log_density

        episode, phi, w, cfg = self.make_episode()
        theta = np.array([0.9, 0.2, 1.1])
        _, gp, _ = episode_gradients(*episode, theta, phi, w, cfg)

        t_left, x_left = episode.times[:-1], episode.states[:-1]
        v = critic_value(theta, episode.times, episode.states, w, cfg.z, T)
        p_base, _ = regularizer_schedule(phi, t_left, GAUSS, cfg.mode, T)
        delta = v[1:] - v[:-1] - cfg.lam * p_base * cfg.sim.dt

        def surrogate(ph):
            total = 0.0
            scales = actor_scale(ph, t_left, T)
            for i in range(len(t_left)):
                pol = LocationScalePolicy(h=GAUSS, location=-ph[0] * (x_left[i] - w),
                                          scale=float(scales[i]))
                p_i, _ = regularizer_schedule(ph, t_left[i], GAUSS, cfg.mode, T)
                total += (log_density(pol, episode.actions[i]) * delta[i]
                          - cfg.lam * p_i * cfg.sim.dt)
            return total

        e = 1e-6
        for k in range(3):
            d = np.zeros(3)
            d[k] = e
            fd = (surrogate(phi + d) - surrogate(phi - d)) / (2 * e)
            assert gp[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_targets_carry_no_gradient(self):
        # the semi-gradient uses dV/dtheta only at the left endpoints; the
        # full gradient of the squared TD residual would also differentiate
        # the target side and must disagree
        episode, phi, w, cfg = self.make_episode()
        theta = np.array([0.9, 0.2, 1.1])
        gt, _, _ = episode_gradients(*episode, theta, phi, w, cfg)

        t, x = episode.times, episode.states
        p, _ = regularizer_schedule(phi, t[:-1], GAUSS, cfg.mode, T)
        v = critic_value(theta, t, x, w, cfg.z, T)
        delta = v[1:] - v[:-1] - cfg.lam * p * cfg.sim.dt
        dv_left = critic_grad(theta, t[:-1], x[:-1], w, T)
        dv_right = critic_grad(theta, t[1:], x[1:], w, T)
        semi = -dv_left.T @ delta
        full = (dv_right - dv_left).T @ delta
        np.testing.assert_allclose(gt, semi, rtol=1e-12)
        assert not np.allclose(full, semi)

    def test_out_of_support_actions_are_skipped(self):
        gini = get_distortion("gini")
        cfg = base_config(h=gini, sim=SimConfig.from_horizon(T, 8, seed=3))
        phi, w = np.array([0.5, -1.0, 0.5]), 1.4
        episode = rollout(phi, w, gini, cfg, episode_seed=1)
        episode.actions[2] = 100.0  # replay with a shifted action
        _, _, skipped = episode_gradients(*episode, (1.0, 0.1, 1.0), phi, w, cfg)
        assert skipped == 1

    def test_mode_changes_only_regularizer_terms(self):
        episode, phi, w, cfg_plain = self.make_episode()
        cfg_log = base_config(mode="log", lam=cfg_plain.lam,
                              sim=cfg_plain.sim)
        theta = np.array([0.9, 0.2, 1.1])
        gt_p, gp_p, _ = episode_gradients(*episode, theta, phi, w, cfg_plain)
        gt_l, gp_l, _ = episode_gradients(*episode, theta, phi, w, cfg_log)

        t_left, x_left = episode.times[:-1], episode.states[:-1]
        dts = np.diff(episode.times)
        p_p, dp_p = regularizer_schedule(phi, t_left, GAUSS, "plain", T)
        p_l, dp_l = regularizer_schedule(phi, t_left, GAUSS, "log", T)
        dv = critic_grad(theta, t_left, x_left, w, T)
        # critic side: deltas differ exactly by the regularizer swap
        expected_dgt = -dv.T @ (-cfg_plain.lam * (p_l - p_p) * dts)
        np.testing.assert_allclose(gt_l - gt_p, expected_dgt, rtol=1e-9, atol=1e-12)
        # actor side: score terms reweighted by the delta change, plus dp swap
        from choquet_emv.policy import log_density_grad_fields

        scale = actor_scale(phi, t_left, T)
        dm, ds = log_density_grad_fields(GAUSS, episode.actions, -phi[0] * (x_left - w), scale)
        tau = T - t_left
        dlog = np.stack([-(x_left - w) * dm, 0.5 * scale * ds, 0.5 * tau * scale * ds], axis=-1)
        expected_dgp = (dlog.T @ (-cfg_plain.lam * (p_l - p_p) * dts)
                        - cfg_plain.lam * (dp_l - dp_p).T @ dts)
        np.testing.assert_allclose(gp_l - gp_p, expected_dgp, rtol=1e-9, atol=1e-12)


class TestLagrangeUpdate:
    def test_on_target_batch_is_inert(self):
        assert lagrange_update(1.7, [1.4, 1.4, 1.4], 0.01, 1.4) == 1.7

    def test_overshoot_decreases(self):
        assert lagrange_update(1.7, np.full(10, 2.4), 0.01, 1.4) == pytest.approx(1.69)

    def test_stochastic_approximation_stays_near_truth(self):
        spec = EMVSpec(T=T, lam=0.01, z=1.4, x0=1.0, mode="plain", h=GAUSS)
        w_star = lagrange_multiplier(spec, MARKET)
        w = w_star
        sched = optimal_schedule(spec, MARKET, w_star)
        for k in range(40):
            sim = SimConfig.from_horizon(T, 64, n_paths=10, seed=1000 + k)
            batch, _ = pathwise_objectives(sched, spec, MARKET, sim, w_star)
            w = lagrange_update(w, batch, 0.01, spec.z)
        assert abs(w - w_star) < 0.05


class TestTrain:
    def test_single_episode_updates_once(self):
        log = train(base_config(episodes=1, avg_window=1), MARKET)
        assert log.episodes == 1
        assert not np.allclose(log.theta[0], (1.0, 0.1, 1.0))
        assert log.w[0] != 1.4  # avg_window=1 triggers a multiplier update
        log2 = train(base_config(episodes=1, avg_window=2), MARKET)
        assert log2.w[0] == 1.4  # window not yet filled

    def test_reproducible_from_seed(self):
        a = train(base_config(episodes=25), MARKET)
        b = train(base_config(episodes=25), MARKET)
        np.testing.assert_array_equal(a.terminal_wealth, b.terminal_wealth)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.w, b.w)

    def test_numpy_integer_seed_trains_as_its_int(self):
        a, b = (train(base_config(episodes=5, sim=SimConfig.from_horizon(T, 252, seed=s)), MARKET)
                for s in (3, np.int64(3)))
        for name in ("terminal_wealth", "theta", "phi", "w"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_updates_follow_decayed_gradients(self):
        # re-derive every update offline from the logged parameters
        cfg = base_config(episodes=4, avg_window=100)
        log = train(cfg, MARKET)
        theta, phi, w = np.array(rl.THETA_INIT, float), np.array(rl.PHI_INIT, float), cfg.z
        for j in range(1, cfg.episodes + 1):
            episode = rollout(phi, w, GAUSS, cfg, episode_seed=j)
            gt, gp, _ = episode_gradients(*episode, theta, phi, w, cfg)
            lr = j**-cfg.decay
            theta = theta - cfg.alpha * lr * gt
            phi = phi - cfg.alpha * lr * gp
            np.testing.assert_allclose(log.theta[j - 1], theta, rtol=1e-12)
            np.testing.assert_allclose(log.phi[j - 1], phi, rtol=1e-12)
            np.testing.assert_array_equal(log.terminal_wealth[j - 1], episode.states[-1])

    # a gini actor at scale e^-35 replays some boundary draws just outside
    # its support, through rounding in (u - M) / S
    @pytest.mark.parametrize("h_name, phi_init, grad_clip", [
        ("gini", (2.0, -70.0, 1.0), 0.2),
        ("gaussian_score", (2.0, -2.0, 1.0), 0.05),
    ], ids=["gini", "gaussian"])
    def test_counters_match_replayed_episodes(self, h_name, phi_init, grad_clip, monkeypatch):
        h = get_distortion(h_name)
        monkeypatch.setattr(rl, "PHI_INIT", phi_init)
        cfg = base_config(episodes=20, avg_window=100, h=h, grad_clip=grad_clip,
                          sim=SimConfig.from_horizon(T, 64, seed=1))
        log = train(cfg, MARKET)
        theta, phi, w = np.array(rl.THETA_INIT, float), np.array(phi_init, float), cfg.z
        skipped = clipped = 0
        for j in range(1, cfg.episodes + 1):
            episode = rollout(phi, w, h, cfg, episode_seed=j)
            gt, gp, n_skipped = episode_gradients(*episode, theta, phi, w, cfg)
            gt, c1 = _clip(gt, cfg.grad_clip)
            gp, c2 = _clip(gp, cfg.grad_clip)
            skipped += n_skipped
            clipped += c1 + c2
            lr = j**-cfg.decay
            theta = theta - cfg.alpha * lr * gt
            phi = phi - cfg.alpha * lr * gp
            np.testing.assert_array_equal(log.phi[j - 1], phi)
        assert log.skipped_actions == skipped and log.clip_events == clipped
        assert (skipped > 0) == (h_name == "gini")
        assert 0 < clipped < 2 * cfg.episodes

    def test_multiplier_updates_use_last_window(self):
        cfg = base_config(episodes=20, avg_window=10)
        log = train(cfg, MARKET)
        w0 = cfg.z - cfg.alpha * (log.terminal_wealth[:10].mean() - cfg.z)
        assert log.w[9] == pytest.approx(w0, rel=1e-12)
        assert np.all(log.w[:9] == cfg.z)
        w1 = w0 - cfg.alpha * (log.terminal_wealth[10:20].mean() - cfg.z)
        assert log.w[19] == pytest.approx(w1, rel=1e-12)

    def test_clipping_bounds_updates_and_is_logged(self):
        cfg = base_config(episodes=10, grad_clip=1e-4)
        log = train(cfg, MARKET)
        assert log.clip_events > 0
        step0 = np.abs(log.theta[0] - np.array(rl.THETA_INIT))
        assert np.linalg.norm(step0) <= cfg.alpha * 1e-4 * (1 + 1e-9)

    def test_clip_leaves_overflowing_norm_to_the_parameter_check(self):
        vec = np.full(3, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped, engaged = _clip(vec, 1.0)
        assert clipped is vec and not engaged

    def test_divergence_reports_episode(self):
        cfg = base_config(episodes=500, alpha=2e4)
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, MARKET)
        assert err.value.episode >= 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            base_config(episodes=0)
        with pytest.raises(ValueError):
            base_config(alpha=0.0)
        with pytest.raises(ValueError):
            base_config(mode="hybrid")
        with pytest.raises(ValueError):
            base_config(critic_form="mine")
        # a non-positive limit would reverse or zero every clipped update
        for limit in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="grad_clip"):
                base_config(grad_clip=limit)
        # a negative decay makes the step size grow like j^|decay|
        for bad in (dict(lam=-1.0), dict(lam=math.nan), dict(decay=-3.0),
                    dict(decay=math.inf), dict(alpha=math.nan), dict(alpha=math.inf),
                    dict(z=math.nan), dict(x0=math.inf)):
            with pytest.raises(ValueError):
                base_config(**bad)
        # a fractional count would truncate or fail deep inside train
        for name in ("episodes", "avg_window"):
            for bad in (2.5, 10.0, True):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    base_config(**{name: bad})

    def test_desk_scale_run_reaches_target_band(self):
        market = MarketParams(mu=0.3, sigma=0.2, r=0.02)
        cfg = base_config(episodes=4000, sim=SimConfig.from_horizon(T, 252, seed=5))
        mean, _, _ = train(cfg, market).last_window_stats()
        assert 1.30 <= mean <= 1.50

    @pytest.mark.slow
    def test_convergence_direction_over_ensemble(self):
        # 20 independent runs at a high-Sharpe study cell: the ensemble mean
        # distance to the wealth target must shrink from K/10 to K
        market = MarketParams(mu=-0.5, sigma=0.1, r=0.02)
        K = 20000
        early, late = [], []
        for seed in range(1, 21):
            cfg = base_config(episodes=K, sim=SimConfig.from_horizon(T, 252, seed=seed))
            log = train(cfg, market)
            tail_early = log.terminal_wealth[K // 10 - 200:K // 10]
            early.append(abs(tail_early.mean() - 1.4))
            late.append(abs(log.last_window_stats()[0] - 1.4))
        assert np.mean(late) < np.mean(early)


class TestTrainLogStats:
    def test_sharpe_statistic(self):
        from choquet_emv.rl import TrainLog

        tw = np.concatenate([np.zeros(100), np.full(200, 1.4) + np.tile([-0.2, 0.2], 100)])
        log = TrainLog(terminal_wealth=tw, theta=np.zeros((300, 3)),
                       phi=np.zeros((300, 3)), w=np.zeros(300))
        mean, var, sharpe = log.last_window_stats()
        assert mean == pytest.approx(1.4)
        assert var == pytest.approx(0.04)
        assert sharpe == pytest.approx(2.0)

    def test_block_means(self):
        from choquet_emv.rl import TrainLog

        tw = np.arange(500, dtype=float)
        log = TrainLog(terminal_wealth=tw, theta=np.zeros((500, 3)),
                       phi=np.zeros((500, 3)), w=np.zeros(500))
        bm = log.block_means()
        assert bm.shape == (5,)
        assert bm[0] == pytest.approx(np.mean(np.arange(100)))

