import hashlib
import math
import warnings
from dataclasses import replace
from fractions import Fraction
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
    value,
)
from choquet_emv.distortion import custom_distortion, get_distortion, scale_distortion
from choquet_emv.market import SimConfig, path_stream, pathwise_objectives
from choquet_emv.policy import (
    DensityUnavailableError,
    LocationScalePolicy,
    log_density,
    standardized_draw,
)
from choquet_emv.rl import (
    TrainConfig,
    TrainingDivergedError,
    _clip,
    actor_log_scale,
    critic_grad,
    critic_value,
    lagrange_update,
    train,
    train_many,
)

from adversarial import episode_terms, regularizer, trainer_gradients

GAUSS = get_distortion("gaussian_score")
MARKET = MarketParams(mu=0.1, sigma=0.2, r=0.02)
T = 1.0


# scalar reference oracles for the trainer's vectorized actor and TD terms


def actor_policy(phi, t, x, w, h, T) -> LocationScalePolicy:
    """The actor's action distribution at state (t, x)."""
    ph = np.asarray(phi, dtype=float)
    return LocationScalePolicy(h=h, location=-ph[0] * (x - w),
                               scale=float(np.exp(actor_log_scale(ph, T - t))))


def td_error(theta, phi, t0, x0, t1, x1, lam, mode, h, w, z, T,
             critic_form: str = "standard") -> float:
    """One-step TD error; the t1 side is a frozen target in all gradients."""
    p, _ = regularizer(phi, t0, h, mode, T)
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
    """One cell's episode: the batch layout, (1, n + 1) states and (1, n)
    actions trainer_gradients takes first, then the times and actor log
    scale."""

    batch: rl._Batch
    states: np.ndarray
    actions: np.ndarray
    times: np.ndarray
    log_scale: np.ndarray

    @property
    def scale(self) -> np.ndarray:
        return np.exp(self.log_scale)


def rollout(phi, w, h, config, episode_seed=0, market=MARKET):
    """Simulate one episode under a fixed actor, mirroring the trainer with
    its own draw and Euler loop, independent of market.wealth_recurrence."""
    n, dt = config.sim.n_steps, config.sim.dt
    times = config.sim.times()
    rng = path_stream(config.sim.seed, episode_seed)
    draws = np.clip(rng.random(n), 2.0**-53, 1.0 - 2.0**-53)
    eta = standardized_draw(h, draws)
    noise = rng.standard_normal(n)
    log_scale = 0.5 * phi[1] + 0.5 * phi[2] * (T - times[:-1])
    scale = np.exp(log_scale)
    x, xs, us = config.x0, [config.x0], []
    for i in range(n):
        u = -phi[0] * (x - w) + scale[i] * eta[i]
        x = x + market.sigma * u * (market.rho * dt + math.sqrt(dt) * noise[i])
        us.append(u)
        xs.append(x)
    return Episode(rl._batch(times, [config]), np.array([xs]), np.array([us]), times, log_scale)


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
            vp = value(t, x, spec, MARKET, w)
            assert critic_value(th, t, x, w, spec.z, T, "standard") + th1 == pytest.approx(vp, rel=1e-12)
            assert critic_value(th, t, x, w, spec.z, T, "corrected") == pytest.approx(vp, rel=1e-12)

    @pytest.mark.parametrize("fn, args", [(critic_value, (0.2, 1.0, 1.2, 1.4, 1.0)),
                                          (critic_grad, (0.2, 1.0, 1.2, 1.0))],
                             ids=["critic_value", "critic_grad"])
    def test_unknown_form_is_rejected(self, fn, args):
        # a misspelled form must not evaluate as the corrected one
        for form in ("Standard", "nonsense"):
            with pytest.raises(ValueError, match=r"critic form must be one of \('standard', "
                                                 r"'corrected'\), got '" + form):
                fn((1.0, 0.1, 1.0), *args, form)


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
        p, grad = regularizer((0.0, 0.0, 0.0), 0.25, GAUSS, "plain", T)
        assert p == pytest.approx(1.0)
        np.testing.assert_allclose(grad, [0.0, 0.5, 0.5 * 0.75])

    def test_log_gradient_shape(self):
        _, grad = regularizer((1.0, -2.0, 3.0), 0.25, GAUSS, "log", T)
        np.testing.assert_allclose(grad, [0.0, 0.5, 0.5 * 0.75])

    def test_log_value_includes_norm(self):
        gini = get_distortion("gini")
        p, _ = regularizer((0.0, 0.0, 0.0), T, gini, "log", T)
        assert p == pytest.approx(math.log(gini.l2_norm**2))

    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_gradient_matches_finite_differences(self, mode, rng):
        e = 1e-7
        for _ in range(200):
            phi = rng.uniform(-2, 2, size=3)
            t = rng.uniform(0, T)
            _, grad = regularizer(phi, t, GAUSS, mode, T)
            for k in range(3):
                d = np.zeros(3)
                d[k] = e
                fd = (regularizer(phi + d, t, GAUSS, mode, T)[0]
                      - regularizer(phi - d, t, GAUSS, mode, T)[0]) / (2 * e)
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
            v = critic_value(theta, path.times, path.states[0], w, spec.z, T)
            p, _ = regularizer(phi, path.times[:-1], GAUSS, "plain", T)
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
        gt, gp, skipped = trainer_gradients(rl._batch(np.array([0.0]), [base_config()]), [[1.0]],
                                            np.empty((1, 0)), [(1.0, 0.1, 1.0)],
                                            [(1.0, 0.0, 1.0)], [1.4], np.empty(0))
        assert np.all(gt == 0.0) and np.all(gp == 0.0) and skipped.tolist() == [0]

    def test_critic_gradient_matches_frozen_target_loss(self):
        # loss(theta) = 1/2 sum (U_i - V_theta(t_i, x_i))^2 with U_i frozen at
        # the base parameters; its gradient at the base point is grad_theta
        episode, phi, w, cfg = self.make_episode()
        theta = np.array([0.9, 0.2, 1.1])
        (gt,), _, _ = trainer_gradients(*episode[:3], [theta], [phi], [w], episode.log_scale)

        p, _ = regularizer(phi, episode.times[:-1], GAUSS, cfg.mode, T)
        v_base = critic_value(theta, episode.times, episode.states[0], w, cfg.z, T)
        targets = -cfg.lam * p * cfg.sim.dt + v_base[1:]

        def loss(th):
            v = critic_value(th, episode.times[:-1], episode.states[0, :-1], w, cfg.z, T)
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
        episode, phi, w, cfg = self.make_episode()
        theta = np.array([0.9, 0.2, 1.1])
        _, (gp,), _ = trainer_gradients(*episode[:3], [theta], [phi], [w], episode.log_scale)

        t_left, x_left = episode.times[:-1], episode.states[0, :-1]
        v = critic_value(theta, episode.times, episode.states[0], w, cfg.z, T)
        p_base, _ = regularizer(phi, t_left, GAUSS, cfg.mode, T)
        delta = v[1:] - v[:-1] - cfg.lam * p_base * cfg.sim.dt

        def surrogate(ph):
            total = 0.0
            scales = np.exp(actor_log_scale(ph, T - t_left))
            for i in range(len(t_left)):
                pol = LocationScalePolicy(h=GAUSS, location=-ph[0] * (x_left[i] - w),
                                          scale=float(scales[i]))
                p_i, _ = regularizer(ph, t_left[i], GAUSS, cfg.mode, T)
                total += (log_density(pol, episode.actions[0, i]) * delta[i]
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
        (gt,), _, _ = trainer_gradients(*episode[:3], [theta], [phi], [w], episode.log_scale)

        t, x = episode.times, episode.states[0]
        p, _ = regularizer(phi, t[:-1], GAUSS, cfg.mode, T)
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
        episode.actions[0, 2] = 100.0  # replay with a shifted action
        _, _, skipped = trainer_gradients(*episode[:3], [rl.THETA_INIT], [phi], [w], episode.log_scale)
        assert skipped.tolist() == [1]

    def test_mode_changes_only_regularizer_terms(self):
        episode, phi, w, cfg_plain = self.make_episode()
        cfg_log = base_config(mode="log", lam=cfg_plain.lam,
                              sim=cfg_plain.sim)
        theta = np.array([0.9, 0.2, 1.1])
        (gt_p,), (gp_p,), _ = trainer_gradients(*episode[:3], [theta], [phi], [w], episode.log_scale)
        (gt_l,), (gp_l,), _ = trainer_gradients(rl._batch(episode.times, [cfg_log]), *episode[1:3],
                                                [theta], [phi], [w], episode.log_scale)
        t_left, x_left = episode.times[:-1], episode.states[0, :-1]
        dts = np.diff(episode.times)
        p_p, dp_p = regularizer(phi, t_left, GAUSS, "plain", T)
        p_l, dp_l = regularizer(phi, t_left, GAUSS, "log", T)
        dv = critic_grad(theta, t_left, x_left, w, T)
        # critic side: deltas differ exactly by the regularizer swap
        expected_dgt = -dv.T @ (-cfg_plain.lam * (p_l - p_p) * dts)
        np.testing.assert_allclose(gt_l - gt_p, expected_dgt, rtol=1e-9, atol=1e-12)
        # actor side: score terms reweighted by the delta change, plus dp swap
        from choquet_emv.policy import log_density_grad_fields

        scale = np.exp(actor_log_scale(phi, T - t_left))
        dm, ds = log_density_grad_fields(GAUSS, episode.actions[0], -phi[0] * (x_left - w), scale)
        tau = T - t_left
        dlog = np.stack([-(x_left - w) * dm, 0.5 * scale * ds, 0.5 * tau * scale * ds], axis=-1)
        expected_dgp = (dlog.T @ (-cfg_plain.lam * (p_l - p_p) * dts)
                        - cfg_plain.lam * (dp_l - dp_p).T @ dts)
        np.testing.assert_allclose(gp_l - gp_p, expected_dgp, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("gap", [10.0, 1e4])
    def test_td_errors_are_the_exact_difference_of_the_critic_terms(self, gap):
        # -(w - z)^2 cancels from every TD error, so the TD pass leaves it
        # out and loses no digits to it however far z is from w
        episode, phi, w, cfg = self.make_episode()
        batch, theta = rl._batch(episode.times, [replace(cfg, z=w - gap)]), [[0.9, 0.2, 1.1]]
        xw, _ = episode_terms(episode.states, [phi], [w])
        _, (delta,), _ = rl.episode_gradients(batch, xw, theta, episode.log_scale, episode.scale)
        th, _, offset, decay, xw2 = rl._critic_pass(theta, batch.tau, xw, batch.form)
        (v,) = rl._value(th, offset, decay, xw2)
        p, _ = rl._regularizer(episode.log_scale, batch.half_tau, batch.forms, episode.scale,
                               np.zeros(episode.actions.shape + (3,)), batch.lam)
        (cost,) = batch.lam * p * batch.dts
        for i, got in enumerate(delta.tolist()):
            exact = Fraction(v[i + 1]) - Fraction(v[i]) - Fraction(cost[i])
            assert abs(Fraction(got) - exact) <= Fraction(1e-15) * abs(exact), i

    def test_td_pass_reads_no_density(self, monkeypatch):
        # a custom distortion has no family record and so no closed-form
        # density; only the score actor asks for one, through rl's namespace
        gini = get_distortion("gini")
        h = custom_distortion("gini_copy", gini.h, gini.hprime, hprime_singular=False)
        cfg = base_config(h=h, sim=SimConfig.from_horizon(T, 16, seed=3))
        phi, w = np.array([1.2, -0.8, 0.9]), 1.5
        episode = rollout(phi, w, h, cfg, episode_seed=1)
        asked = []

        def no_density(dist, *args):
            asked.append(dist)
            raise DensityUnavailableError(f"{dist.name} has no density")

        monkeypatch.setattr(rl, "log_density_grad_fields", no_density)
        xw, location = episode_terms(episode.states, [phi], [w])
        grads = rl.episode_gradients(episode.batch, xw, [rl.THETA_INIT], episode.log_scale,
                                     episode.scale)
        assert asked == [] and all(np.isfinite(g).all() for g in grads)
        with pytest.raises(DensityUnavailableError):
            rl.score_gradient(episode.batch, xw, location, episode.actions, episode.scale,
                              grads[1])
        assert asked == [h]
        monkeypatch.undo()  # the package's own density raises the same
        with pytest.raises(DensityUnavailableError):
            rl.score_gradient(episode.batch, xw, location, episode.actions, episode.scale,
                              grads[1])

    def test_failing_row_rides_along_silently(self):
        # row 1's wealth is 1e308 from step 3 on, so -phi0 (x - w) and the
        # critic's (x - w)^2 overflow; row 0 must keep the bytes it has alone
        episode, phi, w, cfg = self.make_episode(phi=rl.PHI_INIT)
        theta = np.array([rl.THETA_INIT] * 2)
        states = np.repeat(episode.states, 2, axis=0)
        states[1, 3:] = 1e308
        actions = np.repeat(episode.actions, 2, axis=0)
        log_scale = np.tile(episode.log_scale, (2, 1))
        scale = np.exp(log_scale)
        batch = rl._batch(episode.times, [cfg, cfg])
        # the TD pass and the actor leave warnings to their caller: enter train_many's errstate
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore",
                                                    divide="ignore"):
            warnings.simplefilter("error")
            xw, location = episode_terms(states, [phi] * 2, [w] * 2)
            gt, delta, g_reg = rl.episode_gradients(batch, xw, theta, log_scale, scale)
            g_score, skipped = rl.score_gradient(batch, xw, location, actions, scale, delta)
            xw, location = episode_terms(episode.states, [phi], [w])
            alone = rl.episode_gradients(episode.batch, xw, theta[:1], log_scale[:1], scale[:1])
            alone_score = rl.score_gradient(episode.batch, xw, location, episode.actions,
                                            scale[:1], alone[1])
        assert not np.isfinite(delta[1]).all() and skipped[1] > 0
        for got, want in zip((gt, delta, g_reg, g_score, skipped), alone + alone_score):
            assert got[0].tobytes() == want[0].tobytes()


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
        theta, phi, w = np.array([rl.THETA_INIT]), np.array([rl.PHI_INIT]), cfg.z
        for j in range(1, cfg.episodes + 1):
            episode = rollout(phi[0], w, GAUSS, cfg, episode_seed=j)
            gt, gp, _ = trainer_gradients(*episode[:3], theta, phi, [w], episode.log_scale)
            lr = j**-cfg.decay
            theta = theta - cfg.alpha * lr * gt
            phi = phi - cfg.alpha * lr * gp
            np.testing.assert_allclose(log.theta[j - 1], theta[0], rtol=1e-12)
            np.testing.assert_allclose(log.phi[j - 1], phi[0], rtol=1e-12)
            np.testing.assert_array_equal(log.terminal_wealth[j - 1], episode.states[0, -1])

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
        theta, phi, w = np.array([rl.THETA_INIT]), np.array([phi_init]), cfg.z
        skipped = clipped = 0
        for j in range(1, cfg.episodes + 1):
            episode = rollout(phi[0], w, h, cfg, episode_seed=j)
            gt, gp, n_skipped = trainer_gradients(*episode[:3], theta, phi, [w], episode.log_scale)
            gt, c1 = _clip(gt, cfg.grad_clip)
            gp, c2 = _clip(gp, cfg.grad_clip)
            skipped += n_skipped
            clipped += c1.sum() + c2.sum()
            lr = j**-cfg.decay
            theta = theta - cfg.alpha * lr * gt
            phi = phi - cfg.alpha * lr * gp
            np.testing.assert_array_equal(log.phi[j - 1], phi[0])
        assert log.skipped_actions == skipped and log.clip_events == clipped
        assert (skipped > 0) == (h_name == "gini")
        assert 0 < clipped < 2 * cfg.episodes

    def test_scaled_distortion_trains_on_its_stretched_family(self):
        h = scale_distortion(get_distortion("gini"), 2.0)
        log = train(base_config(episodes=20, h=h, sim=SimConfig.from_horizon(T, 64, seed=2)),
                    MARKET)
        assert np.isfinite(log.terminal_wealth).all() and log.skipped_actions == 0

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
        vec = np.full((1, 3), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped, engaged = _clip(vec, 1.0)
        assert clipped is vec and not engaged

    def test_clip_engages_only_above_the_limit(self):
        rows = np.array([[1e3 * (1.0 + 1e-12), 0.0, 0.0], [1e3 * (1.0 - 1e-12), 0.0, 0.0],
                         [1e3, 0.0, 0.0], [300.0, 400.0, 1000.0]])
        clipped, engaged = _clip(rows, 1e3)
        assert engaged.tolist() == [True, False, False, True]
        assert clipped[1:3].tobytes() == rows[1:3].tobytes()
        for got, row in zip(clipped[[0, 3]], rows[[0, 3]]):
            norm = np.linalg.norm(got)
            assert norm == pytest.approx(1e3, rel=1e-15)
            np.testing.assert_allclose(got / norm, row / np.linalg.norm(row), rtol=1e-15)

    def test_divergence_reports_episode(self):
        cfg = base_config(episodes=500, alpha=2e4)
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, MARKET)
        assert err.value.episode >= 1

    def test_multiplier_beyond_a_float_square_diverges_as_its_parameters(self):
        # the train command's default cell: the multiplier step at episode 10
        # sends w past 1e154, where (w - z)^2 overflows a Python float; the
        # TD pass never squares it, and the parameters turn non-finite next
        cfg = base_config(episodes=30, alpha=1e160, grad_clip=1e-300,
                          sim=SimConfig.from_horizon(T, 252, seed=0))
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, MARKET)
        assert str(err.value) == "training diverged at episode 11: non-finite parameters"

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
        # 20 independent runs at a high-Sharpe study cell, trained as one
        # batch (each gives the bytes it gives alone): the ensemble mean
        # distance to the wealth target must shrink from K/10 to K
        market = MarketParams(mu=-0.5, sigma=0.1, r=0.02)
        K = 20000
        configs = [base_config(episodes=K, sim=SimConfig.from_horizon(T, 252, seed=seed))
                   for seed in range(1, 21)]
        logs = train_many(configs, [market] * len(configs))
        early = [abs(log.terminal_wealth[K // 10 - 200:K // 10].mean() - 1.4) for log in logs]
        late = [abs(log.last_window_stats()[0] - 1.4) for log in logs]
        assert np.mean(late) < np.mean(early)


class TestTrainMany:
    # one batch of every family in both modes on two markets, clipped at
    # 1e3; at lambda 1000 the two gini cells diverge mid-run (their
    # parameters turn non-finite at episodes 94 and 70) and entropy_like
    # replays some actions outside its support
    CELLS = [  # (h, mode, lam, mu, seed)
        ("gaussian_score", "plain", 0.01, 0.3, 1),
        ("entropy_like", "plain", 1000.0, -0.5, 6),
        ("gini", "plain", 1000.0, 0.3, 3),
        ("gini", "log", 1000.0, -0.5, 11),
        ("gaussian_score", "log", 0.1, -0.5, 5),
        ("entropy_like", "log", 100.0, 0.3, 8),
        ("gini", "log", 0.1, 0.3, 7),
    ]

    def batch(self, cells=None, **shared):
        configs, markets = [], []
        for h_name, mode, lam, mu, seed in cells or self.CELLS:
            configs.append(base_config(episodes=150, h=get_distortion(h_name), mode=mode, lam=lam,
                                       grad_clip=1e3,
                                       sim=SimConfig.from_horizon(T, 64, seed=seed), **shared))
            markets.append(MarketParams(mu=mu, sigma=0.2, r=0.02))
        return configs, markets

    @staticmethod
    def alone(config, market):
        try:
            return train(config, market)
        except TrainingDivergedError as exc:
            return exc

    @staticmethod
    def assert_same(a, b):
        assert type(a) is type(b)
        if isinstance(a, TrainingDivergedError):
            assert (a.episode, str(a)) == (b.episode, str(b))
            return
        for name in ("terminal_wealth", "theta", "phi", "w"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert (a.skipped_actions, a.clip_events) == (b.skipped_actions, b.clip_events)

    def test_batch_equals_each_cell_alone(self):
        configs, markets = self.batch()
        batch = train_many(configs, markets)
        alone = [self.alone(c, m) for c, m in zip(configs, markets)]
        for a, b in zip(batch, alone):
            self.assert_same(a, b)
        diverged = [r for r in alone if isinstance(r, TrainingDivergedError)]
        assert len(diverged) == 2
        assert all(10 < r.episode < 150 and str(r).endswith("non-finite parameters")
                   for r in diverged)
        logs = [r for r in alone if not isinstance(r, TrainingDivergedError)]
        assert any(log.skipped_actions for log in logs)
        assert any(log.clip_events for log in logs)

    def test_cell_log_does_not_depend_on_its_batch(self):
        configs, markets = self.batch()
        order = [5, 2, 0, 6, 3, 1, 4]
        batch = train_many([configs[i] for i in order], [markets[i] for i in order])
        first = train_many(configs, markets)
        for i, result in zip(order, batch):
            self.assert_same(result, first[i])

    def test_non_finite_wealth_leaves_after_the_first_draw_block(self):
        # on sigma 1e-300 the wealth stays at x0 while the log-mode
        # regularizer at lambda 5000 drives the exploration scale up; the
        # scale overflows in episode 33, the second draw block, and the
        # wealth turns non-finite before any parameter does.  The gaussian
        # rows are not one contiguous run, before or after it leaves.
        cells = [  # (h, mode, lam, market, seed)
            ("gaussian_score", "plain", 0.01, MarketParams(mu=0.3, sigma=0.2, r=0.02), 1),
            ("gaussian_score", "log", 5000.0, MarketParams(mu=0.02, sigma=1e-300, r=0.02), 3),
            ("gini", "log", 0.1, MarketParams(mu=0.3, sigma=0.2, r=0.02), 7),
            ("gaussian_score", "log", 0.1, MarketParams(mu=-0.5, sigma=0.2, r=0.02), 5),
        ]
        configs = [base_config(episodes=80, h=get_distortion(h_name), mode=mode, lam=lam,
                               sim=SimConfig.from_horizon(T, 64, seed=seed))
                   for h_name, mode, lam, _, seed in cells]
        markets = [market for *_, market, _ in cells]
        batch = train_many(configs, markets)
        for config, market, result in zip(configs, markets, batch):
            self.assert_same(result, self.alone(config, market))
        diverged = batch.pop(1)
        assert (diverged.episode, str(diverged)) == (
            33, "training diverged at episode 33: non-finite wealth")
        assert diverged.episode > rl.DRAW_BLOCK
        assert not any(isinstance(r, TrainingDivergedError) for r in batch)

    def test_non_finite_multiplier_leaves_at_the_first_multiplier_episode(self, monkeypatch):
        # no natural input reaches this check: the critic's (x - w)^2
        # overflows, and sends the parameters non-finite, before w can.  So
        # the middle cell's first multiplier step is made to return inf.
        configs, markets = self.batch([self.CELLS[i] for i in (0, 4, 6)])
        alone = [self.alone(c, m) for c, m in zip(configs, markets)]
        update = rl.lagrange_update

        def poisoned(w, window, alpha_w, z):
            w = update(w, window, alpha_w, z)
            if len(w) == 3:  # the batch still holds all three cells
                w[1] = np.inf
            return w

        monkeypatch.setattr(rl, "lagrange_update", poisoned)
        batch = train_many(configs, markets)
        diverged = batch.pop(1)
        m = configs[1].avg_window
        assert (diverged.episode, str(diverged)) == (
            m, f"training diverged at episode {m}: non-finite multiplier")
        assert not isinstance(alone.pop(1), TrainingDivergedError)
        for a, b in zip(batch, alone):
            self.assert_same(a, b)

    def test_multiplier_whose_square_overflows_leaves_as_its_parameters(self, monkeypatch):
        # w = 1e200 is finite, though (w - z)^2 overflows a Python float: the
        # TD pass never squares it, so the cell leaves as any other does
        configs, markets = self.batch([self.CELLS[i] for i in (0, 4, 6)])
        alone = [self.alone(c, m) for c, m in zip(configs, markets)]
        update = rl.lagrange_update

        def far(w, window, alpha_w, z):
            w = update(w, window, alpha_w, z)
            if len(w) == 3:  # the batch still holds all three cells
                w[1] = 1e200
            return w

        monkeypatch.setattr(rl, "lagrange_update", far)
        batch = train_many(configs, markets)
        diverged = batch.pop(1)
        m = configs[1].avg_window
        assert (diverged.episode, str(diverged)) == (
            m + 1, f"training diverged at episode {m + 1}: non-finite parameters")
        assert not isinstance(alone.pop(1), TrainingDivergedError)
        for a, b in zip(batch, alone):
            self.assert_same(a, b)

    def test_cells_may_differ_in_the_unread_path_count(self):
        # the trainer draws one path per episode, whatever sim.n_paths says
        configs, markets = self.batch([self.CELLS[i] for i in (0, 4, 6)])
        configs[1] = replace(configs[1], sim=replace(configs[1].sim, n_paths=2))
        batch = train_many(configs, markets)
        for config, market, result in zip(configs, markets, batch):
            self.assert_same(result, self.alone(config, market))

    @pytest.mark.parametrize("field, change", [
        ("episodes", dict(episodes=151)),
        ("sim.n_steps", dict(sim=SimConfig.from_horizon(T, 32, seed=9))),
        ("alpha", dict(alpha=0.02)),
    ])
    def test_cells_must_share_the_loop_settings(self, field, change):
        configs, markets = self.batch()
        configs[3] = base_config(**{**vars(configs[3]), **change})
        with pytest.raises(ValueError, match=f"must share {field}: config 3 has") as err:
            train_many(configs, markets)
        assert "\n" not in str(err.value)

    def test_empty_or_unpaired_batch_is_rejected(self):
        with pytest.raises(ValueError, match="at least one config"):
            train_many([], [])
        configs, markets = self.batch()
        with pytest.raises(ValueError, match="7 configs but 6 markets"):
            train_many(configs, markets[:-1])

    def test_critic_batch_row_equals_its_lone_call_where_pow_and_multiply_differ(self):
        # numpy's x * x and libm's pow round this gap's square differently, so
        # a row squared one way and its lone call the other would not agree
        d = 2.3480084736201086
        assert d ** 2 == 5.5131437921918325 and d * d == 5.513143792191832
        theta = np.array([[0.8, 0.3, 1.1], [0.2, 0.5, 0.9]])
        t = np.linspace(0.0, T, 5)
        x = np.array([np.linspace(1.0, 2.0, 5), np.linspace(0.5, 1.5, 5)])
        w = np.array([[d], [1.7]])
        batched = critic_value(theta, t, x, w, 0.0, T)
        for row in range(2):
            alone = critic_value(theta[row], t, x[row], float(w[row, 0]), 0.0, T)
            assert batched[row].tobytes() == alone.tobytes()

    def test_a_batch_of_one_takes_columns_and_a_vector_scalars(self):
        tau = np.linspace(1.0, 0.0, 5)
        assert [c.shape for c in rl._columns(np.zeros((1, 3)))] == [(1, 1)] * 3
        assert actor_log_scale(np.zeros((1, 3)), tau).shape == (1, 5)
        assert actor_log_scale(np.zeros(3), tau).shape == (5,)

    def test_regularizer_term_scales_before_summing(self):
        # with every action outside the gini support only the regularizer
        # term -(lam dp)^T dt is left; lam * (dp^T dt) rounds differently
        gini = get_distortion("gini")
        cfg = base_config(h=gini, lam=0.3, sim=SimConfig.from_horizon(T, 16, seed=3))
        times = cfg.sim.times()
        states = np.full((2, 17), 1.2)
        actions = np.full((2, 16), 100.0)
        phi = np.array([[1.2, -0.8, 0.9], [0.3, -1.1, 1.7]])
        _, grad_phi, skipped = trainer_gradients(rl._batch(times, [cfg, cfg]), states, actions,
                                                 np.ones((2, 3)), phi, np.array([1.4, 1.4]),
                                                 actor_log_scale(phi, T - times[None, :-1]))
        assert skipped.tolist() == [16, 16]
        rounded_apart = False
        for row in range(2):
            _, dp = regularizer(phi[row], times[:-1], gini, "plain", T)
            dts = np.diff(times)
            # exact equality: the first entry is a zero of either sign
            assert np.array_equal(grad_phi[row], -((cfg.lam * dp.T) @ dts))
            rounded_apart |= not np.array_equal(grad_phi[row], -(cfg.lam * (dp.T @ dts)))
        assert rounded_apart


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

    @pytest.mark.parametrize("wealth, sharpe", [(1.4, math.inf), (0.52, -math.inf),
                                                 (1.0, math.nan)])
    def test_zero_variance_window_reads_the_sign_of_the_excess(self, wealth, sharpe):
        from choquet_emv.rl import TrainLog

        log = TrainLog(terminal_wealth=np.full(1, wealth), theta=np.zeros((1, 3)),
                       phi=np.zeros((1, 3)), w=np.zeros(1))
        mean, var, got = log.last_window_stats()
        assert (mean, var) == (wealth, 0.0)
        assert got == sharpe or (math.isnan(sharpe) and math.isnan(got))

    def test_one_losing_episode_reads_minus_inf(self):
        cfg = base_config(episodes=1, sim=SimConfig.from_horizon(T, 252, seed=1))
        log = train(cfg, MarketParams(mu=-0.5, sigma=0.1, r=0.02))
        mean, _, sharpe = log.last_window_stats()
        assert mean < 1.0 and sharpe == -math.inf

    def test_block_means(self):
        from choquet_emv.rl import TrainLog

        tw = np.arange(500, dtype=float)
        log = TrainLog(terminal_wealth=tw, theta=np.zeros((500, 3)),
                       phi=np.zeros((500, 3)), w=np.zeros(500))
        bm = log.block_means()
        assert bm.shape == (5,)
        assert bm[0] == pytest.approx(np.mean(np.arange(100)))


class TestTrainBytes:
    """A sha256 over the full-precision bytes of many training logs.  The
    goldens print 6 digits; this digest moves with any last-bit change in
    the trainer, through ``train`` and through one ``train_many`` batch."""

    # 151 episodes: no multiple of any draw block larger than one episode
    EPISODES = 151
    # the bytes of the trainer whose TD pass leaves out the critic's
    # -(w - z)^2, which cancels from every TD error
    DIGEST = "427a3eef96eb44c52e6a3994a084c018635983b192574eae9985281ac502236d"

    @staticmethod
    def feed(digest, result):
        if isinstance(result, TrainingDivergedError):
            digest.update(f"{result.episode}:{result}".encode())
            return
        for name in ("terminal_wealth", "theta", "phi", "w"):
            digest.update(np.ascontiguousarray(getattr(result, name), dtype=np.float64).tobytes())
        digest.update(f"{result.skipped_actions}:{result.clip_events}".encode())

    def runs(self):
        """(config, market) of every ``train`` run: each family in both
        modes with and without clipping, the corrected critic, and a cell
        whose parameters turn non-finite mid-run."""
        seed = 0
        for h_name in ("gaussian_score", "entropy_like", "gini"):
            for mode in ("plain", "log"):
                for grad_clip in (None, 1.0):
                    seed += 1
                    mu = 0.1 if grad_clip is None else -0.5
                    yield (base_config(episodes=self.EPISODES, h=get_distortion(h_name),
                                       mode=mode, lam=0.1, grad_clip=grad_clip,
                                       sim=SimConfig.from_horizon(T, 64, seed=seed)),
                           MarketParams(mu=mu, sigma=0.2, r=0.02))
        yield (base_config(episodes=self.EPISODES, critic_form="corrected",
                           sim=SimConfig.from_horizon(T, 64, seed=40)), MARKET)
        yield (base_config(episodes=self.EPISODES, h=get_distortion("gini"), lam=1000.0,
                           grad_clip=1e3, sim=SimConfig.from_horizon(T, 64, seed=3)),
               MarketParams(mu=0.3, sigma=0.2, r=0.02))

    def test_logs_keep_their_bytes(self):
        assert self.EPISODES % rl.DRAW_BLOCK  # the last block is a partial one
        digest = hashlib.sha256()
        results = [TestTrainMany.alone(c, m) for c, m in self.runs()]
        configs, markets = TestTrainMany().batch()
        results += train_many([replace(c, episodes=self.EPISODES) for c in configs], markets)
        for result in results:
            self.feed(digest, result)
        logs = [r for r in results if not isinstance(r, TrainingDivergedError)]
        diverged = [r for r in results if isinstance(r, TrainingDivergedError)]
        assert len(diverged) == 3 and all(r.episode < self.EPISODES for r in diverged)
        assert any(log.clip_events for log in logs) and any(log.skipped_actions for log in logs)
        assert digest.hexdigest() == self.DIGEST
