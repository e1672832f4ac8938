import hashlib
import math

import numpy as np
import pytest

from choquet_emv.closedform import (
    ConvexityError,
    DegenerateSharpeError,
    EMVSpec,
    FeedbackPolicyParams,
    MarketParams,
    classical_solution,
    cost_ratio,
    expected_wealth,
    exploration_cost,
    exploration_cost_by_quadrature,
    feedback_value_fn,
    hjb_residual,
    improvement_step,
    lagrange_multiplier,
    optimal_feedback,
    optimal_policy,
    optimal_schedule,
    policy_iteration,
    value,
    value_derivatives,
)
from choquet_emv.distortion import (
    custom_distortion,
    get_distortion,
    max_constrained,
    quantile_moments,
    regularizer_of_quantile,
    scale_distortion,
)
from choquet_emv.market import SimConfig, pathwise_objectives
from choquet_emv.policy import moments

GAUSS = get_distortion("gaussian_score")
GINI = get_distortion("gini")
MARKET = MarketParams(mu=0.1, sigma=0.2, r=0.02)  # rho = 0.4


def spec_for(mode, lam=None, h=GAUSS):
    lam = lam if lam is not None else (0.01 if mode == "plain" else 0.1)
    return EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode=mode, h=h)


class TestMarketParams:
    def test_sharpe_recomputed(self):
        assert MARKET.rho == pytest.approx(0.4)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            MarketParams(mu=0.1, sigma=0.0)
        # inf sigma used to surface later as a misleading "mu = r" error
        for bad in (dict(mu=math.nan), dict(sigma=math.inf), dict(r=math.nan),
                    dict(sigma=1e-310), dict(mu=1.7e308, r=-1.7e308)):
            with pytest.raises(ValueError, match="must be finite"):
                MarketParams(**({"mu": 0.1, "sigma": 0.2} | bad))


@pytest.mark.parametrize("bad, match", [
    (dict(T=math.inf), "T must be finite"),
    (dict(lam=math.nan), "lam must be finite"),
    (dict(lam=math.inf), "lam must be finite"),
    (dict(z=math.nan), "z must be finite"),
    (dict(x0=-math.inf), "x0 must be finite"),
    (dict(mode="log", lam=0.0), "log mode requires a positive exploration weight"),
])
def test_emv_spec_rejects_bad_fields(bad, match):
    fields = dict(T=1.0, lam=0.01, z=1.4, x0=1.0, mode="plain", h=GAUSS) | bad
    with pytest.raises(ValueError, match=match):
        EMVSpec(**fields)


HORIZON_SPEC = EMVSpec(T=2.0, lam=0.01, z=1.4, x0=1.0, mode="plain", h=GAUSS)
HORIZON_W = lagrange_multiplier(HORIZON_SPEC, MARKET)
TIMED = {
    "value": lambda t: value(t, 1.0, HORIZON_SPEC, MARKET, HORIZON_W),
    "value_derivatives": lambda t: value_derivatives(t, 1.0, HORIZON_SPEC, MARKET, HORIZON_W),
    "hjb_residual": lambda t: hjb_residual(t, 1.0, HORIZON_SPEC, MARKET, HORIZON_W),
    "optimal_policy": lambda t: optimal_policy(t, 1.0, HORIZON_SPEC, MARKET, HORIZON_W),
    "classical_solution": lambda t: classical_solution(t, 1.0, HORIZON_SPEC, MARKET, HORIZON_W),
    "improvement_step": lambda t: improvement_step(
        feedback_value_fn(optimal_feedback(HORIZON_SPEC, MARKET), HORIZON_SPEC, MARKET, HORIZON_W),
        HORIZON_SPEC, MARKET, t, 1.0),
}


@pytest.mark.parametrize("name", TIMED)
def test_times_outside_the_horizon_are_refused(name):
    fn, T = TIMED[name], HORIZON_SPEC.T
    for t in (-1e-9, T * (1.0 + 1e-9)):
        with pytest.raises(ValueError, match="outside the horizon"):
            fn(t)
    fn(T * (1.0 + 1e-13))  # a rounding past T is inside


class TestLagrangeMultiplier:
    def test_target_equals_start(self):
        spec = EMVSpec(T=1.0, lam=0.01, z=1.0, x0=1.0, mode="plain", h=GAUSS)
        assert lagrange_multiplier(spec, MARKET) == pytest.approx(1.0, abs=1e-14)

    def test_large_growth_limit(self):
        market = MarketParams(mu=1.5, sigma=0.2, r=0.02)  # rho^2 T = 54.8
        w = lagrange_multiplier(spec_for("plain"), market)
        assert w == pytest.approx(1.4, abs=1e-12)

    def test_frozen_example(self):
        # high-precision evaluation of (z e^{rho^2 T} - x0)/(e^{rho^2 T} - 1)
        market = MarketParams(mu=0.3, sigma=0.1, r=0.02)  # rho = 2.8
        w = lagrange_multiplier(spec_for("plain"), market)
        assert w == pytest.approx(1.4001575296308007, abs=1e-12)

    def test_degenerate_sharpe(self):
        with pytest.raises(DegenerateSharpeError):
            lagrange_multiplier(spec_for("plain"), MarketParams(mu=0.02, sigma=0.2, r=0.02))

    def test_growth_rounding_to_one_is_degenerate(self):
        # rho^2 T = 2.5e-23: e^{rho^2 T} is 1.0 and the formula divided by zero
        market = MarketParams(mu=0.020000000001, sigma=0.2, r=0.02)
        with pytest.raises(DegenerateSharpeError, match=r"rho\^2 T = 2.5e-23 is too small"):
            lagrange_multiplier(spec_for("plain"), market)

    @pytest.mark.parametrize("mu, z", [(6.02, 1.4), (0.02 + 26.6 * 0.2, 10.0), (1e155, 1.4)])
    def test_overflowing_multiplier_is_a_value_error(self, mu, z):
        # e^{900} overflows; at rho^2 T = 707.6 the growth is finite but z times it
        # is not; at rho = 5e155 rho^2 itself overflows
        spec = EMVSpec(T=1.0, lam=0.01, z=z, x0=1.0, mode="plain", h=GAUSS)
        with pytest.raises(ValueError, match="is too large: the multiplier w overflows"):
            lagrange_multiplier(spec, MarketParams(mu=mu, sigma=0.2, r=0.02))


class TestClassicalSolution:
    def test_at_multiplier_wealth(self):
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        u, v = classical_solution(0.3, w, spec, MARKET, w)
        assert u == 0.0
        assert v == pytest.approx(-((w - spec.z) ** 2))

    def test_terminal_condition(self):
        spec = spec_for("plain")
        u, v = classical_solution(1.0, 0.7, spec, MARKET, 2.0)
        assert v == pytest.approx((0.7 - 2.0) ** 2 - (2.0 - spec.z) ** 2)

    def test_zero_sharpe_market(self):
        flat = MarketParams(mu=0.02, sigma=0.2, r=0.02)
        spec = spec_for("plain")
        for t in (0.0, 0.5, 1.0):
            u, v = classical_solution(t, 0.7, spec, flat, 2.0)
            assert u == 0.0
            assert v == pytest.approx((0.7 - 2.0) ** 2 - (2.0 - spec.z) ** 2)


class TestValueFunctions:
    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_terminal_condition(self, mode):
        spec = spec_for(mode)
        w = lagrange_multiplier(spec, MARKET)
        for x in (-0.5, 1.0, 3.2):
            assert value(1.0, x, spec, MARKET, w) == pytest.approx(
                (x - w) ** 2 - (w - spec.z) ** 2, abs=1e-12
            )

    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_small_weight_recovers_classical(self, mode):
        spec = spec_for(mode, lam=1e-7)
        w = lagrange_multiplier(spec, MARKET)
        _, vcl = classical_solution(0.2, 0.8, spec, MARKET, w)
        assert value(0.2, 0.8, spec, MARKET, w) == pytest.approx(vcl, abs=1e-5)

    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_hjb_residual_vanishes(self, mode, rng):
        for _ in range(5):
            market = MarketParams(mu=rng.uniform(-0.5, 0.5), sigma=rng.uniform(0.1, 0.4), r=0.02)
            if abs(market.rho) < 1e-3:
                continue
            spec = EMVSpec(T=rng.uniform(0.5, 2.0), lam=rng.uniform(1e-3, 0.2),
                           z=1.4, x0=1.0, mode=mode, h=GAUSS)
            w = lagrange_multiplier(spec, market)
            for _ in range(20):
                t, x = rng.uniform(0, spec.T), rng.uniform(-1, 3)
                assert abs(hjb_residual(t, x, spec, market, w)) < 1e-9

    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_analytic_derivatives_match_finite_differences(self, mode):
        spec = spec_for(mode)
        w = lagrange_multiplier(spec, MARKET)
        t, x, e = 0.37, 1.21, 1e-6
        vt, vx, vxx = value_derivatives(t, x, spec, MARKET, w)
        fd_t = (value(t + e, x, spec, MARKET, w) - value(t - e, x, spec, MARKET, w)) / (2 * e)
        fd_x = (value(t, x + e, spec, MARKET, w) - value(t, x - e, spec, MARKET, w)) / (2 * e)
        fd_xx = (value(t, x + e, spec, MARKET, w) - 2 * value(t, x, spec, MARKET, w)
                 + value(t, x - e, spec, MARKET, w)) / e**2
        assert vt == pytest.approx(fd_t, rel=1e-6)
        assert vx == pytest.approx(fd_x, rel=1e-6)
        assert vxx == pytest.approx(fd_xx, rel=1e-3)

    @pytest.mark.parametrize("mode, lam, x, w, named", [
        ("log", 0.1, 1e200, 1.4, r"\(x - w\)\^2 at x = 1e\+200 and w = 1.4"),
        ("plain", 1e200, 1.0, 1.4, r"lambda\^2 at lambda = 1e\+200"),
        ("log", 0.1, 1.0, -1e200, r"\(x - w\)\^2 at x = 1 and w = -1e\+200"),
    ], ids=["x", "lambda", "w"])
    @pytest.mark.parametrize("fn", [value, value_derivatives], ids=["value", "derivatives"])
    def test_overflowing_square_names_its_input(self, fn, mode, lam, x, w, named):
        with pytest.raises(ValueError, match=named):
            fn(0.5, x, spec_for(mode, lam), MARKET, w)

    def test_overflowing_gap_names_w_and_z(self):
        # at x = w, (x - w)^2 is 0 and (w - z)^2 overflows alone
        with pytest.raises(ValueError, match=r"\(w - z\)\^2 at w = 1e\+200 and z = 1.4"):
            value(0.5, 1e200, spec_for("log"), MARKET, 1e200)

    def test_plain_rejects_zero_sharpe(self):
        flat = MarketParams(mu=0.02, sigma=0.2, r=0.02)
        with pytest.raises(DegenerateSharpeError):
            value(0.0, 1.0, spec_for("plain"), flat, 1.4)


class TestOptimalPolicy:
    def test_mean_zero_at_multiplier_wealth(self):
        for mode in ("plain", "log"):
            spec = spec_for(mode)
            w = lagrange_multiplier(spec, MARKET)
            assert optimal_policy(0.2, w, spec, MARKET, w).location == 0.0

    def test_plain_variance_example(self):
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        _, var = moments(optimal_policy(0.0, 1.0, spec, MARKET, w))
        assert var == pytest.approx(0.01**2 / (4 * 0.2**4) * math.exp(2 * 0.4**2), rel=1e-12)

    def test_log_variance_independent_of_distortion(self):
        w = 1.6
        for t in (0.0, 0.4, 1.0):
            var_by_h = []
            for h in (GAUSS, GINI):
                spec = spec_for("log", h=h)
                var_by_h.append(moments(optimal_policy(t, 0.9, spec, MARKET, w))[1])
            assert var_by_h[0] == pytest.approx(var_by_h[1], rel=1e-12)
            assert var_by_h[0] == pytest.approx(
                0.1 / (2 * 0.2**2) * math.exp(0.4**2 * (1.0 - t)), rel=1e-12
            )

    def test_matched_norms_give_identical_policies(self):
        # rescaling a distortion to the same derivative norm must not change
        # the plain-mode optimal mean or variance
        gini_unit = scale_distortion(GINI, 1.0 / GINI.l2_norm)
        assert gini_unit.l2_norm == pytest.approx(1.0)
        spec_a = spec_for("plain", h=GAUSS)
        spec_b = spec_for("plain", h=gini_unit)
        w = lagrange_multiplier(spec_a, MARKET)
        for t in (0.0, 0.7):
            pa = optimal_policy(t, 0.8, spec_a, MARKET, w)
            pb = optimal_policy(t, 0.8, spec_b, MARKET, w)
            assert pa.location == pb.location
            assert moments(pa)[1] == pytest.approx(moments(pb)[1], rel=1e-12)

    @pytest.mark.parametrize("mode", ["plain", "log"])
    @pytest.mark.parametrize("h_name", ["gaussian_score", "entropy_like", "gini"])
    def test_schedule_reads_the_policy_bitwise(self, mode, h_name):
        # the simulator's schedule and the solver's policy are one record
        h = get_distortion(h_name)
        spec = spec_for(mode, h=h)
        xs = np.linspace(-1.0, 3.0, 9)
        for market in TestClosedFormBytes.MARKETS:
            w = lagrange_multiplier(spec, market)
            schedule = optimal_schedule(spec, market, w)
            for t in (0.0, 0.3, 0.75, 1.0):
                mean, std = schedule(t, xs)
                for i, x in enumerate(xs):
                    pol = optimal_policy(t, x, spec, market, w)
                    assert mean[i].hex() == float(pol.location).hex()
                    assert float(std).hex() == (pol.scale * h.l2_norm).hex()

    def test_flat_market_is_finite(self):
        # rho = 0: mean -0.0 (x - w) and a constant scale c1
        flat = MarketParams(mu=0.02, sigma=0.2, r=0.02)
        w, xs = 2.0, np.array([0.5, 2.0, 3.0])
        for mode, c1 in (("plain", 0.01 / (2 * 0.2**2)), ("log", math.sqrt(0.1 / (2 * 0.2**2)))):
            spec = spec_for(mode)
            fb = optimal_feedback(spec, flat)
            assert math.copysign(1.0, fb.mean_coef) == -1.0 and fb.mean_coef == 0.0
            assert fb.scale_base == pytest.approx(c1, rel=1e-15)
            assert fb.scale_rate == 0.0
            schedule = optimal_schedule(spec, flat, w)
            for t in (0.0, 0.5, 1.0):
                pol = optimal_policy(t, 0.7, spec, flat, w)
                assert (pol.location, pol.scale) == (0.0, fb.scale_base)
                mean, std = schedule(t, xs)
                np.testing.assert_array_equal(mean, np.zeros(3))
                assert std == fb.scale_base

    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_variance_strictly_decays_in_time(self, mode):
        spec = spec_for(mode)
        w = lagrange_multiplier(spec, MARKET)
        ts = np.linspace(0.0, 1.0, 21)
        vars_ = [moments(optimal_policy(t, 0.8, spec, MARKET, w))[1] for t in ts]
        assert np.all(np.diff(vars_) < 0)


class TestSolvabilityEquivalence:
    def test_same_multiplier_and_mean(self, rng):
        spec_p, spec_l = spec_for("plain"), spec_for("log")
        w = lagrange_multiplier(spec_p, MARKET)
        assert lagrange_multiplier(spec_l, MARKET) == w
        for _ in range(50):
            t, x = rng.uniform(0, 1), rng.uniform(-1, 3)
            u_cl, _ = classical_solution(t, x, spec_p, MARKET, w)
            assert optimal_policy(t, x, spec_p, MARKET, w).location == pytest.approx(u_cl, rel=1e-14, abs=1e-14)
            assert optimal_policy(t, x, spec_l, MARKET, w).location == pytest.approx(u_cl, rel=1e-14, abs=1e-14)

    def test_weight_shrinks_gaps_monotonically(self):
        # measure the plain gap at x = w with z = x0 (so w = x0): the O(1)
        # terms shared by both values vanish exactly and the subtraction is
        # not polluted by float cancellation at the smallest weight
        lams = [1e-1, 1e-2, 1e-3, 1e-4]
        t = 0.0
        plain_ratio, log_gaps = [], []
        for lam in lams:
            sp = EMVSpec(T=1.0, lam=lam, z=1.0, x0=1.0, mode="plain", h=GAUSS)
            sl = EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode="log", h=GAUSS)
            w = lagrange_multiplier(sp, MARKET)
            _, vcl = classical_solution(t, w, sp, MARKET, w)
            plain_ratio.append(abs(value(t, w, sp, MARKET, w) - vcl) / lam**2)
            wl = lagrange_multiplier(sl, MARKET)
            _, vcl_l = classical_solution(t, 1.0, sl, MARKET, wl)
            log_gaps.append(abs(value(t, 1.0, sl, MARKET, wl) - vcl_l))
        assert max(plain_ratio) - min(plain_ratio) < 1e-9
        assert np.all(np.diff(log_gaps) < 0)


class TestExplorationCost:
    def test_log_cost_value(self):
        assert exploration_cost(spec_for("log", lam=0.1), MARKET) == 0.05

    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_closed_form_matches_definitional_integral(self, mode):
        spec = spec_for(mode)
        assert exploration_cost(spec, MARKET) == pytest.approx(
            exploration_cost_by_quadrature(spec, MARKET), abs=1e-10
        )

    def test_leading_order_in_weight(self):
        plain_over_lamsq = [
            exploration_cost(spec_for("plain", lam=lam), MARKET) / lam**2
            for lam in (1e-2, 1e-4)
        ]
        assert plain_over_lamsq[0] == pytest.approx(plain_over_lamsq[1], rel=1e-12)
        for lam in (1e-2, 1e-4):
            assert exploration_cost(spec_for("log", lam=lam), MARKET) / lam == pytest.approx(0.5)

    def test_plain_rejects_zero_sharpe(self):
        flat = MarketParams(mu=0.02, sigma=0.2, r=0.02)
        with pytest.raises(DegenerateSharpeError):
            exploration_cost(spec_for("plain"), flat)


class TestCostRatio:
    def test_algebraic_identity(self):
        spec = spec_for("plain", lam=0.03)
        ratio = cost_ratio(spec, MARKET)
        log_cost = exploration_cost(spec_for("log", lam=0.03), MARKET)
        assert ratio * log_cost == pytest.approx(exploration_cost(spec, MARKET), abs=1e-12)

    def test_small_exponent_limit(self):
        market = MarketParams(mu=0.02 + 0.2e-6, sigma=0.2, r=0.02)  # rho^2 T ~ 1e-12
        lam = 2 * market.sigma**2 / GAUSS.l2_norm**2
        spec = spec_for("plain", lam=lam)
        assert cost_ratio(spec, market) == pytest.approx(1.0, abs=1e-9)

    def test_small_weight_prefers_plain(self):
        market = MarketParams(mu=0.1, sigma=0.3, r=0.02)  # rho = 0.2667
        assert cost_ratio(spec_for("plain", lam=0.01), market) < 1.0


class TestExpectedWealth:
    def test_boundary_values(self):
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        assert expected_wealth(0.0, spec, MARKET, w) == pytest.approx(1.0, abs=1e-14)
        assert expected_wealth(1.0, spec, MARKET, w) == pytest.approx(1.4, abs=1e-12)

    def test_against_monte_carlo(self):
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        sim = SimConfig.from_horizon(1.0, 126, n_paths=20_000, seed=17)
        xt, _ = pathwise_objectives(optimal_schedule(spec, MARKET, w), spec, MARKET, sim, w)
        se = xt.std(ddof=1) / math.sqrt(sim.n_paths)
        assert abs(xt.mean() - expected_wealth(1.0, spec, MARKET, w)) < 4 * se


class TestImprovementStep:
    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_optimal_value_is_fixed_point(self, mode):
        spec = spec_for(mode)
        w = lagrange_multiplier(spec, MARKET)
        vf = feedback_value_fn(optimal_feedback(spec, MARKET), spec, MARKET, w)
        for t, x in ((0.0, 1.0), (0.6, 0.4)):
            improved = improvement_step(vf, spec, MARKET, t, x)
            target = optimal_policy(t, x, spec, MARKET, w)
            assert improved.location == pytest.approx(target.location, rel=1e-12, abs=1e-12)
            assert improved.scale == pytest.approx(target.scale, rel=1e-12)

    def test_mean_insensitive_to_curvature_scale(self):
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        rho, sigma = MARKET.rho, MARKET.sigma
        for amp in (0.3, 1.0, 5.0):
            vf = feedback_value_fn(FeedbackPolicyParams(0.5, 0.2, 0.1), spec, MARKET, w)
            scaled = type(vf)(A=lambda t, _a=vf.A, _m=amp: _m * _a(t), F=vf.F, w=w)
            pol = improvement_step(scaled, spec, MARKET, 0.3, 0.9)
            assert pol.location == pytest.approx(-(rho / sigma) * (0.9 - w), rel=1e-12)

    def test_doubling_curvature_halves_plain_scale(self):
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        vf = feedback_value_fn(FeedbackPolicyParams(0.5, 0.2, 0.1), spec, MARKET, w)
        doubled = type(vf)(A=lambda t, _a=vf.A: 2.0 * _a(t), F=vf.F, w=w)
        s1 = improvement_step(vf, spec, MARKET, 0.3, 0.9).scale
        s2 = improvement_step(doubled, spec, MARKET, 0.3, 0.9).scale
        assert s2 == pytest.approx(0.5 * s1, rel=1e-12)

    def test_convexity_violation_raises(self):
        spec = spec_for("plain")
        from choquet_emv.closedform import QuadraticValueFn

        bad = QuadraticValueFn(A=lambda t: -1.0, F=lambda t: 0.0, w=1.4)
        with pytest.raises(ConvexityError):
            improvement_step(bad, spec, MARKET, 0.2, 1.0)


class TestPolicyIteration:
    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_two_steps_reach_optimum(self, mode, rng):
        spec = spec_for(mode)
        opt = optimal_feedback(spec, MARKET)
        for a0 in (0.0, 1.0, -2 * MARKET.rho / MARKET.sigma, rng.uniform(-3, 3)):
            seq = policy_iteration((a0, 0.7, 0.3), spec, MARKET)
            fb2 = seq[2][0]
            assert fb2.mean_coef == pytest.approx(opt.mean_coef, abs=1e-12)
            assert fb2.scale_base == pytest.approx(opt.scale_base, abs=1e-12)
            assert fb2.scale_rate == pytest.approx(opt.scale_rate, abs=1e-12)
            assert seq[3][0] == fb2  # step 3 is a fixed point, exactly

    def test_starting_at_classical_mean_is_one_step(self):
        spec = spec_for("plain")
        a_star = -MARKET.rho / MARKET.sigma
        seq = policy_iteration((a_star, 0.7, 0.3), spec, MARKET)
        opt = optimal_feedback(spec, MARKET)
        for fb in (seq[1][0], seq[2][0]):
            assert fb.mean_coef == pytest.approx(opt.mean_coef, abs=1e-14)
            assert fb.scale_base == pytest.approx(opt.scale_base, abs=1e-14)
            assert fb.scale_rate == pytest.approx(opt.scale_rate, abs=1e-14)

    def test_iterate_values_agree_with_closed_forms(self):
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        seq = policy_iteration((1.3, 0.7, 0.3), spec, MARKET)
        vf2 = seq[2][1]
        for t, x in ((0.0, 1.0), (0.5, 2.0)):
            assert vf2.value(t, x) == pytest.approx(value(t, x, spec, MARKET, w), rel=1e-12)

    def test_improvement_decreases_value(self):
        # minimization: each improvement step should not increase the value
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        seq = policy_iteration((1.0, 0.7, 0.3), spec, MARKET)
        at = lambda vf: vf.value(0.0, spec.x0)
        values = [at(vf) for _, vf in seq]
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12

    def test_log_mode_requires_positive_scale(self):
        spec = spec_for("log")
        with pytest.raises(ValueError):
            feedback_value_fn(FeedbackPolicyParams(0.5, -0.2, 0.1), spec, MARKET, 1.4)


class TestFeedbackValueFn:
    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_solves_its_own_pde(self, mode):
        # Feynman-Kac: V_t + rho sigma m V_x + sigma^2/2 (m^2 + var) V_xx = lam reg
        spec = spec_for(mode)
        w = lagrange_multiplier(spec, MARKET)
        fb = FeedbackPolicyParams(-1.1, 0.6, 0.8)
        vf = feedback_value_fn(fb, spec, MARKET, w)
        e = 1e-6
        for t, x in ((0.2, 0.7), (0.8, 1.9)):
            vt = (vf.value(t + e, x) - vf.value(t - e, x)) / (2 * e)
            vx, vxx = 2.0 * vf.A(t) * (x - w), 2.0 * vf.A(t)
            mean = fb.mean_coef * (x - w)
            scale = float(fb.scale(spec.T - t))
            var = scale**2 * spec.h.l2_norm**2
            reg = scale * spec.h.l2_norm**2 if mode == "plain" else math.log(scale * spec.h.l2_norm**2)
            resid = (vt + MARKET.rho * MARKET.sigma * mean * vx
                     + 0.5 * MARKET.sigma**2 * (mean**2 + var) * vxx - spec.lam * reg)
            assert abs(resid) < 1e-5

    @pytest.mark.parametrize("mode", ["plain", "log"])
    @pytest.mark.parametrize("h_name", ["gaussian_score", "entropy_like", "gini"])
    def test_optimum_record_attains_value(self, mode, h_name):
        # the exact objective of the optimal record is the value function
        spec = spec_for(mode, h=get_distortion(h_name))
        for market in TestClosedFormBytes.MARKETS:
            w = lagrange_multiplier(spec, market)
            vf = feedback_value_fn(optimal_feedback(spec, market), spec, market, w)
            for t, x in ((0.0, spec.x0), (0.25, -1.0), (0.5, 0.3), (0.9, 2.5), (1.0, 1.7)):
                assert vf.value(t, x) == pytest.approx(value(t, x, spec, market, w), rel=1e-12)

    @pytest.mark.parametrize("mode", ["plain", "log"])
    @pytest.mark.parametrize("h_name", ["gaussian_score", "entropy_like", "gini"])
    def test_optimum_record_is_the_papers_formulas(self, mode, h_name):
        # field by field and exactly: the objective is stationary at the
        # optimum, so its value cannot see a last-digit error in the record
        h = get_distortion(h_name)
        spec = spec_for(mode, h=h)
        for m in TestClosedFormBytes.MARKETS:
            rho, sigma, lam = m.rho, m.sigma, spec.lam
            if mode == "plain":
                c1, c2 = lam / (2.0 * sigma**2), rho**2
            else:
                c1, c2 = math.sqrt(lam / (2.0 * sigma**2 * h.l2_norm**2)), rho**2 / 2.0
            assert optimal_feedback(spec, m) == FeedbackPolicyParams(-(rho / sigma), c1, c2)

    def test_terminal_condition(self):
        spec = spec_for("plain")
        w = lagrange_multiplier(spec, MARKET)
        vf = feedback_value_fn(FeedbackPolicyParams(0.3, 0.5, 0.2), spec, MARKET, w)
        assert vf.value(1.0, 2.0) == pytest.approx((2.0 - w) ** 2 - (w - spec.z) ** 2, abs=1e-12)


class TestClosedFormBytes:
    """A sha256 over the full-precision bytes of the closed forms and their
    quadrature checks.  The 6-digit goldens cannot see a last-bit change;
    this digest moves with any, through the multiplier, the value function,
    the HJB residual, policy iteration, the exploration cost by quadrature
    and the Choquet integrals of the maximising quantile."""

    # the bytes of the closed forms whose maximising quantile and regularizer
    # read one kept h'(1 - p) at the tanh-sinh nodes' exact complements
    DIGEST = "9d5553ab579ae4981639fc738b134336aef07eb12abe85b270bb57e56ca7d3ff"
    MARKETS = (MARKET, MarketParams(mu=-0.25, sigma=0.3, r=0.02))  # rho 0.4 and -0.9

    @staticmethod
    def distortions():
        """The three built-ins and two user-supplied distortions, one with
        an h' unbounded at 0."""
        return [get_distortion(n) for n in ("gaussian_score", "entropy_like", "gini")] + [
            custom_distortion("sine", lambda p: np.sin(np.pi * np.asarray(p)) / np.pi,
                              lambda p: np.cos(np.pi * np.asarray(p)), hprime_singular=False),
            custom_distortion("root", lambda p: np.asarray(p) ** 0.75 - np.asarray(p),
                              lambda p: 0.75 * np.asarray(p) ** -0.25 - 1.0),
        ]

    @staticmethod
    def numbers(h, market, mode):
        spec = spec_for(mode, h=h)
        w = lagrange_multiplier(spec, market)
        out = [w]
        for t, x in ((0.0, spec.x0), (0.25, -1.0), (0.5, 0.3), (1.0, 2.5)):
            out += [value(t, x, spec, market, w), hjb_residual(t, x, spec, market, w)]
        for fb, vf in policy_iteration((0.8, 0.7, 0.3), spec, market):
            out += [fb.mean_coef, fb.scale_base, fb.scale_rate, vf.value(0.0, spec.x0)]
        out.append(exploration_cost_by_quadrature(spec, market))
        policy = optimal_policy(0.0, spec.x0, spec, market, w)
        qstar, bound = max_constrained(h, policy.location, policy.scale * h.l2_norm)
        out += [bound, regularizer_of_quantile(h, qstar), *quantile_moments(qstar)]
        return out

    def test_closed_forms_keep_their_bytes(self):
        digest = hashlib.sha256()
        for h in self.distortions():
            for market in self.MARKETS:
                for mode in ("plain", "log"):
                    digest.update(np.array(self.numbers(h, market, mode), dtype=np.float64).tobytes())
        assert digest.hexdigest() == self.DIGEST
