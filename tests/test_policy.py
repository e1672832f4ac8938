import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from choquet_emv.distortion import custom_distortion, get_distortion, scale_distortion
from choquet_emv.policy import (
    DensityUnavailableError,
    LocationScalePolicy,
    cdf,
    log_density,
    log_density_grad,
    moments,
    regularizer_value,
    sample,
    standardized_draw,
)
from choquet_emv.quadrature import gauss_legendre_01

FAMILIES = ("gaussian_score", "entropy_like", "gini")


def make_policy(name, loc=0.0, scale=1.0):
    return LocationScalePolicy(h=get_distortion(name), location=loc, scale=scale)


SINE = custom_distortion("sine", lambda p: np.sin(np.pi * np.asarray(p)) / np.pi,
                         lambda p: np.cos(np.pi * np.asarray(p)), hprime_singular=False)


class TestSample:
    def test_gini_median_is_location(self):
        assert sample(make_policy("gini"), 0.5) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(1e-9, 1.0 - 1e-9))
    def test_gini_stays_in_band(self, p):
        assert -1.0 <= sample(make_policy("gini"), p) <= 1.0

    def test_entropy_root_of_standardized_quantile(self):
        assert sample(make_policy("entropy_like"), 1.0 - math.exp(-1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_returns_location(self):
        assert sample(make_policy("gaussian_score", loc=2.5, scale=0.0), 0.3) == 2.5

    @pytest.mark.parametrize("scale", [1.3, 0.0], ids=["scaled", "degenerate"])
    @pytest.mark.parametrize("h", [*map(get_distortion, FAMILIES), SINE],
                             ids=[*FAMILIES, "custom"])
    def test_same_transform_as_the_trainer_draws(self, h, scale, rng):
        pol = LocationScalePolicy(h=h, location=-0.7, scale=scale)
        for p in (np.arange(1, 1024) / 1024.0, rng.random(4096)):
            expected = -0.7 + scale * standardized_draw(h, p)
            assert sample(pol, p).tobytes() == expected.tobytes()
        # off the 2**-53 lattice, h'(1 - p) sees a rounded 1 - p; the template does not
        for p in (0.1, 1e-10):
            assert sample(pol, p) == -0.7 + scale * float(standardized_draw(h, p))

    @pytest.mark.parametrize("scale", [1.0, 0.0], ids=["scaled", "degenerate"])
    def test_unbounded_custom_derivative_where_one_minus_p_rounds_to_one(self, scale):
        gauss = get_distortion("gaussian_score")
        copy = custom_distortion("gaussian_copy", gauss.h, gauss.hprime)
        u = sample(LocationScalePolicy(h=copy, location=2.5, scale=scale), 1e-20)
        assert math.isfinite(u)
        if scale == 0.0:
            assert u == 2.5

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_draw_outside_open_interval_rejected(self, p):
        with pytest.raises(ValueError):
            sample(make_policy("gini"), p)

    def test_negative_scale_rejected(self):
        for scale in (-0.1, math.nan):
            with pytest.raises(ValueError):
                make_policy("gini", scale=scale)


class TestMoments:
    def test_gaussian_example(self):
        assert moments(make_policy("gaussian_score", -1.2, 0.4)) == pytest.approx((-1.2, 0.16))

    def test_gini_unit_variance_at_sqrt3(self):
        mean, var = moments(make_policy("gini", 0.0, math.sqrt(3.0)))
        assert mean == 0.0 and var == pytest.approx(1.0)

    def test_degenerate(self):
        assert moments(make_policy("entropy_like", 0.7, 0.0)) == (0.7, 0.0)


class TestRegularizerValue:
    def test_gini_plain(self):
        assert regularizer_value(make_policy("gini"), "plain") == pytest.approx(1 / 3)

    def test_gaussian_plain_scales(self):
        assert regularizer_value(make_policy("gaussian_score", scale=2.0), "plain") == pytest.approx(2.0)

    def test_gaussian_log_zero(self):
        assert regularizer_value(make_policy("gaussian_score"), "log") == pytest.approx(0.0)

    def test_log_of_degenerate_is_minus_inf(self):
        assert regularizer_value(make_policy("gini", scale=0.0), "log") == -math.inf

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            regularizer_value(make_policy("gini"), "quadratic")


class TestLogDensity:
    def test_gini_uniform_level(self):
        assert log_density(make_policy("gini"), 0.0) == pytest.approx(math.log(0.5))

    def test_gaussian_mode(self):
        assert log_density(make_policy("gaussian_score"), 0.0) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_entropy_support_edge(self):
        assert log_density(make_policy("entropy_like"), -1.0) == pytest.approx(0.0)

    def test_outside_support_is_minus_inf(self):
        assert log_density(make_policy("gini"), 1.5) == -math.inf
        assert log_density(make_policy("entropy_like"), -1.01) == -math.inf

    def test_unregistered_family(self):
        base = get_distortion("gini")
        other = custom_distortion("mystery", base.h, base.hprime, hprime_singular=False)
        with pytest.raises(DensityUnavailableError):
            log_density(LocationScalePolicy(h=other, location=0.0, scale=1.0), 0.0)

    @pytest.mark.parametrize("h", [
        # a user-supplied distortion that reuses a built-in name: h'(p) = 2 - 4p
        custom_distortion("gini", lambda p: 2.0 * p * (1.0 - p), lambda p: 2.0 - 4.0 * p,
                          hprime_singular=False, hprime_range=(-2.0, 2.0)),
        scale_distortion(get_distortion("gini"), 3.0),
    ], ids=["custom_named_gini", "scaled_gini"])
    def test_family_comes_from_record_not_name(self, h):
        assert standardized_draw(h, 0.9) == pytest.approx(h.hprime(0.1), rel=1e-15)
        pol = LocationScalePolicy(h=h, location=0.0, scale=1.0)
        for fn in (log_density, log_density_grad, cdf):
            with pytest.raises(DensityUnavailableError):
                fn(pol, 1.5)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_density_integrates_to_one(self, name):
        pol = make_policy(name, -0.4, 0.8)
        lo, hi = pol.support
        lo = max(lo, pol.location - 12 * pol.scale)
        hi = min(hi, pol.location + 40 * pol.scale)
        nodes, weights = gauss_legendre_01(512, panels=16)
        us = lo + (hi - lo) * nodes
        dens = np.exp([log_density(pol, u) for u in us])
        assert float(np.dot(weights, dens)) * (hi - lo) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_gradients_match_finite_differences(self, name, rng):
        step = 1e-6
        for _ in range(300):
            loc = rng.uniform(-2, 2)
            scale = rng.uniform(0.3, 3.0)
            pol = LocationScalePolicy(h=get_distortion(name), location=loc, scale=scale)
            u = sample(pol, rng.uniform(0.05, 0.95))  # interior of the support
            dm, ds = log_density_grad(pol, u)
            fm = (log_density(LocationScalePolicy(pol.h, loc + step, scale), u)
                  - log_density(LocationScalePolicy(pol.h, loc - step, scale), u)) / (2 * step)
            fs = (log_density(LocationScalePolicy(pol.h, loc, scale + step), u)
                  - log_density(LocationScalePolicy(pol.h, loc, scale - step), u)) / (2 * step)
            assert dm == pytest.approx(fm, rel=1e-6, abs=1e-7)
            assert ds == pytest.approx(fs, rel=1e-6, abs=1e-7)

    def test_grad_requires_positive_scale(self):
        with pytest.raises(ValueError):
            log_density_grad(make_policy("gini", scale=0.0), 0.0)


class TestSamplingLaw:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_moment_match_on_million_draws(self, name):
        pol = make_policy(name, 0.0, 1.0)
        rng = np.random.default_rng(11)
        us = pol.location + pol.scale * standardized_draw(pol.h, rng.random(1_000_000))
        mean, var = moments(pol)
        n = us.size
        se_mean = us.std(ddof=1) / math.sqrt(n)
        centered = us - us.mean()
        se_var = math.sqrt((np.mean(centered**4) - np.var(us) ** 2) / n)
        assert abs(us.mean() - mean) < 4 * se_mean
        assert abs(us.var(ddof=1) - var) < 4 * se_var

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("loc,scale", [(0.0, 1.0), (-1.3, 0.7)])
    def test_ks_distance_below_percent(self, name, loc, scale):
        pol = make_policy(name, loc, scale)
        rng = np.random.default_rng(13)
        us = pol.location + pol.scale * standardized_draw(pol.h, rng.random(100_000))
        stat = kstest(us, lambda u: cdf(pol, u)).statistic
        assert stat < 0.01

    @pytest.mark.parametrize("name", FAMILIES)
    def test_cdf_round_trip(self, name):
        pol = make_policy(name, -0.6, 1.7)
        ps = np.linspace(1e-6, 1.0 - 1e-6, 501)
        us = np.array([sample(pol, p) for p in ps])
        np.testing.assert_allclose(cdf(pol, us), ps, atol=1e-9)
        # the closed-form draw is h'(1 - p); on a dyadic grid 1 - p is exact
        grid = np.arange(1, 1024) / 1024.0
        np.testing.assert_allclose(pol.h.family.draw(grid), pol.h.hprime(1.0 - grid), rtol=1e-12)
