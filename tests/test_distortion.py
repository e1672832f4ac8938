import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_emv import distortion
from choquet_emv.distortion import (
    BUILTIN_DISTORTIONS,
    DistortionFn,
    DivergentIntegralError,
    DivergentNormError,
    custom_distortion,
    get_distortion,
    l2_norm,
    max_constrained,
    quantile_moments,
    regularizer_of_quantile,
    scale_distortion,
)
from choquet_emv.quadrature import gauss_legendre_01, tanh_sinh_01

from adversarial import random_feasible_quantile

ALL_NAMES = sorted(BUILTIN_DISTORTIONS)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestDistortionInvariants:
    def test_endpoints_vanish(self, name):
        h = get_distortion(name)
        ends = np.asarray(h.h(np.array([0.0, 1.0])))
        np.testing.assert_allclose(ends, 0.0, atol=1e-12)

    def test_derivative_nonincreasing(self, name):
        h = get_distortion(name)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 2048)
        vals = np.asarray(h.hprime(grid))
        assert np.all(np.diff(vals) <= 1e-12)

    def test_derivative_integrates_to_zero(self, name):
        h = get_distortion(name)
        nodes, weights = h.rule()
        total = float(np.dot(weights, np.asarray(h.hprime(nodes))))
        assert abs(total) < 1e-10

    def test_norm_squared_matches_quadrature(self, name):
        h = get_distortion(name)
        nodes, weights = h.rule()
        sq = float(np.dot(weights, np.asarray(h.hprime(nodes)) ** 2))
        np.testing.assert_allclose(sq, h.l2_norm**2, rtol=1e-9)

    def test_derivative_matches_h_by_finite_differences(self, name):
        # independent check that hprime really is the derivative of h
        h = get_distortion(name)
        grid = np.linspace(0.05, 0.95, 41)
        step = 1e-6
        fd = (np.asarray(h.h(grid + step)) - np.asarray(h.h(grid - step))) / (2 * step)
        np.testing.assert_allclose(fd, np.asarray(h.hprime(grid)), rtol=1e-6, atol=1e-8)


class TestL2Norm:
    def test_entropy_like_analytic(self):
        assert get_distortion("entropy_like").l2_norm == 1.0

    def test_gini_value(self):
        assert l2_norm(get_distortion("gini")) == pytest.approx(0.5773502691896258, abs=1e-15)

    def test_gaussian_quadrature_close_to_analytic(self):
        h = get_distortion("gaussian_score")
        assert abs(l2_norm(h) - 1.0) < 1e-6

    def test_quadrature_agrees_for_all(self):
        for name in ALL_NAMES:
            h = get_distortion(name)
            assert abs(l2_norm(h) - h.l2_norm) < 1e-9

    def test_divergent_norm_raises(self):
        bad = DistortionFn(
            name="bad", h=lambda p: p, hprime=lambda p: np.exp(1.0 / np.asarray(p)),
            l2_norm=1.0, hprime_singular=True,
        )
        with pytest.raises(DivergentNormError):
            l2_norm(bad)

    def test_custom_distortion_measures_norm(self):
        base = get_distortion("gini")
        fn = custom_distortion("gini_copy", base.h, base.hprime, hprime_singular=False)
        assert fn.l2_norm == l2_norm(fn)
        assert fn.l2_norm == pytest.approx(base.l2_norm, abs=1e-10)


class TestRegularizerOfQuantile:
    def test_degenerate_is_zero(self):
        for name in ALL_NAMES:
            h = get_distortion(name)
            val = regularizer_of_quantile(h, lambda p: np.full_like(p, 4.2))
            assert abs(val) < 1e-12

    def test_standard_normal_under_gaussian_weight(self):
        from scipy.special import ndtri

        h = get_distortion("gaussian_score")
        val = regularizer_of_quantile(h, ndtri)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_unit_variance_uniform_under_gini(self):
        h = get_distortion("gini")
        q = lambda p: math.sqrt(3.0) * (2.0 * p - 1.0)
        assert regularizer_of_quantile(h, q) == pytest.approx(math.sqrt(1 / 3), abs=1e-12)

    def test_divergent_integral_raises(self):
        h = get_distortion("gaussian_score")
        q = lambda p: np.exp(50.0 / (1.0 - np.asarray(p)))
        with pytest.raises(DivergentIntegralError):
            regularizer_of_quantile(h, q)
        with pytest.raises(DivergentIntegralError):
            quantile_moments(q)

    def test_bare_callable_with_endpoint_singularity(self):
        from scipy.special import ndtri

        # Nothing marks these quantiles as unbounded at an endpoint.  The
        # exponential's variance misses the mass of log(1-p)^2 beyond the
        # rule's last node, 1e-15 from the endpoint: about 1.3e-12.
        exponential = lambda p: -np.log1p(-np.asarray(p)) - 1.0
        for q, var_tol in ((ndtri, 1e-12), (exponential, 2e-12)):
            mean, var = quantile_moments(q)
            assert abs(mean) < 1e-12 and abs(var - 1.0) < var_tol
        val = regularizer_of_quantile(get_distortion("gini"), ndtri)
        assert val == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)


class TestMaxConstrained:
    def test_gini_unit(self):
        h = get_distortion("gini")
        q, val = max_constrained(h, 0.0, 1.0)
        assert val == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
        ps = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(q(ps), math.sqrt(3.0) * (2.0 * ps - 1.0), atol=1e-12)
        mean, var = quantile_moments(q)
        assert abs(mean) < 1e-10 and abs(var - 1.0) < 1e-8

    def test_entropy_like_unit(self):
        h = get_distortion("entropy_like")
        q, val = max_constrained(h, 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-15)
        ps = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(q(ps), -np.log(1.0 - ps) - 1.0, atol=1e-12)
        mean, var = quantile_moments(q)
        assert abs(mean) < 1e-8 and abs(var - 1.0) < 1e-8
        assert q(1e-12) == pytest.approx(-1.0)

    def test_gaussian_shifted_scaled(self):
        from scipy.special import ndtri

        h = get_distortion("gaussian_score")
        q, val = max_constrained(h, 2.0, 3.0)
        assert val == pytest.approx(3.0, abs=1e-15)
        ps = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(q(ps), 2.0 + 3.0 * ndtri(ps), atol=1e-10)
        mean, var = quantile_moments(q)
        assert abs(mean - 2.0) < 1e-8 and abs(var - 9.0) < 1e-7

    def test_nonpositive_scale_rejected(self):
        for s in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="scale"):
                max_constrained(get_distortion("gini"), 0.0, s)
        for m in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mean must be finite"):
                max_constrained(get_distortion("gini"), m, 1.0)

    def test_zero_distortion_rejected(self):
        flat = DistortionFn(name="flat", h=lambda p: 0.0 * np.asarray(p),
                            hprime=lambda p: 0.0 * np.asarray(p),
                            l2_norm=0.0)
        with pytest.raises(ValueError):
            max_constrained(flat, 0.0, 1.0)


class TestRegularizerProperties:
    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-50, 50), a=st.floats(0.01, 20))
    def test_location_invariance_and_scale_homogeneity(self, c, a):
        rng = np.random.default_rng(7)
        base = random_feasible_quantile(rng, 0.3, 1.7)
        for name in ALL_NAMES:
            h = get_distortion(name)
            ref = regularizer_of_quantile(h, base)
            shifted = lambda p, _q=base, _c=c: _q(p) + _c
            scaled = lambda p, _q=base, _a=a: _a * _q(p)
            assert abs(regularizer_of_quantile(h, shifted) - ref) < 1e-10 * max(1.0, abs(c))
            assert abs(regularizer_of_quantile(h, scaled) - a * ref) < 1e-10 * max(1.0, a)

    def test_nonnegative_on_random_quantiles(self, rng):
        for _ in range(50):
            q = random_feasible_quantile(rng, rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            for name in ALL_NAMES:
                assert regularizer_of_quantile(get_distortion(name), q) >= -1e-12

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_maximality_against_adversarial_candidates(self, name, rng):
        h = get_distortion(name)
        m, s = 0.4, 1.3
        bound = s * h.l2_norm
        worst = -np.inf
        for _ in range(1000):
            q = random_feasible_quantile(rng, m, s)
            worst = max(worst, regularizer_of_quantile(h, q))
        assert worst <= bound + 1e-9
        # the bound is attained by the closed-form maximizer
        qstar, val = max_constrained(h, m, s)
        assert regularizer_of_quantile(h, qstar) == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_strictly_increasing_in_spread(self, name):
        h = get_distortion(name)
        vals = []
        for s in (0.5, 1.0, 2.0, 4.0):
            q, _ = max_constrained(h, 0.0, s)
            vals.append(regularizer_of_quantile(h, q))
        assert np.all(np.diff(vals) > 0)


class TestScaledDistortion:
    def test_norm_scales_linearly(self):
        h = scale_distortion(get_distortion("gini"), 3.0)
        assert h.l2_norm == pytest.approx(3.0 * math.sqrt(1 / 3))
        assert abs(l2_norm(h) - h.l2_norm) < 1e-9

    def test_rejects_nonpositive_factor(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="scale factor"):
                scale_distortion(get_distortion("gini"), c)


class TestQuadratureRules:
    def test_tanh_sinh_layout_is_symmetric(self):
        nodes, weights = tanh_sinh_01()
        # reversal recovers the exact stored endpoint distances, so using
        # nodes[::-1] as the complement avoids cancellation near 1
        assert np.all(np.abs(nodes + nodes[::-1] - 1.0) <= 2.0**-52)
        assert np.array_equal(weights[::-1], weights)
        assert abs(weights.sum() - 1.0) < 1e-12
        comp = nodes[::-1]
        assert np.dot(weights, np.log(comp) ** 2) == pytest.approx(2.0, abs=1e-10)

    def test_rules_are_read_only(self):
        # the rules are cached: a write in place would change every later integral
        for rule in (tanh_sinh_01(), gauss_legendre_01(), gauss_legendre_01(512)):
            for a in rule:
                with pytest.raises(ValueError, match="read-only"):
                    a *= 2.0

    def test_gauss_legendre_exact_on_polynomials(self):
        nodes, weights = gauss_legendre_01()
        for k in range(6):
            assert np.dot(weights, nodes**k) == pytest.approx(1.0 / (k + 1), abs=1e-14)


class TestHprimeOnRule:
    """h'(1 - p) kept on the tanh-sinh nodes, once per distortion, at the
    nodes' exact complements: the regularizer and the maximising quantile
    read the same array, and no integral moves by a bit."""

    @staticmethod
    def distortions():
        return [get_distortion(n) for n in ALL_NAMES] + [
            custom_distortion("sine", lambda p: np.sin(np.pi * np.asarray(p)) / np.pi,
                              lambda p: np.cos(np.pi * np.asarray(p)), hprime_singular=False),
            scale_distortion(get_distortion("gini"), 2.0),
        ]

    @staticmethod
    def integrals(h):
        q, _ = max_constrained(h, 0.3, 1.7)
        return (regularizer_of_quantile(h, q), *quantile_moments(q)), q

    @pytest.mark.parametrize("index", range(5))
    def test_integrals_equal_the_uncached_ones(self, index):
        h = self.distortions()[index]
        (phi, mean, var), q = self.integrals(h)
        nodes, weights = tanh_sinh_01()
        copy = nodes.copy()  # not the rule's array: h' is evaluated afresh
        hp = np.asarray(h.hprime(copy[::-1]), dtype=float)
        vals = 0.3 + (1.7 / h.l2_norm) * hp
        assert np.array_equal(q(nodes), vals)
        assert np.array_equal(q(copy), 0.3 + (1.7 / h.l2_norm) * np.asarray(h.hprime(1 - copy)))
        assert phi == float(np.dot(weights, vals * hp))
        assert mean == float(np.dot(weights, vals))
        assert var == float(np.dot(weights, (vals - mean) ** 2))

    @pytest.mark.parametrize("index", range(5))
    def test_a_rebuilt_rule_gets_its_own_values(self, index):
        # the rule is deterministic: a rebuilt rule has the same nodes, so the
        # kept array and every integral stay as they were
        h = self.distortions()[index]
        before, _ = self.integrals(h)
        old = tanh_sinh_01()[0]
        kept = h._hprime_on_rule()
        tanh_sinh_01.cache_clear()
        assert tanh_sinh_01()[0] is not old
        assert np.array_equal(tanh_sinh_01()[0], old)
        assert self.integrals(h)[0] == before
        assert h._hprime_on_rule() is kept

    def test_kept_values_are_read_only(self):
        h = get_distortion("gaussian_score")
        with pytest.raises(ValueError, match="read-only"):
            h._hprime_on_rule()[0] = 0.0

    def test_a_scaled_distortion_keeps_its_own_values(self):
        base = get_distortion("gini")
        scaled = scale_distortion(base, 2.0)
        assert scaled._hprime_on_rule() is not base._hprime_on_rule()
        assert np.array_equal(scaled._hprime_on_rule(), 2.0 * base._hprime_on_rule())


ROOT = custom_distortion("root", lambda p: np.asarray(p) ** 0.75 - np.asarray(p),
                         lambda p: 0.75 * np.asarray(p) ** -0.25 - 1.0)


@pytest.mark.parametrize("m, s", [(0.3, 0.7), (-2.0, 5.0)])
def test_root_maximiser_meets_its_identities(m, s):
    # h' is unbounded at 0, so Phi and the variance see whether the maximiser
    # and the regularizer read h' at the same, exact complements of the nodes
    q, bound = max_constrained(ROOT, m, s)
    assert bound == s * ROOT.l2_norm
    assert abs(regularizer_of_quantile(ROOT, q) - bound) <= 1e-10 * max(1.0, s)
    assert abs(quantile_moments(q)[1] - s * s) <= 1e-12 * max(1.0, s * s)


class TestGaussianHprime:
    """h'(p) = -ndtri(p): exact near 0, and ndtri(1 - p)'s bits where 1 - p
    is exact."""

    H = get_distortion("gaussian_score")

    @pytest.mark.parametrize("p", [1e-15, 1e-12, 1e-9, 1e-6, 0.3])
    def test_below_one_half_is_minus_ndtri(self, p):
        assert self.H.hprime(p) == -scipy.special.ndtri(p)
        assert np.array_equal(self.H.hprime(np.array([p])), -scipy.special.ndtri(np.array([p])))

    def test_from_one_half_up_equals_ndtri_of_the_complement(self):
        p = np.concatenate([np.linspace(0.5, 1.0 - 2.0**-20, 100_001),
                            1.0 - np.logspace(-16, -6, 1001), [1.0]])
        assert np.array_equal(self.H.hprime(p), scipy.special.ndtri(1.0 - p))


class TestCustomValidation:
    def test_nonvanishing_endpoints_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            custom_distortion("bad_ends", lambda p: np.asarray(p),
                              lambda p: np.ones_like(np.asarray(p)),
                              hprime_singular=False)

    def test_convex_distortion_rejected(self):
        with pytest.raises(ValueError, match="not concave"):
            custom_distortion("convex", lambda p: np.asarray(p) * (np.asarray(p) - 1.0),
                              lambda p: 2.0 * np.asarray(p) - 1.0,
                              hprime_singular=False)


class TestLazyGaussianFunctions:
    """The lazily loaded ndtri and ndtr, and the Gaussian h and h' built on the
    port, give scipy.special's results bit for bit."""

    POINTS = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, math.nan, -0.25, 1.5, -40.0, math.inf]

    @staticmethod
    def scipy_h(p):
        # _gaussian_h's formula on scipy's quantile
        p = np.asarray(p, dtype=float)
        zp = scipy.special.ndtri(np.clip(p, 1e-300, 1.0 - 1e-16))
        out = np.exp(-0.5 * zp * zp) / math.sqrt(2.0 * math.pi)
        return np.where((p <= 0.0) | (p >= 1.0), 0.0, out)

    def results(self, fns):
        inputs = [np.array(self.POINTS), *self.POINTS, *map(np.float64, self.POINTS)]
        return [fn(x) for fn in fns for x in inputs]

    def test_equal_scipy_bit_for_bit(self):
        g = get_distortion("gaussian_score")
        lazy = self.results([distortion.ndtri, distortion.ndtr, g.family.draw, g.family.cdf,
                             g.hprime, g.h])
        want = self.results([scipy.special.ndtri, scipy.special.ndtr, scipy.special.ndtri,
                             scipy.special.ndtr, lambda p: -scipy.special.ndtri(p), self.scipy_h])
        for got, ref in zip(lazy, want, strict=True):
            assert type(got) is type(ref)
            assert np.asarray(got).dtype == np.asarray(ref).dtype
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class TestCephesNdtri:
    """``_ndtri_exact``, the port the Gaussian h and h' read, returns
    scipy.special.ndtri's bits and types: an np.float64 for a scalar, an
    array for an array."""

    EDGES = [0.0, -0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, math.nan, -math.nan,
             math.inf, -math.inf, -40.0, -0.25, 1.5, 5e-324]

    @staticmethod
    def assert_same(got, ref):
        assert type(got) is type(ref)
        assert np.asarray(got).dtype == np.asarray(ref).dtype
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("points", ["nodes", "reversed_nodes", "geometric", "uniform",
                                        "matrix", "edges"])
    def test_arrays_equal_scipy_bit_for_bit(self, points):
        nodes = tanh_sinh_01()[0]
        rng = np.random.default_rng(39)
        p = {"nodes": lambda: nodes,
             "reversed_nodes": lambda: nodes[::-1],
             # the tails: both of cephes' sqrt(-2 log y) ranges, down to 1e-300
             "geometric": lambda: np.geomspace(1e-300, 0.5, 200_001),
             "uniform": lambda: rng.random(100_000),
             "matrix": lambda: rng.random((3, 4)),
             "edges": lambda: np.array(self.EDGES)}[points]()
        self.assert_same(distortion._ndtri_exact(p), scipy.special.ndtri(p))

    @pytest.mark.parametrize("p", EDGES)
    def test_scalars_equal_scipy_bit_for_bit(self, p):
        for x in (p, np.float64(p), np.array(p)):
            self.assert_same(distortion._ndtri_exact(x), scipy.special.ndtri(x))

    def test_nan_flows_through_and_is_negated(self):
        # only p outside [0, 1] returns early; NaN reaches cephes' final
        # negation, which flips its sign bit as scipy's does
        got = distortion._ndtri_exact(np.array([math.nan, -math.nan, -0.25, 1.5]))
        assert np.isnan(got).all()
        assert np.signbit(got).tolist() == [True, False, False, False]
