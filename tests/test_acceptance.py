"""Acceptance gate: one test per criterion, each reporting a PASS/FAIL line.

Criterion 9 runs a reduced smoke configuration by default; the full-scale
five-seed median reproduction of the study cells runs under --run-slow.
"""

import math
import time

import numpy as np
import pytest

from choquet_emv.closedform import (
    EMVSpec,
    MarketParams,
    classical_solution,
    exploration_cost,
    exploration_cost_by_quadrature,
    hjb_residual,
    lagrange_multiplier,
    optimal_feedback,
    optimal_schedule,
    policy_iteration,
    value,
)
from choquet_emv.distortion import (
    BUILTIN_DISTORTIONS,
    get_distortion,
    max_constrained,
    quantile_moments,
    regularizer_of_quantile,
)
from choquet_emv.market import SimConfig, mean_and_std_error, pathwise_objectives
from choquet_emv.policy import (
    LocationScalePolicy,
    cdf,
    log_density,
    log_density_grad_fields,
    moments,
    sample,
    standardized_draw,
)
from choquet_emv.rl import TrainConfig, critic_grad, critic_value, train, train_many

from adversarial import random_feasible_quantile, regularizer

GAUSS = get_distortion("gaussian_score")
MC_MARKET = MarketParams(mu=0.1, sigma=0.2, r=0.02)
FAMILIES = sorted(BUILTIN_DISTORTIONS)


def test_criterion_1_constrained_maximizer(record_criterion):
    t0 = time.time()
    worst_gap = math.inf
    worst_moment = 0.0
    rng = np.random.default_rng(101)
    for name in FAMILIES:
        h = get_distortion(name)
        for m, s in ((0.0, 1.0), (2.0, 0.5)):
            qstar, bound = max_constrained(h, m, s)
            mean, var = quantile_moments(qstar)
            worst_moment = max(worst_moment, abs(mean - m), abs(var - s * s))
            for _ in range(1000):
                cand = random_feasible_quantile(rng, m, s)
                worst_gap = min(worst_gap, bound - regularizer_of_quantile(h, cand))
    elapsed = time.time() - t0
    ok = worst_gap >= -1e-9 and worst_moment < 1e-8 and elapsed < 5.0
    record_criterion(1, ok,
                     f"min optimality gap {worst_gap:.2e} >= -1e-9, "
                     f"max moment error {worst_moment:.2e} < 1e-8, {elapsed:.1f}s < 5s")


def test_criterion_2_hjb_residual(record_criterion):
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    settings = 0
    while settings < 5:
        market = MarketParams(mu=rng.uniform(-0.5, 0.5), sigma=rng.uniform(0.1, 0.4), r=0.02)
        if abs(market.rho) < 0.05:
            continue
        settings += 1
        spec = EMVSpec(T=rng.uniform(0.5, 2.0), lam=rng.uniform(1e-3, 0.1),
                       z=1.4, x0=1.0, mode="plain", h=GAUSS)
        w = lagrange_multiplier(spec, market)
        for _ in range(100):
            t, x = rng.uniform(0.0, spec.T), rng.uniform(-1.0, 3.0)
            worst = max(worst, abs(hjb_residual(t, x, spec, market, w)))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    record_criterion(2, ok, f"max residual {worst:.2e} < 1e-9, {elapsed:.2f}s < 1s")


def test_criterion_3_monte_carlo_vs_closed_form(record_criterion):
    t0 = time.time()
    devs = []
    for mode, lam in (("plain", 0.01), ("log", 0.1)):
        spec = EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode=mode, h=GAUSS)
        w = lagrange_multiplier(spec, MC_MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=100_000, seed=33)
        _, vals = pathwise_objectives(optimal_schedule(spec, MC_MARKET, w), spec, MC_MARKET,
                                      sim, w)
        est, se = mean_and_std_error(vals)
        closed = value(0.0, 1.0, spec, MC_MARKET, w)
        devs.append(abs(est - closed) / se)
    elapsed = time.time() - t0
    ok = max(devs) < 3.0 and elapsed < 120.0
    record_criterion(3, ok,
                     f"plain {devs[0]:.2f} SE, log {devs[1]:.2f} SE (< 3), {elapsed:.0f}s < 120s")


def test_criterion_4_exploration_cost_identities(record_criterion):
    t0 = time.time()
    gaps = []
    for mode, lam in (("plain", 0.01), ("log", 0.1)):
        spec = EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode=mode, h=GAUSS)
        gaps.append(abs(exploration_cost(spec, MC_MARKET)
                        - exploration_cost_by_quadrature(spec, MC_MARKET)))
    log_cost = exploration_cost(EMVSpec(T=1.0, lam=0.1, z=1.4, x0=1.0, mode="log", h=GAUSS),
                                MC_MARKET)
    elapsed = time.time() - t0
    ok = max(gaps) < 1e-10 and log_cost == 0.05 and elapsed < 1.0
    record_criterion(4, ok,
                     f"identity gaps {max(gaps):.1e} < 1e-10, log cost {log_cost} == 0.05, "
                     f"{elapsed:.2f}s < 1s")


def test_criterion_5_two_step_policy_iteration(record_criterion):
    t0 = time.time()
    worst = 0.0
    fixed = True
    for mode in ("plain", "log"):
        spec = EMVSpec(T=1.0, lam=0.01 if mode == "plain" else 0.1,
                       z=1.4, x0=1.0, mode=mode, h=GAUSS)
        opt = optimal_feedback(spec, MC_MARKET)
        for a0 in (0.0, 1.0, -2.0 * MC_MARKET.rho / MC_MARKET.sigma):
            seq = policy_iteration((a0, 0.7, 0.3), spec, MC_MARKET)
            fb2 = seq[2][0]
            worst = max(worst, abs(fb2.mean_coef - opt.mean_coef),
                        abs(fb2.scale_base - opt.scale_base),
                        abs(fb2.scale_rate - opt.scale_rate))
            fixed = fixed and (seq[3][0] == fb2)
    elapsed = time.time() - t0
    ok = worst < 1e-12 and fixed and elapsed < 1.0
    record_criterion(5, ok,
                     f"max parameter gap {worst:.1e} < 1e-12, step 3 fixed point: {fixed}, "
                     f"{elapsed:.2f}s < 1s")


def test_criterion_6_small_weight_convergence(record_criterion):
    t0 = time.time()
    lams = (1e-1, 1e-2, 1e-3, 1e-4)
    ratios, log_gaps = [], []
    for lam in lams:
        sp = EMVSpec(T=1.0, lam=lam, z=1.0, x0=1.0, mode="plain", h=GAUSS)
        w = lagrange_multiplier(sp, MC_MARKET)
        _, vcl = classical_solution(0.0, w, sp, MC_MARKET, w)
        ratios.append(abs(value(0.0, w, sp, MC_MARKET, w) - vcl) / lam**2)
        sl = EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode="log", h=GAUSS)
        wl = lagrange_multiplier(sl, MC_MARKET)
        _, vcl_l = classical_solution(0.0, 1.0, sl, MC_MARKET, wl)
        log_gaps.append(abs(value(0.0, 1.0, sl, MC_MARKET, wl) - vcl_l))
    spread = max(ratios) - min(ratios)
    monotone = bool(np.all(np.diff(log_gaps) < 0))
    elapsed = time.time() - t0
    ok = spread < 1e-9 and monotone and elapsed < 1.0
    record_criterion(6, ok,
                     f"plain ratio spread {spread:.1e} < 1e-9, log gap monotone: {monotone}, "
                     f"{elapsed:.2f}s < 1s")


def test_criterion_7_gradient_fidelity(record_criterion):
    t0 = time.time()
    rng = np.random.default_rng(707)
    T = 1.0
    e = 1e-6
    worst = 0.0

    def rel_gap(analytic_vec, fd_vec):
        # relative to the component, floored at 1% of the gradient's scale
        # so a near-zero component is not judged against pure FD roundoff
        analytic_vec = np.atleast_1d(np.asarray(analytic_vec, dtype=float))
        fd_vec = np.atleast_1d(np.asarray(fd_vec, dtype=float))
        floor = np.maximum(1e-2 * np.max(np.abs(fd_vec)), 1e-8)
        return float(np.max(np.abs(analytic_vec - fd_vec)
                            / np.maximum(np.abs(fd_vec), floor)))

    for _ in range(1000):
        th = rng.uniform(-1.5, 1.5, size=3)
        t, x, w = rng.uniform(0, T), rng.uniform(-1, 3), rng.uniform(0.5, 2)
        grad = critic_grad(th, t, x, w, T)
        fd = np.empty(3)
        for k in range(3):
            d = np.zeros(3)
            d[k] = e
            fd[k] = (critic_value(th + d, t, x, w, 1.4, T)
                     - critic_value(th - d, t, x, w, 1.4, T)) / (2 * e)
        worst = max(worst, rel_gap(grad, fd))

    for mode in ("plain", "log"):
        for _ in range(500):
            phi = rng.uniform(-2, 2, size=3)
            t = rng.uniform(0, T)
            _, grad = regularizer(phi, t, GAUSS, mode, T)
            fd = np.empty(3)
            for k in range(3):
                d = np.zeros(3)
                d[k] = e
                fd[k] = (regularizer(phi + d, t, GAUSS, mode, T)[0]
                         - regularizer(phi - d, t, GAUSS, mode, T)[0]) / (2 * e)
            worst = max(worst, rel_gap(grad, fd))

    for name in FAMILIES:
        h = get_distortion(name)
        for _ in range(1000):
            loc, scale = rng.uniform(-2, 2), rng.uniform(0.3, 3.0)
            pol = LocationScalePolicy(h=h, location=loc, scale=scale)
            u = sample(pol, rng.uniform(0.05, 0.95))
            dm, ds = log_density_grad_fields(h, u, loc, scale)
            fm = (log_density(LocationScalePolicy(h, loc + e, scale), u)
                  - log_density(LocationScalePolicy(h, loc - e, scale), u)) / (2 * e)
            fs = (log_density(LocationScalePolicy(h, loc, scale + e), u)
                  - log_density(LocationScalePolicy(h, loc, scale - e), u)) / (2 * e)
            worst = max(worst, rel_gap(np.array([dm, ds]), np.array([fm, fs])))

    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    record_criterion(7, ok, f"max FD relative error {worst:.1e} < 1e-6, {elapsed:.1f}s < 10s")


def test_criterion_8_sampler_law(record_criterion):
    from scipy.stats import kstest

    t0 = time.time()
    worst_ks = 0.0
    worst_moment_dev = 0.0
    for name in FAMILIES:
        h = get_distortion(name)
        for loc, scale in ((0.0, 1.0), (-1.3, 0.7)):
            pol = LocationScalePolicy(h=h, location=loc, scale=scale)
            rng = np.random.default_rng(808)
            us = loc + scale * standardized_draw(h, rng.random(100_000))
            worst_ks = max(worst_ks, kstest(us, lambda u: cdf(pol, u)).statistic)
            mean, var = moments(pol)
            n = us.size
            se_mean = us.std(ddof=1) / math.sqrt(n)
            c = us - us.mean()
            se_var = math.sqrt((np.mean(c**4) - np.var(us) ** 2) / n)
            worst_moment_dev = max(worst_moment_dev,
                                   abs(us.mean() - mean) / se_mean,
                                   abs(us.var(ddof=1) - var) / se_var)
    elapsed = time.time() - t0
    ok = worst_ks < 0.01 and worst_moment_dev < 4.0 and elapsed < 10.0
    record_criterion(8, ok,
                     f"max KS {worst_ks:.4f} < 0.01, max moment dev {worst_moment_dev:.2f} SE < 4, "
                     f"{elapsed:.1f}s < 10s")


STUDY_CELLS = [
    # (mu, sigma, table mean, table variance)
    (-0.5, 0.1, 1.4052, 0.0035),
    (-0.3, 0.1, 1.4141, 0.0103),
]


def _study_config(mu_sigma_seed, episodes):
    mu, sigma, seed = mu_sigma_seed
    market = MarketParams(mu=mu, sigma=sigma, r=0.02)
    cfg = TrainConfig(episodes=episodes, h=GAUSS, lam=0.01, mode="plain",
                      sim=SimConfig.from_horizon(1.0, 252, seed=seed), z=1.4, x0=1.0)
    return cfg, market


def test_criterion_9_smoke_table_reproduction(record_criterion):
    t0 = time.time()
    cfg, market = _study_config((0.3, 0.2, 1), episodes=4000)
    mean, _, _ = train(cfg, market).last_window_stats()
    elapsed = time.time() - t0
    ok = 1.30 <= mean <= 1.50 and elapsed < 180.0
    record_criterion(9, ok,
                     f"smoke K=4000 last-200 mean {mean:.4f} in [1.30, 1.50], "
                     f"{elapsed:.0f}s < 180s (full-scale check under --run-slow)")


@pytest.mark.slow
def test_criterion_9_full_table_reproduction(record_criterion):
    # every (cell, seed) run trains in one lockstep batch
    runs = [_study_config((mu, sigma, seed), episodes=20000)
            for mu, sigma, _, _ in STUDY_CELLS for seed in range(1, 6)]
    logs = train_many(*zip(*runs))
    for log in logs:
        if isinstance(log, Exception):
            raise log
    results = []
    for k, (mu, sigma, table_mean, table_var) in enumerate(STUDY_CELLS):
        means, vars_ = zip(*(log.last_window_stats()[:2] for log in logs[5 * k:5 * k + 5]))
        med_mean, med_var = float(np.median(means)), float(np.median(vars_))
        ok_cell = (abs(med_mean - table_mean) <= 0.03
                   and 0.5 * table_var <= med_var <= 1.5 * table_var)
        results.append((mu, sigma, med_mean, med_var, ok_cell))
    ok = all(r[-1] for r in results)
    detail = "; ".join(
        f"cell({mu},{sigma}): median mean {m:.4f} (target +-0.03), "
        f"median var {v:.4f} (target +-50%) -> {'ok' if good else 'off'}"
        for mu, sigma, m, v, good in results
    )
    record_criterion(9, ok, "full-scale: " + detail)


def test_criterion_10_terminal_constraint(record_criterion):
    t0 = time.time()
    devs = []
    for mode, lam in (("plain", 0.01), ("log", 0.1)):
        spec = EMVSpec(T=1.0, lam=lam, z=1.4, x0=1.0, mode=mode, h=GAUSS)
        w = lagrange_multiplier(spec, MC_MARKET)
        sim = SimConfig.from_horizon(1.0, 252, n_paths=100_000, seed=55)
        xt, _ = pathwise_objectives(optimal_schedule(spec, MC_MARKET, w), spec, MC_MARKET,
                                    sim, w)
        se = xt.std(ddof=1) / math.sqrt(sim.n_paths)
        devs.append(abs(xt.mean() - spec.z) / se)
    elapsed = time.time() - t0
    ok = max(devs) < 4.0 and elapsed < 60.0
    record_criterion(10, ok,
                     f"plain {devs[0]:.2f} SE, log {devs[1]:.2f} SE (< 4), {elapsed:.0f}s < 60s")
