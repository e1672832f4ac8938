#!/usr/bin/env python3
"""Full-scale statistical check of the two reference study cells.

Trains (mu=-0.5, sigma=0.1) and (mu=-0.3, sigma=0.1) with the Gaussian
family, plain regularizer, 20000 episodes, over five seeds each, and
compares seed medians against the published summary statistics
(1.4052/0.0035 and 1.4141/0.0103): mean within +-0.03, variance within
+-50 percent. This is the same check as
`pytest tests/test_acceptance.py --run-slow -k full_table`.
"""

import argparse
import sys
import time

import numpy as np

from choquet_emv import MarketParams, SimConfig, TrainConfig, get_distortion, train

CELLS = [(-0.5, 0.1, 1.4052, 0.0035), (-0.3, 0.1, 1.4141, 0.0103)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=20000)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    for name in ("episodes", "seeds"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1, got {getattr(args, name)}")

    failures = 0
    for mu, sigma, ref_mean, ref_var in CELLS:
        market = MarketParams(mu=mu, sigma=sigma, r=0.02)
        means, vars_ = [], []
        for seed in range(1, args.seeds + 1):
            t0 = time.time()
            cfg = TrainConfig(episodes=args.episodes, h=get_distortion("gaussian_score"),
                              lam=0.01, mode="plain",
                              sim=SimConfig.from_horizon(1.0, 252, seed=seed),
                              z=1.4, x0=1.0)
            mean, var, sharpe = train(cfg, market).last_window_stats()
            means.append(mean)
            vars_.append(var)
            print(f"  cell({mu},{sigma}) seed {seed}: mean={mean:.4f} var={var:.4f} "
                  f"sharpe={sharpe:.3f} ({time.time() - t0:.0f}s)")
        med_mean, med_var = float(np.median(means)), float(np.median(vars_))
        ok_mean = abs(med_mean - ref_mean) <= 0.03
        ok_var = 0.5 * ref_var <= med_var <= 1.5 * ref_var
        verdict = "PASS" if ok_mean and ok_var else "FAIL"
        failures += verdict == "FAIL"
        print(f"cell({mu},{sigma}): median mean {med_mean:.4f} vs {ref_mean} "
              f"(+-0.03: {'ok' if ok_mean else 'OFF'}), median var {med_var:.4f} vs "
              f"{ref_var} (+-50%: {'ok' if ok_var else 'OFF'}) -> {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
