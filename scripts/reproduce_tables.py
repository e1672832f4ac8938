#!/usr/bin/env python3
"""Run the full simulation-study grids and write one summary CSV per family.

Each table is 6 drifts x 4 volatilities x {plain, log}, trained for 20000
episodes per cell. Expect roughly 5-7.5 s per cell per core (one cell per
family took 5.3-7.3 s on a 2-vCPU Xeon, Python 3.11, numpy 2.4); --jobs
spreads cells over processes. Cells that diverge (which happens for the uniform
family at strongly negative drifts, where the uniform score carries no
location gradient) are flagged in the status column.
"""

import argparse
import sys

from choquet_emv import cli

CONFIGS = {
    "gaussian": "configs/table_gaussian.yaml",
    "exponential": "configs/table_exponential.yaml",
    "uniform": "configs/table_uniform.yaml",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", choices=[*CONFIGS, "all"], default="all")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--episodes", type=int, default=None,
                        help="override the per-cell episode count")
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    names = list(CONFIGS) if args.table == "all" else [args.table]
    status = 0
    for name in names:
        out = f"{args.out_dir}/table_{name}.csv"
        argv = ["table", "--config", CONFIGS[name], "--jobs", str(args.jobs),
                "--out", out]
        if args.episodes is not None:
            argv += ["--episodes", str(args.episodes)]
        print(f"[{name}] -> {out}", file=sys.stderr)
        status = status or cli.main(argv)
    return status


if __name__ == "__main__":
    sys.exit(main())
