#!/usr/bin/env python3
"""Run the full simulation-study grids and write one summary CSV per family.

Each table is 6 drifts x 4 volatilities x {plain, log}, trained for 20000
episodes per cell. --jobs splits the cells into that many shards, one
process each, and each shard trains as one lockstep batch. Cells that
diverge (in the shipped results, every uniform cell with mu < r: mu in
{-0.5, -0.3, -0.1}, every sigma, both modes; the uniform score carries no
location gradient) are flagged in the status column and stop early.
"""

import argparse
import sys
from pathlib import Path

from choquet_emv import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = {name: str(CONFIG_DIR / f"table_{name}.yaml")
           for name in ("gaussian", "exponential", "uniform")}


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
        code = cli.main(argv)  # every table runs; the first failure's status is returned
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
