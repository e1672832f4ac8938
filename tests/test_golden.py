"""Byte-for-byte regression of small seeded CLI outputs.

Each case reruns one subcommand and compares its CSV with the copy kept in
``tests/golden/``.  A change that alters the numbers on purpose (a new
random stream, say) regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and records the diff in CHANGES.md.
"""

from pathlib import Path

import pytest

from choquet_emv.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRID = str(GOLDEN / "grid.yaml")

CASES = {
    "solve.csv": ["solve"],
    "simulate.csv": ["simulate", "--n-paths", "64", "--n-steps", "16"],
    "train.csv": ["train", "--episodes", "30"],
    # the log regularizer with ||h'|| != 1, clipped 40 times
    "train_log.csv": ["train", "--mode", "log", "--h", "gini", "--mu", "-0.5",
                      "--episodes", "30", "--grad-clip", "1.0"],
    "trajectory.csv": ["trajectory", "--h", "gaussian_score,entropy_like,gini",
                       "--n-steps", "32"],
    "table.csv": ["table", "--config", GRID],
    # block means need at least 100 episodes per cell
    "figures.csv": ["figures", "--config", GRID, "--episodes", "200"],
    # log mode and the ||h'|| != 1 regularizer of the gini family
    "solve_log.csv": ["solve", "--mode", "log", "--lambda", "0.1", "--h", "gini"],
    "simulate_log.csv": ["simulate", "--mode", "log", "--lambda", "0.1",
                         "--h", "gini", "--n-paths", "64", "--n-steps", "16"],
    "trajectory_log.csv": ["trajectory", "--mode", "log", "--lambda", "0.1",
                           "--h", "gaussian_score,entropy_like,gini",
                           "--n-steps", "32"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        main(argv + ["--out", str(GOLDEN / name)])
