import csv
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from choquet_emv import cli
from choquet_emv.closedform import (
    EMVSpec,
    MarketParams,
    lagrange_multiplier,
    optimal_feedback,
    optimal_policy,
)
from choquet_emv.distortion import BUILTIN_DISTORTIONS, get_distortion
from choquet_emv.market import SimConfig
from choquet_emv.rl import TrainConfig, TrainingDivergedError, episode_draws, train

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
GOLDEN_GRID = ROOT / "tests" / "golden" / "grid.yaml"


def package_env() -> dict:
    """The environment of a child interpreter that imports the package from source."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def results_hash(family):
    """The config_hash on line 1 of a shipped results/table_<family>.csv."""
    meta, _, _ = read_csv(ROOT / "results" / f"table_{family}.csv")
    return meta.split()[1].removeprefix("config_hash=")


def write_grid(path, **overrides):
    grid = {
        "mu_list": [0.3], "sigma_list": [0.2], "r": 0.02, "T": 1.0,
        "dt": 1.0 / 252.0, "z": 1.4, "x0": 1.0, "modes": ["plain"],
        "h_names": ["gaussian_score"], "episodes": 120, "avg_window": 10,
        "seed": 99, "lambda_by_mode": {"plain": 0.01, "log": 0.1},
        "grad_clip": 1000.0,
    }
    grid.update(overrides)
    path.write_text(yaml.safe_dump(grid))
    return path


class TestSolve:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "solve.csv"
        assert cli.main(["solve", "--mu", "0.1", "--sigma", "0.2", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert "mode=plain" in meta
        quantities = {r[0] for r in rows}
        assert {"lagrange_multiplier", "value_initial", "exploration_cost",
                "cost_ratio", "policy_mean", "policy_scale"} <= quantities
        w = float(next(r[2] for r in rows if r[0] == "lagrange_multiplier"))
        assert w == pytest.approx(3.70533, abs=1e-4)

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["solve", "--mu", "0.1", "--sigma", "0.2"]
        cli.main(argv + ["--out", str(a)])
        cli.main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [["solve"], ["simulate", "--n-paths", "8", "--n-steps", "8"],
                                      ["trajectory", "--n-steps", "8"],
                                      ["train", "--episodes", "4"]], ids=lambda a: a[0])
    def test_log_mode_defaults_to_its_own_lambda(self, argv, tmp_path):
        # every command reads a left-out --lambda from DEFAULT_LAMBDA by mode
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(argv + ["--mode", "log", "--out", str(a)]) == 0
        assert cli.main(argv + ["--mode", "log", "--lambda", str(cli.DEFAULT_LAMBDA["log"]),
                                "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_path_rows_and_meta(self, tmp_path):
        out = tmp_path / "sim.csv"
        cli.main(["simulate", "--n-paths", "64", "--n-steps", "16",
                  "--seed", "3", "--out", str(out)])
        meta, header, rows = read_csv(out)
        assert len(rows) == 64
        assert "objective_estimate=" in meta and "closed_form_value=" in meta
        assert header == ["path", "terminal_wealth", "pathwise_objective"]

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--n-paths", "8", "--n-steps", "8", "--seed", "1", "--out", str(a)])
        cli.main(["simulate", "--n-paths", "8", "--n-steps", "8", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestTrainCommand:
    def test_log_and_summary(self, tmp_path):
        out = tmp_path / "train.csv"
        cli.main(["train", "--mu", "0.3", "--sigma", "0.2", "--episodes", "30",
                  "--seed", "7", "--out", str(out)])
        meta, header, rows = read_csv(out)
        assert "last200_mean=" in meta
        assert header[:2] == ["episode", "terminal_wealth"]
        assert len(rows) == 31  # 30 episodes + summary row
        assert rows[-1][0] == "summary"

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["train", "--mu", "0.3", "--sigma", "0.2", "--episodes", "20", "--seed", "7"]
        cli.main(argv + ["--out", str(a)])
        cli.main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_lambda_help_follows_the_defaults(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "DEFAULT_LAMBDA", {"plain": 0.03, "log": 0.2})
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        assert "default 0.03 (plain) or 0.2 (log)" in capsys.readouterr().out

    def test_flags_reach_the_trainer(self, tmp_path, capsys):
        out = tmp_path / "train.csv"
        assert cli.main(["train", "--mu", "0.3", "--sigma", "0.2", "--episodes", "40",
                         "--seed", "3", "--m", "5", "--alpha", "0.05", "--decay", "0.6",
                         "--critic-form", "corrected", "--grad-clip", "0.1",
                         "--lambda", "0.02", "--out", str(out)]) == 0
        cfg = TrainConfig(episodes=40, h=get_distortion("gaussian_score"), lam=0.02,
                          mode="plain", sim=SimConfig.from_horizon(1.0, 252, seed=3), z=1.4,
                          avg_window=5, alpha=0.05, decay=0.6, critic_form="corrected",
                          grad_clip=0.1)
        log = train(cfg, MarketParams(mu=0.3, sigma=0.2, r=0.02))
        meta, _, rows = read_csv(out)
        assert rows[-2] == [cli._fmt(v) for v in (40, log.terminal_wealth[-1], *log.theta[-1],
                                                  *log.phi[-1], log.w[-1])]
        assert "clip_events=29 " in meta
        assert capsys.readouterr().err == "gradient clipping engaged 29 times\n"


class TestTable:
    def test_single_cell_single_row(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml")
        out = tmp_path / "table.csv"
        cli.main(["table", "--config", str(cfg), "--out", str(out)])
        meta, header, rows = read_csv(out)
        assert len(rows) == 1
        assert header == ["mu", "sigma", "mode", "h", "lambda", "cell_seed",
                          "status", "mean", "variance", "sharpe"]
        assert rows[0][6].startswith("ok")

    def test_cell_count_spans_grid(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", mu_list=[0.1, 0.3],
                         sigma_list=[0.2, 0.3], modes=["plain", "log"], episodes=25)
        out = tmp_path / "table.csv"
        cli.main(["table", "--config", str(cfg), "--out", str(out)])
        _, _, rows = read_csv(out)
        assert len(rows) == 8

    @pytest.mark.parametrize("cmd, values", [("table", ["nan", "nan", "nan"]),
                                             ("figures", ["0", "nan"])], ids=["table", "figures"])
    def test_failed_cell_is_flagged_and_run_continues(self, cmd, values, tmp_path, monkeypatch,
                                                      capsys):
        calls = {"n": 0}

        def flaky_train_many(configs, markets):
            calls["n"] += len(configs)
            return [TrainingDivergedError(7, "forced for the test") for _ in configs]

        monkeypatch.setattr(cli, "train_many", flaky_train_many)
        cfg = write_grid(tmp_path / "grid.yaml", mu_list=[0.1, 0.3], episodes=10)
        out = tmp_path / f"{cmd}.csv"
        assert cli.main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 2 and calls["n"] == 2
        assert all(r[6] == "diverged" for r in rows)
        assert all(r[7:] == values for r in rows)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("choquet-emv: cell (mu=0.1, sigma=0.2, mode=plain, "
                                   "h=gaussian_score, lambda=0.01)")
        assert all(ln.endswith("training diverged at episode 7: forced for the test")
                   for ln in lines)

    def test_lambda_sweep_emits_each_weight(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", episodes=30, lambdas=[0.005, 0.02])
        out = tmp_path / "table.csv"
        cli.main(["table", "--config", str(cfg), "--out", str(out)])
        _, _, rows = read_csv(out)
        assert [r[4] for r in rows] == ["0.005", "0.02"]

    def test_byte_reproducible(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", episodes=40)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["table", "--config", str(cfg), "--out", str(a)])
        cli.main(["table", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", mu_list=[0.1, 0.3], episodes=30)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["table", "--config", str(cfg), "--out", str(a)])
        cli.main(["table", "--config", str(cfg), "--jobs", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_golden_grid_bytes_do_not_depend_on_jobs(self, jobs, tmp_path):
        out = tmp_path / "table.csv"
        assert cli.main(["table", "--config", str(GOLDEN_GRID), "--jobs", jobs,
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_GRID.parent / "table.csv").read_bytes()

    def test_pool_is_capped_at_one_worker_per_cell(self, tmp_path, monkeypatch):
        pids, real_fork = [], os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        out = tmp_path / "table.csv"
        assert cli.main(["table", "--config", str(GOLDEN_GRID), "--jobs", "5000",
                         "--out", str(out)]) == 0
        assert len(pids) == 5  # the golden grid's 6 cells, one of them in the caller
        assert out.read_bytes() == (GOLDEN_GRID.parent / "table.csv").read_bytes()
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_out_is_the_only_output_switch(self, tmp_path, monkeypatch, capsys):
        cfg = write_grid(tmp_path / "grid.yaml", episodes=10)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CHOQUET_EMV_OUTPUT_DIR", "a")
        assert cli.main(["table", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# config_hash=") and out.count("\n") == 3
        assert list(tmp_path.iterdir()) == [cfg]
        # a grid file names no output: out_dir is an unknown key
        cfg = write_grid(tmp_path / "grid.yaml", episodes=10, out_dir="b")
        assert cli.main(["table", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"choquet-emv: error: unknown grid key(s) in {cfg}: out_dir\n")
        assert list(tmp_path.iterdir()) == [cfg]


class TestExitStatus:
    @pytest.mark.parametrize("argv, message", [
        (["solve", "--h", "nope"], "unknown distortion 'nope'"),
        (["solve", "--sigma", "0"], "sigma must be positive"),
        (["solve", "--mu", "nan"], "mu must be finite"),
        (["simulate", "--sigma", "inf"], "sigma must be finite"),
        (["train", "--decay", "-3", "--episodes", "50"], "must be nonnegative"),
        (["train", "--T", "1", "--dt", "0.3"], "dt=0.3 does not divide T=1.0"),
        (["train", "--T", "inf"], "T and dt must be finite and positive"),
        (["train", "--dt", "0"], "T and dt must be finite and positive"),
        (["simulate", "--n-steps", "0"], "n_steps must be >= 1, got 0"),
        (["simulate", "--n-steps", str(2**1100)], "n_steps is too large"),
        (["trajectory", "--n-steps", str(2**1100)], "n_steps is too large"),
        (["solve", "--mu", "0.020000000001", "--r", "0.02", "--sigma", "0.2"],
         "rho^2 T = 2.5e-23 is too small"),
        (["solve", "--mu", "6.02", "--r", "0.02", "--sigma", "0.2"], "rho^2 T = 900 is too large"),
        (["simulate", "--mu", "6.02", "--r", "0.02", "--sigma", "0.2"], "rho^2 T = 900 is too large"),
        (["solve", "--mu", "1e155", "--sigma", "0.2"], "rho^2 T = inf is too large"),
        (["simulate", "--mu", "1e155", "--sigma", "0.2"], "rho^2 T = inf is too large"),
        (["trajectory", "--mu", "1e155", "--sigma", "0.2"], "rho^2 T = inf is too large"),
        # 1 PiB per array: beyond the x86-64 user address space, so numpy's
        # allocation fails at once, before any path or episode runs
        (["simulate", "--n-paths", str(2**47)], "Unable to allocate 1.00 PiB"),
        (["train", "--episodes", str(2**47)], "Unable to allocate 1.00 PiB"),
        (["solve", "--grid-points", "0"], "--grid-points must be >= 1, got 0"),
        (["solve", "--grid-points", "-3"], "--grid-points must be >= 1, got -3"),
        # time grids too long to index; a dict stands for a grid file with
        # those keys changed
        (["train", "--T", "1e300"], "n_steps = 2.52e+302 is too large: its time grid"),
        (["train", "--dt", "1e-300"], "n_steps = 1e+300 is too large: its time grid"),
        (["table", "--config", {"T": 1.0e300}], "n_steps = 2.52e+302 is too large: its time grid"),
        (["train", "--T", "1e-9", "--dt", "3e-10", "--episodes", "2"],
         "dt=3e-10 does not divide T=1e-09"),
        (["train", "--T", "1e300", "--dt", "1e-300"],
         "dt=1e-300 is too small for T=1e+300: T / dt overflows a float"),
        (["table", "--config", {"T": 1.0e300, "dt": 1.0e-300}],
         "dt=1e-300 is too small for T=1e+300: T / dt overflows a float"),
        (["solve", "--lambda", "1e308"], "a result overflows a float"),
        (["solve", "--z", "1e200"], "a result overflows a float"),
        (["simulate", "--x0", "1e308", "--z", "1e308", "--n-paths", "2", "--n-steps", "2"],
         "a result overflows a float"),
        # e^(rho^2 T) is finite here; z times it is not
        (["solve", "--z", "1e308"], "z = 1e+308 or x0 = 1 at rho^2 T = 0.16 is too large"),
        # rho = 0: the optimum is finite, and lagrange_multiplier refuses first
        (["solve", "--mu", "0.02", "--r", "0.02"], "degenerate Sharpe ratio"),
        (["simulate", "--mu", "0.02", "--r", "0.02"], "degenerate Sharpe ratio"),
        (["trajectory", "--mu", "0.02", "--r", "0.02"], "degenerate Sharpe ratio"),
        # at lambda = 0 the trainer's lambda log Phi term vanishes: no log-mode
        # run (test_bad_cell_stops_before_any_cell_trains covers the grid)
        (["train", "--mode", "log", "--lambda", "0", "--episodes", "3"],
         "log mode requires a positive exploration weight"),
        # lambda ||h'||^2 / (2 e sigma^2) rounds to 0 in the log-mode value
        (["solve", "--mode", "log", "--lambda", "5e-324", "--sigma", "10"],
         "log mode's quotient lambda ||h'||^2 / sigma^2 underflows to 0 at lambda = 4.94e-324, "
         "||h'||^2 = 1 and sigma = 10"),
        # rho = 1e-5 is finite, but sigma^2 underflows to 0
        (["solve", "--r", "0", "--mu", "1e-175", "--sigma", "1e-170"],
         "sigma = 1e-170 is too small: sigma^2 underflows to 0"),
        (["simulate", "--r", "0", "--mu", "1e-175", "--sigma", "1e-170"],
         "sigma = 1e-170 is too small: sigma^2 underflows to 0"),
        (["trajectory", "--r", "0", "--mu", "1e-175", "--sigma", "1e-170"],
         "sigma = 1e-170 is too small: sigma^2 underflows to 0"),
        # lambda / (2 sigma^2 ||h'||^2) rounds to 0 in the log-mode policy scale
        (["simulate", "--mode", "log", "--lambda", "5e-324", "--sigma", "10",
          "--n-paths", "4", "--n-steps", "4"],
         "log mode's quotient lambda / (sigma^2 ||h'||^2 V_xx) underflows to 0 at "
         "lambda = 4.94e-324, ||h'||^2 = 1 and sigma = 10"),
        (["trajectory", "--mode", "log", "--lambda", "5e-324", "--sigma", "10", "--n-steps", "4"],
         "log mode's quotient lambda / (sigma^2 ||h'||^2 V_xx) underflows to 0 at "
         "lambda = 4.94e-324, ||h'||^2 = 1 and sigma = 10"),
    ])
    def test_bad_input_is_one_line_with_status_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [str(write_grid(tmp_path / "grid.yaml", **a)) if isinstance(a, dict) else a
                for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("choquet-emv: error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--z", "1e200"], ["z = 1e+200"]),
        (["simulate", "--x0", "1e308", "--z", "1e308"], ["z = 1e+308", "x0 = 1e+308"]),
        (["solve", "--z", "1e200"], ["z = 1e+200"]),
        (["solve", "--lambda", "1e308"], ["lambda = 1e+308"]),
    ], ids=["simulate_z", "simulate_x0_z", "solve_z", "solve_lambda"])
    def test_overflowing_square_names_its_input(self, argv, named, tmp_path, capsys):
        # each overflows at a Python-float square: (w - z)^2 in the simulator,
        # (x - w)^2 and lambda^2 in the closed-form value
        if argv[0] == "simulate":
            argv = argv + ["--n-paths", "2", "--n-steps", "2"]
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("choquet-emv: error: a result overflows a float: ")
        assert err.count("\n") == 1
        assert all(name in err for name in named), err

    def test_bad_grid_file_is_one_line_with_status_2(self, tmp_path, capsys):
        cfg = write_grid(tmp_path / "grid.yaml", modes="plain")
        assert cli.main(["table", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err == (f"choquet-emv: error: {cfg}: grid key modes must be a list of names, "
                       "got 'plain'\n")
        assert not (tmp_path / "t.csv").exists()

    def test_grid_without_a_mode_weight_stops_before_any_cell(self, tmp_path, monkeypatch,
                                                               capsys):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_run_grid", no_cell)
        cfg = write_grid(tmp_path / "grid.yaml", modes=["plain", "log"],
                         lambda_by_mode={"plain": 0.01})
        for cmd in ("table", "figures"):
            assert cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
            assert capsys.readouterr().err == (
                f"choquet-emv: error: {cfg}: lambda_by_mode has no weight for mode(s): log\n")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("bad, cell, message", [
        (dict(h_names=["gaussian_score", "nope"]),
         "mu=0.3, sigma=0.2, mode=plain, h=nope, lambda=0.01",
         f"unknown distortion 'nope'; available: {sorted(BUILTIN_DISTORTIONS)}"),
        (dict(sigma_list=[0.2, -0.1]), "mu=0.3, sigma=-0.1, mode=plain, h=gaussian_score, "
                                       "lambda=0.01", "sigma must be positive, got -0.1"),
        (dict(episodes=0), "mu=0.3, sigma=0.2, mode=plain, h=gaussian_score, lambda=0.01",
         "episodes and avg_window must be >= 1"),
        (dict(lambdas=[-0.1]), "mu=0.3, sigma=0.2, mode=plain, h=gaussian_score, lambda=-0.1",
         "lam and decay must be nonnegative, got -0.1, 0.51"),
        (dict(modes=["log"], lambda_by_mode={"log": 0.0}),
         "mu=0.3, sigma=0.2, mode=log, h=gaussian_score, lambda=0.0",
         "log mode requires a positive exploration weight"),
        (dict(sigma_list=[0.2, 1e-170]), "mu=0.3, sigma=1e-170, mode=plain, h=gaussian_score, "
                                         "lambda=0.01",
         "sigma = 1e-170 is too small: sigma^2 underflows to 0"),
    ], ids=["h_name", "sigma", "episodes", "lambdas", "log_lambda_zero", "sigma_underflow"])
    def test_bad_cell_stops_before_any_cell_trains(self, bad, cell, message, jobs, tmp_path,
                                                   monkeypatch, capsys):
        calls = []

        def no_training(configs, markets):
            calls.append(configs)
            raise AssertionError("a cell trained")

        monkeypatch.setattr(cli, "train_many", no_training)
        cfg = write_grid(tmp_path / "grid.yaml", **bad)
        out = tmp_path / "t.csv"
        assert cli.main(["table", "--config", str(cfg), "--jobs", jobs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the error names the grid file and the first cell that refuses its value
        assert err == f"choquet-emv: error: {cfg}: cell ({cell}): {message}\n"
        assert err.count("\n") == 1
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("cmd", ["table", "figures"])
    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_nonpositive_jobs_stops_before_any_cell_trains(self, cmd, jobs, tmp_path,
                                                           monkeypatch, capsys):
        def no_training(configs, markets):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(cli, "train_many", no_training)
        cfg = write_grid(tmp_path / "grid.yaml")
        out = tmp_path / "t.csv"
        assert cli.main([cmd, "--config", str(cfg), "--jobs", jobs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"choquet-emv: error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd, argv", [("table", []), ("figures", ["--episodes", "200"])],
                             ids=["table", "figures"])
    def test_killed_grid_worker_is_trained_again_in_process(self, cmd, argv, tmp_path,
                                                            monkeypatch, capsys):
        run_shard, parent = cli._run_shard, os.getpid()

        def child_dies(shard):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_shard(shard)

        # the forked workers inherit the patched module global
        monkeypatch.setattr(cli, "_run_shard", child_dies)
        out = tmp_path / f"{cmd}.csv"
        assert cli.main([cmd, "--config", str(GOLDEN_GRID), "--jobs", "2",
                         "--out", str(out), *argv]) == 0
        assert out.read_bytes() == (GOLDEN_GRID.parent / f"{cmd}.csv").read_bytes()
        assert capsys.readouterr().err == ""
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_closed_pipe_ends_quietly_with_status_141(self):
        env = package_env()
        # 20000 rows overflow the pipe's buffer, so the writer meets the closed end
        proc = subprocess.Popen(
            [sys.executable, "-m", "choquet_emv.cli", "simulate", "--n-paths", "20000",
             "--n-steps", "16"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"# config_hash=")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    @pytest.mark.parametrize("argv, named", [
        (["table", "--config", "{tmp}/missing.yaml"], "{tmp}/missing.yaml"),
        (["solve", "--out", "{tmp}/f/x.csv"], "{tmp}/f"),  # f is a regular file
    ], ids=["missing_config", "out_under_a_file"])
    def test_os_error_is_one_line_with_status_2(self, argv, named, tmp_path, capsys):
        (tmp_path / "f").write_text("a regular file\n")
        assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("choquet-emv: error: [Errno ") and err.count("\n") == 1
        assert named.format(tmp=tmp_path) in err

    def test_non_finite_simulated_paths_are_one_line_with_status_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["simulate", "--mu", "0.5", "--sigma", "0.025", "--n-paths", "8",
                         "--n-steps", "8", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "choquet-emv: error: 8 of 8 simulated paths turned non-finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("lam, t", [("1e150", "0"), ("1e100", "0.8125")],
                             ids=["scale", "wealth"])
    def test_non_finite_trajectory_is_one_line_with_status_1(self, lam, t, tmp_path, capsys):
        # the scale overflows at every step, or the wealth late in the path
        out = tmp_path / "t.csv"
        assert cli.main(["trajectory", "--mu", "0.52", "--sigma", "0.025", "--lambda", lam,
                         "--n-steps", "64", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"choquet-emv: error: the gaussian_score trajectory turned non-finite at t={t}\n")
        assert not out.exists()

    def test_non_finite_closed_form_is_one_line_with_status_1(self, tmp_path, capsys):
        # log mode's value and scale overflow to inf without an error
        out = tmp_path / "s.csv"
        assert cli.main(["solve", "--mode", "log", "--lambda", "1e308", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "choquet-emv: error: value_initial turned non-finite: -inf\n")
        assert not out.exists()

    def test_multiplier_beyond_a_float_square_is_one_line_with_status_1(self, tmp_path,
                                                                          capsys):
        # the multiplier passes 1e154, where (w - z)^2 overflows a Python
        # float; the trainer never squares it and diverges as usual
        out = tmp_path / "t.csv"
        assert cli.main(["train", "--episodes", "30", "--alpha", "1e160", "--grad-clip",
                         "1e-300", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "choquet-emv: error: training diverged at episode 11: non-finite parameters\n")
        assert not out.exists()

    def test_diverged_training_is_one_line_with_status_1(self, tmp_path, monkeypatch, capsys):
        def diverging(cfg, market):
            raise TrainingDivergedError(3, "forced for the test")

        monkeypatch.setattr(cli, "train", diverging)
        assert cli.main(["train", "--episodes", "5", "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == (
            "choquet-emv: error: training diverged at episode 3: forced for the test\n")

    @pytest.mark.parametrize("argv, status", [
        (["solve", "--mode", "log", "--lambda", "1e308"], 1),
        (["simulate", "--mu", "0.5", "--sigma", "0.025", "--n-paths", "8", "--n-steps", "8"], 1),
        (["trajectory", "--mu", "0.52", "--sigma", "0.025", "--lambda", "1e100",
          "--n-steps", "64"], 1),
        (["train", "--episodes", "5"], 1),
        (["solve", "--h", "nope"], 2),
    ], ids=["solve", "simulate", "trajectory", "train", "unknown_h"])
    def test_failure_writes_nothing_to_stdout(self, argv, status, monkeypatch, capsys):
        # no --out: the CSV would go to stdout, so a failure must leave it empty
        def diverging(cfg, market):
            raise TrainingDivergedError(3, "forced for the test")

        monkeypatch.setattr(cli, "train", diverging)
        assert cli.main(argv) == status
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("choquet-emv: error: ") and err.count("\n") == 1
        assert err.endswith("\n")


class TestFigures:
    def test_block_mean_count(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", episodes=500)
        out = tmp_path / "fig.csv"
        cli.main(["figures", "--config", str(cfg), "--out", str(out)])
        _, _, rows = read_csv(out)
        assert len(rows) == 5  # 500 episodes -> five blocks of 100
        assert [int(r[7]) for r in rows] == [1, 2, 3, 4, 5]

    def test_short_cell_writes_block_zero(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", episodes=50)
        out = tmp_path / "fig.csv"
        assert cli.main(["figures", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1  # under one 100-episode block
        assert rows[0][6] == "ok" and rows[0][7:] == ["0", "nan"]

    def test_lambda_sweep_emits_each_weight(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", episodes=200,
                         lambdas=[0.005, 0.02])
        out = tmp_path / "fig.csv"
        cli.main(["figures", "--config", str(cfg), "--out", str(out)])
        _, _, rows = read_csv(out)
        lams = {r[4] for r in rows}
        assert lams == {"0.005", "0.02"}
        assert len(rows) == 4  # 2 weights x 2 blocks


class TestTrajectory:
    def test_deterministic_and_grouped_by_family(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["trajectory", "--h", "gaussian_score,gini,entropy_like",
                "--n-steps", "64", "--seed", "11"]
        cli.main(argv + ["--out", str(a)])
        cli.main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        _, _, rows = read_csv(a)
        assert len(rows) == 3 * 64

    @pytest.mark.parametrize("mode", ["plain", "log"])
    def test_rows_match_a_step_loop_bitwise(self, mode, monkeypatch):
        # the written floats, not their 6-digit text: each family's actions
        # and wealths against its own Euler loop over the trainer's draws
        written = []
        monkeypatch.setattr(cli, "_write_csv",
                            lambda out, meta, header, rows: written.extend(rows))
        families = ["gaussian_score", "gini", "entropy_like"]
        assert cli.main(["trajectory", "--mode", mode, "--h", ",".join(families),
                         "--n-steps", "64", "--seed", "3"]) == 0
        market = MarketParams(mu=0.1, sigma=0.2, r=0.02)
        sim = SimConfig.from_horizon(1.0, 64, 1, 3)
        for f, h_name in enumerate(families):
            spec = EMVSpec(T=1.0, lam=cli.DEFAULT_LAMBDA[mode], z=1.4, x0=1.0, mode=mode,
                           h=get_distortion(h_name))
            w = lagrange_multiplier(spec, market)
            scale = optimal_feedback(spec, market).scale(spec.T - sim.times()[:-1])
            (eta,), (increments,) = episode_draws(spec.h, market, sim, 0)
            x, expected = 1.0, []
            for k in range(64):
                u = -(market.rho / market.sigma) * (x - w) + scale[k] * eta[k]
                expected.append((h_name, k * sim.dt, u, x))
                x = x + market.sigma * u * increments[k]
            rows = written[64 * f:64 * (f + 1)]
            assert [(h, t, u.hex(), x.hex()) for h, t, u, x in rows] == [
                (h, t, float(u).hex(), float(x).hex()) for h, t, u, x in expected]

    def test_spaces_around_the_names_move_no_byte(self, tmp_path):
        outs = []
        for k, names in enumerate(("gini, entropy_like", "gini,entropy_like")):
            out = tmp_path / f"t{k}.csv"
            assert cli.main(["trajectory", "--h", names, "--n-steps", "2",
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_uniform_actions_stay_in_band(self, tmp_path):
        out = tmp_path / "traj.csv"
        cli.main(["trajectory", "--h", "gini", "--mu", "0.1", "--sigma", "0.2",
                  "--n-steps", "128", "--seed", "5", "--out", str(out)])
        _, _, rows = read_csv(out)
        market = MarketParams(mu=0.1, sigma=0.2, r=0.02)
        spec = EMVSpec(T=1.0, lam=0.01, z=1.4, x0=1.0, mode="plain",
                       h=get_distortion("gini"))
        w = lagrange_multiplier(spec, market)
        for _, t, u, x in rows:
            pol = optimal_policy(float(t), float(x), spec, market, w)
            lo, hi = pol.support
            assert lo - 1e-12 <= float(u) <= hi + 1e-12

    def test_exponential_actions_right_skewed(self, tmp_path):
        out = tmp_path / "traj.csv"
        cli.main(["trajectory", "--h", "entropy_like", "--mu", "0.1", "--sigma", "0.2",
                  "--n-steps", "10000", "--seed", "5", "--out", str(out)])
        _, _, rows = read_csv(out)
        us = np.array([float(r[2]) for r in rows])
        centered = us - us.mean()
        skew = np.mean(centered**3) / np.mean(centered**2) ** 1.5
        # the exponential noise component keeps the action histogram
        # right-skewed even though the state-feedback mean moves around
        assert skew > 0.0
        se_skew = math.sqrt(6.0 / us.size)
        assert skew > 4 * se_skew


class TestGridConfig:
    def test_flag_overrides_file(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", episodes=400)
        out = tmp_path / "fig.csv"
        cli.main(["figures", "--config", str(cfg), "--episodes", "200", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert len(rows) == 2

    def test_hash_tracks_content(self, tmp_path):
        g1 = cli.grid_from_file(str(write_grid(tmp_path / "g1.yaml")))
        g2 = cli.grid_from_file(str(write_grid(tmp_path / "g2.yaml", seed=100)))
        assert cli.config_hash(g1.payload()) != cli.config_hash(g2.payload())

    # the golden grid's hashes are pinned; each shipped table config must
    # hash to the config_hash on line 1 of the results CSV it produced
    @pytest.mark.parametrize("config, cmd, digest", [
        *(pytest.param(GOLDEN_GRID, cmd, digest, id=f"{cmd}-{digest}")
          for cmd, digest in (("table", "9b4c1cad1d83"), ("figures", "aab47a0b7fe6"))),
        *(pytest.param(CONFIGS / f"table_{family}.yaml", "table", results_hash(family), id=family)
          for family in ("gaussian", "exponential", "uniform"))])
    def test_golden_grid_hash_is_fixed(self, config, cmd, digest):
        grid = cli.grid_from_file(str(config))
        assert cli.config_hash(grid.payload() | {"cmd": cmd}) == digest

    def test_every_grid_key_is_hashed(self):
        base = cli.ExperimentGrid(mu_list=(0.3,), sigma_list=(0.2,))
        changed = dict(mu_list=(0.4,), sigma_list=(0.3,), r=0.03, T=2.0, dt=1.0 / 126.0,
                       z=1.5, x0=1.1, modes=("plain",), h_names=("gini",), episodes=10,
                       avg_window=5, seed=1, lambda_by_mode={"plain": 0.02, "log": 0.1},
                       lambdas=(0.1,), grad_clip=None)
        names = [f.name for f in fields(cli.ExperimentGrid)]
        assert sorted(names) == sorted(changed)
        for name in names:
            grid = replace(base, **{name: changed[name]})
            assert cli.config_hash(grid.payload()) != cli.config_hash(base.payload()), name

    def test_python_built_grid_is_checked_as_a_file_grid(self):
        for bad, message in ((dict(episodes="ten"), "grid key episodes must be an integer, "
                                                    "got 'ten'$"),
                             (dict(mu_list=(0.1, 10**400)), "grid key mu_list holds an integer "
                                                            "too large for a float$")):
            with pytest.raises(ValueError, match=message):
                cli.ExperimentGrid(**(dict(mu_list=(0.3,), sigma_list=(0.2,)) | bad))

    def test_lambda_axis_needs_no_mode_weight(self, tmp_path):
        # a lambdas axis sets every cell's weight, so lambda_by_mode goes unread
        grid = dict(mu_list=(0.3,), sigma_list=(0.2,), modes=("plain", "log"),
                    lambda_by_mode={"plain": 0.01}, lambdas=(0.1,))
        assert cli.ExperimentGrid(**grid).lambdas == (0.1,)
        cfg = write_grid(tmp_path / "grid.yaml", episodes=30,
                         **{k: list(v) if isinstance(v, tuple) else v for k, v in grid.items()})
        out = tmp_path / "table.csv"
        assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [(r[2], r[4]) for r in rows] == [("plain", "0.1"), ("log", "0.1")]

    def test_lambda_axis_leaves_the_mode_weights_out_of_the_hash(self, tmp_path):
        # lambda_by_mode goes unread under a lambdas axis, so it moves no byte
        tables = []
        for k, plain in enumerate((0.01, 0.02)):
            cfg = write_grid(tmp_path / f"g{k}.yaml", episodes=30, lambdas=[0.1],
                             lambda_by_mode={"plain": plain})
            out = tmp_path / f"t{k}.csv"
            assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_integer_and_float_spellings_give_one_seed_and_hash(self):
        grids = [cli.ExperimentGrid(mu_list=(mu,), sigma_list=(0.2,)) for mu in (1, 1.0)]
        seeds = [[cli.cell_seed(g.seed, *cell) for cell in g.cells()] for g in grids]
        assert seeds[0] == seeds[1]
        assert cli.config_hash(grids[0].payload()) == cli.config_hash(grids[1].payload())

    def test_invalid_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.grid_from_file(str(write_grid(tmp_path / "g.yaml", dt=0.3)))
        with pytest.raises(ValueError):
            cli.grid_from_file(str(write_grid(tmp_path / "g2.yaml", mu_list=[])))
        for bad, message in ((dict(T=math.inf), "T must be finite"),
                             (dict(T=1.0e-9, dt=3.0e-10), "dt=3e-10 does not divide T=1e-09"),
                             (dict(dt=0), "must be finite and positive"),
                             (dict(z=math.nan), "z must be finite"),
                             (dict(episode=10), r"unknown grid key\(s\) in .*: episode$"),
                             (dict(T="one"), r"g3\.yaml: grid key T must be a number, got 'one'"),
                             (dict(mu_list=0.3), "grid key mu_list .* list of numbers"),
                             (dict(lambda_by_mode=0.3), "grid key lambda_by_mode .* mapping"),
                             (dict(episodes="ten"), "grid key episodes .* an integer"),
                             (dict(episodes=True), "grid key episodes .* an integer"),
                             (dict(modes="plain"), "grid key modes .* list of names"),
                             (dict(T=10**400), r"g3\.yaml: grid key T holds an integer too "
                                               "large for a float$"),
                             (dict(mu_list=[0.1, 10**400]), r"g3\.yaml: grid key mu_list holds "
                                                            "an integer too large for a float$"),
                             (dict(modes=["plain", "log", "other"], lambda_by_mode={"plain": 0.1}),
                              "lambda_by_mode has no weight for mode\\(s\\): log, other$")):
            with pytest.raises(ValueError, match=message):
                cli.grid_from_file(str(write_grid(tmp_path / "g3.yaml", **bad)))
        for text, message in (("- 1\n- 2\n", "must hold a mapping of keys, got a list"),
                              ("", "missing grid key\\(s\\) in .*: mu_list, sigma_list"),
                              ("mu_list: [0.3\n", "is not valid YAML")):
            (tmp_path / "g4.yaml").write_text(text)
            with pytest.raises(ValueError, match=message):
                cli.grid_from_file(str(tmp_path / "g4.yaml"))
        # integers stay valid where a float is expected
        assert cli.grid_from_file(str(write_grid(tmp_path / "g5.yaml", T=1, dt=0.25))).T == 1

    def test_integer_spellings_of_float_keys_give_the_same_bytes(self, tmp_path):
        # cell seeds hash repr(mu) and the config hash the stored values, so
        # a number must be stored as a float however the file writes it
        spellings = [dict(mu_list=[1], sigma_list=[1], r=0, T=1, z=2, x0=1, lambdas=[1],
                          lambda_by_mode={"plain": 1}, grad_clip=1000),
                     dict(mu_list=[1.0], sigma_list=[1.0], r=0.0, T=1.0, z=2.0, x0=1.0,
                          lambdas=[1.0], lambda_by_mode={"plain": 1.0}, grad_clip=1000.0)]
        outs = [tmp_path / "int.csv", tmp_path / "float.csv"]
        for out, spelling in zip(outs, spellings):
            cfg = write_grid(tmp_path / "grid.yaml", episodes=3, **spelling)
            assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_shipped_configs_load(self):
        for path in sorted(CONFIGS.glob("*.yaml")):
            raw = yaml.safe_load(path.read_text())
            grid = cli.grid_from_file(str(path))
            expected = (len(raw["mu_list"]) * len(raw["sigma_list"]) * len(raw["modes"])
                        * len(raw["h_names"]))
            assert len(list(grid.cells())) == expected, path.name

    def test_cell_seed_depends_on_every_field(self):
        base = cli.cell_seed(1, 0.1, 0.2, "plain", "gini")
        assert base != cli.cell_seed(2, 0.1, 0.2, "plain", "gini")
        assert base != cli.cell_seed(1, 0.3, 0.2, "plain", "gini")
        assert base != cli.cell_seed(1, 0.1, 0.2, "log", "gini")
        assert base != cli.cell_seed(1, 0.1, 0.2, "plain", "gaussian_score")


class TestReproduceTablesScript:
    @staticmethod
    def load_script():
        spec = importlib.util.spec_from_file_location(
            "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    def test_episodes_zero_is_passed_on(self, tmp_path, monkeypatch):
        script = self.load_script()
        calls = []
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--table", "gaussian",
                                          "--episodes", "0"])
        assert script.main() == 0
        config = str(CONFIGS.resolve() / "table_gaussian.yaml")
        assert calls == [["table", "--config", config, "--jobs", "4",
                          "--out", "results/table_gaussian.csv", "--episodes", "0"]]

    def test_a_failed_table_stops_no_other(self, tmp_path, monkeypatch):
        script = self.load_script()
        statuses = {"gaussian": 2, "exponential": 1, "uniform": 0}
        ran = []

        def fake_main(argv):
            name = Path(argv[argv.index("--out") + 1]).stem.removeprefix("table_")
            ran.append(name)
            return statuses[name]

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "main", fake_main)
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py"])
        assert script.main() == 2  # the first nonzero status
        assert ran == ["gaussian", "exponential", "uniform"]


class TestLambdaSweepContrast:
    def test_plain_mode_more_sensitive_at_high_sharpe(self, tmp_path):
        # at a high-Sharpe cell, the exploration weight moves the plain-mode
        # outcome distribution much more than the log-mode one
        cfg = write_grid(tmp_path / "grid.yaml", mu_list=[-0.5], sigma_list=[0.1],
                         modes=["plain", "log"], episodes=3000,
                         lambdas=[0.001, 0.01, 0.1])
        out = tmp_path / "fig.csv"
        cli.main(["figures", "--config", str(cfg), "--out", str(out)])
        _, _, rows = read_csv(out)
        finals = {}
        for mu, sigma, mode, h, lam, seed, status, block, bm in rows:
            finals.setdefault(mode, {})[lam] = float(bm)  # last block wins
        spread = {mode: np.std(list(by_lam.values())) for mode, by_lam in finals.items()}
        assert spread["plain"] > spread["log"]


class TestScipyLoading:
    """scipy.special loads on the first Gaussian draw or CDF, not at import."""

    @staticmethod
    def fresh_json(script, *args):
        # a fresh interpreter: the test process has long since loaded scipy
        done = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, env=package_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def loaded_after(self, argvs) -> list[bool]:
        return self.fresh_json(
            "import json, os, sys\n"
            "import choquet_emv, choquet_emv.cli as cli\n"
            "seen = ['scipy.special' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv + ['--out', os.devnull]) == 0, argv\n"
            "    seen.append('scipy.special' in sys.modules)\n"
            "print(json.dumps(seen))\n", json.dumps(argvs))

    def test_gaussian_closed_forms_leave_it_unloaded_until_a_draw(self):
        assert self.fresh_json(
            "import json, sys\n"
            "import numpy as np\n"
            "from choquet_emv import distortion, policy\n"
            "g = distortion.get_distortion('gaussian_score')\n"
            "q, _ = distortion.max_constrained(g, 0.3, 1.2)\n"
            "distortion.regularizer_of_quantile(g, q)\n"
            "distortion.quantile_moments(q)\n"
            "g.h(np.array([0.25, 0.5])), g.hprime(0.25)\n"
            "seen = ['scipy.special' in sys.modules]\n"
            "policy.standardized_draw(g, np.array([0.25, 0.75]))\n"
            "seen.append('scipy.special' in sys.modules)\n"
            "print(json.dumps(seen))\n") == [False, True]

    def test_only_a_gaussian_draw_loads_it(self):
        assert self.loaded_after([
            ["solve"],
            ["simulate", "--n-paths", "50", "--n-steps", "8", "--seed", "3"],
            ["trajectory", "--h", "gini", "--n-steps", "8"],
            ["trajectory", "--h", "gaussian_score", "--n-steps", "8"],
        ]) == [False, False, False, False, True]

    def test_a_pooled_grid_loads_it_in_the_parent(self):
        assert self.loaded_after([
            ["table", "--config", str(GOLDEN_GRID), "--jobs", "2"],
        ]) == [False, True]

    def test_a_one_shard_grid_without_a_gaussian_cell_leaves_it_unloaded(self, tmp_path):
        cfg = write_grid(tmp_path / "grid.yaml", h_names=["gini"], episodes=20)
        assert self.loaded_after([
            ["table", "--config", str(cfg), "--jobs", "1"],
        ]) == [False, False]
