import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from choquet_emv import cli
from choquet_emv.rl import TrainingDivergedError

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
GOLDEN_GRID = ROOT / "tests" / "golden" / "grid.yaml"


def package_env() -> dict:
    """The environment of a child interpreter that imports the package from source."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def exiting_shard(tasks):
    """A stand-in for ``cli._run_shard`` that ends its pool worker at once; at
    module level, so the pool can pickle it by name."""
    os._exit(1)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


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

    def test_failed_cell_is_flagged_and_run_continues(self, tmp_path, monkeypatch, capsys):
        calls = {"n": 0}

        def flaky_train_many(configs, markets):
            calls["n"] += len(configs)
            return [TrainingDivergedError(7, "forced for the test") for _ in configs]

        monkeypatch.setattr(cli, "train_many", flaky_train_many)
        cfg = write_grid(tmp_path / "grid.yaml", mu_list=[0.1, 0.3], episodes=10)
        out = tmp_path / "table.csv"
        assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 2 and calls["n"] == 2
        assert all(r[6] == "diverged" for r in rows)
        assert all(r[7] == "nan" for r in rows)
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
        # an in-process stand-in for the pool records the size it was asked for
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
        out = tmp_path / "table.csv"
        assert cli.main(["table", "--config", str(GOLDEN_GRID), "--jobs", "5000",
                         "--out", str(out)]) == 0
        assert sizes == [6]  # the golden grid's cells
        assert out.read_bytes() == (GOLDEN_GRID.parent / "table.csv").read_bytes()

    def test_out_dir_flag_is_the_only_directory_switch(self, tmp_path, monkeypatch):
        cfg = write_grid(tmp_path / "grid.yaml", episodes=10)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CHOQUET_EMV_OUTPUT_DIR", "a")
        assert cli.main(["table", "--config", str(cfg), "--out-dir", "b"]) == 0
        assert (tmp_path / "b" / "table.csv").is_file()
        assert not (tmp_path / "a").exists()


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
    ])
    def test_bad_input_is_one_line_with_status_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("choquet-emv: error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_grid_file_is_one_line_with_status_2(self, tmp_path, capsys):
        cfg = write_grid(tmp_path / "grid.yaml", modes="plain")
        assert cli.main(["table", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err == (f"choquet-emv: error: grid key modes in {cfg} must be a list of names, "
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
                "choquet-emv: error: lambda_by_mode has no weight for mode(s): log\n")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("bad, message", [
        (dict(h_names=["gaussian_score", "nope"]), "unknown distortion 'nope'"),
        (dict(sigma_list=[0.2, -0.1]), "sigma must be positive, got -0.1"),
        (dict(episodes=0), "episodes and avg_window must be >= 1"),
    ], ids=["h_name", "sigma", "episodes"])
    def test_bad_cell_stops_before_any_cell_trains(self, bad, message, jobs, tmp_path,
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
        assert err.startswith("choquet-emv: error: ") and message in err
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

    @pytest.mark.parametrize("cmd", ["table", "figures"])
    def test_dead_pool_worker_is_one_line_with_status_1(self, cmd, tmp_path, monkeypatch,
                                                         capsys):
        # the forked workers inherit the patched module global
        monkeypatch.setattr(cli, "_run_shard", exiting_shard)
        out = tmp_path / "t.csv"
        assert cli.main([cmd, "--config", str(GOLDEN_GRID), "--jobs", "2",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("choquet-emv: error: ") and "terminated abruptly" in err
        assert err.count("\n") == 1
        assert not out.exists()

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

    def test_diverged_training_is_one_line_with_status_1(self, tmp_path, monkeypatch, capsys):
        def diverging(cfg, market):
            raise TrainingDivergedError(3, "forced for the test")

        monkeypatch.setattr(cli, "train", diverging)
        assert cli.main(["train", "--episodes", "5", "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == (
            "choquet-emv: error: training diverged at episode 3: forced for the test\n")


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

    def test_uniform_actions_stay_in_band(self, tmp_path):
        from choquet_emv.closedform import (
            EMVSpec, MarketParams, lagrange_multiplier, optimal_policy,
        )
        from choquet_emv.distortion import get_distortion

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

    @pytest.mark.parametrize("cmd, digest", [("table", "9b4c1cad1d83"),
                                             ("figures", "aab47a0b7fe6")])
    def test_golden_grid_hash_is_fixed(self, cmd, digest):
        grid = cli.grid_from_file(str(ROOT / "tests" / "golden" / "grid.yaml"))
        assert cli.config_hash(grid.payload() | {"cmd": cmd}) == digest

    def test_invalid_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.grid_from_file(str(write_grid(tmp_path / "g.yaml", dt=0.3)))
        with pytest.raises(ValueError):
            cli.grid_from_file(str(write_grid(tmp_path / "g2.yaml", mu_list=[])))
        for bad, message in ((dict(T=math.inf), "T must be finite"),
                             (dict(dt=0), "must be finite and positive"),
                             (dict(z=math.nan), "z must be finite"),
                             (dict(episode=10), r"unknown grid key\(s\) in .*: episode$"),
                             (dict(T="one"), "grid key T in .* must be a number, got 'one'"),
                             (dict(mu_list=0.3), "grid key mu_list .* list of numbers"),
                             (dict(lambda_by_mode=0.3), "grid key lambda_by_mode .* mapping"),
                             (dict(episodes="ten"), "grid key episodes .* an integer"),
                             (dict(episodes=True), "grid key episodes .* an integer"),
                             (dict(modes="plain"), "grid key modes .* list of names"),
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
    def test_episodes_zero_is_passed_on(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        calls = []
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--table", "gaussian",
                                          "--episodes", "0"])
        assert script.main() == 0
        config = str(CONFIGS.resolve() / "table_gaussian.yaml")
        assert calls == [["table", "--config", config, "--jobs", "4",
                          "--out", "results/table_gaussian.csv", "--episodes", "0"]]


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
    """scipy.special loads on the first Gaussian quantile or CDF, not at import."""

    @staticmethod
    def loaded_after(argvs) -> list[bool]:
        # a fresh interpreter: the test process has long since loaded scipy
        script = (
            "import json, os, sys\n"
            "import choquet_emv, choquet_emv.cli as cli\n"
            "seen = ['scipy.special' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv + ['--out', os.devnull]) == 0, argv\n"
            "    seen.append('scipy.special' in sys.modules)\n"
            "print(json.dumps(seen))\n")
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=package_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

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
