"""Command-line experiment driver.

Subcommands: solve, simulate, train, table, figures, trajectory.  Grid
experiments are described by a YAML config file (flags override file
values); every CSV starts with a comment header carrying the config hash,
base seed and mode so a rerun of the same config byte-reproduces the
file.  Cell seeds are derived by hashing (base seed, mu, sigma, mode, h),
which keeps parallel workers independent of scheduling order.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .closedform import (
    EMVSpec,
    MarketParams,
    _require_finite,
    classical_solution,
    cost_ratio,
    exploration_cost,
    lagrange_multiplier,
    optimal_policy,
    optimal_scale,
    optimal_schedule,
    value,
)
from .distortion import get_distortion
from .market import SimConfig, mean_and_std_error, pathwise_objectives, rollout
from .policy import MODES
from .rl import (
    CRITIC_FORMS,
    TrainConfig,
    TrainingDivergedError,
    episode_draws,
    train,
    train_many,
)

DEFAULT_LAMBDA = {"plain": 0.01, "log": 0.1}
# config-hash keys of the grid fields whose names differ; renaming one changes every hash
_PAYLOAD_KEYS = {"mu_list": "mu", "sigma_list": "sigma", "h_names": "h"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def config_hash(payload: dict) -> str:
    payload = {k: v for k, v in payload.items() if k not in ("fn", "out", "out_dir")}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def cell_seed(base_seed: int, mu: float, sigma: float, mode: str, h_name: str) -> int:
    blob = f"{base_seed}|{mu!r}|{sigma!r}|{mode}|{h_name}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def _n_steps(T: float, dt: float) -> int:
    """Number of dt steps covering [0, T]; dt must divide T."""
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"T and dt must be finite and positive, got T={T}, dt={dt}")
    n = round(T / dt)
    if abs(n * dt - T) > 1e-9:
        raise ValueError(f"dt={dt} does not divide T={T}")
    return n


@dataclass(frozen=True)
class ExperimentGrid:
    """Declarative description of a sweep over (mu, sigma, mode, h) cells."""

    mu_list: tuple[float, ...]
    sigma_list: tuple[float, ...]
    r: float = 0.02
    T: float = 1.0
    dt: float = 1.0 / 252.0
    z: float = 1.4
    x0: float = 1.0
    modes: tuple[str, ...] = ("plain", "log")
    h_names: tuple[str, ...] = ("gaussian_score",)
    episodes: int = 20000
    avg_window: int = TrainConfig.avg_window
    seed: int = 0
    lambda_by_mode: dict = field(default_factory=lambda: dict(DEFAULT_LAMBDA))
    lambdas: tuple[float, ...] = ()  # λ axis; empty means lambda_by_mode[mode]
    grad_clip: float | None = 1e3
    out_dir: str = "."

    def __post_init__(self):
        if not self.mu_list or not self.sigma_list or not self.modes or not self.h_names:
            raise ValueError("grid lists must be non-empty")
        _require_finite(self, "T", "dt", "z", "x0")
        _n_steps(self.T, self.dt)
        if missing := [m for m in self.modes if m not in self.lambda_by_mode]:
            raise ValueError(f"lambda_by_mode has no weight for mode(s): {', '.join(missing)}")

    @property
    def n_steps(self) -> int:
        return _n_steps(self.T, self.dt)

    def cells(self):
        for h_name in self.h_names:
            for mode in self.modes:
                for mu in self.mu_list:
                    for sigma in self.sigma_list:
                        yield mu, sigma, mode, h_name

    def payload(self) -> dict:
        """The fields that shape the results, under the config hash's key names."""
        return {_PAYLOAD_KEYS.get(k, k): v for k, v in vars(self).items() if k != "out_dir"}


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list_of(item_ok):
    return lambda v: isinstance(v, list) and all(map(item_ok, v))


# YAML value checks keyed by the ExperimentGrid field annotation
_GRID_VALUE_KINDS = {
    "float": (_is_real, "a number"),
    "float | None": (lambda v: v is None or _is_real(v), "a number or null"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, ...]": (_is_list_of(_is_real), "a list of numbers"),
    "tuple[str, ...]": (_is_list_of(lambda v: isinstance(v, str)), "a list of names"),
    "dict": (lambda v: isinstance(v, dict) and all(isinstance(k, str) and _is_real(x)
                                                   for k, x in v.items()),
             "a mapping of mode name to number"),
}


def grid_from_file(path: str, overrides: dict | None = None) -> ExperimentGrid:
    """ExperimentGrid from a YAML mapping; a file of the wrong shape, with an
    unknown or missing key, or a value of the wrong type raises ValueError."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from None
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ValueError(f"grid file {path} must hold a mapping of keys, "
                         f"got a {type(raw).__name__}")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    kinds = {f.name: f.type for f in fields(ExperimentGrid)}
    if unknown := set(raw) - set(kinds):
        raise ValueError(f"unknown grid key(s) in {path}: {', '.join(sorted(map(str, unknown)))}")
    if missing := [k for k in ("mu_list", "sigma_list") if k not in raw]:
        raise ValueError(f"missing grid key(s) in {path}: {', '.join(missing)}")
    for key, value in raw.items():
        ok, what = _GRID_VALUE_KINDS[kinds[key]]
        if not ok(value):
            raise ValueError(f"grid key {key} in {path} must be {what}, got {value!r}")
        if kinds[key].startswith("tuple"):
            raw[key] = tuple(value)
    return ExperimentGrid(**raw)


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", newline=""), True


def _write_csv(out_path: str | None, meta: dict, header: list[str], rows):
    fh, close = _open_out(out_path)
    try:
        fh.write("# " + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items()) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if close:
            fh.close()


def _problem(args, h_name: str) -> tuple[MarketParams, EMVSpec, float]:
    """Market, EMV spec and Lagrange multiplier of a single-run command."""
    market = MarketParams(mu=args.mu, sigma=args.sigma, r=args.r)
    spec = EMVSpec(T=args.T, lam=args.lam, z=args.z, x0=args.x0, mode=args.mode,
                   h=get_distortion(h_name))
    return market, spec, lagrange_multiplier(spec, market)


def _meta(args, seed, **extra) -> dict:
    """CSV header of a single-run command: config hash, seed, mode, h, then ``extra``."""
    return {"config_hash": config_hash(vars(args)), "seed": seed, "mode": args.mode,
            "h": args.h, **extra}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be >= 1, got {args.grid_points}")
    market, spec, w = _problem(args, args.h)
    rows = [
        ("lagrange_multiplier", "", w),
        ("value_initial", "", value(0.0, spec.x0, spec, market, w)),
        ("classical_value_initial", "", classical_solution(0.0, spec.x0, spec, market, w)[1]),
        ("exploration_cost", "", exploration_cost(spec, market)),
        ("cost_ratio", "", cost_ratio(spec, market)),
    ]
    for t in np.linspace(0.0, spec.T, args.grid_points):
        pol = optimal_policy(float(t), spec.x0, spec, market, w)
        rows.append(("policy_mean", t, pol.location))
        rows.append(("policy_scale", t, pol.scale))
    _write_csv(args.out, _meta(args, "-"), ["quantity", "t", "value"], rows)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    market, spec, w = _problem(args, args.h)
    sim = SimConfig.from_horizon(spec.T, args.n_steps, args.n_paths, args.seed)
    schedule = optimal_schedule(spec, market, w)
    xT, objectives = pathwise_objectives(schedule, spec, market, sim, w)
    est, se = mean_and_std_error(objectives)
    meta = _meta(args, args.seed, objective_estimate=est, objective_std_error=se,
                 closed_form_value=value(0.0, spec.x0, spec, market, w))
    rows = [(i, xT[i], objectives[i]) for i in range(len(xT))]
    _write_csv(args.out, meta, ["path", "terminal_wealth", "pathwise_objective"], rows)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_config(mu, sigma, r, h_name, T, dt, seed, **fields) -> tuple[TrainConfig, MarketParams]:
    """Training inputs for one cell; ``fields`` are further TrainConfig fields."""
    sim = SimConfig.from_horizon(T, _n_steps(T, dt), seed=seed)
    cfg = TrainConfig(h=get_distortion(h_name), sim=sim, **fields)
    return cfg, MarketParams(mu=mu, sigma=sigma, r=r)


def cmd_train(args) -> int:
    lam = args.lam if args.lam is not None else DEFAULT_LAMBDA[args.mode]
    cfg, market = _train_config(
        args.mu, args.sigma, args.r, args.h, args.T, args.dt, args.seed,
        episodes=args.episodes, lam=lam, mode=args.mode, z=args.z, x0=args.x0,
        avg_window=args.m, alpha=args.alpha, decay=args.decay, critic_form=args.critic_form,
        grad_clip=args.grad_clip,
    )
    try:
        log = train(cfg, market)
    except TrainingDivergedError as exc:
        print(f"choquet-emv: error: {exc}", file=sys.stderr)
        return 1
    mean, var, sharpe = log.last_window_stats()
    meta = _meta(args, args.seed, last200_mean=mean, last200_variance=var, sharpe=sharpe,
                 clip_events=log.clip_events, skipped_actions=log.skipped_actions)
    rows = []
    for j in range(log.episodes):
        rows.append((j + 1, log.terminal_wealth[j], *log.theta[j], *log.phi[j], log.w[j]))
    rows.append(("summary", mean, var, sharpe, "", "", "", "", "", ""))
    _write_csv(args.out, meta,
               ["episode", "terminal_wealth", "theta0", "theta1", "theta2",
                "phi0", "phi1", "phi2", "w"], rows)
    if log.clip_events:
        print(f"gradient clipping engaged {log.clip_events} times", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# table / figures (grid runners)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    """Outcome of training one grid cell; ``blocks`` is None if it diverged."""

    mu: float
    sigma: float
    mode: str
    h: str
    lam: float
    seed: int
    status: str
    mean: float = math.nan
    variance: float = math.nan
    sharpe: float = math.nan
    error: str = ""
    blocks: list | None = None

    def row(self, *values) -> tuple:
        """The cell's identifying CSV columns followed by ``values``."""
        return (self.mu, self.sigma, self.mode, self.h, self.lam, self.seed, self.status,
                *values)


def _cell_inputs(task) -> tuple[int, TrainConfig, MarketParams]:
    """Seed, training config and market of one grid task; bad values raise ValueError."""
    grid, mu, sigma, mode, h_name, lam = task
    seed = cell_seed(grid.seed, mu, sigma, mode, h_name)
    cfg, market = _train_config(
        mu, sigma, grid.r, h_name, grid.T, grid.dt, seed,
        episodes=grid.episodes, lam=lam, mode=mode, z=grid.z, x0=grid.x0,
        avg_window=grid.avg_window, grad_clip=grid.grad_clip,
    )
    return seed, cfg, market


def _cell_result(task, seed: int, log) -> CellResult:
    """The table and figures record of one cell's TrainLog or divergence."""
    grid, mu, sigma, mode, h_name, lam = task
    if isinstance(log, TrainingDivergedError):
        return CellResult(mu, sigma, mode, h_name, lam, seed, "diverged", error=str(log))
    mean, var, sharpe = log.last_window_stats()
    # a run that saturates the gradient clip most of the time, or whose
    # terminal-wealth mean sits orders of magnitude from the target, never
    # settled; flag it so its numbers are not read as a converged result
    settled = math.isfinite(mean) and abs(mean - grid.z) <= 10.0
    if log.clip_events > grid.episodes // 2 or not settled:
        status = f"unstable(clipped:{log.clip_events})"
    elif log.clip_events:
        status = f"ok(clipped:{log.clip_events})"
    else:
        status = "ok"
    return CellResult(mu, sigma, mode, h_name, lam, seed, status, mean, var, sharpe,
                      blocks=log.block_means().tolist())


def _run_shard(tasks) -> list[CellResult]:
    """Train a shard of grid tasks in one lockstep batch."""
    inputs = [_cell_inputs(task) for task in tasks]
    logs = train_many([cfg for _, cfg, _ in inputs], [market for _, _, market in inputs])
    return [_cell_result(task, seed, log)
            for task, (seed, _, _), log in zip(tasks, inputs, logs)]


def _run_grid(grid: ExperimentGrid, jobs: int):
    tasks = [(grid, mu, sigma, mode, h_name, lam)
             for mu, sigma, mode, h_name in grid.cells()
             for lam in grid.lambdas or [grid.lambda_by_mode[mode]]]
    # check every cell before any trains; workers rebuild the inputs from
    # names because a DistortionFn holds lambdas and does not pickle
    for task in tasks:
        _cell_inputs(task)
    # shard k trains tasks k, k + shards, ...; every cell gives the same
    # bytes whatever batch it is in, so the CSV does not depend on jobs
    shards = min(jobs, len(tasks))
    if shards == 1:
        return _run_shard(tasks)
    # the forked workers inherit scipy.special instead of each importing it
    # for its first Gaussian draw
    import scipy.special  # noqa: F401

    with ProcessPoolExecutor(max_workers=shards) as pool:
        done = list(pool.map(_run_shard, [tasks[k::shards] for k in range(shards)]))
    results = [None] * len(tasks)
    for k, shard in enumerate(done):
        results[k::shards] = shard
    return results


# per grid command: the value columns and the rows one cell writes; a cell
# without block means (diverged, or under one block long) writes block 0
_GRID_OUTPUTS = {
    "table": (["mean", "variance", "sharpe"],
              lambda r: [r.row(r.mean, r.variance, r.sharpe)]),
    "figures": (["block", "block_mean"],
                lambda r: [r.row(i + 1, bm) for i, bm in enumerate(r.blocks)]
                if r.blocks else [r.row(0, math.nan)]),
}


def cmd_grid(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    grid = grid_from_file(args.config, {"seed": args.seed, "episodes": args.episodes,
                                        "out_dir": args.out_dir})
    try:
        results = _run_grid(grid, args.jobs)
    except BrokenProcessPool as exc:  # a worker was killed or exited
        print(f"choquet-emv: error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        if r.error:
            print(f"choquet-emv: cell (mu={r.mu}, sigma={r.sigma}, mode={r.mode}, h={r.h}, "
                  f"lambda={r.lam}) diverged: {r.error}", file=sys.stderr)
    columns, cell_rows = _GRID_OUTPUTS[args.cmd]
    meta = {"config_hash": config_hash(grid.payload() | {"cmd": args.cmd}),
            "seed": grid.seed, "mode": ",".join(grid.modes)}
    _write_csv(_out_path(args, grid), meta,
               ["mu", "sigma", "mode", "h", "lambda", "cell_seed", "status", *columns],
               [row for r in results for row in cell_rows(r)])
    return 0


def cmd_trajectory(args) -> int:
    rows = []
    for h_name in args.h.split(","):
        market, spec, w = _problem(args, h_name.strip())
        sim = SimConfig.from_horizon(spec.T, args.n_steps, 1, args.seed)
        (eta,), (increments,) = episode_draws(spec.h, market, sim, 0)
        times = sim.times()[:-1]
        states, actions = rollout(spec.x0, w, -(market.rho / market.sigma),
                                  optimal_scale(times, spec, market), eta, market.sigma,
                                  increments)
        rows.extend((h_name.strip(), t, u, x) for t, u, x in zip(times, actions, states))
    _write_csv(args.out, _meta(args, args.seed), ["h", "t", "action", "wealth"], rows)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _out_path(args, grid: ExperimentGrid) -> str | None:
    if args.out is not None:
        return args.out
    if grid.out_dir in (".", ""):
        return None  # stdout
    return os.path.join(grid.out_dir, f"{args.cmd}.csv")


def _add_market_args(p: argparse.ArgumentParser, lam: float | None = 0.01):
    p.add_argument("--mu", type=float, default=0.1)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--r", type=float, default=0.02)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--z", type=float, default=1.4)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--mode", choices=MODES, default="plain")
    p.add_argument("--h", default="gaussian_score")
    p.add_argument("--lambda", dest="lam", type=float, default=lam,
                   help=None if lam is not None else "default 0.01 (plain) or 0.1 (log)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="choquet-emv",
                                     description="Choquet-regularized exploratory "
                                                 "mean-variance toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="closed-form report for one market")
    _add_market_args(p)
    p.add_argument("--grid-points", type=int, default=11)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo paths under the optimal schedule")
    _add_market_args(p)
    p.add_argument("--n-paths", type=int, default=10000)
    p.add_argument("--n-steps", type=int, default=252)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="run the actor-critic trainer once")
    _add_market_args(p, lam=None)
    p.add_argument("--dt", type=float, default=1.0 / 252.0)
    p.add_argument("--episodes", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=TrainConfig.avg_window,
                   help="terminal-wealth averaging window")
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    p.add_argument("--decay", type=float, default=TrainConfig.decay)
    p.add_argument("--critic-form", choices=CRITIC_FORMS, default=TrainConfig.critic_form)
    p.add_argument("--grad-clip", type=float, default=TrainConfig.grad_clip)
    p.set_defaults(fn=cmd_train)

    for name, hlp in (("table", "summary statistics per grid cell"),
                      ("figures", "terminal-wealth block means per cell")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", required=True, help="YAML grid description")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--out-dir", default=None)
        p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("trajectory", help="one seeded action path per distortion")
    _add_market_args(p)
    p.add_argument("--n-steps", type=int, default=252)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_trajectory)

    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # stop quietly, as a filter that SIGPIPE ends does; stdout goes to
        # devnull so the interpreter's exit-time flush fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # 128 + SIGPIPE
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # a KeyError's str() quotes its message, so print the message itself;
        # a bare MemoryError has none, so print its name
        message = (exc.args[0] if isinstance(exc, KeyError) and exc.args
                   else str(exc) or type(exc).__name__)
        print(f"choquet-emv: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
