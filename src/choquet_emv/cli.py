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
    optimal_feedback,
    optimal_policy,
    optimal_schedule,
    value,
)
from .distortion import get_distortion
from .market import SimConfig, fork_map, mean_and_std_error, pathwise_objectives, wealth_recurrence
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
    payload = {k: v for k, v in payload.items() if k not in ("fn", "out")}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def cell_seed(base_seed: int, mu: float, sigma: float, mode: str, h_name: str) -> int:
    blob = f"{base_seed}|{mu!r}|{sigma!r}|{mode}|{h_name}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def _n_steps(T: float, dt: float) -> int:
    """Number of dt steps covering [0, T]; dt must divide T."""
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"T and dt must be finite and positive, got T={T}, dt={dt}")
    if not math.isfinite(T / dt):
        raise ValueError(f"dt={dt} is too small for T={T}: T / dt overflows a float")
    n = round(T / dt)
    if abs(n * dt - T) > 1e-9 * T:
        raise ValueError(f"dt={dt} does not divide T={T}")
    return n


@dataclass(frozen=True)
class ExperimentGrid:
    """A sweep over (mu, sigma, mode, h, lambda) cells.  Every key is checked
    and stored here, for a grid read from a file and one built in Python alike."""

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

    def __post_init__(self):
        for f in fields(self):
            ok, what, stored = _GRID_VALUE_KINDS[f.type]
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"grid key {f.name} must be {what}, got {value!r}")
            try:
                object.__setattr__(self, f.name, stored(value))
            except OverflowError:
                raise ValueError(f"grid key {f.name} holds an integer too large "
                                 f"for a float") from None
        if not self.mu_list or not self.sigma_list or not self.modes or not self.h_names:
            raise ValueError("grid lists must be non-empty")
        _require_finite(self, "T", "dt", "z", "x0")
        _n_steps(self.T, self.dt)
        # a lambdas axis sets every cell's weight, and lambda_by_mode goes unread
        if not self.lambdas and (missing := [m for m in self.modes
                                             if m not in self.lambda_by_mode]):
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
        """The fields that shape the results, under the config hash's key
        names: every field but lambda_by_mode when a lambdas axis leaves it unread."""
        return {_PAYLOAD_KEYS.get(k, k): v for k, v in vars(self).items()
                if not (k == "lambda_by_mode" and self.lambdas)}


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list_of(item_ok):
    return lambda v: isinstance(v, (list, tuple)) and all(map(item_ok, v))


# grid value checks keyed by the ExperimentGrid field annotation, and the
# value each kind stores: every number of a float field as a float, so a
# grid hashes and seeds the same whether it writes 1 or 1.0, in a file or
# in Python
_GRID_VALUE_KINDS = {
    "float": (_is_real, "a number", float),
    "float | None": (lambda v: v is None or _is_real(v), "a number or null",
                     lambda v: v if v is None else float(v)),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", int),
    "tuple[float, ...]": (_is_list_of(_is_real), "a list of numbers",
                          lambda v: tuple(map(float, v))),
    "tuple[str, ...]": (_is_list_of(lambda v: isinstance(v, str)), "a list of names", tuple),
    "dict": (lambda v: isinstance(v, dict) and all(isinstance(k, str) and _is_real(x)
                                                   for k, x in v.items()),
             "a mapping of mode name to number", lambda v: {k: float(x) for k, x in v.items()}),
}


def grid_from_file(path: str, overrides: dict | None = None) -> ExperimentGrid:
    """ExperimentGrid from a YAML mapping; a file of the wrong shape, with an
    unknown or missing key, or a value the grid refuses raises ValueError."""
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
    if unknown := set(raw) - {f.name for f in fields(ExperimentGrid)}:
        raise ValueError(f"unknown grid key(s) in {path}: {', '.join(sorted(map(str, unknown)))}")
    if missing := [k for k in ("mu_list", "sigma_list") if k not in raw]:
        raise ValueError(f"missing grid key(s) in {path}: {', '.join(missing)}")
    try:
        return ExperimentGrid(**raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    """Market, EMV spec and Lagrange multiplier of a closed-form command."""
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


def cmd_solve(args):
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
    # log mode overflows to inf through numpy and math, without an error
    if bad := next((row for row in rows if not math.isfinite(row[2])), None):
        at = "" if isinstance(bad[1], str) else f" at t={_fmt(bad[1])}"
        raise FloatingPointError(f"{bad[0]}{at} turned non-finite: {bad[2]}")
    _write_csv(args.out, _meta(args, "-"), ["quantity", "t", "value"], rows)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    market, spec, w = _problem(args, args.h)
    sim = SimConfig.from_horizon(spec.T, args.n_steps, args.n_paths, args.seed)
    schedule = optimal_schedule(spec, market, w)
    xT, objectives = pathwise_objectives(schedule, spec, market, sim, w)
    # a path whose wealth turns non-finite has a non-finite objective too
    if bad := np.count_nonzero(~np.isfinite(objectives)):
        raise FloatingPointError(f"{bad} of {len(xT)} simulated paths turned non-finite")
    est, se = mean_and_std_error(objectives)
    meta = _meta(args, args.seed, objective_estimate=est, objective_std_error=se,
                 closed_form_value=value(0.0, spec.x0, spec, market, w))
    rows = [(i, xT[i], objectives[i]) for i in range(len(xT))]
    _write_csv(args.out, meta, ["path", "terminal_wealth", "pathwise_objective"], rows)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_config(mu, sigma, r, h_name, T, dt, seed, **fields) -> tuple[TrainConfig, MarketParams]:
    """Training inputs for one cell; ``fields`` are further TrainConfig fields."""
    sim = SimConfig.from_horizon(T, _n_steps(T, dt), seed=seed)
    cfg = TrainConfig(h=get_distortion(h_name), sim=sim, **fields)
    return cfg, MarketParams(mu=mu, sigma=sigma, r=r)


def cmd_train(args):
    cfg, market = _train_config(
        args.mu, args.sigma, args.r, args.h, args.T, args.dt, args.seed,
        episodes=args.episodes, lam=args.lam, mode=args.mode, z=args.z, x0=args.x0,
        avg_window=args.m, alpha=args.alpha, decay=args.decay, critic_form=args.critic_form,
        grad_clip=args.grad_clip,
    )
    log = train(cfg, market)
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


# ---------------------------------------------------------------------------
# table / figures (grid runners)
# ---------------------------------------------------------------------------


def _grid_cells(grid: ExperimentGrid) -> list[tuple]:
    """Each cell's naming CSV columns (mu, sigma, mode, h, lambda, cell_seed), in row order."""
    return [(mu, sigma, mode, h_name, lam, cell_seed(grid.seed, mu, sigma, mode, h_name))
            for mu, sigma, mode, h_name in grid.cells()
            for lam in grid.lambdas or [grid.lambda_by_mode[mode]]]


def _cell_label(cell) -> str:
    """A grid cell as the error lines name it."""
    mu, sigma, mode, h_name, lam, _ = cell
    return f"cell (mu={mu}, sigma={sigma}, mode={mode}, h={h_name}, lambda={lam})"


def _cell_inputs(grid: ExperimentGrid, cell, path: str) -> tuple[TrainConfig, MarketParams]:
    """Training config and market of one cell of the grid read from ``path``;
    a value the cell refuses raises ValueError naming the file and the cell."""
    mu, sigma, mode, h_name, lam, seed = cell
    try:
        return _train_config(
            mu, sigma, grid.r, h_name, grid.T, grid.dt, seed,
            episodes=grid.episodes, lam=lam, mode=mode, z=grid.z, x0=grid.x0,
            avg_window=grid.avg_window, grad_clip=grid.grad_clip,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {_cell_label(cell)}: {exc}") from None


def _outcome(grid: ExperimentGrid, log) -> tuple:
    """(status, (mean, variance, sharpe), block means, error) of one cell's
    TrainLog or divergence; a diverged cell has no block means."""
    if isinstance(log, TrainingDivergedError):
        return "diverged", (math.nan,) * 3, [], str(log)
    stats = log.last_window_stats()
    # a run that saturates the gradient clip most of the time, or whose
    # terminal-wealth mean sits orders of magnitude from the target, never
    # settled; flag it so its numbers are not read as a converged result
    settled = math.isfinite(stats[0]) and abs(stats[0] - grid.z) <= 10.0
    if log.clip_events > grid.episodes // 2 or not settled:
        status = f"unstable(clipped:{log.clip_events})"
    elif log.clip_events:
        status = f"ok(clipped:{log.clip_events})"
    else:
        status = "ok"
    return status, stats, log.block_means().tolist(), ""


def _run_shard(shard) -> list[tuple]:
    """Outcomes of a shard, a grid and its cells' ``_cell_inputs``, trained as one batch."""
    grid, inputs = shard
    logs = train_many([cfg for cfg, _ in inputs], [market for _, market in inputs])
    return [_outcome(grid, log) for log in logs]


def _run_grid(grid: ExperimentGrid, jobs: int, path: str) -> list[tuple]:
    """(cell, outcome) of every cell of the grid read from ``path``, in row order."""
    cells = _grid_cells(grid)
    inputs = [_cell_inputs(grid, cell, path) for cell in cells]  # all checked before any trains
    # shard k trains cells k, k + shards, ...; every cell gives the same
    # bytes whatever batch it is in, so the CSV does not depend on jobs
    shards = min(jobs, len(cells))
    # the forked workers inherit scipy.special instead of each importing it
    # for its first Gaussian draw; one shard forks none and loads it on demand
    if shards > 1:
        import scipy.special  # noqa: F401

    done = fork_map(_run_shard, [(grid, inputs[k::shards]) for k in range(shards)])
    outcomes = [None] * len(cells)
    for k, shard in enumerate(done):
        outcomes[k::shards] = shard
    return list(zip(cells, outcomes))


# per grid command: the value columns and a cell's value rows from its
# (stats, blocks); a cell without block means (diverged, or under one
# block long) writes block 0
_GRID_OUTPUTS = {
    "table": (["mean", "variance", "sharpe"], lambda stats, blocks: [stats]),
    "figures": (["block", "block_mean"],
                lambda stats, blocks: list(enumerate(blocks, 1)) or [(0, math.nan)]),
}


def cmd_grid(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    grid = grid_from_file(args.config, {"seed": args.seed, "episodes": args.episodes})
    columns, value_rows = _GRID_OUTPUTS[args.cmd]
    rows = []
    for cell, (status, stats, blocks, error) in _run_grid(grid, args.jobs, args.config):
        if error:
            print(f"choquet-emv: {_cell_label(cell)} diverged: {error}", file=sys.stderr)
        rows += [(*cell, status, *values) for values in value_rows(stats, blocks)]
    meta = {"config_hash": config_hash(grid.payload() | {"cmd": args.cmd}),
            "seed": grid.seed, "mode": ",".join(grid.modes)}
    _write_csv(args.out, meta,
               ["mu", "sigma", "mode", "h", "lambda", "cell_seed", "status", *columns], rows)


def cmd_trajectory(args):
    names = [name.strip() for name in args.h.split(",")]
    args.h = ",".join(names)  # the header hashes the stripped names
    rows = []
    for h_name in names:
        market, spec, w = _problem(args, h_name)
        sim = SimConfig.from_horizon(spec.T, args.n_steps, 1, args.seed)
        eta, increments = episode_draws(spec.h, market, sim, 0)
        times = sim.times()[:-1]
        fb = optimal_feedback(spec, market)
        # the scale, the wealth and the action overflow to inf/nan silently
        with np.errstate(over="ignore", invalid="ignore"):
            explore = fb.scale(spec.T - times) * eta
            (states,) = wealth_recurrence([spec.x0], [w], [fb.mean_coef], [market.sigma],
                                          explore, increments)
            actions = fb.mean_coef * (states[:-1] - w) + explore[0]
        finite = np.isfinite(actions) & np.isfinite(states[:-1])
        if not finite.all():
            raise FloatingPointError(f"the {h_name} trajectory turned non-finite at "
                                     f"t={_fmt(times[np.argmin(finite)])}")
        rows.extend((h_name, t, u, x) for t, u, x in zip(times, actions, states))
    _write_csv(args.out, _meta(args, args.seed), ["h", "t", "action", "wealth"], rows)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_market_args(p: argparse.ArgumentParser):
    p.add_argument("--mu", type=float, default=0.1)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--r", type=float, default=0.02)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--z", type=float, default=1.4)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--mode", choices=MODES, default="plain")
    p.add_argument("--h", default="gaussian_score")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="default " + " or ".join(f"{v} ({m})" for m, v in DEFAULT_LAMBDA.items()))
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
    _add_market_args(p)
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
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("trajectory", help="one seeded action path per distortion")
    _add_market_args(p)
    p.add_argument("--n-steps", type=int, default=252)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_trajectory)

    args = parser.parse_args(argv)
    if getattr(args, "lam", 0.0) is None:  # the header hashes the weight used
        args.lam = DEFAULT_LAMBDA[args.mode]
    # a command returns nothing or raises; only here does an outcome become
    # an exit status and an error line
    try:
        args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # stop quietly, as a filter that SIGPIPE ends does; stdout goes to
        # devnull so the interpreter's exit-time flush fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # 128 + SIGPIPE
    except (FloatingPointError, TrainingDivergedError) as exc:
        # a result turned non-finite, or training diverged
        status, message = 1, str(exc)
    except (ValueError, OSError, MemoryError) as exc:
        # a bad input; a bare MemoryError has no message, so print its name
        status, message = 2, str(exc) or type(exc).__name__
    except OverflowError:
        # a Python-float ** raises this where numpy would return inf
        status, message = 2, "a result overflows a float"
    print(f"choquet-emv: error: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
