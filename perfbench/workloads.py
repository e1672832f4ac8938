"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed (the set-up), runs a
unit of work through the package's public API or its CLI, checks the
outputs against the acceptance suite's thresholds, and, in a traced run,
reports per-layer metrics from spans recorded around the calls into each
package module.  README.md in this directory says why each workload exists
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import choquet_emv.cli as cli  # noqa: E402
import choquet_emv.closedform as cf  # noqa: E402
import choquet_emv.distortion as dist  # noqa: E402
import choquet_emv.market as market  # noqa: E402
import choquet_emv.quadrature as quadrature  # noqa: E402
import choquet_emv.rl as rl  # noqa: E402
from spans import Tracer  # noqa: E402

# input sizes; TINY is what the benchmark's own tests run
SIZES = {
    "train_cell": {"episodes": 5000, "reference_episodes": 20000},
    "mc_simulate": {"n_paths": 100_000, "n_steps": 252},
    "study_grid": {"episodes": 3000, "jobs": 2, "mu_list": [-0.5, 0.3],
                   "h_names": ["gaussian_score", "entropy_like", "gini"]},
    "closed_form": {"batches_per_unit": 150},
}
TINY = {
    "train_cell": {"episodes": 30, "reference_episodes": 60},
    "mc_simulate": {"n_paths": 400, "n_steps": 20},
    "study_grid": {"episodes": 20, "jobs": 2, "mu_list": [-0.5, 0.3],
                   "h_names": ["gaussian_score", "entropy_like", "gini"]},
    "closed_form": {"batches_per_unit": 2},
}

PER_LAYER_UNITS = {
    "market.path_stream.calls": "count",
    "market.path_stream.s": "s",
    "market.pathwise_objectives.self_s": "s",
    "closedform.schedule.calls": "count",
    "closedform.schedule.s": "s",
    **{f"closedform.{fn}.{kind}": unit
       for fn in ("lagrange_multiplier", "value", "hjb_residual", "policy_iteration",
                  "exploration_cost_by_quadrature")
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "distortion.custom_distortion.s": "s",
    "distortion.regularizer_of_quantile.calls": "count",
    "distortion.regularizer_of_quantile.s": "s",
    "distortion.quantile_moments.s": "s",
    "quadrature.integrate_01.calls": "count",
    "quadrature.integrate_01.s": "s",
    "quadrature.rule_build_s": "s",
    "policy.standardized_draw.calls": "count",
    "policy.standardized_draw.s": "s",
    "policy.log_density_grad_fields.calls": "count",
    "policy.log_density_grad_fields.s": "s",
    "rl.train.self_s": "s",
    "rl.episode_gradients.calls": "count",
    "rl.episode_gradients.self_s": "s",
    "rl.critic.s": "s",
    "rl.in_support_share": "ratio",
    "rl.clip_share": "ratio",
    "rl.diverged_cells": "count",
    "rl.unstable_cells": "count",
    "cli.cell_s.p50": "s",
    "cli.cell_s.max": "s",
    "cli.self_s": "s",
    "cli.pool_efficiency": "ratio",
    "trace.overhead_share": "ratio",
}

# closed forms timed by the closed_form workload, traced as closedform.<fn>
CLOSEDFORM_FNS = ("lagrange_multiplier", "value", "hjb_residual", "policy_iteration",
                  "exploration_cost_by_quadrature")


# The speed of a shared virtual host drifts by up to half over tens of
# seconds, for this program and any other.  Each timed interval is therefore
# bracketed by a fixed pure-Python probe and also expressed in reference
# seconds: wall seconds x PROBE_REFERENCE_S / (mean probe time around it).
PROBE_ROUNDS, PROBE_ITERATIONS = 5, 60_000
PROBE_REFERENCE_S = 0.005  # the probe's usual time on the reference host (README)


def machine_probe() -> float:
    """Seconds the host takes right now for a fixed pure-Python loop: the
    median of a few rounds, so that one preempted round does not count."""
    rounds = []
    for _ in range(PROBE_ROUNDS):
        t = perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i
        rounds.append(perf_counter() - t)
    return statistics.median(rounds)


def probed(fn):
    """Run ``fn`` between two probes: (result, wall seconds, reference seconds)."""
    before = machine_probe()
    t = perf_counter()
    result = fn()
    wall = perf_counter() - t
    after = machine_probe()
    return result, wall, wall * 2.0 * PROBE_REFERENCE_S / (before + after)


@dataclass
class Outcome:
    """What one run of a workload measured and found."""

    walls: list[float]  # wall seconds per timed unit
    ref_walls: list[float]  # the same in reference seconds
    work_per_unit: float  # episodes, path-steps or reports in one unit
    attempted: int
    failed: int
    completed_share: float
    failures: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def work_per_s(self) -> float:
        """Work per reference second, from the median unit."""
        return self.work_per_unit / statistics.median(self.ref_walls)

    @property
    def work_per_wall_s(self) -> float:
        return self.work_per_unit / statistics.median(self.walls)


def timed_units(unit, seconds: float, min_units: int):
    """Run ``unit`` at least ``min_units`` times, and again while another unit
    as long as the last one still ends within ``seconds``.

    Returns wall and reference seconds per unit, and the first and last outputs.
    """
    walls, ref_walls, first, last = [], [], None, None
    start = perf_counter()
    while len(walls) < min_units or perf_counter() - start + walls[-1] <= seconds:
        last, wall, ref = probed(unit)
        walls.append(wall)
        ref_walls.append(ref)
        if first is None:
            first = last
    return walls, ref_walls, first, last


# ---------------------------------------------------------------------------
# tracing: one set of wrappers for every workload, so idle layers read 0
# ---------------------------------------------------------------------------


def install_wrappers(tr: Tracer) -> None:
    """Wrap the public functions each package module calls in another one."""
    train_state = {"cell": "", "n_steps": 0}

    def start_train(args):
        tr.counters["trainings"] += 1
        train_state["cell"] = f"cell{int(tr.counters['trainings'])}"
        train_state["n_steps"] = args[0].sim.n_steps
        tr.group = train_state["cell"]

    def end_train(log):
        tr.counters["episodes"] += log.episodes
        tr.counters["actions"] += log.episodes * train_state["n_steps"]
        tr.counters["skipped_actions"] += log.skipped_actions
        tr.counters["clip_events"] += log.clip_events

    def start_episode(args):
        tr.group = f"{train_state['cell']}/ep{args[1]}"

    tr.patch(cli, "main", "cli.main")
    tr.patch(cli, "train", "rl.train", start_train, end_train)
    tr.patch(rl, "train", "rl.train", start_train, end_train)
    tr.patch(rl, "path_stream", "market.path_stream", start_episode)
    tr.patch(rl, "standardized_draw", "policy.standardized_draw")
    tr.patch(rl, "log_density_grad_fields", "policy.log_density_grad_fields")
    tr.patch(rl, "episode_gradients", "rl.episode_gradients")
    tr.patch(rl, "critic_value", "rl.critic_value")
    tr.patch(rl, "critic_grad", "rl.critic_grad")
    tr.patch(market, "path_stream", "market.path_stream")
    tr.patch(market, "pathwise_objectives", "market.pathwise_objectives")
    for fn in CLOSEDFORM_FNS:
        tr.patch(cf, fn, f"closedform.{fn}")
    for fn in ("custom_distortion", "regularizer_of_quantile", "quantile_moments"):
        tr.patch(dist, fn, f"distortion.{fn}")
    tr.patch(dist, "integrate_01", "quadrature.integrate_01")

    # the rules are lru-cached: time only the calls that build one
    def timing_builds(rule):
        def wrapper(*args, **kwargs):
            misses = rule.cache_info().misses
            t = perf_counter()
            out = rule(*args, **kwargs)
            if rule.cache_info().misses > misses:
                tr.counters["rule_build_s"] += perf_counter() - t
            return out
        return wrapper

    for rule in (quadrature.gauss_legendre_01, quadrature.tanh_sinh_01):
        rule.cache_clear()
        for module in (dist, cf):
            if getattr(module, rule.__name__, None) is rule:
                tr.replace(module, rule.__name__, timing_builds(rule))


def layer_metrics(tr: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer metrics from a traced run; ``extra`` supplies run-level ones."""
    # a name ending in .calls, .s (unit s) or .self_s aggregates the spans
    # named by its prefix; the others are set one by one below
    m = {}
    for name, unit in PER_LAYER_UNITS.items():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = tr.calls(base)
        elif kind == "s" and unit == "s":
            m[name] = tr.total_s(base)
        elif kind == "self_s":
            m[name] = tr.self_s(base)
    m["rl.critic.s"] = tr.total_s("rl.critic_value") + tr.total_s("rl.critic_grad")
    m["quadrature.rule_build_s"] = tr.counters["rule_build_s"]
    c = tr.counters
    m["rl.in_support_share"] = 1.0 - c["skipped_actions"] / c["actions"] if c["actions"] else 0.0
    m["rl.clip_share"] = c["clip_events"] / (2.0 * c["episodes"]) if c["episodes"] else 0.0
    cells = tr.durations("rl.train") if tr.calls("cli.main") else []
    m["cli.cell_s.p50"] = statistics.median(cells) if cells else 0.0
    m["cli.cell_s.max"] = max(cells) if cells else 0.0
    m["cli.self_s"] = tr.self_s("cli.main")
    m.update({"rl.diverged_cells": 0, "rl.unstable_cells": 0, "cli.pool_efficiency": 0.0})
    m.update(extra)
    missing = set(PER_LAYER_UNITS) - set(m)
    assert not missing, f"per-layer metrics not computed: {sorted(missing)}"
    return m


def traced_pair(untraced_unit, traced_unit):
    """Run one unit untraced, then one traced.

    Returns (untraced output, its wall and reference seconds, tracer, traced
    output, tracing overhead: traced / untraced reference seconds - 1).
    """
    plain, wall, ref = probed(untraced_unit)
    with Tracer() as tr:
        install_wrappers(tr)
        traced, _, traced_ref = probed(lambda: traced_unit(tr))
    return plain, wall, ref, tr, traced, traced_ref / ref - 1.0


# ---------------------------------------------------------------------------
# train_cell: one rl.train run on the criterion-9 reference cell
# ---------------------------------------------------------------------------

REFERENCE_EPISODES = 20000
REFERENCE_MEAN, MEAN_TOLERANCE = 1.4052, 0.03  # criterion 9, cell (-0.5, 0.1)


class TrainCell:
    op = "train.episodes_per_s"

    def __init__(self, seed: int, sizes: dict, out_dir: Path):
        self.config = rl.TrainConfig(
            episodes=sizes["episodes"], h=dist.get_distortion("gaussian_score"), lam=0.01,
            mode="plain", sim=market.SimConfig.from_horizon(1.0, 252, seed=seed),
            z=1.4, x0=1.0)
        self.reference = replace(self.config, episodes=sizes["reference_episodes"])
        self.market = cf.MarketParams(mu=-0.5, sigma=0.1, r=0.02)
        self.inputs = {"episodes": sizes["episodes"], "n_steps": 252, "train_seed": seed,
                       "reference_episodes": sizes["reference_episodes"]}

    def unit(self, config=None):
        try:
            return rl.train(config or self.config, self.market)
        except rl.TrainingDivergedError as exc:
            return exc

    def run(self, seconds: float) -> Outcome:
        walls, ref_walls, first, last = timed_units(self.unit, seconds, min_units=2)
        return self._outcome([first, last], len(walls), walls, ref_walls)

    def run_traced(self) -> Outcome:
        plain, wall, ref, tr, traced, overhead = traced_pair(self.unit, lambda tr: self.unit())
        out = self._outcome([plain, traced], 2, [wall], [ref])
        out.tracer = tr
        out.layers = layer_metrics(tr, {"rl.diverged_cells": int(isinstance(traced, Exception)),
                                        "trace.overhead_share": overhead})
        return out

    def _outcome(self, logs, runs: int, walls, ref_walls) -> Outcome:
        # outside the timed part: the reference-length run that criterion 9
        # judges, which must open with exactly the timed runs' episodes
        reference = self.unit(self.reference)
        # runs of one seed are deterministic: one diverges only if all do
        diverged = isinstance(logs[0], Exception)
        return Outcome(walls, ref_walls, work_per_unit=self.config.episodes, attempted=runs,
                       failed=runs * diverged, completed_share=1.0 - diverged,
                       failures=check_train(logs, reference))


def check_train(logs, reference) -> list[str]:
    """Every run of one seed replays the same episodes bitwise, and a
    20000-episode reference run meets criterion 9."""
    failures = [f"training run diverged: {log}"
                for log in [*logs, reference] if isinstance(log, Exception)]
    if failures:
        return failures
    first, n = logs[0], logs[0].episodes
    for log in [*logs[1:], reference]:
        same = all(np.array_equal(getattr(first, k), getattr(log, k)[:n])
                   for k in ("terminal_wealth", "theta", "phi", "w"))
        if log is not reference:
            same = same and (first.skipped_actions, first.clip_events) == (
                log.skipped_actions, log.clip_events)
        if not same:
            failures.append(f"the {log.episodes}-episode TrainLog differs from the first "
                            f"{n} episodes of another run of the same seed")
    if reference.episodes == REFERENCE_EPISODES:
        mean, _, _ = reference.last_window_stats()
        if not abs(mean - REFERENCE_MEAN) <= MEAN_TOLERANCE:
            failures.append(f"last-200 mean {mean:.4f} not within {MEAN_TOLERANCE} "
                            f"of {REFERENCE_MEAN}")
    return failures


# ---------------------------------------------------------------------------
# mc_simulate: pathwise objectives under the optimal schedule
# ---------------------------------------------------------------------------


class McSimulate:
    op = "mc.path_steps_per_s"

    def __init__(self, seed: int, sizes: dict, out_dir: Path):
        h = dist.get_distortion("gaussian_score")
        self.spec = cf.EMVSpec(T=1.0, lam=0.01, z=1.4, x0=1.0, mode="plain", h=h)
        self.market = cf.MarketParams(mu=0.1, sigma=0.2, r=0.02)
        self.w = cf.lagrange_multiplier(self.spec, self.market)
        self.sim = market.SimConfig.from_horizon(1.0, sizes["n_steps"], sizes["n_paths"], seed)
        self.schedule = cf.optimal_schedule(self.spec, self.market, self.w)
        self.inputs = {"n_paths": sizes["n_paths"], "n_steps": sizes["n_steps"], "sim_seed": seed}

    def unit(self, schedule=None):
        return market.pathwise_objectives(schedule or self.schedule, self.spec, self.market,
                                          self.sim, self.w)

    def run(self, seconds: float) -> Outcome:
        walls, ref_walls, first, last = timed_units(self.unit, seconds, min_units=1)
        return self._outcome([first, last], len(walls), walls, ref_walls)

    def run_traced(self) -> Outcome:
        def traced_unit(tr):
            tr.group = "unit0"
            return self.unit(tr.wrap_fn(self.schedule, "closedform.schedule"))

        plain, wall, ref, tr, traced, overhead = traced_pair(self.unit, traced_unit)
        out = self._outcome([plain, traced], 2, [wall], [ref])
        out.tracer = tr
        out.layers = layer_metrics(tr, {"trace.overhead_share": overhead})
        return out

    def _outcome(self, outputs, runs: int, walls, ref_walls) -> Outcome:
        xs, vals = outputs[0]
        bad = int(np.count_nonzero(~(np.isfinite(xs) & np.isfinite(vals))))
        closed = cf.value(0.0, self.spec.x0, self.spec, self.market, self.w)
        mean_wealth = float(cf.expected_wealth(self.spec.T, self.spec, self.market, self.w))
        return Outcome(walls, ref_walls, work_per_unit=self.sim.n_paths * self.sim.n_steps,
                       attempted=self.sim.n_paths * runs, failed=bad * runs,
                       completed_share=1.0 - bad / self.sim.n_paths,
                       failures=check_mc(outputs, closed, mean_wealth))


def check_mc(outputs, closed_value: float, expected_terminal: float) -> list[str]:
    """Criterion 10's 4-SE gates on the objective and on the mean wealth."""
    xs, vals = outputs[0]
    failures = []
    n = len(vals)
    for label, sample, target in (("objective", vals, closed_value),
                                  ("terminal wealth", xs, expected_terminal)):
        se = float(np.std(sample, ddof=1)) / math.sqrt(n)
        dev = abs(float(np.mean(sample)) - target)
        if not dev <= 4.0 * se:
            failures.append(f"{label} mean {np.mean(sample):.6g} is {dev / se:.2f} SE "
                            f"from {target:.6g} (limit 4)")
    for xs2, vals2 in outputs[1:]:
        if not (np.array_equal(xs, xs2) and np.array_equal(vals, vals2)):
            failures.append("paths differ between repeats of one seed")
    return failures


# ---------------------------------------------------------------------------
# study_grid: `choquet-emv table` through cli.main on a generated grid
# ---------------------------------------------------------------------------

GRID_SEED = 20240801


class StudyGrid:
    op = "grid.episodes_per_s"

    def __init__(self, seed: int, sizes: dict, out_dir: Path):
        self.jobs = sizes["jobs"]
        self.out_dir = out_dir
        self.stem = f"study_grid-seed{seed}"
        grid = {
            "mu_list": sizes["mu_list"], "sigma_list": [0.1], "r": 0.02, "T": 1.0,
            "dt": 1.0 / 252.0, "z": 1.4, "x0": 1.0, "modes": ["plain", "log"],
            "h_names": sizes["h_names"], "episodes": sizes["episodes"], "avg_window": 10,
            "seed": GRID_SEED + seed, "lambda_by_mode": {"plain": 0.01, "log": 0.1},
            "grad_clip": 1000.0,
        }
        self.config_path = out_dir / f"{self.stem}.yaml"
        self.config_path.write_text(yaml.safe_dump(grid))
        self.grid = cli.grid_from_file(str(self.config_path))
        self.cells = list(self.grid.cells())
        self.inputs = {"cells": len(self.cells), "episodes": sizes["episodes"],
                       "jobs": self.jobs, "grid_seed": GRID_SEED + seed}

    def unit(self, jobs: int, tag: str = "timed") -> bytes:
        out = self.out_dir / f"{self.stem}-{tag}.csv"
        code = cli.main(["table", "--config", str(self.config_path), "--jobs", str(jobs),
                         "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"choquet-emv table exited with {code}")
        return out.read_bytes()

    def run(self, seconds: float) -> Outcome:
        walls, ref_walls, first, last = timed_units(lambda: self.unit(self.jobs), seconds,
                                                    min_units=2)
        return self._outcome([first, last], len(walls), walls, ref_walls)

    def run_traced(self) -> Outcome:
        pooled, pooled_wall, pooled_ref = probed(lambda: self.unit(self.jobs, "pooled"))
        # spans in pool workers are lost, so the traced run is serial
        serial, _, serial_ref, tr, traced, overhead = traced_pair(
            lambda: self.unit(1, "serial"), lambda tr: self.unit(1, "traced"))
        out = self._outcome([pooled, serial, traced], 3, [pooled_wall], [pooled_ref])
        out.tracer = tr
        rows = parse_table(pooled)
        out.layers = layer_metrics(tr, {
            "rl.diverged_cells": sum(r["status"] == "diverged" for r in rows),
            "rl.unstable_cells": sum(r["status"].startswith("unstable") for r in rows),
            # the serial run's time is the summed per-cell train time plus
            # cli.self_s; reference seconds keep host drift between the runs out
            "cli.pool_efficiency": serial_ref / (self.jobs * pooled_ref),
            "trace.overhead_share": overhead})
        return out

    def _outcome(self, csvs, runs: int, walls, ref_walls) -> Outcome:
        failures = check_grid(csvs, self.cells)
        executed, diverged = 0, 0
        if not failures:
            executed, diverged, replay_failures = self.executed_episodes(parse_table(csvs[0]))
            failures += replay_failures
        return Outcome(walls, ref_walls, work_per_unit=executed,
                       attempted=len(self.cells) * runs, failed=0,
                       completed_share=1.0 - diverged / len(self.cells), failures=failures)

    def executed_episodes(self, rows):
        """Episodes the table actually ran; a diverged cell is replayed in process
        to read the episode at which it stopped."""
        g = self.grid
        executed, diverged, failures = 0, 0, []
        for r in rows:
            if r["status"] != "diverged":
                executed += g.episodes
                continue
            diverged += 1
            config = rl.TrainConfig(
                episodes=g.episodes, h=dist.get_distortion(r["h"]), lam=float(r["lambda"]),
                mode=r["mode"], sim=market.SimConfig.from_horizon(g.T, g.n_steps,
                                                                  seed=int(r["cell_seed"])),
                z=g.z, x0=g.x0, avg_window=g.avg_window, grad_clip=g.grad_clip)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    rl.train(config, cf.MarketParams(float(r["mu"]), float(r["sigma"]), g.r))
            except rl.TrainingDivergedError as exc:
                executed += exc.episode
            else:
                failures.append(f"diverged cell {r['mu']},{r['mode']},{r['h']} "
                                "ran to the end when replayed")
        return executed, diverged, failures


def parse_table(blob: bytes) -> list[dict]:
    lines = blob.decode().splitlines()
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def check_grid(csvs, cells) -> list[str]:
    """One row per cell, finite statistics on every row that did not diverge,
    and the same bytes from every run (repeats, job counts, tracing)."""
    failures = []
    rows = parse_table(csvs[0])
    keys = sorted((float(r["mu"]), float(r["sigma"]), r["mode"], r["h"]) for r in rows)
    if keys != sorted(cells):
        failures.append(f"table rows {keys} do not match the grid's {len(cells)} cells")
    for r in rows:
        if r["status"] == "diverged":
            continue
        stats = [r["mean"], r["variance"], r["sharpe"]]
        if not all(math.isfinite(float(v)) for v in stats):
            failures.append(f"non-finite statistics {stats} in {r['status']} row "
                            f"{r['mu']},{r['mode']},{r['h']}")
    if any(blob != csvs[0] for blob in csvs[1:]):
        failures.append("table CSV bytes differ between runs of one grid")
    return failures


# ---------------------------------------------------------------------------
# closed_form: batches of closed-form reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    h: int  # index into the batch's distortions
    market: cf.MarketParams
    mode: str
    lam: float
    T: float
    a0: float  # initial mean coefficient for policy iteration


@dataclass(frozen=True)
class Report:
    w: float
    m: float  # mean and std of the optimal action at (0, x0)
    s: float
    bound: float  # s ||h'||_2
    phi: float  # Phi_h of the constrained maximiser
    mean: float
    var: float
    values: tuple
    residuals: tuple
    policies: tuple  # policy-iteration steps 0..3
    cost: float  # exploration cost by quadrature


class ClosedForm:
    op = "closed.reports_per_s"
    N_MARKETS = 3
    TIME_POINTS = 11

    def __init__(self, seed: int, sizes: dict, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.power_k = float(rng.uniform(1.5, 3.0))
        self.cases = []
        for _ in range(self.N_MARKETS):
            sigma = float(rng.uniform(0.1, 0.4))
            rho = float(rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0]))
            mkt = cf.MarketParams(mu=0.02 + rho * sigma, sigma=sigma, r=0.02)
            T, a0 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-2.0, 2.0))
            for mode in ("plain", "log"):
                lam = float(rng.uniform(1e-3, 0.1))
                self.cases += [Case(h, mkt, mode, lam, T, a0) for h in range(5)]
        self.batches_per_unit = sizes["batches_per_unit"]
        self.inputs = {"reports_per_batch": len(self.cases), "markets": self.N_MARKETS,
                       "distortions": 5, "time_points": self.TIME_POINTS,
                       "power_k": self.power_k, "batches_per_unit": self.batches_per_unit}
        self.batch()  # builds the cached quadrature rules

    def distortions(self):
        k = self.power_k
        builtin = [dist.get_distortion(n) for n in ("gaussian_score", "entropy_like", "gini")]
        return builtin + [
            dist.custom_distortion("sine", lambda p: np.sin(np.pi * np.asarray(p)) / np.pi,
                                   lambda p: np.cos(np.pi * np.asarray(p))),
            dist.custom_distortion(f"power{k:.4f}", lambda p: p - np.asarray(p) ** (k + 1.0),
                                   lambda p: 1.0 - (k + 1.0) * np.asarray(p) ** k),
        ]

    def report(self, h, c: Case) -> Report:
        spec = cf.EMVSpec(T=c.T, lam=c.lam, z=1.4, x0=1.0, mode=c.mode, h=h)
        w = cf.lagrange_multiplier(spec, c.market)
        policy = cf.optimal_policy(0.0, spec.x0, spec, c.market, w)
        m, s = policy.location, policy.scale * h.l2_norm
        qstar, bound = dist.max_constrained(h, m, s)
        phi = dist.regularizer_of_quantile(h, qstar)
        mean, var = dist.quantile_moments(qstar)
        ts = np.linspace(0.0, c.T, self.TIME_POINTS)
        xs = np.linspace(-1.0, 3.0, self.TIME_POINTS)
        values = tuple(cf.value(t, spec.x0, spec, c.market, w) for t in ts)
        residuals = tuple(cf.hjb_residual(t, x, spec, c.market, w) for t, x in zip(ts, xs))
        steps = cf.policy_iteration((c.a0, 0.7, 0.3), spec, c.market)
        cost = cf.exploration_cost_by_quadrature(spec, c.market)
        return Report(w, m, s, bound, phi, mean, var, values, residuals,
                      tuple(fb for fb, _ in steps), cost)

    def batch(self, tr: Tracer | None = None):
        hs = self.distortions()
        reports = []
        for i, c in enumerate(self.cases):
            if tr is not None:
                tr.group = f"report{i}"
            try:
                reports.append(self.report(hs[c.h], c))
            except (ValueError, ArithmeticError) as exc:
                reports.append(exc)
        return reports, hs

    def unit(self, tr: Tracer | None = None):
        """A block of batches; returns the last batch's reports."""
        for _ in range(self.batches_per_unit):
            out = self.batch(tr)
        return out

    def run(self, seconds: float) -> Outcome:
        walls, ref_walls, first, last = timed_units(self.unit, seconds, min_units=1)
        return self._outcome(first, last, len(walls), walls, ref_walls)

    def run_traced(self) -> Outcome:
        plain, wall, ref, tr, traced, overhead = traced_pair(self.unit, self.unit)
        out = self._outcome(plain, traced, 2, [wall], [ref])
        out.tracer = tr
        out.layers = layer_metrics(tr, {"trace.overhead_share": overhead})
        return out

    def _outcome(self, first, last, runs: int, walls, ref_walls) -> Outcome:
        reports, hs = first
        bad = sum(isinstance(r, Exception) for r in reports)
        batches = self.batches_per_unit * runs
        return Outcome(walls, ref_walls, work_per_unit=len(self.cases) * self.batches_per_unit,
                       attempted=len(self.cases) * batches, failed=bad * batches,
                       completed_share=1.0 - bad / len(self.cases),
                       failures=check_closed(self.cases, hs, reports, last[0]))


def check_closed(cases, hs, reports, repeat) -> list[str]:
    """Criteria 1, 2, 4 and 5 on every report of a batch.

    Criterion 1's absolute tolerances hold for action scales up to 1; they
    are applied relative to the scale s (and s^2 for the variance) here.
    """
    failures = []
    for i, (c, r) in enumerate(zip(cases, reports)):
        where = f"report {i} ({hs[c.h].name}, {c.mode}, rho={c.market.rho:.3f})"
        if isinstance(r, Exception):
            failures.append(f"{where} raised {r!r}")
            continue
        spec = cf.EMVSpec(T=c.T, lam=c.lam, z=1.4, x0=1.0, mode=c.mode, h=hs[c.h])
        scale = max(1.0, r.s)
        checks = [
            ("HJB residual (criterion 2)", max(abs(v) for v in r.residuals), 1e-9),
            ("Phi_h(Q*) - s||h'|| (criterion 1)", abs(r.phi - r.bound), 1e-9 * scale),
            ("mean of Q* (criterion 1)", abs(r.mean - r.m), 1e-8 * scale),
            ("variance of Q* (criterion 1)", abs(r.var - r.s**2), 1e-8 * scale**2),
            ("exploration cost identity (criterion 4)",
             abs(r.cost - cf.exploration_cost(spec, c.market)), 1e-10),
        ]
        opt = cf.optimal_feedback(spec, c.market)
        fb2 = r.policies[2]
        checks.append(("policy iteration step 2 vs optimum (criterion 5)",
                       max(abs(fb2.mean_coef - opt.mean_coef),
                           abs(fb2.scale_base - opt.scale_base),
                           abs(fb2.scale_rate - opt.scale_rate)), 1e-12))
        for label, err, tol in checks:
            if not err < tol:
                failures.append(f"{where}: {label} {err:.3g} >= {tol:.3g}")
        if r.policies[3] != fb2:
            failures.append(f"{where}: policy iteration step 3 is not a fixed point")
        if not all(math.isfinite(v) for v in r.values):
            failures.append(f"{where}: non-finite value on the time grid")
    if any(isinstance(a, Exception) or a != b for a, b in zip(reports, repeat)):
        failures.append("closed-form reports differ between batches")
    return failures


WORKLOADS = {
    "train_cell": TrainCell,
    "mc_simulate": McSimulate,
    "study_grid": StudyGrid,
    "closed_form": ClosedForm,
}
