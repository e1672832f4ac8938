"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the
last line of standard output is a JSON object with the end-to-end metrics
(``setup_s``, ``work_per_s``, ``completed_share``, ``peak_rss_mb``).  Times
in them are reference seconds, which take out the drift of the host's speed
(see ``workloads.probed``); the wall-clock figures are printed too.  With
``--trace 1`` it runs once untraced and once with spans recorded around the
calls into each package module, and the JSON carries the per-layer
metrics.  Lines before the JSON repeat every metric by name and unit, with
the machine and input description.  A failed output check prints the
failure on standard error and makes the exit code 1.  Spans and a result
record with the machine information go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train_cell", "mc_simulate", "study_grid", "closed_form")
SETUP_REPS = 3

END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "completed_share": "ratio",
                    "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    describe = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                              capture_output=True, text=True)
        describe = done.stdout.strip() or done.stderr.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "platform": platform.platform(), "git_describe": describe}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any of its finished children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_seconds(workload: str, seed: int, reps: int) -> tuple[float, float]:
    """Median (wall, reference) seconds of a fresh interpreter importing the
    package and building the workload's inputs."""
    from workloads import probed

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    times = [probed(lambda: subprocess.run(cmd, cwd=ROOT, check=True,
                                           stdout=subprocess.DEVNULL))[1:]
             for _ in range(reps)]
    return tuple(statistics.median(t) for t in zip(*times))


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
                  out_dir: Path | None = None, setup_reps: int = SETUP_REPS):
    """Run one workload; return (result line, failures, description)."""
    import workloads

    out_dir = out_dir or OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = sizes or workloads.SIZES[workload]
    wl = workloads.WORKLOADS[workload](seed, sizes, out_dir)
    wall_clock = {}
    if trace:
        outcome = wl.run_traced()
        outcome.tracer.write(out_dir / f"spans-{workload}-seed{seed}.csv")
        metrics = {k: {"value": v, "unit": workloads.PER_LAYER_UNITS[k]}
                   for k, v in outcome.layers.items()}
    else:
        outcome = wl.run(seconds)
        rss = peak_rss_mb()  # before the set-up children run
        setup_wall, setup_ref = setup_seconds(workload, seed, setup_reps)
        values = {"setup_s": setup_ref, "work_per_s": outcome.work_per_s,
                  "completed_share": outcome.completed_share, "peak_rss_mb": rss}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        wall_clock = {"setup_s": setup_wall, wl.op: outcome.work_per_wall_s}
    result = {"correct": not outcome.failures, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    description = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                   "inputs": wl.inputs, "op": wl.op, "units": len(outcome.walls),
                   "unit_wall_s": {"min": min(outcome.walls), "max": max(outcome.walls),
                                   "median": statistics.median(outcome.walls)},
                   "unit_reference_s": {"min": min(outcome.ref_walls),
                                        "max": max(outcome.ref_walls),
                                        "median": statistics.median(outcome.ref_walls)},
                   "wall_clock": wall_clock,
                   "environment": environment()}
    record = dict(description, result=result, failures=outcome.failures)
    path = out_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, outcome.failures, description


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "choquet_emv").is_dir():
        print(f"package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        import workloads

        OUT_DIR.mkdir(exist_ok=True)
        workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.workload], OUT_DIR)
        return 0

    result, failures, desc = run_benchmark(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    print(f"# {desc['workload']} seed={desc['seed']} trace={desc['trace']} "
          f"inputs={json.dumps(desc['inputs'])}")
    print(f"# environment {json.dumps(desc['environment'])}")
    for name, m in result["metrics"].items():
        alias = f"  ({desc['op']}, per reference second)" if name == "work_per_s" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{alias}")
    if not args.trace:
        share = 1.0 - result["metrics"]["completed_share"]["value"]
        print(f"failed_share = {share:.6g} ratio")
        for name, value in desc["wall_clock"].items():
            print(f"{name} = {value:.6g} {'s' if name == 'setup_s' else '1/s'}  (wall clock)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
