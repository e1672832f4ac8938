"""Tests of the benchmark itself: tiny runs of every workload, the metric
names against BENCHMARK.json, span self time, and output checks that must
fail on deliberately wrong outputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert BENCH["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_declared_metric(workload, trace, tmp_path):
    result, failures, _ = run.run_benchmark(workload, 5, 0.0, trace, workloads.TINY[workload],
                                            tmp_path, setup_reps=1)
    assert failures == []
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared(
        "per_layer" if trace else "end_to_end")
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    if trace:
        assert (tmp_path / f"spans-{workload}-seed5.csv").exists()
    else:
        assert all(metrics[k]["value"] > 0 for k in declared("end_to_end"))


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_line_matches_benchmark_json(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SIZES", workloads.TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    argv = ["--workload", "mc_simulate", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(names)
    for name, unit in names.items():
        assert any(ln.startswith(f"{name} = ") and f" {unit}" in ln for ln in lines)


def test_traced_study_grid_sees_the_uniform_divergence(tmp_path):
    # at 3000 episodes both uniform cells at mu=-0.5 diverge (near episode 2500)
    sizes = dict(workloads.SIZES["study_grid"], mu_list=[-0.5], h_names=["gini"])
    out = workloads.StudyGrid(0, sizes, tmp_path).run_traced()
    assert out.failures == []
    assert out.layers["rl.diverged_cells"] == 2
    assert out.completed_share == 0.0
    assert 2 * 2000 < out.work_per_unit < 2 * 3000


def test_self_time_subtracts_child_coverage():
    import time

    class Box:
        @staticmethod
        def child():
            time.sleep(0.02)

        @staticmethod
        def parent():
            Box.child()
            Box.child()
            time.sleep(0.01)

    with Tracer() as tr:
        tr.patch(Box, "child", "child")
        tr.patch(Box, "parent", "parent")
        Box.parent()
    assert Box.child.__name__ == "child" and not hasattr(Box.child, "__wrapped__")
    assert tr.calls("child") == 2 and tr.calls("parent") == 1
    assert tr.total_s("parent") >= 0.05
    assert 0.009 < tr.self_s("parent") < tr.total_s("parent") - tr.total_s("child") + 1e-6


# ---------------------------------------------------------------------------
# each output check fails on a deliberately wrong output
# ---------------------------------------------------------------------------


def test_train_check_catches_mismatch_and_missed_reference(tmp_path):
    cell = workloads.TrainCell(3, workloads.TINY["train_cell"], tmp_path)
    log, ref = cell.unit(), cell.unit(cell.reference)
    assert workloads.check_train([log, cell.unit()], ref) == []
    wealth = log.terminal_wealth.copy()
    wealth[4] = np.nextafter(wealth[4], np.inf)
    assert workloads.check_train([log, replace(log, terminal_wealth=wealth)], ref)
    assert workloads.check_train([log, replace(log, skipped_actions=1)], ref)
    assert workloads.check_train([log, log], replace(ref, phi=ref.phi * 1.5))

    n = workloads.REFERENCE_EPISODES
    reference = workloads.rl.TrainLog(terminal_wealth=np.full(n, 1.4052), theta=np.zeros((n, 3)),
                                      phi=np.zeros((n, 3)), w=np.zeros(n))
    head = replace(reference, terminal_wealth=reference.terminal_wealth[:10],
                   theta=reference.theta[:10], phi=reference.phi[:10], w=reference.w[:10])
    assert workloads.check_train([head], reference) == []
    assert workloads.check_train([replace(head, terminal_wealth=head.terminal_wealth + 0.031)],
                                 replace(reference,
                                         terminal_wealth=reference.terminal_wealth + 0.031))


def test_mc_check_catches_shifted_closed_form(tmp_path):
    mc = workloads.McSimulate(4, {"n_paths": 2000, "n_steps": 50}, tmp_path)
    out = mc.unit()
    closed = workloads.cf.value(0.0, 1.0, mc.spec, mc.market, mc.w)
    target = float(workloads.cf.expected_wealth(1.0, mc.spec, mc.market, mc.w))
    assert workloads.check_mc([out, out], closed, target) == []
    xs, vals = out
    assert workloads.check_mc([out], vals.mean() + 5 * vals.std() / math.sqrt(len(vals)), target)
    assert workloads.check_mc([out], closed, xs.mean() - 5 * xs.std() / math.sqrt(len(xs)))
    assert workloads.check_mc([out, (out[0][::-1], out[1])], closed, target)


def test_grid_check_catches_corrupted_rows(tmp_path):
    grid = workloads.StudyGrid(1, workloads.TINY["study_grid"], tmp_path)
    blob = grid.unit(1)
    assert workloads.check_grid([blob, blob], grid.cells) == []
    lines = blob.decode().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[7] = "nan"
    corrupted = "".join(lines[:2] + [",".join(fields)] + lines[3:]).encode()
    assert workloads.check_grid([corrupted], grid.cells)
    assert workloads.check_grid(["".join(lines[:-1]).encode()], grid.cells)
    assert workloads.check_grid([blob, blob.replace(b"ok", b"ko", 1)], grid.cells)


def test_closed_form_check_catches_wrong_reports(tmp_path):
    cf_wl = workloads.ClosedForm(2, workloads.TINY["closed_form"], tmp_path)
    reports, hs = cf_wl.unit()
    check = workloads.check_closed
    assert check(cf_wl.cases, hs, reports, reports) == []
    r = reports[7]
    fb2 = r.policies[2]
    wrong = [
        replace(r, residuals=r.residuals[:-1] + (1e-7,)),
        replace(r, phi=r.phi + 1e-8 * max(1.0, r.s)),
        replace(r, var=r.var + 1e-7 * max(1.0, r.s**2)),
        replace(r, cost=r.cost + 1e-8),
        replace(r, policies=(*r.policies[:2], replace(fb2, scale_rate=fb2.scale_rate + 1e-9),
                             r.policies[3])),
        replace(r, values=(math.nan, *r.values[1:])),
    ]
    for bad in wrong:
        assert check(cf_wl.cases, hs, [*reports[:7], bad, *reports[8:]], reports)
    assert check(cf_wl.cases, hs, reports, [*reports[:7], wrong[1], *reports[8:]])


def test_exits_nonzero_without_result_when_the_package_is_absent(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed_form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
