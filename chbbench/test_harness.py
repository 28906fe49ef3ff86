"""Smoke test of the benchmark harness on a 4x4 mesh, one time step.

Run from the root of a checkout:  python -m pytest -q chbbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from chbfem.linalg import LinearSolveFailure  # noqa: E402
from chbfem.solvers import NonConvergence  # noqa: E402

SMOKE = harness.Workload("smoke", n=4, steps=1, xi=0.5, io=True,
                         compare=True)


def _check_metrics(result, units):
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    info, result = harness.measure(SMOKE, 3, 0.0, False, tmp_path)
    _check_metrics(result, harness.END_TO_END)
    assert info["problems"] == []
    assert result["metrics"]["steps_ok_frac"]["value"] == 1.0
    json.dumps(result)


def test_traced_run_accounts_for_each_strategy(tmp_path):
    info, result = harness.measure(SMOKE, 0, 0.0, True, tmp_path)
    _check_metrics(result, harness.PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["io.vtk_files"] == 4 and m["io.bytes_written"] > 0
    c = info["counts"]
    assert m["linalg.mono.factor_calls"] == c["mono_newton_iters"]
    assert m["linalg.ch.factor_calls"] == c["split_newton_iters"]
    assert m["linalg.elas.factor_calls"] == c["split_outer_iters"]
    assert m["linalg.flow.factor_calls"] == c["split_outer_iters"]
    assert m["solver.mono.phase_evals_per_iterate"] == pytest.approx(3.0)
    overhead = abs(m["trace.overhead_s"])
    for strategy, acc in info["accounting"].items():
        # the strategy's root span encloses the harness's timing of
        # advance_simulation, so the self times cover its wall time
        assert abs(acc["self_sum_s"] - acc["wall_s"]) <= 1e-3 + overhead
        assert sum(acc["shares"].values()) == pytest.approx(1.0, abs=1e-3)
    spans = [json.loads(line)[0] for line in
             (tmp_path / "spans-smoke-seed0.jsonl").read_text().splitlines()]
    assert len(spans) - spans.count("host.probe") == m["trace.spans"]


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == harness.PER_LAYER


def test_stop_reasons():
    assert harness.stop_reason(NonConvergence("x", diverged=True)) == "diverged"
    assert harness.stop_reason(NonConvergence("x")) == "max_iter"
    assert harness.stop_reason(LinearSolveFailure("x")) == "linear_breakdown"


def test_seeded_initial_phase():
    base = harness.initial_phase(0, 16)
    assert base(0.5, 0.3) == 1.0 and base(0.49, 0.3) == 0.0
    a, b = harness.initial_phase(7, 16), harness.initial_phase(7, 16)
    points = [(x / 16, y / 16) for x in range(17) for y in range(17)]
    assert [a(*p) for p in points] == [b(*p) for p in points]
    assert [a(*p) for p in points] != [base(*p) for p in points]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "chbbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "chbbench/run.py", "--workload", "desk", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
