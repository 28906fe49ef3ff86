"""tools/state_digest.py: the same run gives the same line, the wrapped
solve_linear is put back, and the settings are the benchmark's."""

import importlib.util
from pathlib import Path

import chbfem
from chbfem import solvers

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "state_digest", ROOT / "tools" / "state_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_repeats_and_tells_runs_apart():
    tool = load_tool()
    solve = solvers.solve_linear
    lines = [tool.digest(chbfem, solvers, 4, 2, xi, strategy)
             for xi, strategy in [(0.5, "splitting"), (0.5, "splitting"),
                                  (0.5, "monolithic"), (0.6, "splitting")]]
    assert solvers.solve_linear is solve
    assert lines[0] == lines[1]
    assert len({line.split()[4] for line in lines}) == 3
    assert lines[0].endswith("(converged)")


def test_settings_are_the_benchmarks_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "chbbench"))
    harness = importlib.import_module("harness")
    assert load_tool().SETTINGS == {
        name: (w.n, w.steps, w.xi) for name, w in harness.WORKLOADS.items()}
