"""tools/state_digest.py: the same run gives the same line, and the
wrapped solve_linear is put back."""

import importlib.util
from pathlib import Path

import chbfem
from chbfem import solvers

TOOL = Path(__file__).resolve().parent.parent / "tools" / "state_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("state_digest", TOOL)
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
