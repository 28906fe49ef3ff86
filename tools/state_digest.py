"""Iteration counts and a SHA-256 of every result, for each strategy on
the benchmark's three settings, or how two trees' results differ.

    python tools/state_digest.py [SRC]
    python tools/state_digest.py [SRC] --against OTHER

SRC and OTHER are directories that hold a chbfem package (SRC by default
src/ of this checkout), so one tree's script can digest another tree's
sources.  Each line names a setting and a strategy, how the run stopped,
its iteration counts, and one SHA-256 over every step state and every
solution that solvers.solve_linear returned, in order.  The solutions
cover a run that fails before its first step completes.  Two trees that
print the same lines computed the same bits.

With --against, each line instead compares OTHER's run with SRC's: how
far each count moved (OTHER minus SRC), the largest difference of each
field over every step both runs completed, that of the linear solutions
over every solve both made (as long as their sizes agree), and whether
the two digests are the same.  A change that keeps every bit prints
zero moves, zero differences and "same".

Settings, as chbbench's workloads at seed 0: desk n=16, 20 steps, xi 0.5;
fine n=65, 1 step, xi 0.5; swell n=16, 20 steps, xi 2.0.  One BLAS
thread is used.
"""

import argparse
import hashlib
import importlib.util
import os
import sys
from pathlib import Path
from typing import NamedTuple

SETTINGS = {"desk": (16, 20, 0.5), "fine": (65, 1, 0.5), "swell": (16, 20, 2.0)}
STRATEGIES = ("monolithic", "splitting")
FIELDS = ("phi", "mu", "u", "p", "q")


class Run(NamedTuple):
    """One strategy's run of one setting: how it stopped, its counts,
    the SHA-256 that digest prints, and every step state and linear
    solution, in order."""

    stop: str
    steps: int
    outer: int
    newton: int
    sha: str
    states: list
    solutions: list


def record(chbfem, solvers, n, steps, xi, strategy) -> Run:
    """Run one strategy on one setting, keeping every result."""
    mesh = chbfem.build_unit_square_mesh(n)
    system = chbfem.ChbSystem(mesh, chbfem.MaterialParams(xi=xi))
    config = chbfem.SolverConfig(strategy=strategy, num_steps=steps)
    sha = hashlib.sha256()
    solve = solvers.solve_linear
    states, solutions = [], []

    def hashed(A, b):
        x = solve(A, b)
        sha.update(x.tobytes())
        solutions.append(x.copy())
        return x

    def on_step(state, _record):
        for name in FIELDS:
            sha.update(getattr(state, name).tobytes())
        states.append({name: getattr(state, name).copy() for name in FIELDS})

    solvers.solve_linear = hashed
    try:
        _, stats = chbfem.advance_simulation(
            system, system.initial_state(), config, on_step=on_step)
        stop = "converged"
    except chbfem.SimulationFailed as exc:
        stats = exc.stats
        stop = f"failed at step {exc.step_index}: {exc.cause}"
    finally:
        solvers.solve_linear = solve
    return Run(stop, len(stats), sum(s.outer_iters for s in stats),
               sum(s.newton_total for s in stats), sha.hexdigest(),
               states, solutions)


def digest(chbfem, solvers, n, steps, xi, strategy) -> str:
    """One line for one strategy's run of one setting."""
    run = record(chbfem, solvers, n, steps, xi, strategy)
    return (f"{strategy:10s} steps={run.steps} outer={run.outer} "
            f"newton={run.newton} {run.sha}  ({run.stop})")


def _largest(pairs) -> float:
    """Largest |a - b| over the pairs of equal-sized arrays, 0 for none;
    NaN where either array holds a NaN."""
    import numpy as np   # after main has set the BLAS threads

    return float(np.max([np.abs(a - b).max(initial=0.0) for a, b in pairs],
                        initial=0.0))


def compare(base, other, n, steps, xi, strategy) -> str:
    """One line comparing the runs of two packages, each given as its
    (chbfem, solvers) modules, on one setting."""
    a = record(*base, n, steps, xi, strategy)
    b = record(*other, n, steps, xi, strategy)
    moves = " ".join(f"{name}={getattr(b, name) - getattr(a, name):+d}"
                     for name in ("steps", "outer", "newton"))
    both = list(zip(a.states, b.states))
    fields = " ".join(
        f"{name}={_largest((sa[name], sb[name]) for sa, sb in both):.3g}"
        for name in FIELDS)
    solves = _largest((xa, xb) for xa, xb in zip(a.solutions, b.solutions)
                      if xa.shape == xb.shape)
    same = "same" if a.sha == b.sha else "differ"
    return (f"{strategy:10s} moves {moves}  max|diff| {fields} x={solves:.3g}"
            f"  digests {same}  ({a.stop} | {b.stop})")


def load(src: Path, name: str):
    """(chbfem, chbfem.solvers) of the package under src, imported as the
    top-level package `name`; its modules import each other relatively."""
    init = src / "chbfem" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, sys.modules[f"{name}.solvers"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src",
                        type=Path, help="directory holding the chbfem package")
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="directory holding a chbfem package to compare")
    args = parser.parse_args(argv)
    roots = [args.src.resolve()]
    if args.against is not None:
        roots.append(args.against.resolve())
    for root in roots:
        if not (root / "chbfem" / "__init__.py").is_file():
            print(f"error: no chbfem package under {root}", file=sys.stderr)
            return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = roots[0]
    sys.path.insert(0, str(src))
    import chbfem
    from chbfem import solvers

    if Path(chbfem.__file__).resolve().parent != src / "chbfem":
        print(f"error: imported chbfem from {chbfem.__file__}, not {src}",
              file=sys.stderr)
        return 2
    other = load(roots[1], "chbfem_against") if len(roots) > 1 else None
    for name, (n, steps, xi) in SETTINGS.items():
        for strategy in STRATEGIES:
            if other is None:
                line = digest(chbfem, solvers, n, steps, xi, strategy)
            else:
                line = compare((chbfem, solvers), other, n, steps, xi, strategy)
            print(f"{name:5s} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
