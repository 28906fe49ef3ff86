"""Iteration counts and a SHA-256 of every result, for each strategy on
the benchmark's three settings.

    python tools/state_digest.py [SRC]

SRC is the directory that holds the chbfem package (default: src/ of this
checkout), so one tree's script can digest another tree's sources.  Each
line names a setting and a strategy, how the run stopped, its iteration
counts, and one SHA-256 over every step state and every solution that
solvers.solve_linear returned, in order.  The solutions cover a run that
fails before its first step completes.  Two trees that print the same
lines computed the same bits.

Settings, as chbbench's workloads at seed 0: desk n=16, 20 steps, xi 0.5;
fine n=65, 1 step, xi 0.5; swell n=16, 20 steps, xi 2.0.  One BLAS
thread is used.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

SETTINGS = {"desk": (16, 20, 0.5), "fine": (65, 1, 0.5), "swell": (16, 20, 2.0)}
STRATEGIES = ("monolithic", "splitting")
FIELDS = ("phi", "mu", "u", "p", "q")


def digest(chbfem, solvers, n, steps, xi, strategy) -> str:
    """One line for one strategy's run of one setting."""
    mesh = chbfem.build_unit_square_mesh(n)
    system = chbfem.ChbSystem(mesh, chbfem.MaterialParams(xi=xi))
    config = chbfem.SolverConfig(strategy=strategy, num_steps=steps)
    sha = hashlib.sha256()
    solve = solvers.solve_linear

    def hashed(A, b):
        x = solve(A, b)
        sha.update(x.tobytes())
        return x

    def on_step(state, _record):
        for name in FIELDS:
            sha.update(getattr(state, name).tobytes())

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
    outer = sum(s.outer_iters for s in stats)
    newton = sum(s.newton_total for s in stats)
    return (f"{strategy:10s} steps={len(stats)} outer={outer} "
            f"newton={newton} {sha.hexdigest()}  ({stop})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src",
                        type=Path, help="directory holding the chbfem package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "chbfem" / "__init__.py").is_file():
        print(f"error: no chbfem package under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import chbfem
    from chbfem import solvers

    if Path(chbfem.__file__).resolve().parent != src / "chbfem":
        print(f"error: imported chbfem from {chbfem.__file__}, not {src}",
              file=sys.stderr)
        return 2
    for name, (n, steps, xi) in SETTINGS.items():
        for strategy in STRATEGIES:
            print(f"{name:5s} {digest(chbfem, solvers, n, steps, xi, strategy)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
