"""Experiment configuration, orchestration and output writers.

A single flat JSON document configures one experiment; missing keys fall
back to the baseline parameter set.  Sweeps over the surface tension
(gamma) or the swelling parameter (xi) run one simulation per value and
per strategy, record iteration counts and wall time per run, and never
let a non-converged run abort the sweep.

Outputs: a metrics CSV with the fixed header

    param_name,param_value,strategy,converged,outer_iters,inner_newton_iters,wall_seconds

and, at the configured cadence, legacy-ASCII VTK snapshots of all fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .fem import rt0_basis
from .linalg import LinearSolveFailure
from .mesh import StructuredTriMesh, build_unit_square_mesh
from .model import DEFAULT_C0, DEFAULT_C1, MaterialParams, stiffness_errors
from .solvers import (ChbSystem, FieldState, SimulationFailed, SolverConfig,
                      advance_simulation)

SWEEP_PARAMS = ("gamma", "xi")
DEFAULT_SWEEP_VALUES = {
    "gamma": [0.1, 0.5, 1.0, 5.0, 10.0, 25.0],
    "xi": [0.25, 0.5, 1.0, 1.5, 2.0],
}
CSV_HEADER = ("param_name,param_value,strategy,converged,"
              "outer_iters,inner_newton_iters,wall_seconds")
DESK_N = 16
DESK_NUM_STEPS = 20


class ConfigError(ValueError):
    """Unreadable, unparsable or invalid configuration."""


def _is_number(value) -> bool:
    # JSON true/false load as bool, which Python counts as int; json also
    # reads NaN, Infinity and integers beyond float range, which no field accepts
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _voigt_errors(name, value) -> list:
    """Why a configured C0/C1 is not a 3x3 SPD matrix of numbers, if it isn't."""
    rows = value.tolist() if isinstance(value, np.ndarray) else value
    if not (isinstance(rows, (list, tuple)) and len(rows) == 3
            and all(isinstance(r, (list, tuple)) and len(r) == 3 for r in rows)):
        return [f"{name} must be a 3x3 Voigt matrix"]
    if not all(_is_number(x) for r in rows for x in r):
        return [f"{name} must have finite entries, each a number"]
    return stiffness_errors(name, np.asarray(rows, dtype=float))


@dataclass
class SimulationConfig:
    """Effective configuration of one experiment (all fields resolved)."""

    gamma: float = 5.0
    ell: float = 2.0e-2
    mobility: float = 1.0
    xi: float = 0.5
    phi_bar: float = 0.5
    C0: list = field(default_factory=lambda: DEFAULT_C0.tolist())
    C1: list = field(default_factory=lambda: DEFAULT_C1.tolist())
    M0: float = 1.0
    M1: float = 0.1
    kappa0: float = 1.0
    kappa1: float = 0.1
    alpha0: float = 1.0
    alpha1: float = 0.5
    tau: float = 1.0e-5
    tol: float = 1.0e-6
    max_iter: int = 100
    n: int = 65
    num_steps: int = 20
    strategy: str = "both"
    sweep: dict | None = None
    out_dir: str = "out"
    vtk_every: int = 0

    def validate(self) -> None:
        errors = []
        for name in ("gamma", "ell", "mobility", "M0", "M1", "kappa0",
                     "kappa1", "tau", "tol"):
            if not _is_number(getattr(self, name)) or not getattr(self, name) > 0:
                errors.append(f"{name} must be a positive number")
        for name in ("xi", "phi_bar", "alpha0", "alpha1"):
            if not _is_number(getattr(self, name)):
                errors.append(f"{name} must be a number")
        for name, low in (("max_iter", 1), ("n", 1), ("num_steps", 0),
                          ("vtk_every", 0)):
            if not _is_int(getattr(self, name)) or getattr(self, name) < low:
                errors.append(f"{name} must be an integer of at least {low}")
        if self.strategy not in ("monolithic", "splitting", "both"):
            errors.append("strategy must be monolithic, splitting or both")
        if not isinstance(self.out_dir, str):
            errors.append("out_dir must be a string")
        for name in ("C0", "C1"):
            errors += _voigt_errors(name, getattr(self, name))
        if self.sweep is not None and not isinstance(self.sweep, dict):
            errors.append("sweep must be an object with a param key")
        elif self.sweep is not None:
            unknown = sorted(map(str, set(self.sweep) - {"param", "values"}))
            if unknown:
                errors.append(f"sweep has unknown keys: {', '.join(unknown)}")
            param = self.sweep.get("param")
            if param not in SWEEP_PARAMS:
                errors.append(f"sweep param must be one of {SWEEP_PARAMS}")
            values = self.sweep.get("values", None)
            if values is not None:
                if (not isinstance(values, (list, tuple)) or not values
                        or not all(_is_number(v) for v in values)):
                    errors.append("sweep values must be a nonempty list of numbers")
                elif param == "gamma" and any(v <= 0 for v in values):
                    errors.append("gamma sweep values must be positive")
        if errors:
            raise ConfigError("invalid configuration: " + "; ".join(errors))

    def to_dict(self) -> dict:
        return asdict(self)

    def material_params(self, **overrides) -> MaterialParams:
        return MaterialParams(
            gamma=overrides.get("gamma", self.gamma),
            ell=self.ell, mobility=self.mobility,
            xi=overrides.get("xi", self.xi),
            phi_bar=self.phi_bar,
            C0=np.asarray(self.C0, dtype=float),
            C1=np.asarray(self.C1, dtype=float),
            M0=self.M0, M1=self.M1, kappa0=self.kappa0, kappa1=self.kappa1,
            alpha0=self.alpha0, alpha1=self.alpha1,
            tau=self.tau)

    def solver_config(self, strategy: str) -> SolverConfig:
        return SolverConfig(strategy=strategy, tol=self.tol,
                            max_iter=self.max_iter, num_steps=self.num_steps)

    def sweep_plan(self):
        """(param_name, values) of the sweep, or ("none", [None]) for a base run."""
        if self.sweep is None:
            return "none", [None]
        param = self.sweep["param"]
        values = self.sweep.get("values") or DEFAULT_SWEEP_VALUES[param]
        return param, [float(v) for v in values]


def config_from_dict(data: dict) -> SimulationConfig:
    known = set(SimulationConfig.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    cfg = SimulationConfig(**data)
    cfg.validate()
    return cfg


def load_config(path) -> SimulationConfig:
    """Load a JSON config; unspecified fields default to the baseline values."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return config_from_dict(data)


@dataclass
class RunRecord:
    """One metrics row: a single simulation at one parameter value."""

    param_name: str
    param_value: float
    strategy: str
    converged: bool
    outer_iters: int
    inner_newton_iters: int
    wall_seconds: float
    solver_fault: bool = False   # linear-solver breakdown (not a recorded non-convergence)


def _run_label(param_name, value, strategy):
    if value is None:
        return f"base_{strategy}"
    return f"{param_name}{value:g}_{strategy}"


def _execute_run(mesh, config, param_name, value, strategy) -> RunRecord:
    overrides = {} if value is None else {param_name: value}
    params = config.material_params(**overrides)
    system = ChbSystem(mesh, params)
    solver_cfg = config.solver_config(strategy)
    state = system.initial_state()

    writer = None
    if config.vtk_every > 0:
        run_dir = Path(config.out_dir) / _run_label(param_name, value, strategy)
        run_dir.mkdir(parents=True, exist_ok=True)
        write_vtk(state, mesh, run_dir / "state_0000.vtk")

        def writer(st, _stats):
            if st.n % config.vtk_every == 0 or st.n == config.num_steps:
                write_vtk(st, mesh, run_dir / f"state_{st.n:04d}.vtk")

    try:
        _, stats = advance_simulation(system, state, solver_cfg, on_step=writer)
        converged = True
        fault = False
    except SimulationFailed as exc:
        stats = exc.stats
        converged = False
        fault = isinstance(exc.cause, LinearSolveFailure)
    return RunRecord(
        param_name=param_name,
        param_value=0.0 if value is None else float(value),
        strategy=strategy,
        converged=converged,
        outer_iters=int(sum(s.outer_iters for s in stats)),
        inner_newton_iters=int(sum(s.newton_total for s in stats)),
        wall_seconds=float(sum(s.wall_seconds for s in stats)),
        solver_fault=fault)


def run_experiment(config: SimulationConfig) -> list[RunRecord]:
    """Run the configured base simulation or sweep; one record per run.

    Non-converged runs are recorded with converged=false and the
    iterations consumed before the abort; the sweep always continues.
    """
    config.validate()
    mesh = build_unit_square_mesh(config.n)
    strategies = (["monolithic", "splitting"] if config.strategy == "both"
                  else [config.strategy])
    param_name, values = config.sweep_plan()
    records = []
    for value in values:
        for strategy in strategies:
            records.append(_execute_run(mesh, config, param_name, value, strategy))
    return records


def write_metrics_csv(records, path) -> None:
    """Write run records in sweep order, then strategy order, to a CSV file."""
    if not records:
        raise ValueError("no records to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in records:
            writer.writerow([
                r.param_name,
                f"{r.param_value:.17g}",
                r.strategy,
                "true" if r.converged else "false",
                r.outer_iters,
                r.inner_newton_iters,
                f"{r.wall_seconds:.6f}",
            ])


def _vtk_block(fmt, rows) -> str:
    """One `fmt` line per row (or entry) of `rows`, formatted by a single %."""
    return "\n".join([fmt] * len(rows)) % tuple(np.ravel(rows).tolist())


def write_vtk(state: FieldState, mesh: StructuredTriMesh, path) -> None:
    """Write all fields to a legacy-ASCII VTK unstructured grid file.

    Point data: scalars phi, mu and the displacement vector u; cell data:
    scalar p and the flux vector q evaluated at cell centroids.
    """
    nv = mesh.num_vertices
    nc = mesh.num_cells
    psi_c = rt0_basis(mesh, np.full((1, 3), 1.0 / 3.0))[:, 0]
    qc = np.einsum("ck,cka->ca", state.q[mesh.cell_edges], psi_c)
    vector = "%.10e %.10e 0.0"
    lines = [
        "# vtk DataFile Version 3.0",
        f"chbfem fields at step {state.n}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
        _vtk_block(vector, mesh.vertices),
        f"CELLS {nc} {4 * nc}",
        _vtk_block("3 %d %d %d", mesh.cells),
        f"CELL_TYPES {nc}",
        "\n".join(["5"] * nc),
        f"POINT_DATA {nv}",
    ]
    for name, values in (("phi", state.phi), ("mu", state.mu)):
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default",
                  _vtk_block("%.10e", values)]
    lines += ["VECTORS u double", _vtk_block(vector, state.u.reshape(-1, 2))]
    lines.append(f"CELL_DATA {nc}")
    lines += ["SCALARS p double 1", "LOOKUP_TABLE default",
              _vtk_block("%.10e", state.p)]
    lines += ["VECTORS q double", _vtk_block(vector, qc)]
    Path(path).write_text("\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chbfem",
        description="Coupled phase-field poroelasticity simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a simulation or parameter sweep")
    run.add_argument("--config", required=True, help="path to a JSON config file")
    run.add_argument("--strategy", choices=["monolithic", "splitting", "both"],
                     help="override the configured solution strategy")
    run.add_argument("--sweep", choices=list(SWEEP_PARAMS),
                     help="sweep this parameter over its configured or default grid")
    run.add_argument("--out", help="output directory (metrics CSV and VTK files)")
    run.add_argument("--desk", action="store_true",
                     help=f"desk profile: n={DESK_N}, num_steps={DESK_NUM_STEPS}")
    return parser


def main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on config/IO errors, 2 on solver faults."""
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.strategy:
            config.strategy = args.strategy
        if args.sweep:
            existing = config.sweep if config.sweep else {}
            if existing.get("param") == args.sweep and existing.get("values"):
                config.sweep = existing
            else:
                config.sweep = {"param": args.sweep}
        if args.out:
            config.out_dir = args.out
        if args.desk:
            config.n = DESK_N
            config.num_steps = DESK_NUM_STEPS
        config.validate()
        records = run_experiment(config)
        csv_path = Path(config.out_dir) / "metrics.csv"
        write_metrics_csv(records, csv_path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in records:
        status = "ok" if r.converged else ("FAULT" if r.solver_fault else "no-convergence")
        print(f"{r.param_name}={r.param_value:g} {r.strategy}: {status}, "
              f"outer={r.outer_iters}, newton={r.inner_newton_iters}, "
              f"wall={r.wall_seconds:.2f}s")
    print(f"metrics written to {csv_path}")
    if any(r.solver_fault for r in records):
        return 2
    return 0
