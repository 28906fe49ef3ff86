"""Experiment configuration, orchestration and output writers.

A single flat JSON document configures one experiment; missing keys fall
back to the baseline parameter set.  SimulationConfig takes its material
and solver fields, with their defaults and checks, from MaterialParams
and SolverConfig, and checks every field with the same model.check_fields
when it is made, so a bad value gets the same ConfigError from either.
Sweeps over the surface tension (gamma) or the swelling parameter (xi)
run one simulation per value and per strategy, record iteration counts
and wall time per run, and never let a non-converged run abort the
sweep.  `chbfem run` creates the output directory before the first run.

Outputs: a metrics CSV with the fixed header

    param_name,param_value,strategy,converged,outer_iters,inner_newton_iters,wall_seconds

and, at the configured cadence, legacy-ASCII VTK snapshots of all fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields, make_dataclass, replace
from pathlib import Path

import numpy as np

from .fem import rt0_basis
from .linalg import LinearSolveFailure
from .mesh import StructuredTriMesh, build_unit_square_mesh
from .model import (ConfigError, MaterialParams, check_fields, choice, integer,
                    is_number)
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


def _sweep_check(sweep):
    if sweep is None:
        return None
    if not isinstance(sweep, dict):
        return "must be an object with a param key"
    unknown = sorted(map(str, set(sweep) - {"param", "values"}))
    if unknown:
        return f"has unknown keys: {', '.join(unknown)}"
    param, values = sweep.get("param"), sweep.get("values")
    if param not in SWEEP_PARAMS:
        return f"param must be one of {SWEEP_PARAMS}"
    if values is None:
        return None
    if (not isinstance(values, (list, tuple)) or not values
            or not all(is_number(v) for v in values)):
        return "values must be a nonempty list of numbers"
    # each value must pass the check of the field it overrides
    check = next(f for f in fields(MaterialParams) if f.name == param).metadata["check"]
    for value in values:
        reason = check(value)
        if reason:
            return f"value {value!r} {reason}"


def _path_check(value):
    if not isinstance(value, str):
        return "must be a string"
    if "\0" in value:
        return "must not contain a NUL character"
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        return "must be encodable as a file name"


_SOLVER_FIELDS = tuple(f for f in fields(SolverConfig) if f.name != "strategy")
# the material and solver fields of a run, with the defaults and checks
# MaterialParams and SolverConfig declare
_SharedFields = make_dataclass("_SharedFields", [
    (f.name, f.type, field(default=f.default, default_factory=f.default_factory,
                           metadata=f.metadata))
    for f in fields(MaterialParams) + _SOLVER_FIELDS])


@dataclass
class SimulationConfig(_SharedFields):
    """Effective configuration of one experiment (all fields resolved).

    Every MaterialParams field and every SolverConfig field but strategy
    comes first, with the same default and check; the fields below belong
    to the run alone.
    """

    n: int = integer(65, low=1)
    strategy: str = choice("both", "monolithic", "splitting", "both")
    sweep: dict | None = field(default=None, metadata={"check": _sweep_check})
    out_dir: str = field(default="out", metadata={"check": _path_check})
    vtk_every: int = integer(0, low=0)

    def __post_init__(self):
        check_fields(self, "configuration")

    def material_params(self, **overrides) -> MaterialParams:
        values = {f.name: getattr(self, f.name) for f in fields(MaterialParams)}
        return MaterialParams(**{**values, **overrides})

    def solver_config(self, strategy: str) -> SolverConfig:
        return SolverConfig(strategy=strategy,
                            **{f.name: getattr(self, f.name) for f in _SOLVER_FIELDS})

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
    return SimulationConfig(**data)


def load_config(path) -> SimulationConfig:
    """Load a JSON config; unspecified fields default to the baseline values."""
    try:
        text = Path(path).read_text(encoding="utf-8")   # as RFC 8259 requires
    except (OSError, UnicodeDecodeError) as exc:
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
        overrides = {"strategy": args.strategy, "out_dir": args.out}
        if args.sweep and (config.sweep or {}).get("param") != args.sweep:
            overrides["sweep"] = {"param": args.sweep}
        if args.desk:
            overrides.update(n=DESK_N, num_steps=DESK_NUM_STEPS)
        config = replace(config, **{k: v for k, v in overrides.items() if v})
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        records = run_experiment(config)
        csv_path = out_dir / "metrics.csv"
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
