"""Finite-element solver for coupled phase-field poroelasticity.

Mixed P1/P1 phase-field and chemical potential, vector P1 displacement,
P0 pressure and lowest-order Raviart-Thomas flux on structured triangular
meshes of the unit square, advanced in time either by a monolithic Newton
method or by an iterative three-field splitting scheme.

The top level exports what a run needs: the mesh, the material
parameters, the discrete system and its time stepping, the verified
linear solve and the experiment runner with its writers.  The
constitutive laws are in chbfem.model, the vectorized kernels in
chbfem._kernels.
"""

from .cli import (ConfigError, RunRecord, SimulationConfig, load_config,
                  run_experiment, write_metrics_csv, write_vtk)
from .linalg import LinearSolveFailure, solve_linear
from .mesh import StructuredTriMesh, build_unit_square_mesh
from .model import MaterialParams
from .solvers import (ChbSystem, FieldState, NonConvergence, SimulationFailed,
                      SolverConfig, advance_simulation)

__version__ = "0.1.0"

__all__ = [
    "ChbSystem", "ConfigError", "FieldState", "LinearSolveFailure",
    "MaterialParams", "NonConvergence", "RunRecord", "SimulationConfig",
    "SimulationFailed", "SolverConfig", "StructuredTriMesh",
    "advance_simulation", "build_unit_square_mesh", "load_config",
    "run_experiment", "solve_linear", "write_metrics_csv", "write_vtk",
]
