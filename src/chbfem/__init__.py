"""Finite-element solver for coupled phase-field poroelasticity.

Mixed P1/P1 phase-field and chemical potential, vector P1 displacement,
P0 pressure and lowest-order Raviart-Thomas flux on structured triangular
meshes of the unit square, advanced in time either by a monolithic Newton
method or by an iterative three-field splitting scheme.
"""

from .cli import (ConfigError, RunRecord, SimulationConfig, load_config,
                  run_experiment, write_metrics_csv, write_vtk)
from .fem import (FieldFunction, FunctionSpace, QuadratureRule, apply_dirichlet,
                  assemble_form, default_rule, eval_basis, integrate_scalar,
                  interpolate, p0_space, p1_scalar, p1_vector, rt0_space)
from .linalg import (LinearSolveFailure, SparseMatrix, TripletBuffer, compress,
                     norms, solve_linear)
from .mesh import StructuredTriMesh, boundary_dofs, build_unit_square_mesh, cell_geometry
from .model import (MaterialParams, dphi_E_elastic, dphi_E_fluid, pi_interp,
                    pi_prime, psi_split, stiffness_C, stress, swelling_T, zeta,
                    zeta_prime)
from .solvers import (ChbSystem, FieldState, IterationStats, NonConvergence,
                      SimulationFailed, SolverConfig, advance_simulation)

__version__ = "0.1.0"

__all__ = [
    "ChbSystem", "ConfigError", "FieldFunction", "FieldState", "FunctionSpace",
    "IterationStats", "LinearSolveFailure", "MaterialParams", "NonConvergence",
    "QuadratureRule", "RunRecord", "SimulationConfig", "SimulationFailed",
    "SolverConfig", "SparseMatrix", "StructuredTriMesh", "TripletBuffer",
    "advance_simulation", "apply_dirichlet", "assemble_form", "boundary_dofs",
    "build_unit_square_mesh", "cell_geometry", "compress", "default_rule",
    "dphi_E_elastic", "dphi_E_fluid", "eval_basis", "integrate_scalar",
    "interpolate", "load_config", "norms", "p0_space", "p1_scalar",
    "p1_vector", "pi_interp", "pi_prime", "psi_split", "rt0_space",
    "run_experiment", "solve_linear", "stiffness_C", "stress", "swelling_T",
    "write_metrics_csv", "write_vtk", "zeta", "zeta_prime",
]
