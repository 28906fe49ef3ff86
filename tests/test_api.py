"""The package's public surface: what the top level exports, and what the
modules the solver runs on no longer hold."""

import inspect

import chbfem
from chbfem import fem, linalg, mesh, model, solvers

PUBLIC = {
    "ChbSystem", "ConfigError", "FieldState", "LinearSolveFailure",
    "MaterialParams", "NonConvergence", "RunRecord", "SimulationConfig",
    "SimulationFailed", "SolverConfig", "StructuredTriMesh",
    "advance_simulation", "build_unit_square_mesh", "load_config",
    "run_experiment", "solve_linear", "write_metrics_csv", "write_vtk",
}

# the generic per-cell assembly now lives in tests/reference_fem.py
MOVED_FROM_FEM = (
    "FunctionSpace", "FieldFunction", "BasisValues", "CellContext",
    "SpaceTables", "eval_basis", "assemble_form", "assemble_matrix",
    "mass_kernel", "stiffness_kernel", "apply_dirichlet", "interpolate",
    "integrate_scalar", "p1_scalar", "p1_vector", "p0_space", "rt0_space",
)
DELETED_FROM_LINALG = ("SparseMatrix", "TripletBuffer", "compress", "norms")
# the tensor-form laws and the parts of pi_laws one at a time; model.Phase
# and Pointwise hold those the solver runs
DELETED_FROM_MODEL = (
    "zeta", "zeta_prime", "psi_split", "swelling_T", "swelling_T_prime",
    "stiffness_C", "stress", "dphi_E_elastic", "d2phi_E_elastic",
    "deps_dphi_E_elastic", "dphi_E_fluid", "d2phi_E_fluid", "dp_dphi_E_fluid",
    "ddivu_dphi_E_fluid", "pi_interp", "pi_prime", "pi_double_prime",
)

# iteration counts live in the step's solvers.IterationStats, which the
# step fills as it iterates, never on an exception
DELETED_FROM_SOLVERS = ("_newton_solve",)
COUNTS_ON_EXCEPTIONS = ("iterations", "inner_newton", "state")
# each takes every per-iterate value it reads from its one caller, which
# holds it already, and rebuilds none
ITERATE_METHODS = ("ch_residual", "ch_residual_and_jacobian",
                   "monolithic_residual", "monolithic_jacobian",
                   "phase_integrals", "solve_ch_subsystem")


def test_top_level_exports_are_pinned_and_resolve():
    assert len(chbfem.__all__) == len(set(chbfem.__all__))
    assert set(chbfem.__all__) == PUBLIC
    for name in chbfem.__all__:
        assert getattr(chbfem, name) is not None, name
    # the constitutive laws stay reachable through their module
    assert callable(chbfem.model.pi_laws)


def test_solver_modules_hold_only_what_the_solver_runs():
    assert {n for n in vars(fem) if not n.startswith("_")} >= {
        "QuadratureRule", "default_rule", "rt0_basis"}
    for name in MOVED_FROM_FEM:
        assert not hasattr(fem, name), f"chbfem.fem.{name}"
    for name in DELETED_FROM_LINALG:
        assert not hasattr(linalg, name), f"chbfem.linalg.{name}"
    for name in DELETED_FROM_MODEL:
        assert not hasattr(model, name), f"chbfem.model.{name}"
    assert not hasattr(mesh, "cell_geometry")
    assert not hasattr(mesh, "boundary_dofs")
    for name in DELETED_FROM_SOLVERS:
        assert not hasattr(solvers, name), f"chbfem.solvers.{name}"
    # phase_integrals forms every per-cell coefficient
    assert not hasattr(solvers.ChbSystem, "_elasticity_data")
    # advance_simulation picks the step method from config.strategy
    assert not hasattr(solvers.ChbSystem, "step")
    # no step copies its start: every iterate is a new array
    assert not hasattr(solvers.FieldState, "copy")
    for exc in (linalg.LinearSolveFailure("x"), solvers.NonConvergence("x")):
        for name in COUNTS_ON_EXCEPTIONS:
            assert not hasattr(exc, name), f"{type(exc).__name__}.{name}"
    # read by no caller
    assert not hasattr(solvers.NonConvergence("x"), "last_update_norm")


def test_iterate_methods_take_their_frozen_values_from_the_caller():
    for name in ITERATE_METHODS:
        params = inspect.signature(getattr(solvers.ChbSystem, name)).parameters
        defaulted = [p for p, v in params.items() if v.default is not v.empty]
        assert not defaulted, f"ChbSystem.{name} defaults {defaulted}"
        if name.startswith("ch_"):
            # they read the laws at u and p, or their integrals, not u and p
            assert not {"u_fixed", "p_fixed"} & set(params), name
    # the Jacobian does not depend on the previous step
    assert "state_prev" not in inspect.signature(
        solvers.ChbSystem.monolithic_jacobian).parameters
