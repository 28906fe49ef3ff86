import dataclasses
import gc
import threading
import time
import weakref
from functools import cached_property, partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import event, example, given, settings, strategies as st

import reference_kernels as ref
from chbfem import _kernels as kn
from chbfem import linalg, model, solvers
from chbfem.cli import config_from_dict
from chbfem.fem import rt0_basis
from chbfem.linalg import LinearSolveFailure, solve_linear
from chbfem.mesh import build_unit_square_mesh
from chbfem.model import MaterialParams
from chbfem.solvers import (DIVERGENCE_LIMIT, ChbSystem, FieldState,
                            IterationStats, NonConvergence, SimulationFailed,
                            SolverConfig, advance_simulation)

from conftest import (assert_within_ulps, ch_frozen, ch_split_residual,
                      random_state, take_step)
from reference_fem import apply_dirichlet


@pytest.fixture(scope="module")
def system4():
    return ChbSystem(build_unit_square_mesh(4), MaterialParams())


def fd_jacobian(residual, x0, h=1e-6):
    n = len(x0)
    J = np.empty((n, n))
    for k in range(n):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += h
        xm[k] -= h
        J[:, k] = (residual(xp) - residual(xm)) / (2.0 * h)
    return J


def test_scatter_vector_adds_like_add_at():
    # duplicate dofs, signed zeros (dof 1 receives only -0.0) and a dof
    # no element touches
    dofs = np.array([[0, 2, 1], [2, 0, 4], [4, 1, 0]])
    elem = np.array([[-0.0, 1e-17, -0.0], [-0.0, 0.1, 1.0], [0.3, -0.0, 0.2]])
    want = np.zeros(6)
    np.add.at(want, dofs.ravel(), elem.ravel())
    got = solvers._scatter_vector(elem, dofs, 6)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    rng = np.random.default_rng(40)
    dofs = rng.integers(0, 50, (200, 3))
    elem = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-8, 8, (200, 3))
    want = np.zeros(50)
    np.add.at(want, dofs.ravel(), elem.ravel())
    assert np.array_equal(solvers._scatter_vector(elem, dofs, 50), want)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(strategy="picard")
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(num_steps=-1)
    for bad in (dict(max_iter=2.5), dict(num_steps=1.5), dict(max_iter=True),
                dict(num_steps=False), dict(tol=np.inf), dict(tol=np.nan),
                dict(tol=True), dict(tol="1e-6"), dict(strategy=True)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)
    cfg = SolverConfig(tol=np.float64(1e-3), max_iter=np.int64(3), num_steps=0)
    assert cfg.max_iter == 3
    assert config_from_dict({"max_iter": np.int64(3)}).solver_config("splitting") \
        == SolverConfig(max_iter=3)


def test_ch_residual_zero_at_homogeneous_state(system4):
    st = system4.initial_state(lambda x, y: 0.5)
    res = ch_split_residual(system4, st, st.phi, st.mu, st.u, st.p)
    assert np.abs(res[:system4.nv]).max() <= 1e-14
    assert np.abs(res[system4.nv:]).max() <= 1e-14


def test_ch_jacobian_matches_finite_differences(system4):
    rng = np.random.default_rng(31)
    prev = random_state(system4, rng)
    for _ in range(3):
        phi = rng.uniform(0.15, 0.85, system4.nv)
        mu = rng.normal(0.0, 0.1, system4.nv)
        res, J = system4.ch_residual_and_jacobian(
            prev, phi, mu, *ch_frozen(system4, prev, phi, prev.u, prev.p))
        x0 = np.concatenate([phi, mu])

        def r(x):
            phi, mu = x[:system4.nv], x[system4.nv:]
            return ch_split_residual(system4, prev, phi, mu, prev.u, prev.p)

        F = fd_jacobian(r, x0)
        scale = max(np.abs(F).max(), 1.0)
        assert np.abs(J.toarray() - F).max() <= 1e-5 * scale


def test_monolithic_jacobian_matches_finite_differences(system4):
    rng = np.random.default_rng(32)
    prev = random_state(system4, rng)
    st = random_state(system4, rng, n=1)
    J = system4.monolithic_jacobian(st, system4.monolithic_iterate(st)).toarray()

    def r(x):
        state = system4.unpack(x, 1)
        return system4.monolithic_residual(prev, state,
                                           system4.monolithic_iterate(state),
                                           system4.ch_explicit_load(prev))

    F = fd_jacobian(r, system4.pack(st))
    scale = max(np.abs(F).max(), 1.0)
    assert np.abs(J - F).max() <= 1e-5 * scale


def test_jacobian_interpolation_couplings_vanish_outside_unit_interval(system4):
    rng = np.random.default_rng(33)
    prev = random_state(system4, rng)
    st = random_state(system4, rng, phi_low=1.2, phi_high=1.6, n=1)
    J = system4.monolithic_jacobian(st, system4.monolithic_iterate(st)).toarray()
    o = system4
    # couplings mediated by pi'(phi): (mu,p), (p,phi) and (q,phi) blocks
    assert np.abs(J[o.off_mu:o.off_u, o.off_p:o.off_q]).max() == 0.0
    assert np.abs(J[o.off_p:o.off_q, :o.nv]).max() == 0.0
    assert np.abs(J[o.off_q:, :o.nv]).max() == 0.0
    # the swelling coupling is affine in phi and must survive
    assert np.abs(J[o.off_u:o.off_p, :o.nv]).max() > 0.0


@pytest.mark.parametrize("n", [4, 8, 16, 65])
def test_stiffness_elem_has_the_bits_of_optimized_einsum(n):
    # the association (B^T C) B, which the benchmark's pinned counts
    # depend on; phi reaches past [0, 1], where pi is clamped
    o = ChbSystem(build_unit_square_mesh(n), MaterialParams())
    rng = np.random.default_rng(n)
    cint = o.phase_integrals(o.phase_values(rng.uniform(-0.2, 1.2, o.nv))).cint
    want = np.einsum("cai,cab,cbj->cij", o.B, cint, o.B, optimize=True)
    assert np.array_equal(o._stiffness_elem(cint), want)


def test_elasticity_zero_load(system4):
    phase = system4.phase_integrals(system4.phase_values(np.full(system4.nv, 0.5)))
    u = system4.solve_elasticity(phase, np.zeros(system4.nc),
                                 np.zeros(2 * system4.nv))
    assert np.abs(u).max() <= 1e-14


def test_elasticity_residual_and_boundary(system4):
    rng = np.random.default_rng(34)
    phi = rng.uniform(0.0, 1.0, system4.nv)
    p = rng.normal(0.0, 0.5, system4.nc)
    phase = system4.phase_integrals(system4.phase_values(phi))
    u = system4.solve_elasticity(phase, p, np.zeros(2 * system4.nv))
    assert np.abs(u[system4.u_bdofs]).max() == 0.0
    # residual of the unconstrained equations at the solution
    cint, swell = phase.cint, phase.swell
    abar = phase.abar
    strain = system4.strain_per_cell(u)
    sint = np.einsum("cab,cb->ca", cint, strain) - swell
    elem = (np.einsum("cai,ca->ci", system4.B, sint)
            - (abar * p)[:, None] * system4.drow)
    r = np.zeros(2 * system4.nv)
    np.add.at(r, system4.udofs.ravel(), elem.ravel())
    free = np.setdiff1d(np.arange(2 * system4.nv), system4.u_bdofs)
    assert np.abs(r[free]).max() <= 1e-10


def test_elasticity_rotation_symmetry_with_uniform_stiffness():
    # the mesh is invariant under the 180-degree rotation about the center;
    # with equal phase stiffnesses and the odd eigenstrain phi = x the
    # pulled-back field w(x) = u(rot(x)) solves the same discrete problem,
    # so u(rot(v)) = u(v) componentwise to solver precision
    mesh = build_unit_square_mesh(8)
    params = MaterialParams(C1=MaterialParams().C0.copy())
    system = ChbSystem(mesh, params)
    phi = mesh.vertices[:, 0].copy()
    u = system.solve_elasticity(system.phase_integrals(system.phase_values(phi)),
                                np.zeros(system.nc), np.zeros(2 * system.nv))
    n = mesh.n
    ux = u[0::2].reshape(n + 1, n + 1)
    uy = u[1::2].reshape(n + 1, n + 1)
    assert np.abs(ux).max() > 1e-4  # the load actually deforms the body
    assert np.abs(ux - ux[::-1, ::-1]).max() <= 1e-8
    assert np.abs(uy - uy[::-1, ::-1]).max() <= 1e-8


def test_flow_zero_data(system4):
    prev = system4.initial_state(lambda x, y: 0.5)
    phase = system4.phase_integrals(system4.phase_values(prev.phi))
    p, q = system4.solve_flow(phase, system4.divu_per_cell(prev.u),
                              np.zeros(system4.ne),
                              system4.storage_coefficient(prev))
    assert np.abs(p).max() <= 1e-14
    assert np.abs(q).max() <= 1e-14


def test_flow_elementwise_residual_and_global_mass(system4):
    rng = np.random.default_rng(35)
    prev = random_state(system4, rng)
    phi = rng.uniform(0.1, 0.9, system4.nv)
    u = rng.normal(0.0, 0.01, 2 * system4.nv)
    phase = system4.phase_integrals(system4.phase_values(phi))
    p, q = system4.solve_flow(phase, system4.divu_per_cell(u),
                              np.zeros(system4.ne),
                              system4.storage_coefficient(prev))
    state = FieldState(phi, prev.mu, u, p, q, n=1)
    cell_res = system4.flow_cell_residual(prev, state)
    assert np.abs(cell_res).max() <= 1e-10
    # summing the cell equations: storage change balances the net outflux
    assert abs(cell_res.sum()) <= 1e-10


def test_flow_cell_residual_is_the_flow_residuals_mass_balance(system4):
    rng = np.random.default_rng(41)
    prev = random_state(system4, rng)
    st = random_state(system4, rng, n=1)
    o = system4
    phase = o.phase_integrals(o.phase_values(st.phi))
    mq_elem = kn.rt0_weighted_mass(phase.values, o.wq_last, o.psi_last)
    res = o.flow_residual(phase, o.divu_per_cell(st.u),
                          o.storage_coefficient(prev), mq_elem, st.p, st.q)
    assert res.shape == (o.nc + o.ne,)
    assert np.array_equal(o.flow_cell_residual(prev, st), res[:o.nc])


def test_monolithic_pq_block_equals_standalone_flow_matrix(system4):
    rng = np.random.default_rng(39)
    prev = random_state(system4, rng)
    st = random_state(system4, rng, n=1)
    J = system4.monolithic_jacobian(st, system4.monolithic_iterate(st)).toarray()
    o = system4
    phase = system4.phase_integrals(system4.phase_values(st.phi))
    dinv = phase.dinv
    mq_elem = kn.rt0_weighted_mass(phase.values, o.wq_last, o.psi_last)
    r = np.repeat(o.qdofs[:, :, None], 3, axis=2).ravel()
    c = np.repeat(o.qdofs[:, None, :], 3, axis=1).ravel()
    Mq = sp.coo_matrix((mq_elem.ravel(), (r, c)), shape=(o.ne, o.ne)).toarray()
    flow = np.block([[np.diag(dinv), system4.params.tau * o.Bdiv.toarray()],
                     [-o.BdivT.toarray(), Mq]])
    assert np.allclose(J[o.off_p:, o.off_p:], flow, atol=1e-14)


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("phi_range", [(0.15, 0.85), (-0.4, 1.4)],
                         ids=["inside", "beyond_unit_interval"])
def test_condensed_flow_solves_the_full_flow_system(n, phi_range, monkeypatch):
    monkeypatch.setattr(solvers, "KRYLOV_MIN_ROWS", 0)
    o = ChbSystem(build_unit_square_mesh(n), MaterialParams(xi=2.0))
    rng = np.random.default_rng(50 + n)
    prev = random_state(o, rng, *phi_range)
    st = random_state(o, rng, *phi_range, n=1)
    A = reference_flow_matrix(o, st.phi)
    phase = o.phase_integrals(o.phase_values(st.phi))
    rhs = np.concatenate([o.storage_coefficient(prev)
                          - phase.abar * o.divu_per_cell(st.u), np.zeros(o.ne)])
    # from zero and for the increment from a flux far from the solution
    for q_start in (np.zeros(o.ne), rng.normal(0.0, 1.0, o.ne)):
        p, q = o.solve_flow(phase, o.divu_per_cell(st.u), q_start,
                            o.storage_coefficient(prev))
        residual = np.linalg.norm(rhs - A @ np.concatenate([p, q]))
        assert residual <= linalg.SOLVE_RTOL * max(np.linalg.norm(rhs), 1.0)
        state = FieldState(st.phi, st.mu, st.u, p, q, n=1)
        assert np.abs(o.flow_cell_residual(prev, state)).max() <= 1e-10
    # the flux Schur complement, Mq + tau Bdiv^T diag(dinv)^-1 Bdiv
    mq_elem = kn.rt0_weighted_mass(phase.values, o.wq_last, o.psi_last)
    S = o._flux_matrix(phase.dinv, mq_elem).toarray()
    Mq = A[o.nc:, o.nc:].toarray()
    Bdiv = o.Bdiv.toarray()
    want = Mq + o.params.tau * Bdiv.T @ np.diag(1.0 / phase.dinv) @ Bdiv
    np.testing.assert_allclose(S, want, rtol=0, atol=1e-13 * np.abs(want).max())
    # SPD, up to the roundoff of Mq's element blocks
    np.testing.assert_allclose(S, S.T, rtol=0, atol=1e-15 * np.abs(S).max())
    np.linalg.cholesky(S)
    # the preconditioner's flow block against a direct solve of J's (p, q)
    J = o.monolithic_jacobian(st, o.monolithic_iterate(st))
    flow = J.blocks[2]
    b = rng.normal(size=flow.size)
    x = flow.solver()(b)
    direct = spla.spsolve(J[o.off_p:, o.off_p:].tocsc(), b)
    assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("scales", [
    # eliminating p misses the contract: S's right-hand side grows with M
    dict(M0=1e12, M1=1e11),
    # S = Mq + tau Bdiv^T diag(dinv)^-1 Bdiv is singular in double
    # precision: its second term, of rank nc < ne, swamps Mq
    dict(M0=1e20, M1=1e19), dict(kappa0=1e20, kappa1=1e19), dict(tau=1e20)],
    ids=["large_M", "largest_M", "large_kappa", "large_tau"])
def test_flow_at_extreme_scales_solves_the_full_flow_system(n, scales):
    o = ChbSystem(build_unit_square_mesh(n), MaterialParams(xi=2.0, **scales))
    rng = np.random.default_rng(60 + n)
    prev = random_state(o, rng)
    st = random_state(o, rng, n=1)
    A = reference_flow_matrix(o, st.phi)
    phase = o.phase_integrals(o.phase_values(st.phi))
    f = o.storage_coefficient(prev) - phase.abar * o.divu_per_cell(st.u)
    rhs = np.concatenate([f, np.zeros(o.ne)])
    bound = linalg.SOLVE_RTOL * max(np.linalg.norm(rhs), 1.0)
    # the condensed solve alone misses the full system's contract here
    mq_elem = kn.rt0_weighted_mass(phase.values, o.wq_last, o.psi_last)
    S = o._flux_matrix(phase.dinv, mq_elem)
    try:
        p, q = o._flow_from_flux(partial(solve_linear, S), phase.dinv, f)
        assert np.linalg.norm(rhs - A @ np.concatenate([p, q])) > bound
    except LinearSolveFailure:
        pass
    # so solve_flow solves the full system
    p, q = o.solve_flow(phase, o.divu_per_cell(st.u), np.zeros(o.ne),
                        o.storage_coefficient(prev))
    assert np.linalg.norm(rhs - A @ np.concatenate([p, q])) <= bound


def test_elasticity_from_a_start_meets_the_contract(system4):
    rng = np.random.default_rng(36)
    phi = rng.uniform(0.0, 1.0, system4.nv)
    p = rng.normal(0.0, 0.5, system4.nc)
    phase = system4.phase_integrals(system4.phase_values(phi))
    u = system4.solve_elasticity(phase, p, np.zeros(2 * system4.nv))
    start = rng.normal(0.0, 1.0, 2 * system4.nv)
    start[system4.u_bdofs] = 0.0
    u_inc = system4.solve_elasticity(phase, p, start)
    assert np.array_equal(u_inc[system4.u_bdofs], np.zeros(len(system4.u_bdofs)))
    assert np.abs(u_inc - u).max() <= 1e-10 * max(np.abs(u).max(), 1.0)


def test_ch_solve_at_extreme_surface_tension_fails_cleanly(system4):
    # tiny gamma strengthens the relative coupling; the solve either
    # converges or reports NonConvergence, never another failure mode
    system = ChbSystem(system4.mesh, MaterialParams(gamma=1e-6))
    st0 = system.initial_state()
    cfg = SolverConfig(strategy="splitting", num_steps=1, max_iter=8)
    stats = IterationStats(step=1)
    try:
        system.solve_ch_subsystem(st0, system.ch_explicit_load(st0),
                                  system.strain_per_cell(st0.u), st0.p, cfg,
                                  st0.phi, st0.mu,
                                  system.phase_values(st0.phi), stats)
    except NonConvergence:
        pass
    (iters,) = stats.inner_newton
    assert 1 <= iters <= cfg.max_iter


def test_monolithic_residual_zero_at_fixed_point(system4):
    st = system4.initial_state(lambda x, y: 0.5)
    nxt = dataclasses.replace(st, n=1)
    res = system4.monolithic_residual(st, nxt, system4.monolithic_iterate(nxt),
                                      system4.ch_explicit_load(st))
    assert np.abs(res).max() <= 1e-14


def test_monolithic_residual_first_order_in_perturbation(system4):
    cfg = SolverConfig(strategy="monolithic", num_steps=1)
    st0 = system4.initial_state()
    st1, _ = take_step(system4.monolithic_step, st0, cfg)
    rng = np.random.default_rng(36)
    d = rng.normal(size=system4.ndofs)
    d /= np.linalg.norm(d)
    norms = []
    for eps in (1e-4, 1e-5, 1e-6):
        pert = system4.unpack(system4.pack(st1) + eps * d, 1)
        res = system4.monolithic_residual(st0, pert,
                                          system4.monolithic_iterate(pert),
                                          system4.ch_explicit_load(st0))
        norms.append(np.linalg.norm(res))
    # residual scales linearly: ratio of successive norms tracks eps ratio
    assert norms[0] / norms[1] == pytest.approx(10.0, rel=0.3)
    assert norms[1] / norms[2] == pytest.approx(10.0, rel=0.3)


def test_cross_strategy_agreement_short_run(system4):
    st0 = system4.initial_state()
    fin_s, stats_s = advance_simulation(
        system4, st0, SolverConfig(strategy="splitting", num_steps=2))
    fin_m, stats_m = advance_simulation(
        system4, st0, SolverConfig(strategy="monolithic", num_steps=2))
    assert all(s.converged for s in stats_s + stats_m)
    assert np.abs(fin_s.phi - fin_m.phi).max() <= 1e-5
    assert np.abs(fin_s.u - fin_m.u).max() <= 1e-5
    assert np.abs(fin_s.p - fin_m.p).max() <= 1e-5


def test_monolithic_residual_small_at_splitting_solution(system4):
    st0 = system4.initial_state()
    cfg = SolverConfig(strategy="splitting", num_steps=1)
    st1, _ = take_step(system4.splitting_step, st0, cfg)
    res = system4.monolithic_residual(st0, st1, system4.monolithic_iterate(st1),
                                      system4.ch_explicit_load(st0))
    o = system4
    blocks = [res[:o.nv], res[o.off_mu:o.off_u], res[o.off_u:o.off_p],
              res[o.off_p:o.off_q], res[o.off_q:]]
    for blk in blocks:
        assert np.linalg.norm(blk) <= 10.0 * cfg.tol


def test_zero_data_fixed_point_both_strategies(system4):
    st0 = system4.initial_state(lambda x, y: 0.5)
    cfg_s = SolverConfig(strategy="splitting", num_steps=1)
    st1, stats = take_step(system4.splitting_step, st0, cfg_s)
    assert stats.outer_iters == 1
    assert np.abs(st1.phi - st0.phi).max() <= 1e-12
    cfg_m = SolverConfig(strategy="monolithic", num_steps=1)
    st1m, stats_m = take_step(system4.monolithic_step, st0, cfg_m)
    assert stats_m.newton_iters == 1
    assert np.abs(system4.pack(st1m) - system4.pack(st0)).max() <= 1e-12


def test_mass_conservation_over_steps(system4):
    st0 = system4.initial_state()
    ones = np.ones(system4.nv)
    mass0 = ones @ (system4.M @ st0.phi)
    masses = []
    advance_simulation(system4, st0, SolverConfig(strategy="splitting", num_steps=4),
                       on_step=lambda s, _: masses.append(ones @ (system4.M @ s.phi)))
    for m in masses:
        assert abs(m - mass0) <= 1e-10


def test_nonconvergence_is_reported_not_crashed(system4):
    st0 = system4.initial_state()
    cfg = SolverConfig(strategy="splitting", num_steps=1, max_iter=2)
    stats = IterationStats(step=1)
    with pytest.raises(NonConvergence) as exc_info:
        system4.splitting_step(st0, cfg, stats)
    exc = exc_info.value
    assert stats.outer_iters <= cfg.max_iter

    cfg_m = SolverConfig(strategy="monolithic", num_steps=1, max_iter=2)
    stats = IterationStats(step=1)
    with pytest.raises(NonConvergence):
        system4.monolithic_step(st0, cfg_m, stats)
    assert stats.newton_iters == 2


@pytest.mark.parametrize("pressure", [10 * DIVERGENCE_LIMIT, np.nan])
def test_splitting_outer_divergence_is_reported(system4, monkeypatch, pressure):
    monkeypatch.setattr(system4, "solve_flow", lambda *args, **kwargs: (
        np.full(system4.nc, pressure), np.zeros(system4.ne)))
    stats = IterationStats(step=1)
    with pytest.raises(NonConvergence, match="outer iteration diverged") as exc_info:
        system4.splitting_step(system4.initial_state(), SolverConfig(), stats)
    exc = exc_info.value
    assert exc.diverged
    assert stats.outer_iters == 1
    assert len(stats.inner_newton) == 1


def test_splitting_subsystems_use_symmetric_mode_lu(splu_specs):
    system = ChbSystem(build_unit_square_mesh(4), MaterialParams())
    _, stats = take_step(system.splitting_step, system.initial_state(),
                         SolverConfig())
    # one factorization per CH Newton iterate, elasticity and flow solve;
    # each layout's first orders A^T + A, every later one reuses that order
    expected, ordered = [], set()
    for nit in stats.inner_newton:
        for sub in ["ch"] * nit + ["elas", "flow"]:
            expected.append("NATURAL" if sub in ordered else "MMD_AT_PLUS_A")
            ordered.add(sub)
    assert splu_specs == expected
    assert expected.count("NATURAL") > 0


def test_monolithic_jacobian_uses_symmetric_mode_lu(system4, splu_specs):
    system4.release_workspace()   # an earlier test may have ordered it
    st0 = system4.initial_state()
    J = system4.monolithic_jacobian(st0, system4.monolithic_iterate(st0))
    solve_linear(J, -system4.monolithic_residual(
        st0, st0, system4.monolithic_iterate(st0),
        system4.ch_explicit_load(st0)))
    assert splu_specs == ["MMD_AT_PLUS_A"]
    # every later Jacobian is factored on that stored ordering, and below
    # KEEP_FACTOR_MIN_DOFS (n=4) once per Newton iterate, with no fallback
    splu_specs.clear()
    _, stats = take_step(system4.monolithic_step, st0,
                         SolverConfig(strategy="monolithic"))
    assert stats.newton_iters >= 2
    assert splu_specs == ["NATURAL"] * stats.newton_iters
    assert system4._monolithic_layout.ordering is not None
    assert system4._monolithic_layout.kept is None


def test_stored_orderings_match_fresh_ones_over_two_steps(monkeypatch):
    mesh = build_unit_square_mesh(8)
    cfg = SolverConfig(num_steps=2)
    system = ChbSystem(mesh, MaterialParams())
    kept_state, kept = advance_simulation(system, system.initial_state(), cfg)

    def fresh(A, b):
        A.layout.ordering = A.layout.kept = None
        return solve_linear(A, b)

    monkeypatch.setattr(solvers, "solve_linear", fresh)
    system = ChbSystem(mesh, MaterialParams())
    fresh_state, refs = advance_simulation(system, system.initial_state(), cfg)
    assert ([(s.outer_iters, s.inner_newton) for s in kept]
            == [(s.outer_iters, s.inner_newton) for s in refs])
    for field in ("phi", "mu", "u", "p", "q"):
        assert np.max(np.abs(getattr(kept_state, field)
                             - getattr(fresh_state, field))) <= 1e-10


def test_monolithic_jacobian_at_random_state_needs_no_fallback(system4,
                                                                splu_specs):
    system4.release_workspace()   # so the Jacobian is ordered afresh
    rng = np.random.default_rng(40)
    prev = random_state(system4, rng)
    st = random_state(system4, rng, n=1)
    J = system4.monolithic_jacobian(st, system4.monolithic_iterate(st))
    b = -system4.monolithic_residual(prev, st, system4.monolithic_iterate(st),
                                     system4.ch_explicit_load(prev))
    x = solve_linear(J, b)
    assert splu_specs == ["MMD_AT_PLUS_A"]
    assert (np.linalg.norm(b - J @ x)
            <= 1e-10 * max(np.linalg.norm(b), 1.0))


def test_krylov_path_keeps_the_direct_paths_newton_counts(monkeypatch,
                                                          splu_specs):
    mesh = build_unit_square_mesh(8)
    cfg = SolverConfig(strategy="monolithic", num_steps=2)
    runs = []
    for min_rows in (solvers.KRYLOV_MIN_ROWS, 0):
        monkeypatch.setattr(solvers, "KRYLOV_MIN_ROWS", min_rows)
        system = ChbSystem(mesh, MaterialParams())
        splu_specs.clear()
        state, stats = advance_simulation(system, system.initial_state(), cfg)
        runs.append((system.pack(state), [s.newton_iters for s in stats],
                     list(splu_specs)))
    (direct, direct_iters, _), (krylov, krylov_iters, specs) = runs
    assert krylov_iters == direct_iters
    assert np.max(np.abs(krylov - direct)) <= 1e-8
    # three block factorizations per Newton iterate, no fallback; the
    # first iterate orders the CH, elasticity and flow layouts for the run
    assert specs == (["MMD_AT_PLUS_A"] * 3
                     + ["NATURAL"] * (3 * sum(krylov_iters) - 3))


def test_only_large_jacobians_carry_their_diagonal_blocks(monkeypatch):
    system = ChbSystem(build_unit_square_mesh(16), MaterialParams())
    st0 = system.initial_state()
    J = system.monolithic_jacobian(st0, system.monolithic_iterate(st0))
    assert J.shape[0] == 2468 < solvers.KRYLOV_MIN_ROWS
    assert not hasattr(J, "blocks")
    monkeypatch.setattr(solvers, "KRYLOV_MIN_ROWS", 0)
    o = ChbSystem(build_unit_square_mesh(4), MaterialParams())
    rng = np.random.default_rng(41)
    prev, st = random_state(o, rng), random_state(o, rng, n=1)
    J = o.monolithic_jacobian(st, o.monolithic_iterate(st))
    ch, elas, flow = J.blocks
    assert [blk.size for blk in J.blocks] == [o.off_u, o.off_p - o.off_u,
                                              o.ndofs - o.off_p]
    # each block's solver inverts J's diagonal block: the CH and flow
    # blocks on any vector
    for blk, lo, hi in ((ch, 0, o.off_u), (flow, o.off_p, o.ndofs)):
        b = rng.normal(size=blk.size)
        x = blk.solver()(b)
        assert np.linalg.norm(J[lo:hi, lo:hi] @ x - b) <= 1e-12 * np.linalg.norm(b)
    # the (u, u) block differs only in the columns of the clamped dofs, so
    # the two agree on vectors that are zero there
    b = rng.normal(size=elas.size)
    b[o.u_bdofs] = 0.0
    x = elas.solver()(b)
    assert np.array_equal(x[o.u_bdofs], np.zeros(len(o.u_bdofs)))
    uu = J[o.off_u:o.off_p, o.off_u:o.off_p]
    assert np.linalg.norm(uu @ x - b) <= 1e-12 * np.linalg.norm(b)


def _check_kept_factors_keep_the_direct_paths_counts(n, xi, monkeypatch,
                                                     splu_specs,
                                                     strategy="splitting"):
    """Two steps, with every solve factored afresh and with kept factors,
    make the same iterations, with states within 1e-8, and the kept
    factors make fewer LUs than solves."""
    mesh = build_unit_square_mesh(n)
    cfg = SolverConfig(strategy=strategy, num_steps=2)
    runs = []
    for min_dofs in (ChbSystem(mesh, MaterialParams()).ndofs + 1, 0):
        monkeypatch.setattr(solvers, "KEEP_FACTOR_MIN_DOFS", min_dofs)
        system = ChbSystem(mesh, MaterialParams(xi=xi))
        splu_specs.clear()
        state, stats = advance_simulation(system, system.initial_state(), cfg)
        runs.append((system.pack(state),
                     [(s.outer_iters, s.inner_newton, s.newton_iters)
                      for s in stats],
                     len(splu_specs)))
    (direct, direct_counts, direct_lus), (kept, kept_counts, kept_lus) = runs
    assert kept_counts == direct_counts
    assert np.max(np.abs(kept - direct)) <= 1e-8
    solves = sum(sum(inner) + 2 * outer + newton
                 for outer, inner, newton in direct_counts)
    assert direct_lus == solves
    assert kept_lus < solves


def test_kept_factors_keep_the_direct_paths_splitting_counts(monkeypatch,
                                                             splu_specs):
    _check_kept_factors_keep_the_direct_paths_counts(8, 0.5, monkeypatch,
                                                     splu_specs)


def test_kept_factors_keep_the_direct_paths_counts_on_swell(monkeypatch,
                                                            splu_specs):
    # the swell workload's mesh and swelling
    _check_kept_factors_keep_the_direct_paths_counts(16, 2.0, monkeypatch,
                                                     splu_specs)


def test_kept_factors_keep_the_direct_paths_monolithic_counts(monkeypatch,
                                                               splu_specs):
    _check_kept_factors_keep_the_direct_paths_counts(8, 0.5, monkeypatch,
                                                     splu_specs, "monolithic")


def test_kept_monolithic_factor_leaves_swells_diverging_step_bit_for_bit(
        monkeypatch):
    # the swell workload's monolithic step: n=16, xi=2, the seed-0 state.
    # Refinement against the last iterate's factor gives up on every
    # iterate of this diverging run, and each fresh factor on the stored
    # ordering has the bits of a fresh MMD one.
    mesh = build_unit_square_mesh(16)
    solves = []

    def recording(A, b):
        x = solve_linear(A, b)
        solves[-1].append(x)
        return x

    monkeypatch.setattr(solvers, "solve_linear", recording)
    for min_dofs in (solvers.KEEP_FACTOR_MIN_DOFS, np.inf):
        monkeypatch.setattr(solvers, "KEEP_FACTOR_MIN_DOFS", min_dofs)
        system = ChbSystem(mesh, MaterialParams(xi=2.0))
        assert system._monolithic_layout.keep_factor == (min_dofs != np.inf)
        solves.append([])
        with pytest.raises(NonConvergence, match="diverged"):
            take_step(system.monolithic_step, system.initial_state(),
                      SolverConfig(strategy="monolithic"))
    kept, fresh = solves
    assert len(kept) == len(fresh) > 1
    assert all(np.array_equal(x, y) for x, y in zip(kept, fresh))


def test_kept_factors_start_at_the_measured_crossover(splu_specs):
    for n, keeps in ((4, False), (8, True), (16, True)):
        system = ChbSystem(build_unit_square_mesh(n), MaterialParams())
        assert (system.ndofs >= solvers.KEEP_FACTOR_MIN_DOFS) == keeps
        splu_specs.clear()
        _, stats = take_step(system.splitting_step, system.initial_state(),
                         SolverConfig())
        solves = sum(stats.inner_newton) + 2 * stats.outer_iters
        for layout in (system._ch_layout[1], system._elasticity_layout,
                       system._flux_layout):
            assert layout.keep_factor == keeps
            assert (layout.kept is not None) == keeps
        if keeps:
            assert len(splu_specs) < solves
        else:
            assert len(splu_specs) == solves


def test_jacobians_with_blocks_keep_no_direct_factor(monkeypatch, splu_specs):
    monkeypatch.setattr(solvers, "KEEP_FACTOR_MIN_DOFS", 0)
    monkeypatch.setattr(solvers, "KRYLOV_MIN_ROWS", 0)
    monkeypatch.setattr(linalg, "KRYLOV_MAX_ITERS", 1)
    o = ChbSystem(build_unit_square_mesh(4), MaterialParams())
    rng = np.random.default_rng(42)
    prev, st = random_state(o, rng), random_state(o, rng, n=1)
    J = o.monolithic_jacobian(st, o.monolithic_iterate(st))
    assert J.layout.keep_factor and J.blocks
    solve_linear(J, -o.monolithic_residual(prev, st, o.monolithic_iterate(st),
                                           o.ch_explicit_load(prev)))
    # one GMRES iteration misses the contract after the three block
    # factors; the direct solve's factor is not kept
    assert splu_specs == ["MMD_AT_PLUS_A"] * 4
    assert o._monolithic_layout.ordering is not None
    assert o._monolithic_layout.kept is None


def _two_steps(mesh, params, state0, strategy, threshold):
    """(final state or None, stats, cause) of two steps, with
    KEEP_FACTOR_MIN_DOFS and KRYLOV_MIN_ROWS at `threshold`.  A failed
    run must name its cause; a run that converges must meet every linear
    solve's contract."""
    failures = []

    def counted(A, b):
        try:
            return solve_linear(A, b)
        except LinearSolveFailure as exc:
            failures.append(exc)
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "KEEP_FACTOR_MIN_DOFS", threshold)
        mp.setattr(solvers, "KRYLOV_MIN_ROWS", threshold)
        mp.setattr(solvers, "solve_linear", counted)
        system = ChbSystem(mesh, params)
        cfg = SolverConfig(strategy=strategy, num_steps=2)
        try:
            state, stats = advance_simulation(system, state0, cfg)
        except SimulationFailed as exc:
            assert isinstance(exc.cause, (NonConvergence, LinearSolveFailure))
            return None, exc.stats, exc.cause
    assert failures == []
    return state, stats, None


def _counts(stats):
    return [(s.outer_iters, s.newton_total) for s in stats]


# Up to this mesh size, the monolithic Newton iteration stays in its
# local regime over two steps for |xi| <= 2.5 (no draw of 550 took more
# than 20 iterations at n <= 8), so both paths converge or stop alike.
MONOLITHIC_LOCAL_N = 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 10), xi=st.floats(-2.5, 2.5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=6, xi=8.0, seed=0)   # each strategy stops on both paths
def test_fast_paths_agree_with_the_direct_path(n, xi, seed):
    # every fast path (kept factors with refinement, increment solves,
    # block GMRES over the condensed flow block) against none of them,
    # over two steps from a seeded perturbation of the half-domain split;
    # beyond MONOLITHIC_LOCAL_N, test_wandering_monolithic_newton_stops_cleanly
    mesh = build_unit_square_mesh(n)
    params = MaterialParams(xi=xi)
    system = ChbSystem(mesh, params)
    state0 = _perturbed_split(system, seed)
    strategies = (("splitting", "monolithic") if n <= MONOLITHIC_LOCAL_N
                  else ("splitting",))
    for strategy in strategies:
        (fast, fast_stats, fast_cause), (direct, direct_stats, direct_cause) = (
            _two_steps(mesh, params, state0, strategy, threshold)
            for threshold in (0, system.ndofs + 1))
        if fast is None or direct is None:
            assert fast is None and direct is None, (
                strategy, fast_cause, direct_cause,
                _counts(fast_stats), _counts(direct_stats))
            event(f"{strategy} stops on both paths: "
                  f"{type(fast_cause).__name__}, {type(direct_cause).__name__}")
            continue
        for field in ("phi", "u", "p"):
            assert np.max(np.abs(getattr(fast, field)
                                 - getattr(direct, field))) <= 1e-6
        if _counts(fast_stats) != _counts(direct_stats):
            event(f"{strategy} iteration counts differ")


def _perturbed_split(system, seed):
    """The half-domain split with phi moved by a seeded uniform noise of
    at most 0.05, clipped to [0, 1]."""
    state0 = system.initial_state()
    noise = np.random.default_rng(seed).uniform(-0.05, 0.05, system.nv)
    state0.phi = np.clip(state0.phi + noise, 0.0, 1.0)
    return state0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, xi, seed", [(9, -2.4999999999999996, 12130),
                                         (9, -2.5, 7), (10, -2.5, 7),
                                         (10, -2.5, 13)])
def test_wandering_monolithic_newton_stops_cleanly(n, xi, seed):
    # at n=9 and 10 and |xi| near 2.5 the first monolithic step leaves
    # Newton's local regime on both paths, and roundoff decides whether it
    # converges: in these draws one path converges after more than 20
    # iterations and the other stops.  At n=10 they split both ways: with
    # seed 7 the fast paths converge and the direct path stops, with seed
    # 13 the other way round.  Either outcome is clean: a stop is a
    # NonConvergence, and a run that converges meets every linear solve's
    # contract (_two_steps)
    mesh = build_unit_square_mesh(n)
    params = MaterialParams(xi=xi)
    system = ChbSystem(mesh, params)
    state0 = _perturbed_split(system, seed)
    for threshold in (0, system.ndofs + 1):
        state, stats, cause = _two_steps(mesh, params, state0, "monolithic",
                                         threshold)
        if state is None:
            assert isinstance(cause, NonConvergence), cause
        else:
            assert stats[0].newton_iters > 20, _counts(stats)


def test_kept_factors_go_with_the_run(monkeypatch):
    monkeypatch.setattr(solvers, "KEEP_FACTOR_MIN_DOFS", 0)
    # the monolithic steps factor the same layouts' blocks for GMRES
    monkeypatch.setattr(solvers, "KRYLOV_MIN_ROWS", 0)
    system = ChbSystem(build_unit_square_mesh(4), MaterialParams())
    layouts = (lambda: system._ch_layout[1], lambda: system._elasticity_layout,
               lambda: system._flux_layout)
    refs, monolithic_steps = [], []

    def splitting_step(_state, _stats):
        for layout in layouts:
            assert layout().kept is not None
            refs.extend([weakref.ref(layout().ordering),
                         weakref.ref(layout().kept)])

    def monolithic_step(_state, _stats):
        # the block factors of a monolithic solve serve that solve only
        assert all(layout().kept is None for layout in layouts)
        monolithic_steps.append(_stats)

    enabled = gc.isenabled()
    gc.disable()   # a reference cycle would keep the factors alive
    try:
        advance_simulation(system, system.initial_state(),
                           SolverConfig(num_steps=2), on_step=splitting_step)
        assert len(refs) == 12 and all(ref() is None for ref in refs)
        advance_simulation(system, system.initial_state(),
                           SolverConfig(strategy="monolithic", num_steps=2),
                           on_step=monolithic_step)
        assert len(monolithic_steps) == 2
    finally:
        if enabled:
            gc.enable()


def test_matrix_fills_construct_nothing_and_keep_the_layout_contract(
        monkeypatch):
    # scipy's constructor costs more than the product at n=16, so a fill
    # must not call it: a run makes as many sparse matrices for 3 steps
    # as for 1, all of them while it builds its layouts and orderings
    from scipy.sparse._base import _spbase
    made = []
    init = _spbase.__init__

    def counted(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_spbase, "__init__", counted)
    system = ChbSystem(build_unit_square_mesh(8), MaterialParams())
    counts = []
    for steps in (1, 3):
        made.clear()
        _, stats = advance_simulation(system, system.initial_state(),
                                      SolverConfig(num_steps=steps))
        counts.append((len(made), sum(s.outer_iters for s in stats)))
    assert counts[0][0] == counts[1][0]
    assert counts[1][1] > counts[0][1]

    # two matrices of one layout share its read-only tables, and hold
    # their own values and attributes
    monkeypatch.setattr(solvers, "KRYLOV_MIN_ROWS", 0)
    rng = np.random.default_rng(8)
    first, second = (
        system.monolithic_jacobian(st, system.monolithic_iterate(st))
        for st in (random_state(system, rng), random_state(system, rng)))
    plain = first.layout.matrix(first.data.copy())
    for mat in (first, second, plain):
        assert type(mat) is sp.csr_matrix and mat.has_canonical_format
        assert mat.layout is first.layout
        for table in ("indices", "indptr"):
            assert getattr(mat, table) is getattr(first, table)
            assert not getattr(mat, table).flags.writeable
    assert not np.shares_memory(first.data, second.data)
    assert not np.shares_memory(first.data, plain.data)
    assert first.blocks is not second.blocks
    assert not hasattr(plain, "blocks")
    system.release_workspace()


def test_advance_simulation_zero_steps(system4):
    st0 = system4.initial_state()
    fin, stats = advance_simulation(system4, st0, SolverConfig(num_steps=0))
    assert fin is st0
    assert stats == []


def test_advance_simulation_wraps_failures_with_step_index(system4):
    st0 = system4.initial_state()
    cfg = SolverConfig(strategy="monolithic", num_steps=3, max_iter=1)
    with pytest.raises(SimulationFailed) as exc_info:
        advance_simulation(system4, st0, cfg)
    exc = exc_info.value
    assert exc.step_index == 1
    assert len(exc.stats) == 1
    assert not exc.stats[-1].converged
    assert exc.stats[-1].wall_seconds > 0.0
    assert isinstance(exc.cause, NonConvergence)


def test_advance_simulation_times_linear_breakdown(system4, monkeypatch):
    def breaks_down(state, config, stats):
        time.sleep(0.001)
        raise LinearSolveFailure("singular")

    monkeypatch.setattr(system4, "splitting_step", breaks_down)
    with pytest.raises(SimulationFailed) as exc_info:
        advance_simulation(system4, system4.initial_state(), SolverConfig())
    assert exc_info.value.stats[-1].wall_seconds >= 0.001


def _counts_at_failed_solve(inner_newton, k):
    """(outer_iters, inner_newton) of a splitting step whose k-th solve fails.

    Each outer iteration solves its CH Newton iterates, then elasticity,
    then flow; the failed solve's outer iteration is not complete.
    """
    done = 0
    for j, nit in enumerate(inner_newton):
        if k <= done + nit:
            return j, (*inner_newton[:j], k - done)
        done += nit
        if k <= done + 2:
            return j, tuple(inner_newton[:j + 1])
        done += 2
    raise ValueError(f"the step makes fewer than {k} solves")


@pytest.mark.parametrize("strategy", ["splitting", "monolithic"])
def test_linear_breakdown_keeps_true_iteration_counts(system4, monkeypatch,
                                                      strategy):
    cfg = SolverConfig(strategy=strategy, num_steps=2)
    _, (first, clean) = advance_simulation(system4, system4.initial_state(), cfg)
    solves = clean.newton_total + 2 * clean.outer_iters
    for k in range(1, solves + 1):
        calls = []

        # every solve from the k-th of step 2 on breaks down, so that
        # solve_flow's direct solve of the full flow system fails too
        def fails_at_k(A, b):
            calls.append(1)
            if len(calls) >= first.newton_total + 2 * first.outer_iters + k:
                raise LinearSolveFailure("forced")
            return solve_linear(A, b)

        monkeypatch.setattr(solvers, "solve_linear", fails_at_k)
        with pytest.raises(SimulationFailed) as exc_info:
            advance_simulation(system4, system4.initial_state(), cfg)
        assert isinstance(exc_info.value.cause, LinearSolveFailure)
        kept, failed = exc_info.value.stats
        assert kept == dataclasses.replace(first, wall_seconds=kept.wall_seconds)
        if strategy == "splitting":
            outer, inner = _counts_at_failed_solve(clean.inner_newton, k)
            assert (failed.outer_iters, failed.inner_newton) == (outer, inner)
            assert failed.newton_iters == 0
        else:
            assert (failed.outer_iters, failed.inner_newton) == (0, ())
            assert failed.newton_iters == k
        assert not failed.converged and failed.wall_seconds > 0.0


@pytest.mark.parametrize("strategy, max_iter, far_solve, far, counts, message", [
    # one step on system4 converges after CH Newton counts (4, 3, 2, 2, 2,
    # 1), with an elasticity and a flow solve after each, or after 4
    # monolithic Newton iterates; counts are (outer_iters, inner_newton,
    # newton_iters) of the failed step
    ("splitting", 100, 4 + 2 + 2, 2.0 * DIVERGENCE_LIMIT, (1, (4, 2), 0),
     "phase-field Newton diverged"),
    ("splitting", 100, 4 + 2 + 2, np.nan, (1, (4, 2), 0),
     "phase-field Newton diverged"),
    ("splitting", 3, None, None, (0, (3,), 0),
     "phase-field Newton did not converge in 3 iterations"),
    ("splitting", 100, 4 + 2 + 3 + 1, 2.0 * DIVERGENCE_LIMIT, (2, (4, 3), 0),
     "splitting outer iteration diverged"),
    # a NaN displacement would fail the flow solve, so the NaN lands in
    # the flow solve and in its fallback to the full system
    ("splitting", 100, 4 + 2 + 3 + 2, np.nan, (2, (4, 3), 0),
     "splitting outer iteration diverged"),
    ("splitting", 5, None, None, (5, (4, 3, 2, 2, 2), 0),
     "splitting did not converge in 5 outer iterations"),
    ("monolithic", 100, 3, 2.0 * DIVERGENCE_LIMIT, (0, (), 3),
     "monolithic Newton diverged"),
    ("monolithic", 100, 3, np.nan, (0, (), 3), "monolithic Newton diverged"),
    ("monolithic", 2, None, None, (0, (), 2),
     "monolithic Newton did not converge in 2 iterations"),
], ids=["ch_diverged", "ch_diverged_nan", "ch_max_iter", "outer_diverged",
        "outer_diverged_nan", "outer_max_iter", "monolithic_diverged",
        "monolithic_diverged_nan", "monolithic_max_iter"])
def test_nonconvergence_keeps_true_iteration_counts(system4, monkeypatch,
                                                    strategy, max_iter,
                                                    far_solve, far, counts,
                                                    message):
    # every solve from the one numbered far_solve on, if any, is off by
    # far, beyond DIVERGENCE_LIMIT or NaN, so its Newton or outer
    # iteration diverges
    calls = []

    def far_from_k(A, b):
        calls.append(1)
        x = solve_linear(A, b)
        return x + far if far_solve is not None and len(calls) >= far_solve else x

    monkeypatch.setattr(solvers, "solve_linear", far_from_k)
    cfg = SolverConfig(strategy=strategy, num_steps=1, max_iter=max_iter)
    with pytest.raises(SimulationFailed) as exc_info:
        advance_simulation(system4, system4.initial_state(), cfg)
    assert isinstance(exc_info.value.cause, NonConvergence)
    assert str(exc_info.value.cause) == message
    assert exc_info.value.cause.diverged == (far_solve is not None)
    (failed,) = exc_info.value.stats
    assert (failed.outer_iters, failed.inner_newton, failed.newton_iters) == counts
    assert failed.step == 1
    assert not failed.converged and failed.wall_seconds > 0.0


def test_iteration_stats_sanity(system4):
    st0 = system4.initial_state()
    cfg = SolverConfig(strategy="splitting", num_steps=2)
    _, stats = advance_simulation(system4, st0, cfg)
    for s in stats:
        assert s.converged
        assert 1 <= s.outer_iters <= cfg.max_iter
        assert all(1 <= k <= cfg.max_iter for k in s.inner_newton)
        assert s.wall_seconds >= 0.0
        assert s.newton_total == sum(s.inner_newton)


def test_initial_state_shapes_and_step(system4):
    st = system4.initial_state()
    assert st.phi.shape == (system4.nv,)
    assert st.u.shape == (2 * system4.nv,)
    assert st.p.shape == (system4.nc,)
    assert st.q.shape == (system4.ne,)
    for v, (x, _) in enumerate(system4.mesh.vertices):
        assert st.phi[v] == (1.0 if x >= 0.5 else 0.0)
    assert np.all(st.mu == 0.0) and np.all(st.p == 0.0)


# -- assembly on cached sparsity patterns ---------------------------------------
# References build each system the direct way, with a COO-to-CSR conversion
# and sp.bmat; the cached patterns must reproduce them entry for entry.
# The elasticity matrix is also checked against reference_fem.apply_dirichlet.

def _coo(elem, rows, cols, shape):
    r = np.repeat(rows[:, :, None], cols.shape[1], axis=2).ravel()
    c = np.repeat(cols[:, None, :], rows.shape[1], axis=1).ravel()
    return sp.coo_matrix((elem.ravel(), (r, c)), shape=shape).tocsr()


def reference_ch_jacobian(o, phi, u, p):
    pa = o.params
    w_elem = ref.ch_jac(o.phi_at_qp(phi), o.wq, o.lam, o.strain_per_cell(u),
                        np.ascontiguousarray(p), pa)
    W = _coo(w_elem, o.cells, o.cells, (o.nv, o.nv))
    return sp.bmat([[o.M, pa.tau * pa.mobility * o.K],
                    [-pa.gamma * pa.ell * o.K - W, o.M]], format="csr")


def elasticity_elements(o, phi, p):
    phase = o.phase_integrals(o.phase_values(phi))
    cint, swell = phase.cint, phase.swell
    abar = phase.abar
    a_elem = np.einsum("cai,cab,cbj->cij", o.B, cint, o.B, optimize=True)
    rhs_elem = (np.einsum("cai,ca->ci", o.B, swell)
                + (abar * p)[:, None] * o.drow)
    return a_elem, rhs_elem


def reference_elasticity_matrix(o, phi):
    """The stiffness triplets outside the Dirichlet rows, plus one unit
    triplet per Dirichlet dof."""
    a_elem, _ = elasticity_elements(o, phi, np.zeros(o.nc))
    r = np.repeat(o.udofs[:, :, None], 6, axis=2).ravel()
    c = np.repeat(o.udofs[:, None, :], 6, axis=1).ravel()
    keep = ~np.isin(r, o.u_bdofs)
    fixed = o.u_bdofs
    return sp.coo_matrix(
        (np.concatenate([a_elem.ravel()[keep], np.ones(len(fixed))]),
         (np.concatenate([r[keep], fixed]), np.concatenate([c[keep], fixed]))),
        shape=(2 * o.nv, 2 * o.nv)).tocsr()


def reference_elasticity_system(o, phi, p):
    a_elem, rhs_elem = elasticity_elements(o, phi, p)
    A = _coo(a_elem, o.udofs, o.udofs, (2 * o.nv, 2 * o.nv))
    b = np.zeros(2 * o.nv)
    np.add.at(b, o.udofs.ravel(), rhs_elem.ravel())
    return apply_dirichlet(A, b, o.u_bdofs, symmetric=False)


def reference_flow_matrix(o, phi):
    dinv = o.phase_integrals(o.phase_values(phi)).dinv
    mq_elem = ref.rt0_weighted_mass(o.phi_at_qp(phi), o.wq,
                                    rt0_basis(o.mesh, o.lam), o.params)
    Mq = _coo(mq_elem, o.qdofs, o.qdofs, (o.ne, o.ne))
    return sp.bmat([[sp.diags(dinv), o.params.tau * o.Bdiv],
                    [-o.BdivT, Mq]], format="csr")


def reference_flux_matrix(o, phi):
    """The flux Schur complement, its cell blocks summed as COO triplets."""
    dinv = o.phase_integrals(o.phase_values(phi)).dinv
    mq_elem = ref.rt0_weighted_mass(o.phi_at_qp(phi), o.wq,
                                    rt0_basis(o.mesh, o.lam), o.params)
    d = o.signed_lengths
    s_elem = mq_elem + (o.params.tau / dinv)[:, None, None] * (
        d[:, :, None] * d[:, None, :])
    return _coo(s_elem, o.qdofs, o.qdofs, (o.ne, o.ne))


def reference_monolithic_jacobian(o, st):
    pa = o.params
    phi_q = o.phi_at_qp(st.phi)
    strain = o.strain_per_cell(st.u)
    p_cell = np.ascontiguousarray(st.p)
    psi_q = rt0_basis(o.mesh, o.lam)
    w_elem = ref.ch_jac(phi_q, o.wq, o.lam, strain, p_cell, pa)
    mu_u, mu_p, u_phi, p_phi, q_phi = ref.coupling_blocks(
        phi_q, o.wq, o.lam, strain, p_cell,
        np.ascontiguousarray(st.q[o.qdofs]), o.B, psi_q, pa)
    phase = o.phase_integrals(o.phase_values(st.phi))
    cint = phase.cint
    abar, dinv = phase.abar, phase.dinv
    a_elem = np.einsum("cai,cab,cbj->cij", o.B, cint, o.B, optimize=True)
    mq_elem = ref.rt0_weighted_mass(phi_q, o.wq, psi_q, pa)
    cells, u, pd, q = o.cells, o.udofs, o.pdofs, o.qdofs
    m, k = o._m_elem, o._k_elem
    div = o.signed_lengths[:, :, None]
    diag = np.arange(o.nc)[:, None]
    blocks = [  # (elem, row dofs, col dofs, row offset, col offset)
        (m, cells, cells, o.off_phi, o.off_phi),
        (pa.tau * pa.mobility * k, cells, cells, o.off_phi, o.off_mu),
        (m, cells, cells, o.off_mu, o.off_mu),
        (-pa.gamma * pa.ell * k, cells, cells, o.off_mu, o.off_phi),
        (-w_elem, cells, cells, o.off_mu, o.off_phi),
        (-mu_u, cells, u, o.off_mu, o.off_u),
        (-mu_p[:, :, None], cells, pd, o.off_mu, o.off_p),
        (a_elem, u, u, o.off_u, o.off_u),
        (u_phi, u, cells, o.off_u, o.off_phi),
        ((-abar[:, None] * o.drow)[:, :, None], u, pd, o.off_u, o.off_p),
        (p_phi, pd, cells, o.off_p, o.off_phi),
        ((abar[:, None] * o.drow)[:, None, :], pd, u, o.off_p, o.off_u),
        (dinv[:, None, None], diag, diag, o.off_p, o.off_p),
        (pa.tau * div.transpose(0, 2, 1), pd, q, o.off_p, o.off_q),
        (mq_elem, q, q, o.off_q, o.off_q),
        (-div, q, pd, o.off_q, o.off_p),
        (q_phi, q, cells, o.off_q, o.off_phi),
    ]
    rows, cols, vals = [], [], []
    for elem, rdofs, cdofs, roff, coff in blocks:
        rows.append(np.repeat(rdofs[:, :, None], cdofs.shape[1], axis=2).ravel()
                    + roff)
        cols.append(np.repeat(cdofs[:, None, :], rdofs.shape[1], axis=1).ravel()
                    + coff)
        vals.append(elem.ravel())
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    fixed = o.off_u + o.u_bdofs
    keep = ~np.isin(rows, fixed)
    rows = np.concatenate([rows[keep], fixed])
    cols = np.concatenate([cols[keep], fixed])
    vals = np.concatenate([vals[keep], np.ones(len(fixed))])
    return sp.coo_matrix((vals, (rows, cols)), shape=(o.ndofs, o.ndofs)).tocsr()


def assert_same_csr(A, B):
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("phi_range", [(0.15, 0.85), (-0.4, 1.4)],
                         ids=["inside", "beyond_unit_interval"])
def test_cached_patterns_reproduce_direct_assembly(n, phi_range, monkeypatch):
    o = ChbSystem(build_unit_square_mesh(n), MaterialParams(xi=2.0))
    rng = np.random.default_rng(n)
    solved = []
    # a real solve: solve_flow checks its answer on the full flow system
    monkeypatch.setattr(solvers, "solve_linear", lambda A, b: (
        solved.append((A, b)), solve_linear(A, b))[1])
    for _ in range(3):  # the first call builds the patterns, later ones fill
        prev = random_state(o, rng, *phi_range)
        st = random_state(o, rng, *phi_range, n=1)
        want = reference_ch_jacobian(o, st.phi, st.u, st.p)
        # the monolithic path's CH block, bit for bit
        pw = o.pointwise(st.phi, st.u, st.p)
        assert_same_csr(o._ch_matrix(kn.ch_jac(pw, o.wq_last, o.lam)), want)
        # the splitting's, to a few ulps
        _, J = o.ch_residual_and_jacobian(prev, st.phi, st.mu,
                                          *ch_frozen(o, prev, st.phi, st.u, st.p))
        assert np.array_equal(J.indptr, want.indptr)
        assert np.array_equal(J.indices, want.indices)
        assert_within_ulps(J.data, want.data, "splitting's CH Jacobian")
        assert_same_csr(o.monolithic_jacobian(st, o.monolithic_iterate(st)),
                        reference_monolithic_jacobian(o, st))
        solved.clear()
        phase = o.phase_integrals(o.phase_values(st.phi))
        o.solve_elasticity(phase, st.p, np.zeros(2 * o.nv))
        o.solve_flow(phase, o.divu_per_cell(st.u), np.zeros(o.ne),
                     o.storage_coefficient(prev))
        (A_el, b_el), (A_fl, b_fl) = solved
        assert_same_csr(A_el, reference_elasticity_matrix(o, st.phi))
        # apply_dirichlet sums the full triplet list, in another order
        A_ref, b_ref = reference_elasticity_system(o, st.phi, st.p)
        A_kept = A_el.copy()
        A_kept.eliminate_zeros()
        assert np.array_equal(A_kept.indptr, A_ref.indptr)
        assert np.array_equal(A_kept.indices, A_ref.indices)
        np.testing.assert_allclose(A_kept.data, A_ref.data, rtol=1e-13, atol=0)
        assert np.array_equal(b_el, b_ref)
        assert_same_csr(A_fl, reference_flux_matrix(o, st.phi))
        phase = o.phase_integrals(o.phase_values(st.phi))
        strain = o.strain_per_cell(st.u)
        divu = strain[:, 0] + strain[:, 1]
        f = o.storage_coefficient(prev) - phase.abar * divu
        assert np.array_equal(b_fl, o.BdivT @ (f / phase.dinv))


@pytest.mark.parametrize("n", [4, 16])
def test_jacobians_displacement_block_is_the_elasticity_matrix(n):
    # both clamp the Dirichlet rows only, so the block preconditioner's
    # (u, u) block is the Jacobian's own: the same slots, the same unit
    # rows, and the same values to roundoff in how each sums its triplets
    o = ChbSystem(build_unit_square_mesh(n), MaterialParams(xi=2.0))
    st = random_state(o, np.random.default_rng(n), n=1)
    J = o.monolithic_jacobian(st, o.monolithic_iterate(st))
    block = J[o.off_u:o.off_p, o.off_u:o.off_p]
    A = o._elasticity_matrix(o._stiffness_elem(
        o.phase_integrals(o.phase_values(st.phi)).cint))
    assert np.array_equal(block.indptr, A.indptr)
    assert np.array_equal(block.indices, A.indices)
    fixed = o.u_bdofs
    for M, start in ((J, o.off_u), (A, 0)):
        for dof in fixed:
            row = M[start + dof]
            assert np.array_equal(row.indices, [start + dof])
            assert np.array_equal(row.data, [1.0])
    clamped = np.isin(solvers._slot_rows(A), fixed)
    assert np.array_equal(block.data[clamped], A.data[clamped])
    assert_within_ulps(block.data, A.data, "the Jacobian's (u, u) block")


def test_elasticity_leaves_out_eliminated_entries(system4, monkeypatch):
    # the Dirichlet rows hold only their unit diagonal; the free rows keep
    # every slot of the stiffness pattern, those in the Dirichlet columns
    # and exact zeros included
    solved = []
    monkeypatch.setattr(solvers, "solve_linear", lambda A, b: (
        solved.append(A), np.zeros(len(b)))[1])
    phase = system4.phase_integrals(system4.phase_values(np.full(system4.nv, 0.5)))
    system4.solve_elasticity(phase, np.zeros(system4.nc), np.zeros(2 * system4.nv))
    A, layout, fixed = solved[0], system4._elasticity_layout, system4.u_bdofs
    assert np.array_equal(A.indptr, layout.indptr)
    assert np.array_equal(A.indices, layout.indices)
    rows = solvers._slot_rows(A)
    clamped = np.isin(rows, fixed)
    assert np.array_equal(rows[clamped], A.indices[clamped])
    assert np.array_equal(rows[clamped], fixed)
    assert np.all(A.data[clamped] == 1.0)
    udofs = system4.udofs
    full = _coo(np.ones((system4.nc, 6, 6)), udofs, udofs, A.shape)
    full.sort_indices()
    full_rows = solvers._slot_rows(full)
    free = ~np.isin(full_rows, fixed)
    assert np.array_equal(rows[~clamped], full_rows[free])
    assert np.array_equal(A.indices[~clamped], full.indices[free])
    assert np.any(np.isin(A.indices[~clamped], fixed))
    assert np.any(A.data[~clamped] == 0.0)


def test_every_solve_gets_its_systems_one_layout(monkeypatch):
    system = ChbSystem(build_unit_square_mesh(4), MaterialParams())
    within = []

    def labelled(name, method):
        def run(*args, **kwargs):
            within.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                within.pop()
        return run

    for name, method in (("ch", "solve_ch_subsystem"),
                         ("elas", "solve_elasticity"), ("flow", "solve_flow"),
                         ("mono", "monolithic_step")):
        monkeypatch.setattr(system, method,
                            labelled(name, getattr(system, method)))
    solved = {"ch": 0, "elas": 0, "flow": 0, "mono": 0}

    def checked(A, b):
        layout = {"ch": system._ch_layout[1],
                  "elas": system._elasticity_layout,
                  "flow": system._flux_layout,
                  "mono": system._monolithic_layout}[within[-1]]
        assert np.array_equal(A.indptr, layout.indptr)
        assert np.array_equal(A.indices, layout.indices)
        solved[within[-1]] += 1
        return solve_linear(A, b)

    monkeypatch.setattr(solvers, "solve_linear", checked)
    _, split = advance_simulation(system, system.initial_state(),
                                  SolverConfig(strategy="splitting", num_steps=2))
    _, mono = advance_simulation(system, system.initial_state(),
                                 SolverConfig(strategy="monolithic", num_steps=2))
    outer = sum(s.outer_iters for s in split)
    assert solved == {"ch": sum(s.newton_total for s in split), "elas": outer,
                      "flow": outer, "mono": sum(s.newton_iters for s in mono)}


def test_later_steps_build_no_sparsity(system4, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("sparsity rebuilt after the first step")

    def forbid_after_first(_state, _stats):
        monkeypatch.setattr(solvers.sp, "coo_matrix", forbidden)
        monkeypatch.setattr(solvers.sp, "bmat", forbidden)

    for strategy in ("splitting", "monolithic"):
        cfg = SolverConfig(strategy=strategy, num_steps=2)
        _, stats = advance_simulation(system4, system4.initial_state(), cfg,
                                      on_step=forbid_after_first)
        assert [s.converged for s in stats] == [True, True]
        monkeypatch.undo()


def test_runs_on_a_reused_system_match_a_fresh_one():
    mesh = build_unit_square_mesh(8)
    params = MaterialParams()
    reused = ChbSystem(mesh, params)
    workspace = {name for name, attr in vars(ChbSystem).items()
                 if isinstance(attr, cached_property)}
    assert {"_ch_layout", "_monolithic_layout", "wq_last"} <= workspace
    for strategy in ("splitting", "monolithic"):
        cfg = SolverConfig(strategy=strategy, num_steps=2)
        fresh = ChbSystem(mesh, params)
        want, _ = advance_simulation(fresh, fresh.initial_state(), cfg)
        # a stored LU ordering from an earlier solve would change bits
        take_step(reused.splitting_step, reused.initial_state(), SolverConfig())
        assert reused._ch_layout[1].ordering is not None
        for _ in range(2):
            got, _ = advance_simulation(reused, reused.initial_state(), cfg)
            assert np.array_equal(reused.pack(got), reused.pack(want))
            # a finished run keeps no workspace
            assert not workspace & set(vars(reused))


def test_splitting_builds_each_phase_once_and_passes_it_on(system4, monkeypatch):
    built = []
    init = model.Phase.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    strains = []
    strain_per_cell = ChbSystem.strain_per_cell
    monkeypatch.setattr(model.Phase, "__init__", counting)
    monkeypatch.setattr(ChbSystem, "strain_per_cell", lambda self, u: (
        strains.append(1), strain_per_cell(self, u))[1])
    _, stats = take_step(system4.splitting_step, system4.initial_state(),
                         SolverConfig())
    assert stats.outer_iters >= 2
    # one Phase of the previous phi serves its storage term and the first
    # iterate; then one per later CH iterate and per converged phi
    assert len(built) <= stats.newton_total + 1
    # the previous displacement's strain, and one per new displacement,
    # which its flow solve and the next CH solve share
    assert len(strains) == stats.outer_iters + 1


def test_monolithic_step_computes_its_explicit_load_once(system4, monkeypatch):
    # the expansive double-well term reads only the previous step
    calls = []
    explicit = ChbSystem.ch_explicit_load
    monkeypatch.setattr(ChbSystem, "ch_explicit_load",
                        lambda self, prev: (calls.append(1), explicit(self, prev))[1])
    for strategy in ("splitting", "monolithic"):
        calls.clear()
        step = getattr(system4, f"{strategy}_step")
        _, stats = take_step(step, system4.initial_state(),
                             SolverConfig(strategy=strategy))
        assert stats.newton_total >= 2
        assert calls == [1], strategy


def test_only_the_monolithic_path_computes_the_cube(system4, monkeypatch):
    # the splitting reads s * s * s (model.FrozenCoupling); each monolithic
    # Newton iterate reads the double well of its model.Pointwise once, on
    # the caller's thread
    reads = []
    well_prime = model.Phase.well_prime

    def counting(self):
        reads.append(threading.get_ident())
        return well_prime.fget(self)

    monkeypatch.setattr(model.Phase, "well_prime", property(counting))
    _, stats = take_step(system4.splitting_step, system4.initial_state(),
                         SolverConfig())
    assert stats.outer_iters >= 2 and stats.newton_total > stats.outer_iters
    assert reads == []
    threads = threading.active_count()
    _, stats = take_step(system4.monolithic_step, system4.initial_state(),
                         SolverConfig(strategy="monolithic"))
    assert threading.active_count() == threads
    assert stats.newton_iters >= 2
    assert reads == [threading.get_ident()] * stats.newton_iters


def test_phase_integrals_evaluated_once_per_outer_iteration(system4, monkeypatch):
    calls = []
    integrals = kn.phase_cell_integrals
    monkeypatch.setattr(kn, "phase_cell_integrals",
                        lambda *args: (calls.append(1), integrals(*args))[1])
    _, stats = take_step(system4.splitting_step, system4.initial_state(),
                         SolverConfig())
    # one per outer iteration, plus the storage term of the previous step
    assert len(calls) == stats.outer_iters + 1
    calls.clear()
    _, stats = take_step(system4.monolithic_step, system4.initial_state(),
                         SolverConfig())
    assert len(calls) == 3 * stats.newton_iters
