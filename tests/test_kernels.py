"""Cross-checks of the vectorized kernels against the generic assembly path."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import reference_kernels as ref
from chbfem import _kernels as kn
from chbfem import fem, model, solvers
from chbfem.linalg import solve_linear
from chbfem.mesh import build_unit_square_mesh
from chbfem.model import MaterialParams
from chbfem.solvers import ChbSystem, SolverConfig

from conftest import (assert_within_ulps, ch_frozen, frozen_coupling,
                      random_state, take_step)
from reference_fem import FieldFunction, assemble_form, p0_space, p1_scalar, rt0_space


@pytest.fixture(scope="module")
def setup():
    mesh = build_unit_square_mesh(8)
    params = MaterialParams()
    system = ChbSystem(mesh, params)
    rng = np.random.default_rng(21)
    state = random_state(system, rng, phi_low=-0.3, phi_high=1.3)
    return system, params, state


def test_ch_load_matches_generic_assembly(setup):
    system, params, state = setup
    elem = kn.ch_load(system.pointwise(state.phi, state.u, state.p),
                      system.wq_last, system.fem.lam)
    fast = np.zeros(system.nv)
    np.add.at(fast, system.fem.cells.ravel(), elem.ravel())

    strain = system.strain_per_cell(state.u)
    V = p1_scalar(system.mesh)
    phi_f = FieldFunction(V, state.phi)

    def kernel(ctx):
        c = ctx.cell
        pw = model.Pointwise(model.Phase(ctx.coeffs[0][None], params),
                             strain[c:c + 1], state.p[c:c + 1])
        return np.einsum("q,q,iq->i", ctx.w, pw.mu_nonlinear[:, 0], ctx.test.vals)

    slow = assemble_form(V, None, kernel, coefficients=(phi_f,))
    assert np.allclose(fast, slow, rtol=0, atol=1e-12 * max(np.abs(slow).max(), 1.0))


def test_rt0_mass_matches_generic_assembly(setup):
    system, params, state = setup
    elem = kn.rt0_weighted_mass(system.phase_values(state.phi), system.wq_last,
                                system.psi_last)
    r = np.repeat(system.fem.qdofs[:, :, None], 3, axis=2).ravel()
    c = np.repeat(system.fem.qdofs[:, None, :], 3, axis=1).ravel()
    fast = sp.coo_matrix((elem.ravel(), (r, c)),
                         shape=(system.ne, system.ne)).toarray()

    V = p1_scalar(system.mesh)
    Q = rt0_space(system.mesh)
    phi_f = FieldFunction(V, state.phi)

    def kernel(ctx):
        kinv = model.Phase(ctx.coeffs[0][None], params).kinv[:, 0]
        return np.einsum("q,iqa,jqa->ij", ctx.w * kinv, ctx.test.vals, ctx.trial.vals)

    slow = assemble_form(Q, Q, kernel, coefficients=(phi_f,)).toarray()
    assert np.allclose(fast, slow, rtol=0, atol=1e-12 * max(np.abs(slow).max(), 1.0))


def test_phase_cell_integrals_match_generic_assembly(setup):
    system, params, state = setup
    fast = kn.phase_cell_integrals(system.phase_values(state.phi), system.wq_last)

    P = p0_space(system.mesh)
    phi_f = FieldFunction(p1_scalar(system.mesh), state.phi)
    for k, got in enumerate(fast):
        def kernel(ctx):
            f = model.Phase(ctx.coeffs[0][None], params).cell_integrands[k]
            return np.einsum("q,q,iq->i", ctx.w, f[:, 0], ctx.test.vals)

        slow = assemble_form(P, None, kernel, coefficients=(phi_f,))
        assert np.allclose(got, slow, rtol=0,
                           atol=1e-12 * max(np.abs(slow).max(), 1.0))


# -- bit-exactness against the einsum formulation -------------------------------
# The kernels promise the bits of tests/reference_kernels.py (see the
# _kernels module docstring), so these compare with np.array_equal.

def assert_same_bits(got, want, what):
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), (
        f"{what} differs from the reference kernels under numpy {np.__version__}")


def kernel_inputs(n, seed, params=None):
    system = ChbSystem(build_unit_square_mesh(n),
                       params or MaterialParams(xi=2.0))
    state = random_state(system, np.random.default_rng(seed),
                         phi_low=-0.3, phi_high=1.3)
    return system, state


def check_kernels(system, state):
    o, pa = system, system.params
    phi_q = o.phi_at_qp(state.phi)
    strain = o.strain_per_cell(state.u)
    p = np.ascontiguousarray(state.p)
    qloc = np.ascontiguousarray(state.q[o.fem.qdofs])
    psi_q = o.fem.rt0_basis(o.fem.lam)
    phase = kn.Phase(phi_q, pa)
    mu_u, mu_p, u_phi, p_phi, q_phi = ref.coupling_blocks(
        phi_q, o.fem.wq, o.fem.lam, strain, p, qloc, o.fem.B, psi_q, pa)
    want = {
        "ch_load": ref.ch_load(phi_q, o.fem.wq, o.fem.lam, strain, p, pa),
        "ch_jac": ref.ch_jac(phi_q, o.fem.wq, o.fem.lam, strain, p, pa),
        "coupling_blocks": (mu_u, mu_p, p_phi, q_phi),
    }

    def run(name, pw):
        if name == "coupling_blocks":
            return kn.coupling_blocks(pw, o.wq_last, o.fem.lam, kn.cells_last(qloc),
                                      kn.cells_last(o.fem.B), o.psi_last)
        return getattr(kn, name)(pw, o.wq_last, o.fem.lam)

    assert_same_bits(kn.rt0_weighted_mass(phase, o.wq_last, o.psi_last),
                     ref.rt0_weighted_mass(phi_q, o.fem.wq, psi_q, pa),
                     "rt0_weighted_mass")
    for k, (g, e) in enumerate(zip(kn.phase_cell_integrals(phase, o.wq_last),
                                   ref.phase_cell_integrals(phi_q, o.fem.wq, pa))):
        assert_same_bits(g, e, f"phase_cell_integrals[{k}]")
    # a pointwise that starts from the phase values computed above
    shared = kn.Pointwise(phase, strain, p)
    for name in want:  # one pass shared by all three, then one pass each
        for path, pw in (("shared", shared),
                         ("own", kn.Pointwise(kn.Phase(phi_q, pa), strain, p))):
            got, exp = run(name, pw), want[name]
            if name != "coupling_blocks":
                got, exp = (got,), (exp,)
            for k, (g, e) in enumerate(zip(got, exp)):
                assert_same_bits(g, e, f"{name}[{k}] ({path} pass)")
                assert g.flags.c_contiguous
            if name == "coupling_blocks":
                # the Jacobian's (u, phi) block is mu_u transposed
                assert_same_bits(got[0].transpose(0, 2, 1), u_phi,
                                 f"u_phi ({path} pass)")


@pytest.mark.parametrize("n, seed", [(4, 1), (4, 2), (16, 3), (16, 4),
                                     pytest.param(65, 5, marks=pytest.mark.slow)])
def test_kernels_match_reference_bit_for_bit(n, seed):
    check_kernels(*kernel_inputs(n, seed))


# SPD stiffnesses with nonzero shear couplings: every term of each
# three-term sum in the kernels is nonzero, so a change of its order shows
SHEAR_COUPLED = dict(
    C0=np.array([[100.0, 20.0, 7.0], [20.0, 90.0, -5.0], [7.0, -5.0, 60.0]]),
    C1=np.array([[1.0, 0.1, 0.03], [0.1, 1.2, -0.07], [0.03, -0.07, 0.8]]))


@pytest.mark.parametrize("n, seed", [(4, 11), (16, 12),
                                     pytest.param(65, 13, marks=pytest.mark.slow)])
def test_kernels_match_reference_bit_for_bit_with_shear_couplings(n, seed):
    check_kernels(*kernel_inputs(n, seed, MaterialParams(xi=2.0, **SHEAR_COUPLED)))


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("stiffness", [{}, SHEAR_COUPLED],
                         ids=["default", "shear_coupled"])
def test_ch_jacobian_matches_coo_assembly_bit_for_bit(n, stiffness):
    o, state = kernel_inputs(n, 20 + n, MaterialParams(xi=2.0, **stiffness))
    pa = o.params
    prev = random_state(o, np.random.default_rng(n), -0.3, 1.3)
    # the monolithic path's CH block
    J = o._ch_matrix(kn.ch_jac(o.pointwise(state.phi, state.u, state.p),
                               o.wq_last, o.fem.lam))
    w_elem = ref.ch_jac(o.phi_at_qp(state.phi), o.fem.wq, o.fem.lam,
                        o.strain_per_cell(state.u),
                        np.ascontiguousarray(state.p), pa)
    r, c = fem.block_indices(o.fem.cells, o.fem.cells)

    def p1(vals):
        return sp.coo_matrix((vals, (r, c)), shape=(o.nv, o.nv)).tocsr()

    M, K, W = p1(o.fem.m_elem.ravel()), p1(o.fem.k_elem.ravel()), p1(w_elem.ravel())
    for X in (K, W):
        assert np.array_equal(X.indptr, M.indptr)
        assert np.array_equal(X.indices, M.indices)
    rows = np.repeat(np.arange(o.nv), np.diff(M.indptr))
    nv = o.nv
    blocks = [(M.data, 0, 0), (K.data * (pa.tau * pa.mobility), 0, nv),
              (K.data * (-pa.gamma * pa.ell) - W.data, nv, 0),
              (M.data, nv, nv)]
    want = sp.coo_matrix(
        (np.concatenate([d for d, _, _ in blocks]),
         (np.concatenate([rows + ro for _, ro, _ in blocks]),
          np.concatenate([M.indices + co for _, _, co in blocks]))),
        shape=(2 * nv, 2 * nv)).tocsr()
    assert np.array_equal(J.indptr, want.indptr)
    assert np.array_equal(J.indices, want.indices)
    assert_same_bits(J.data, want.data, "CH Jacobian")
    # the splitting's path, to a few ulps: phase values shared with the
    # phase integrals, the frozen coupling and the explicit load computed
    # beforehand
    _, J = o.ch_residual_and_jacobian(
        prev, state.phi, state.mu, o.phase_values(state.phi),
        frozen_coupling(o, state.u, state.p), o.ch_explicit_load(prev))
    assert np.array_equal(J.indptr, want.indptr)
    assert np.array_equal(J.indices, want.indices)
    assert_within_ulps(J.data, want.data, "CH Jacobian from shared values")


def test_kernels_match_reference_at_the_unit_interval_ends():
    # phi at exactly 0 and 1, where pi'' jumps, and zero fields
    system, state = kernel_inputs(4, 6)
    state.phi = np.where(np.arange(system.nv) % 2 == 0, 0.0, 1.0)
    state.p[:] = 0.0
    check_kernels(system, state)


# -- the splitting's CH laws on frozen coupling coefficients ------------------
# model.FrozenCoupling writes the laws of Pointwise.mu_nonlinear and
# dmu_nonlinear a second time, as polynomials in xi (phi - phi_bar), and
# ChbSystem.ch_residual_and_jacobian integrates them with one product
# each: the same values to a few ulps (conftest.ULPS), not the same bits.

def check_frozen_coupling(system, state):
    o, pa = system, system.params
    phi_q = o.phi_at_qp(state.phi)
    strain = o.strain_per_cell(state.u)
    p = np.ascontiguousarray(state.p)
    mu, dmu = frozen_coupling(o, state.u, state.p).ch_laws(
        o.phase_values(state.phi))
    pw = kn.Pointwise(kn.Phase(phi_q, pa), strain, p)
    assert_within_ulps(mu, pw.mu_nonlinear, "mu_nonlinear")
    assert_within_ulps(dmu, pw.dmu_nonlinear, "dmu_nonlinear")
    # the element arrays, as ch_residual_and_jacobian integrates them
    assert_within_ulps((o.wq_last * mu).T @ o.fem.lam,
                       ref.ch_load(phi_q, o.fem.wq, o.fem.lam, strain, p, pa), "ch_load")
    w_elem = ((o.wq_last * dmu).T @ o.lam_outer).reshape(-1, 3, 3)
    assert_within_ulps(w_elem, ref.ch_jac(phi_q, o.fem.wq, o.fem.lam, strain, p, pa),
                       "ch_jac")


@pytest.mark.parametrize("n, seed", [(4, 31), (16, 32),
                                     pytest.param(65, 33, marks=pytest.mark.slow)])
@pytest.mark.parametrize("stiffness", [{}, SHEAR_COUPLED],
                         ids=["default", "shear_coupled"])
def test_frozen_coupling_matches_reference_within_ulps(n, seed, stiffness):
    check_frozen_coupling(*kernel_inputs(n, seed,
                                         MaterialParams(xi=2.0, **stiffness)))


@pytest.mark.parametrize("stiffness", [{}, SHEAR_COUPLED],
                         ids=["default", "shear_coupled"])
def test_frozen_coupling_matches_reference_at_the_unit_interval_ends(stiffness):
    # phi at exactly 0 and 1, where pi'' jumps
    system, state = kernel_inputs(4, 34, MaterialParams(xi=2.0, **stiffness))
    state.phi = np.where(np.arange(system.nv) % 2 == 0, 0.0, 1.0)
    check_frozen_coupling(system, state)


def test_ch_residual_is_the_same_with_or_without_the_jacobian():
    o, state = kernel_inputs(16, 7)
    prev = random_state(o, np.random.default_rng(8), -0.3, 1.3)
    values, coupling, explicit = ch_frozen(o, prev, state.phi, state.u, state.p)
    res, _ = o.ch_residual_and_jacobian(prev, state.phi, state.mu, values,
                                        coupling, explicit)
    mu_nl, _ = coupling.ch_laws(values)
    load = (o.wq_last * mu_nl).T @ o.fem.lam
    assert_same_bits(res, o.ch_residual(prev, state.phi, state.mu, load,
                                        explicit), "ch_residual")
    # the monolithic path's load, from model.Pointwise and kn.ch_load
    pw = o.pointwise(state.phi, state.u, state.p)
    assert_within_ulps(load, kn.ch_load(pw, o.wq_last, o.fem.lam), "CH load")


def test_monolithic_step_assembles_what_the_standalone_methods_do(monkeypatch):
    system, _ = kernel_inputs(4, 9)
    prev = random_state(system, np.random.default_rng(9), 0.2, 0.8)
    solves = []
    monkeypatch.setattr(solvers, "solve_linear", lambda A, b: (
        solves.append((A, b, solve_linear(A, b))), solves[-1][2])[1])
    take_step(system.monolithic_step, prev, SolverConfig(strategy="monolithic"))
    assert len(solves) >= 2
    state = dataclasses.replace(prev, n=prev.n + 1)
    for A, b, x in solves:
        assert_same_bits(-system.monolithic_residual(
            prev, state, system.monolithic_iterate(state),
            system.ch_explicit_load(prev)), b,
            "monolithic_residual")
        J = system.monolithic_jacobian(state, system.monolithic_iterate(state))
        assert np.array_equal(J.indptr, A.indptr)
        assert np.array_equal(J.indices, A.indices)
        assert_same_bits(J.data, A.data, "monolithic_jacobian")
        state = system.unpack(system.pack(state) + x, state.n)
