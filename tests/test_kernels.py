"""Cross-checks of the vectorized kernels against the generic assembly path."""

import numpy as np
import pytest
import scipy.sparse as sp

import reference_kernels as ref
from chbfem import _kernels as kn
from chbfem import model, solvers
from chbfem.linalg import solve_linear
from chbfem.mesh import build_unit_square_mesh
from chbfem.model import MaterialParams
from chbfem.solvers import ChbSystem, SolverConfig

from conftest import random_state
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
                      system.wq, system.lam)
    fast = np.zeros(system.nv)
    np.add.at(fast, system.cells.ravel(), elem.ravel())

    strain = system.strain_per_cell(state.u)
    divu = strain[:, 0] + strain[:, 1]
    V = p1_scalar(system.mesh)
    phi_f = FieldFunction(V, state.phi)

    def kernel(ctx):
        phi_q = ctx.coeffs[0]
        _, _, dc, _, _ = model.psi_split(phi_q)
        vals = (params.gamma / params.ell * dc
                + model.dphi_E_elastic(phi_q, strain[ctx.cell], params)
                + model.dphi_E_fluid(phi_q, divu[ctx.cell], state.p[ctx.cell], params))
        return np.einsum("q,q,iq->i", ctx.w, vals, ctx.test.vals)

    slow = assemble_form(V, None, kernel, coefficients=(phi_f,))
    assert np.allclose(fast, slow, rtol=0, atol=1e-12 * max(np.abs(slow).max(), 1.0))


def test_rt0_mass_matches_generic_assembly(setup):
    system, params, state = setup
    elem = kn.rt0_weighted_mass(system.phi_at_qp(state.phi), system.wq,
                                system.psi_q, params)
    r = np.repeat(system.qdofs[:, :, None], 3, axis=2).ravel()
    c = np.repeat(system.qdofs[:, None, :], 3, axis=1).ravel()
    fast = sp.coo_matrix((elem.ravel(), (r, c)),
                         shape=(system.ne, system.ne)).toarray()

    V = p1_scalar(system.mesh)
    Q = rt0_space(system.mesh)
    phi_f = FieldFunction(V, state.phi)

    def kernel(ctx):
        kinv = 1.0 / model.zeta(ctx.coeffs[0], params.kappa0, params.kappa1)
        return np.einsum("q,iqa,jqa->ij", ctx.w * kinv, ctx.test.vals, ctx.trial.vals)

    slow = assemble_form(Q, Q, kernel, coefficients=(phi_f,)).toarray()
    assert np.allclose(fast, slow, rtol=0, atol=1e-12 * max(np.abs(slow).max(), 1.0))


def test_phase_cell_integrals_match_generic_assembly(setup):
    system, params, state = setup
    fast = kn.phase_cell_integrals(system.phi_at_qp(state.phi), system.wq, params)

    P = p0_space(system.mesh)
    phi_f = FieldFunction(p1_scalar(system.mesh), state.phi)
    integrands = (
        lambda phi: model.pi_interp(phi),
        lambda phi: phi - params.phi_bar,
        lambda phi: model.pi_interp(phi) * (phi - params.phi_bar),
        lambda phi: 1.0 / model.zeta(phi, params.M0, params.M1),
    )
    for got, f in zip(fast, integrands):
        def kernel(ctx):
            return np.einsum("q,q,iq->i", ctx.w, f(ctx.coeffs[0]), ctx.test.vals)

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


def kernel_inputs(n, seed):
    system = ChbSystem(build_unit_square_mesh(n), MaterialParams(xi=2.0))
    state = random_state(system, np.random.default_rng(seed),
                         phi_low=-0.3, phi_high=1.3)
    return system, state


def check_kernels(system, state):
    o, pa = system, system.params
    phi_q = o.phi_at_qp(state.phi)
    strain = o.strain_per_cell(state.u)
    p = np.ascontiguousarray(state.p)
    qloc = np.ascontiguousarray(state.q[o.qdofs])
    want = {
        "ch_load": ref.ch_load(phi_q, o.wq, o.lam, strain, p, pa),
        "ch_jac": ref.ch_jac(phi_q, o.wq, o.lam, strain, p, pa),
        "coupling_blocks": ref.coupling_blocks(phi_q, o.wq, o.lam, strain, p,
                                               qloc, o.B, o.psi_q, pa),
    }

    def run(name, pw):
        if name == "coupling_blocks":
            return kn.coupling_blocks(pw, o.wq, o.lam, qloc, o.B, o.psi_q)
        return getattr(kn, name)(pw, o.wq, o.lam)

    shared = kn.Pointwise(phi_q, strain, p, pa)
    for name in want:  # one pass shared by all three, then one pass each
        for path, pw in (("shared", shared),
                         ("own", kn.Pointwise(phi_q, strain, p, pa))):
            got, exp = run(name, pw), want[name]
            if name != "coupling_blocks":
                got, exp = (got,), (exp,)
            for k, (g, e) in enumerate(zip(got, exp)):
                assert_same_bits(g, e, f"{name}[{k}] ({path} pass)")
                assert g.flags.c_contiguous
    assert_same_bits(kn.rt0_weighted_mass(phi_q, o.wq, o.psi_q, pa),
                     ref.rt0_weighted_mass(phi_q, o.wq, o.psi_q, pa),
                     "rt0_weighted_mass")
    for k, (g, e) in enumerate(zip(kn.phase_cell_integrals(phi_q, o.wq, pa),
                                   ref.phase_cell_integrals(phi_q, o.wq, pa))):
        assert_same_bits(g, e, f"phase_cell_integrals[{k}]")


@pytest.mark.parametrize("n, seed", [(4, 1), (4, 2), (16, 3), (16, 4), (65, 5)])
def test_kernels_match_reference_bit_for_bit(n, seed):
    check_kernels(*kernel_inputs(n, seed))


def test_kernels_match_reference_at_the_unit_interval_ends():
    # phi at exactly 0 and 1, where pi'' jumps, and zero fields
    system, state = kernel_inputs(4, 6)
    state.phi = np.where(np.arange(system.nv) % 2 == 0, 0.0, 1.0)
    state.p[:] = 0.0
    check_kernels(system, state)


def test_ch_residual_is_the_same_with_or_without_the_jacobian():
    system, state = kernel_inputs(16, 7)
    prev = random_state(system, np.random.default_rng(8), -0.3, 1.3)
    args = (prev, state.phi, state.mu, state.u, state.p)
    res, _ = system.ch_residual_and_jacobian(*args)
    assert_same_bits(res, system.ch_residual(*args), "ch_residual")


def test_monolithic_step_assembles_what_the_standalone_methods_do(monkeypatch):
    system, _ = kernel_inputs(4, 9)
    prev = random_state(system, np.random.default_rng(9), 0.2, 0.8)
    solves = []
    monkeypatch.setattr(solvers, "solve_linear", lambda A, b: (
        solves.append((A, b, solve_linear(A, b))), solves[-1][2])[1])
    system.monolithic_step(prev, SolverConfig(strategy="monolithic"))
    assert len(solves) >= 2
    state = prev.copy()
    state.n = prev.n + 1
    for A, b, x in solves:
        assert_same_bits(-system.monolithic_residual(prev, state), b,
                         "monolithic_residual")
        J = system.monolithic_jacobian(prev, state)
        assert np.array_equal(J.indptr, A.indptr)
        assert np.array_equal(J.indices, A.indices)
        assert_same_bits(J.data, A.data, "monolithic_jacobian")
        state = system.unpack(system.pack(state) + x, state.n)
