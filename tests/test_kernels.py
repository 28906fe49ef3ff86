"""Cross-checks of the vectorized kernels against the generic assembly path."""

import numpy as np
import pytest
import scipy.sparse as sp

from chbfem import _kernels as kn
from chbfem import model
from chbfem.fem import FieldFunction, assemble_form, p0_space, p1_scalar, rt0_space
from chbfem.linalg import compress
from chbfem.mesh import build_unit_square_mesh
from chbfem.model import MaterialParams
from chbfem.solvers import ChbSystem

from conftest import random_state


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
    elem = kn.ch_load(system.phi_at_qp(state.phi), system.wq, system.lam,
                      system.strain_per_cell(state.u), state.p, params)
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

    buf = assemble_form(Q, Q, kernel, coefficients=(phi_f,))
    slow = compress(buf, system.ne, system.ne).toarray()
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
