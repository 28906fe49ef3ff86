"""The element kernels as they stood before the loop-ordered rewrite.

Kept verbatim as the oracle of the bit-exactness tests: every production
kernel in chbfem._kernels must return the same bits as its twin here.
"""

import numpy as np

from chbfem import model
from chbfem.model import MaterialParams


def ch_load(phi_q, wq, lam, strain, p, params: MaterialParams):
    """Element load vectors of the nonlinear chemical-potential terms.

    Integrand: (gamma/ell)*psi_c'(phi) + dphi_E_elastic + dphi_E_fluid,
    tested against the three P1 basis functions.  Returns (nc, 3).
    """
    pa = params
    xi, C0, dC = pa.xi, pa.C0, pa.dC
    piv, pip, _ = model.pi_laws(phi_q)
    t = xi * (phi_q - pa.phi_bar)
    em = strain[:, None, :] - t[:, :, None] * model.VOIGT_ID
    C = C0 + piv[..., None, None] * dC
    Cem = np.einsum("cqij,cqj->cqi", C, em)
    term1 = -xi * (Cem[..., 0] + Cem[..., 1])
    dCem = np.einsum("ij,cqj->cqi", dC, em)
    term2 = 0.5 * pip * np.einsum("cqi,cqi->cq", em, dCem)
    M = pa.M0 + piv * (pa.M1 - pa.M0)
    Mp = pip * (pa.M1 - pa.M0)
    ap = pip * (pa.alpha1 - pa.alpha0)
    divu = strain[:, 0] + strain[:, 1]
    fluid = (Mp * p[:, None] ** 2 / (2.0 * M * M)
             - p[:, None] * ap * divu[:, None])
    s = (pa.gamma / pa.ell) * 4.0 * (phi_q - 0.5) ** 3 + term1 + term2 + fluid
    return np.einsum("cq,qi->ci", wq * s, lam)


def ch_jac(phi_q, wq, lam, strain, p, params: MaterialParams):
    """Element matrices of the phi-derivative of the same terms, (nc, 3, 3)."""
    pa = params
    xi, C0, dC = pa.xi, pa.C0, pa.dC
    piv, pip, pipp = model.pi_laws(phi_q)
    t = xi * (phi_q - pa.phi_bar)
    em = strain[:, None, :] - t[:, :, None] * model.VOIGT_ID
    C = C0 + piv[..., None, None] * dC
    dCem = np.einsum("ij,cqj->cqi", dC, em)
    tr_dCem = dCem[..., 0] + dCem[..., 1]
    Csum = C[..., :2, :2].sum(axis=(-2, -1))
    d_el = (-2.0 * xi * pip * tr_dCem + xi * xi * Csum
            + 0.5 * pipp * np.einsum("cqi,cqi->cq", em, dCem))
    dM = pa.M1 - pa.M0
    da = pa.alpha1 - pa.alpha0
    M = pa.M0 + piv * dM
    Mp = pip * dM
    Mpp = pipp * dM
    app = pipp * da
    divu = strain[:, 0] + strain[:, 1]
    d_fl = (p[:, None] ** 2 * (Mpp * M - 2.0 * Mp * Mp) / (2.0 * M ** 3)
            - p[:, None] * app * divu[:, None])
    coef = (pa.gamma / pa.ell) * 12.0 * (phi_q - 0.5) ** 2 + d_el + d_fl
    return np.einsum("cq,qi,qk->cik", wq * coef, lam, lam)


def phase_cell_integrals(phi_q, wq, params: MaterialParams):
    """Cellwise integrals (pi, phi - phibar, pi*(phi - phibar), 1/M)."""
    pa = params
    piv = model.pi_laws(phi_q)[0]
    dphi = phi_q - pa.phi_bar
    M = pa.M0 + piv * (pa.M1 - pa.M0)
    ibar = np.einsum("cq,cq->c", wq, piv)
    s1 = np.einsum("cq,cq->c", wq, dphi)
    s2 = np.einsum("cq,cq->c", wq, piv * dphi)
    dinv = np.einsum("cq,cq->c", wq, 1.0 / M)
    return ibar, s1, s2, dinv


def rt0_weighted_mass(phi_q, wq, psi_q, params: MaterialParams):
    """RT0 element mass matrices weighted by 1/kappa(phi), (nc, 3, 3)."""
    k0, k1 = params.kappa0, params.kappa1
    kinv = 1.0 / (k0 + model.pi_laws(phi_q)[0] * (k1 - k0))
    return np.einsum("cq,cqia,cqja->cij", wq * kinv, psi_q, psi_q)


def coupling_blocks(phi_q, wq, lam, strain, p, qloc, B, psi_q,
                    params: MaterialParams):
    """Element blocks of the cross-derivative couplings.

    Returns (mu_u, mu_p, u_phi, p_phi, q_phi) with shapes
    (nc,3,6), (nc,3), (nc,6,3), (nc,3), (nc,3,3).  Signs are those of the
    raw derivative; callers place them in the residual's Jacobian.
    """
    pa = params
    xi, C0, dC = pa.xi, pa.C0, pa.dC
    piv, pip, _ = model.pi_laws(phi_q)
    t = xi * (phi_q - pa.phi_bar)
    em = strain[:, None, :] - t[:, :, None] * model.VOIGT_ID
    C = C0 + piv[..., None, None] * dC
    dCem = np.einsum("ij,cqj->cqi", dC, em)
    dM = pa.M1 - pa.M0
    da = pa.alpha1 - pa.alpha0
    dk = pa.kappa1 - pa.kappa0
    M = pa.M0 + piv * dM
    Mp = pip * dM
    ap = pip * da
    divu = strain[:, 0] + strain[:, 1]
    drow = B[:, 0, :] + B[:, 1, :]

    # d(dphi_E)/d(strain) as a row on Voigt strain, plus the div(u) part
    r_e = -xi * (C[..., 0, :] + C[..., 1, :]) + pip[..., None] * dCem
    mu_u = (np.einsum("cq,qi,cqk,ckl->cil", wq, lam, r_e, B)
            - np.einsum("cq,qi,cl->cil", wq * ap * p[:, None], lam, drow))

    dfl_dp = Mp * p[:, None] / (M * M) - ap * divu[:, None]
    mu_p = np.einsum("cq,qi->ci", wq * dfl_dp, lam)

    # d(elastic residual)/d(phi): C'(phi)(e - T) - C(phi) T' and the
    # pressure coupling through alpha'(phi)
    col = pip[..., None] * dCem - xi * (C[..., :, 0] + C[..., :, 1])
    u_phi = (np.einsum("cq,qk,cqi,cij->cjk", wq, lam, col, B)
             - np.einsum("cq,qk,cj->cjk", wq * ap * p[:, None], lam, drow))

    dstor = -p[:, None] * Mp / (M * M) + divu[:, None] * ap
    p_phi = np.einsum("cq,qk->ck", wq * dstor, lam)

    kap = pa.kappa0 + piv * dk
    dkinv = -pip * dk / (kap * kap)
    qh = np.einsum("cf,cqfa->cqa", qloc, psi_q)
    q_phi = np.einsum("cq,cqea,cqa,qk->cek", wq * dkinv, psi_q, qh, lam)
    return mu_u, mu_p, u_phi, p_phi, q_phi
