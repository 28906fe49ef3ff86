"""Hot element-assembly kernels with two interchangeable backends.

Every kernel exists twice: a loop implementation compiled with numba
@njit and a vectorized pure-numpy twin.  Both produce identical arrays up
to floating-point roundoff; the tests assert their agreement.

Backend selection: the CHBFEM_KERNELS environment variable ("auto",
"numba" or "numpy", default "auto") picks the implementation at import
time; use_backend() switches at runtime.  "auto" means numba when it is
importable, numpy otherwise.

Kernel inputs are plain arrays and scalars:

  phi_q  (nc, nqp)        phase-field values at quadrature points
  wq     (nc, nqp)        physical quadrature weights (sum to cell areas)
  lam    (nqp, 3)         P1 basis values at the quadrature points
  strain (nc, 3)          Voigt strain (e_xx, e_yy, 2*e_xy), constant per cell
  p      (nc,)            cellwise pressure
  B      (nc, 3, 6)       strain-displacement matrices
  psi_q  (nc, nqp, 3, 2)  signed RT0 basis vectors at quadrature points
  qloc   (nc, 3)          RT0 coefficients gathered per cell
"""

from __future__ import annotations

import os

import numpy as np

from . import model

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        raise RuntimeError("numba is not available")


# ---------------------------------------------------------------------------
# numpy backend


def _ch_load_numpy(phi_q, wq, lam, strain, p, gamma, ell, xi, phibar,
                   M0, M1, a0, a1, C0, dC):
    """Element load vectors of the nonlinear chemical-potential terms.

    Integrand: (gamma/ell)*psi_c'(phi) + dphi_E_elastic + dphi_E_fluid,
    tested against the three P1 basis functions.  Returns (nc, 3).
    """
    piv = model.pi_interp(phi_q)
    pip = model.pi_prime(phi_q)
    t = xi * (phi_q - phibar)
    em = strain[:, None, :] - t[:, :, None] * model.VOIGT_ID
    C = C0 + piv[..., None, None] * dC
    Cem = np.einsum("cqij,cqj->cqi", C, em)
    term1 = -xi * (Cem[..., 0] + Cem[..., 1])
    dCem = np.einsum("ij,cqj->cqi", dC, em)
    term2 = 0.5 * pip * np.einsum("cqi,cqi->cq", em, dCem)
    M = M0 + piv * (M1 - M0)
    Mp = pip * (M1 - M0)
    ap = pip * (a1 - a0)
    divu = strain[:, 0] + strain[:, 1]
    fluid = (Mp * p[:, None] ** 2 / (2.0 * M * M)
             - p[:, None] * ap * divu[:, None])
    s = (gamma / ell) * 4.0 * (phi_q - 0.5) ** 3 + term1 + term2 + fluid
    return np.einsum("cq,qi->ci", wq * s, lam)


def _ch_jac_numpy(phi_q, wq, lam, strain, p, gamma, ell, xi, phibar,
                  M0, M1, a0, a1, C0, dC):
    """Element matrices of the phi-derivative of the same terms, (nc, 3, 3)."""
    piv = model.pi_interp(phi_q)
    pip = model.pi_prime(phi_q)
    pipp = model.pi_double_prime(phi_q)
    t = xi * (phi_q - phibar)
    em = strain[:, None, :] - t[:, :, None] * model.VOIGT_ID
    C = C0 + piv[..., None, None] * dC
    dCem = np.einsum("ij,cqj->cqi", dC, em)
    tr_dCem = dCem[..., 0] + dCem[..., 1]
    Csum = C[..., :2, :2].sum(axis=(-2, -1))
    d_el = (-2.0 * xi * pip * tr_dCem + xi * xi * Csum
            + 0.5 * pipp * np.einsum("cqi,cqi->cq", em, dCem))
    dM = M1 - M0
    da = a1 - a0
    M = M0 + piv * dM
    Mp = pip * dM
    Mpp = pipp * dM
    app = pipp * da
    divu = strain[:, 0] + strain[:, 1]
    d_fl = (p[:, None] ** 2 * (Mpp * M - 2.0 * Mp * Mp) / (2.0 * M ** 3)
            - p[:, None] * app * divu[:, None])
    coef = (gamma / ell) * 12.0 * (phi_q - 0.5) ** 2 + d_el + d_fl
    return np.einsum("cq,qi,qk->cik", wq * coef, lam, lam)


def _phase_cell_integrals_numpy(phi_q, wq, phibar, M0, M1):
    """Cellwise integrals (pi, phi - phibar, pi*(phi - phibar), 1/M)."""
    piv = model.pi_interp(phi_q)
    dphi = phi_q - phibar
    M = M0 + piv * (M1 - M0)
    ibar = np.einsum("cq,cq->c", wq, piv)
    s1 = np.einsum("cq,cq->c", wq, dphi)
    s2 = np.einsum("cq,cq->c", wq, piv * dphi)
    dinv = np.einsum("cq,cq->c", wq, 1.0 / M)
    return ibar, s1, s2, dinv


def _rt0_weighted_mass_numpy(phi_q, wq, psi_q, k0, k1):
    """RT0 element mass matrices weighted by 1/kappa(phi), (nc, 3, 3)."""
    kinv = 1.0 / (k0 + model.pi_interp(phi_q) * (k1 - k0))
    return np.einsum("cq,cqia,cqja->cij", wq * kinv, psi_q, psi_q)


def _coupling_blocks_numpy(phi_q, wq, lam, strain, p, qloc, B, psi_q,
                           xi, phibar, M0, M1, a0, a1, k0, k1, C0, dC):
    """Element blocks of the cross-derivative couplings.

    Returns (mu_u, mu_p, u_phi, p_phi, q_phi) with shapes
    (nc,3,6), (nc,3), (nc,6,3), (nc,3), (nc,3,3).  Signs are those of the
    raw derivative; callers place them in the residual's Jacobian.
    """
    piv = model.pi_interp(phi_q)
    pip = model.pi_prime(phi_q)
    t = xi * (phi_q - phibar)
    em = strain[:, None, :] - t[:, :, None] * model.VOIGT_ID
    C = C0 + piv[..., None, None] * dC
    dCem = np.einsum("ij,cqj->cqi", dC, em)
    dM = M1 - M0
    da = a1 - a0
    dk = k1 - k0
    M = M0 + piv * dM
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

    kap = k0 + piv * dk
    dkinv = -pip * dk / (kap * kap)
    qh = np.einsum("cf,cqfa->cqa", qloc, psi_q)
    q_phi = np.einsum("cq,cqea,cqa,qk->cek", wq * dkinv, psi_q, qh, lam)
    return mu_u, mu_p, u_phi, p_phi, q_phi


# ---------------------------------------------------------------------------
# numba backend: identical math as explicit loops


def _ch_load_loop(phi_q, wq, lam, strain, p, gamma, ell, xi, phibar,
                  M0, M1, a0, a1, C0, dC):
    nc, nqp = phi_q.shape
    out = np.zeros((nc, 3))
    dM = M1 - M0
    da = a1 - a0
    for c in range(nc):
        e0, e1, e2 = strain[c, 0], strain[c, 1], strain[c, 2]
        divu = e0 + e1
        pc = p[c]
        for q in range(nqp):
            phi = phi_q[c, q]
            w = wq[c, q]
            if phi < 0.0:
                piv = 0.0
                pip = 0.0
            elif phi > 1.0:
                piv = 1.0
                pip = 0.0
            else:
                piv = phi * phi * (3.0 - 2.0 * phi)
                pip = 6.0 * phi - 6.0 * phi * phi
            t = xi * (phi - phibar)
            m0, m1, m2 = e0 - t, e1 - t, e2
            Cm0 = ((C0[0, 0] + piv * dC[0, 0]) * m0
                   + (C0[0, 1] + piv * dC[0, 1]) * m1
                   + (C0[0, 2] + piv * dC[0, 2]) * m2)
            Cm1 = ((C0[1, 0] + piv * dC[1, 0]) * m0
                   + (C0[1, 1] + piv * dC[1, 1]) * m1
                   + (C0[1, 2] + piv * dC[1, 2]) * m2)
            term1 = -xi * (Cm0 + Cm1)
            d0 = dC[0, 0] * m0 + dC[0, 1] * m1 + dC[0, 2] * m2
            d1 = dC[1, 0] * m0 + dC[1, 1] * m1 + dC[1, 2] * m2
            d2 = dC[2, 0] * m0 + dC[2, 1] * m1 + dC[2, 2] * m2
            term2 = 0.5 * pip * (m0 * d0 + m1 * d1 + m2 * d2)
            Mphi = M0 + piv * dM
            fluid = (pip * dM * pc * pc / (2.0 * Mphi * Mphi)
                     - pc * pip * da * divu)
            s = (gamma / ell) * 4.0 * (phi - 0.5) ** 3 + term1 + term2 + fluid
            ws = w * s
            out[c, 0] += ws * lam[q, 0]
            out[c, 1] += ws * lam[q, 1]
            out[c, 2] += ws * lam[q, 2]
    return out


def _ch_jac_loop(phi_q, wq, lam, strain, p, gamma, ell, xi, phibar,
                 M0, M1, a0, a1, C0, dC):
    nc, nqp = phi_q.shape
    out = np.zeros((nc, 3, 3))
    dM = M1 - M0
    da = a1 - a0
    for c in range(nc):
        e0, e1, e2 = strain[c, 0], strain[c, 1], strain[c, 2]
        divu = e0 + e1
        pc = p[c]
        for q in range(nqp):
            phi = phi_q[c, q]
            w = wq[c, q]
            if phi < 0.0 or phi > 1.0:
                piv = 0.0 if phi < 0.0 else 1.0
                pip = 0.0
                pipp = 0.0
            else:
                piv = phi * phi * (3.0 - 2.0 * phi)
                pip = 6.0 * phi - 6.0 * phi * phi
                pipp = 6.0 - 12.0 * phi
            t = xi * (phi - phibar)
            m0, m1, m2 = e0 - t, e1 - t, e2
            d0 = dC[0, 0] * m0 + dC[0, 1] * m1 + dC[0, 2] * m2
            d1 = dC[1, 0] * m0 + dC[1, 1] * m1 + dC[1, 2] * m2
            d2 = dC[2, 0] * m0 + dC[2, 1] * m1 + dC[2, 2] * m2
            Csum = (C0[0, 0] + C0[0, 1] + C0[1, 0] + C0[1, 1]
                    + piv * (dC[0, 0] + dC[0, 1] + dC[1, 0] + dC[1, 1]))
            d_el = (-2.0 * xi * pip * (d0 + d1) + xi * xi * Csum
                    + 0.5 * pipp * (m0 * d0 + m1 * d1 + m2 * d2))
            Mphi = M0 + piv * dM
            Mp = pip * dM
            d_fl = (pc * pc * (pipp * dM * Mphi - 2.0 * Mp * Mp)
                    / (2.0 * Mphi ** 3)
                    - pc * pipp * da * divu)
            coef = (gamma / ell) * 12.0 * (phi - 0.5) ** 2 + d_el + d_fl
            wc = w * coef
            for i in range(3):
                for k in range(3):
                    out[c, i, k] += wc * lam[q, i] * lam[q, k]
    return out


def _phase_cell_integrals_loop(phi_q, wq, phibar, M0, M1):
    nc, nqp = phi_q.shape
    ibar = np.zeros(nc)
    s1 = np.zeros(nc)
    s2 = np.zeros(nc)
    dinv = np.zeros(nc)
    dM = M1 - M0
    for c in range(nc):
        for q in range(nqp):
            phi = phi_q[c, q]
            w = wq[c, q]
            if phi < 0.0:
                piv = 0.0
            elif phi > 1.0:
                piv = 1.0
            else:
                piv = phi * phi * (3.0 - 2.0 * phi)
            ibar[c] += w * piv
            s1[c] += w * (phi - phibar)
            s2[c] += w * piv * (phi - phibar)
            dinv[c] += w / (M0 + piv * dM)
    return ibar, s1, s2, dinv


def _rt0_weighted_mass_loop(phi_q, wq, psi_q, k0, k1):
    nc, nqp = phi_q.shape
    out = np.zeros((nc, 3, 3))
    dk = k1 - k0
    for c in range(nc):
        for q in range(nqp):
            phi = phi_q[c, q]
            if phi < 0.0:
                piv = 0.0
            elif phi > 1.0:
                piv = 1.0
            else:
                piv = phi * phi * (3.0 - 2.0 * phi)
            wk = wq[c, q] / (k0 + piv * dk)
            for i in range(3):
                for j in range(3):
                    out[c, i, j] += wk * (psi_q[c, q, i, 0] * psi_q[c, q, j, 0]
                                          + psi_q[c, q, i, 1] * psi_q[c, q, j, 1])
    return out


def _coupling_blocks_loop(phi_q, wq, lam, strain, p, qloc, B, psi_q,
                          xi, phibar, M0, M1, a0, a1, k0, k1, C0, dC):
    nc, nqp = phi_q.shape
    mu_u = np.zeros((nc, 3, 6))
    mu_p = np.zeros((nc, 3))
    u_phi = np.zeros((nc, 6, 3))
    p_phi = np.zeros((nc, 3))
    q_phi = np.zeros((nc, 3, 3))
    dM = M1 - M0
    da = a1 - a0
    dk = k1 - k0
    re = np.empty(3)
    col = np.empty(3)
    for c in range(nc):
        e0, e1, e2 = strain[c, 0], strain[c, 1], strain[c, 2]
        divu = e0 + e1
        pc = p[c]
        for q in range(nqp):
            phi = phi_q[c, q]
            w = wq[c, q]
            if phi < 0.0 or phi > 1.0:
                piv = 0.0 if phi < 0.0 else 1.0
                pip = 0.0
            else:
                piv = phi * phi * (3.0 - 2.0 * phi)
                pip = 6.0 * phi - 6.0 * phi * phi
            t = xi * (phi - phibar)
            m0, m1, m2 = e0 - t, e1 - t, e2
            d0 = dC[0, 0] * m0 + dC[0, 1] * m1 + dC[0, 2] * m2
            d1 = dC[1, 0] * m0 + dC[1, 1] * m1 + dC[1, 2] * m2
            d2 = dC[2, 0] * m0 + dC[2, 1] * m1 + dC[2, 2] * m2
            for j in range(3):
                Cj0 = C0[0, j] + piv * dC[0, j]
                Cj1 = C0[1, j] + piv * dC[1, j]
                re[j] = -xi * (Cj0 + Cj1)
                col[j] = -xi * (Cj0 + Cj1)  # C symmetric: row sum = col sum
            re[0] += pip * d0
            re[1] += pip * d1
            re[2] += pip * d2
            col[0] += pip * d0
            col[1] += pip * d1
            col[2] += pip * d2
            Mphi = M0 + piv * dM
            Mp = pip * dM
            ap = pip * da
            dfl_dp = Mp * pc / (Mphi * Mphi) - ap * divu
            dstor = -pc * Mp / (Mphi * Mphi) + divu * ap
            kap = k0 + piv * dk
            dkinv = -pip * dk / (kap * kap)
            qh0 = (qloc[c, 0] * psi_q[c, q, 0, 0] + qloc[c, 1] * psi_q[c, q, 1, 0]
                   + qloc[c, 2] * psi_q[c, q, 2, 0])
            qh1 = (qloc[c, 0] * psi_q[c, q, 0, 1] + qloc[c, 1] * psi_q[c, q, 1, 1]
                   + qloc[c, 2] * psi_q[c, q, 2, 1])
            for i in range(3):
                wl = w * lam[q, i]
                mu_p[c, i] += wl * dfl_dp
                p_phi[c, i] += wl * dstor
                for l in range(6):
                    db = B[c, 0, l] + B[c, 1, l]
                    mu_u[c, i, l] += wl * (re[0] * B[c, 0, l] + re[1] * B[c, 1, l]
                                           + re[2] * B[c, 2, l] - ap * pc * db)
                    u_phi[c, l, i] += wl * (col[0] * B[c, 0, l] + col[1] * B[c, 1, l]
                                            + col[2] * B[c, 2, l] - ap * pc * db)
                for e in range(3):
                    q_phi[c, e, i] += (wl * dkinv
                                       * (psi_q[c, q, e, 0] * qh0
                                          + psi_q[c, q, e, 1] * qh1))
    return mu_u, mu_p, u_phi, p_phi, q_phi


# ---------------------------------------------------------------------------
# backend registry and dispatch

NUMPY_KERNELS = {
    "ch_load": _ch_load_numpy,
    "ch_jac": _ch_jac_numpy,
    "phase_cell_integrals": _phase_cell_integrals_numpy,
    "rt0_weighted_mass": _rt0_weighted_mass_numpy,
    "coupling_blocks": _coupling_blocks_numpy,
}

if HAVE_NUMBA:
    NUMBA_KERNELS = {
        "ch_load": njit(cache=True)(_ch_load_loop),
        "ch_jac": njit(cache=True)(_ch_jac_loop),
        "phase_cell_integrals": njit(cache=True)(_phase_cell_integrals_loop),
        "rt0_weighted_mass": njit(cache=True)(_rt0_weighted_mass_loop),
        "coupling_blocks": njit(cache=True)(_coupling_blocks_loop),
    }
else:  # pragma: no cover
    NUMBA_KERNELS = None


def _select(name: str):
    name = name.lower()
    if name == "numpy":
        return NUMPY_KERNELS, "numpy"
    if name == "numba":
        if NUMBA_KERNELS is None:
            raise ImportError("CHBFEM_KERNELS=numba but numba is not installed")
        return NUMBA_KERNELS, "numba"
    if name == "auto":
        if NUMBA_KERNELS is not None:
            return NUMBA_KERNELS, "numba"
        return NUMPY_KERNELS, "numpy"
    raise ValueError(f"unknown kernel backend {name!r}; use auto, numba or numpy")


_active, _active_name = _select(os.environ.get("CHBFEM_KERNELS", "auto"))


def use_backend(name: str) -> str:
    """Switch the active kernel backend; returns the previous backend name."""
    global _active, _active_name
    previous = _active_name
    _active, _active_name = _select(name)
    return previous


def active_backend() -> str:
    return _active_name


def ch_load(*args):
    return _active["ch_load"](*args)


def ch_jac(*args):
    return _active["ch_jac"](*args)


def phase_cell_integrals(*args):
    return _active["phase_cell_integrals"](*args)


def rt0_weighted_mass(*args):
    return _active["rt0_weighted_mass"](*args)


def coupling_blocks(*args):
    return _active["coupling_blocks"](*args)
