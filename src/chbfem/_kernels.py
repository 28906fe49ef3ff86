"""Vectorized element-assembly kernels for the phi-dependent terms.

Each kernel evaluates its integrand at every (cell, quadrature point)
pair at once with numpy broadcasting and returns per-cell element
arrays; ChbSystem scatters them into the global systems.  The array
inputs are:

  phi_q  (nc, nqp)        phase-field values at quadrature points
  wq     (nc, nqp)        physical quadrature weights (sum to cell areas)
  lam    (nqp, 3)         P1 basis values at the quadrature points
  strain (nc, 3)          Voigt strain (e_xx, e_yy, 2*e_xy), constant per cell
  p      (nc,)            cellwise pressure
  B      (nc, 3, 6)       strain-displacement matrices
  psi_q  (nc, nqp, 3, 2)  signed RT0 basis vectors at quadrature points
  qloc   (nc, 3)          RT0 coefficients gathered per cell

ch_load, ch_jac and coupling_blocks read phi_q, strain, p and the
material coefficients through one Pointwise, which computes each
pointwise value (pi(phi), M(phi), the elastic strain, ...) once however
many of them run at the same iterate.

Bit-exact contract: every kernel returns the same bits as the plain
einsum formulation it replaces (kept as tests/reference_kernels.py).
Rounding depends only on which operations run and in what order, so the
rewrites keep both.  Products are formed left to right in the operand
order of the einsum they replace; sums follow numpy's unoptimized
einsum: the quadrature point is the outermost summation index, and in
each contraction over an RT0 vector component the two components are
added first and their sum is then added to the accumulator.  Sums over
a Voigt index are written out as (t0 + t2) + t1, the order of numpy
2.4's two-operand einsum on x86-64, which another build could change.
The iteration counts the benchmark pins, among them a chaotic diverging
Newton run that a 3e-16 change moves, hold only under this contract;
once that run is no longer pinned exactly (ROADMAP item 1), the
contract can relax to agreement within a few ulps, which admits
optimize=True contractions and batched matmuls.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import model
from .model import MaterialParams


def _dot3(a, b):
    """sum_j a[..., j] * b[..., j] over three j, in the module's order."""
    return (a[..., 0] * b[..., 0] + a[..., 2] * b[..., 2]) + a[..., 1] * b[..., 1]


class Pointwise:
    """phi-dependent values of one iterate at every (cell, quadrature point).

    Each value is computed on first use and then shared by the kernels
    given this instance.
    """

    def __init__(self, phi_q, strain, p, params: MaterialParams):
        self.phi_q = phi_q
        self.strain = strain
        self.p = p
        self.params = params

    @cached_property
    def piv(self):
        return model.pi_interp(self.phi_q)

    @cached_property
    def pip(self):
        return model.pi_prime(self.phi_q)

    @cached_property
    def pipp(self):
        return model.pi_double_prime(self.phi_q)

    @cached_property
    def em(self):
        """Strain minus the swelling eigenstrain, (nc, nqp, 3)."""
        t = self.params.xi * (self.phi_q - self.params.phi_bar)
        # one component at a time: the operations of broadcasting over
        # the short trailing axis, in a fraction of its time
        em = np.empty(t.shape + (3,))
        for j in range(3):
            em[..., j] = self.strain[:, j, None] - t * model.VOIGT_ID[j]
        return em

    @cached_property
    def C(self):
        """Interpolated stiffness C0 + pi(phi) dC, (nc, nqp, 3, 3)."""
        C = np.multiply.outer(self.piv, self.params.dC)
        C += self.params.C0
        return C

    @cached_property
    def dCem(self):
        return np.stack([_dot3(dC_i, self.em) for dC_i in self.params.dC], axis=-1)

    @cached_property
    def em_dCem(self):
        return _dot3(self.em, self.dCem)

    @cached_property
    def M(self):
        pa = self.params
        return pa.M0 + self.piv * (pa.M1 - pa.M0)

    @cached_property
    def Mp(self):
        return self.pip * (self.params.M1 - self.params.M0)

    @cached_property
    def ap(self):
        return self.pip * (self.params.alpha1 - self.params.alpha0)

    @cached_property
    def divu(self):
        return self.strain[:, 0] + self.strain[:, 1]


def ch_load(pw: Pointwise, wq, lam):
    """Element load vectors of the nonlinear chemical-potential terms.

    Integrand: (gamma/ell)*psi_c'(phi) + dphi_E_elastic + dphi_E_fluid,
    tested against the three P1 basis functions.  Returns (nc, 3).
    """
    pa = pw.params
    p = pw.p
    C, em = pw.C, pw.em
    term1 = -pa.xi * (_dot3(C[..., 0, :], em) + _dot3(C[..., 1, :], em))
    term2 = 0.5 * pw.pip * pw.em_dCem
    fluid = (pw.Mp * p[:, None] ** 2 / (2.0 * pw.M * pw.M)
             - p[:, None] * pw.ap * pw.divu[:, None])
    s = ((pa.gamma / pa.ell) * 4.0 * (pw.phi_q - 0.5) ** 3
         + term1 + term2 + fluid)
    return np.einsum("cq,qi->ci", wq * s, lam)


def ch_jac(pw: Pointwise, wq, lam):
    """Element matrices of the phi-derivative of the same terms, (nc, 3, 3)."""
    pa = pw.params
    xi, p, M, Mp = pa.xi, pw.p, pw.M, pw.Mp
    dCem = pw.dCem
    tr_dCem = dCem[..., 0] + dCem[..., 1]
    C = pw.C
    Csum = ((C[..., 0, 0] + C[..., 0, 1]) + C[..., 1, 0]) + C[..., 1, 1]
    d_el = (-2.0 * xi * pw.pip * tr_dCem + xi * xi * Csum
            + 0.5 * pw.pipp * pw.em_dCem)
    Mpp = pw.pipp * (pa.M1 - pa.M0)
    app = pw.pipp * (pa.alpha1 - pa.alpha0)
    d_fl = (p[:, None] ** 2 * (Mpp * M - 2.0 * Mp * Mp) / (2.0 * M ** 3)
            - p[:, None] * app * pw.divu[:, None])
    coef = (pa.gamma / pa.ell) * 12.0 * (pw.phi_q - 0.5) ** 2 + d_el + d_fl
    return np.einsum("cq,qi,qk->cik", wq * coef, lam, lam)


def phase_cell_integrals(phi_q, wq, params: MaterialParams):
    """Cellwise integrals (pi, phi - phibar, pi*(phi - phibar), 1/M)."""
    pa = params
    piv = model.pi_interp(phi_q)
    dphi = phi_q - pa.phi_bar
    M = pa.M0 + piv * (pa.M1 - pa.M0)
    ibar = np.einsum("cq,cq->c", wq, piv)
    s1 = np.einsum("cq,cq->c", wq, dphi)
    s2 = np.einsum("cq,cq->c", wq, piv * dphi)
    dinv = np.einsum("cq,cq->c", wq, 1.0 / M)
    return ibar, s1, s2, dinv


def _cells_last(a):
    """Contiguous copy of a with its leading (cell) axis moved to the end."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _cells_first(a, axes):
    """C-contiguous a.transpose(axes), axes bringing the cell axis first.

    Kernel outputs are C-contiguous: the layout of an einsum operand can
    change the order in which einsum adds its terms.
    """
    return np.ascontiguousarray(a.transpose(axes))


def _lam_outer_sum(w, lam, B, r=None):
    """sum_q sum_k w[c,q]*lam[q,i]*r[c,q,k]*B[c,k,l] as a cells-last (3, nl, nc).

    Without r that factor is left out.  Cells run along the contiguous
    axis, and the temporaries hold one (q, k) term.
    """
    nc, nqp = w.shape
    wT, BT = _cells_last(w), _cells_last(B)
    rT = None if r is None else _cells_last(r)
    out = np.zeros((lam.shape[1], B.shape[2], nc))
    term = np.empty_like(out)
    for q in range(nqp):
        wl = wT[q] * lam[q, :, None]
        for k in range(B.shape[1]):
            a = wl if rT is None else wl * rT[q, k]
            np.multiply(a[:, None, :], BT[k], out=term)
            out += term
    return out


def _psi_sum(w, psiT, term):
    """sum_q sum_a term(q, w[c,q]*psi_q[c,q,e,a]) as a cells-last (3, nk, nc).

    psiT is psi_q cells-last, (nqp, 3, 2, nc).  term(q, wpsi) takes wpsi
    as (3, 2, nc), multiplies in the remaining factors of quadrature
    point q and returns (3, nk, 2, nc).
    """
    wT = _cells_last(w)
    out = None
    for q in range(w.shape[1]):
        t = term(q, wT[q] * psiT[q])
        acc = t[:, :, 0] + t[:, :, 1]
        if out is None:
            out = np.zeros_like(acc)
        out += acc
    return out


def rt0_weighted_mass(phi_q, wq, psi_q, params: MaterialParams):
    """RT0 element mass matrices weighted by 1/kappa(phi), (nc, 3, 3)."""
    k0, k1 = params.kappa0, params.kappa1
    kinv = 1.0 / (k0 + model.pi_interp(phi_q) * (k1 - k0))
    psiT = _cells_last(psi_q)
    mass = _psi_sum(wq * kinv, psiT,
                    lambda q, wpsi: wpsi[:, None] * psiT[q, None])
    return _cells_first(mass, (2, 0, 1))


def coupling_blocks(pw: Pointwise, wq, lam, qloc, B, psi_q):
    """Element blocks of the cross-derivative couplings.

    Returns (mu_u, mu_p, u_phi, p_phi, q_phi) with shapes
    (nc,3,6), (nc,3), (nc,6,3), (nc,3), (nc,3,3).  Signs are those of the
    raw derivative; callers place them in the residual's Jacobian.
    MaterialParams stores C0 and C1 exactly symmetric, so the row of
    d(dphi_E)/d(strain) equals the column of d(elastic residual)/d(phi)
    bit for bit, and u_phi is mu_u transposed.
    """
    pa = pw.params
    xi, p, C, M, Mp, ap, divu = pa.xi, pw.p, pw.C, pw.M, pw.Mp, pw.ap, pw.divu
    pip_dCem = pw.pip[..., None] * pw.dCem
    # the div(u) part of d(dphi_E)/d(strain) and the pressure coupling
    # through alpha'(phi) in d(elastic residual)/d(phi), cells last
    drow = B[:, 0, :] + B[:, 1, :]
    dterm = _lam_outer_sum(wq * ap * p[:, None], lam, drow[:, None, :])

    # d(dphi_E)/d(strain) as a row on Voigt strain
    r_e = -xi * (C[..., 0, :] + C[..., 1, :]) + pip_dCem
    mu_u = _lam_outer_sum(wq, lam, B, r_e) - dterm

    dfl_dp = Mp * p[:, None] / (M * M) - ap * divu[:, None]
    mu_p = np.einsum("cq,qi->ci", wq * dfl_dp, lam)

    dstor = -p[:, None] * Mp / (M * M) + divu[:, None] * ap
    p_phi = np.einsum("cq,qk->ck", wq * dstor, lam)

    dk = pa.kappa1 - pa.kappa0
    kap = pa.kappa0 + pw.piv * dk
    dkinv = -pw.pip * dk / (kap * kap)
    qhT = _cells_last((qloc[:, None, 0, None] * psi_q[:, :, 0]
                       + qloc[:, None, 1, None] * psi_q[:, :, 1])
                      + qloc[:, None, 2, None] * psi_q[:, :, 2])
    q_phi = _psi_sum(wq * dkinv, _cells_last(psi_q), lambda q, wpsi: (
        (wpsi * qhT[q])[:, None] * lam[q, None, :, None, None]))
    mu_u = _cells_first(mu_u, (2, 0, 1))
    return (mu_u, mu_p, np.ascontiguousarray(mu_u.transpose(0, 2, 1)), p_phi,
            _cells_first(q_phi, (2, 0, 1)))
