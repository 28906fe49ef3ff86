"""Vectorized element-assembly kernels for the phi-dependent terms.

Each kernel evaluates its integrand at every (quadrature point, cell)
pair at once and returns per-cell element arrays; ChbSystem scatters
them into the global systems.  Pointwise values are held cells last: one
contiguous (nqp, nc) array per component, so every elementwise operation
runs over one unit-stride array.  The array inputs are:

  wq   (nqp, nc)        physical quadrature weights (sum to cell areas)
  lam  (nqp, 3)         P1 basis values at the quadrature points
  B    (3, 6, nc)       strain-displacement matrices
  psi  (nqp, 3, 2, nc)  signed RT0 basis vectors at quadrature points
  qloc (3, nc)          RT0 coefficients gathered per cell

ChbSystem keeps wq and psi cells last (wq_last, psi_last), built on
first use.  A Phase holds the values that depend on phi alone: phi
itself, pi, pi' and pi'' from one pass with one range test
(model.pi_laws), M, M', alpha' and kappa.  A Pointwise adds one iterate's strain and pressure:
the three components of the elastic strain em, rows 0 and 1 of
C(phi) = C0 + pi(phi) dC, dC em and em . dC em.  Each value is computed
on first use and then shared by every kernel given the same instance,
and a Pointwise made from a Phase starts with the values that Phase has
computed.  Kernel outputs are cells first and C-contiguous, as the
scatters expect: (nc, 3), (nc, 3, 3), ...

Bit-exact contract: every kernel returns the same bits as the plain
einsum formulation it replaces (kept as tests/reference_kernels.py).
Rounding depends only on which operations run and in what order, so the
rewrites keep both.  Products are formed left to right in the operand
order of the einsum they replace, and the operations of each pointwise
value are those of the reference, component by component.  Sums follow
numpy's unoptimized einsum:
- a contraction with the P1 basis or an RT0 vector adds its terms to a
  zero accumulator one quadrature point after another (the quadrature
  point is the outermost summation index), and in each contraction over
  an RT0 vector component the two components are added first;
- a sum over a Voigt index is written out as (t0 + t2) + t1, and the
  per-cell integrals of phase_cell_integrals add the even quadrature
  points and the odd ones in two running sums, then add the two: the
  two-lane order of numpy 2.4's two-operand einsum on an x86-64
  baseline build, which another build could change.
The iteration counts the benchmark pins, among them a chaotic diverging
Newton run that a 3e-16 change moves, hold only under this contract;
once that run is no longer pinned exactly (ROADMAP item 1), the
contract can relax to agreement within a few ulps, which admits
optimize=True contractions and batched matmuls.

The double-well term keeps (phi - 0.5) ** 3, numpy's power.  Its
vectorized loop sends every lane with a negative base down a slow
scalar path, about 0.26 ms of each Cahn-Hilliard iterate at n=16, but
neither s * s * s nor a power of |s| with the sign copied back gives
the same bits in every lane.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import model
from .model import MaterialParams


def cells_last(a):
    """Contiguous copy of a with its leading (cell) axis moved to the end."""
    return a.transpose(*range(1, a.ndim), 0).copy()


def _cells_first(a):
    """C-contiguous copy of a cells-last array with the cell axis moved first.

    Kernel outputs are C-contiguous: the layout of an einsum operand can
    change the order in which einsum adds its terms.
    """
    return a.transpose(a.ndim - 1, *range(a.ndim - 1)).copy()


def _q_sum(term, nqp):
    """sum_q term(q) over the quadrature points, added in order to zeros.

    One point at a time, so that no temporary holds the terms of all.
    """
    out = 0.0 + term(0)
    for q in range(1, nqp):
        out += term(q)
    return out


def _lam_sum(w, lam):
    """sum_q w[q, c] * lam[q, i] as (nc, 3): einsum("cq,qi->ci") of w cells first."""
    return _cells_first(_q_sum(lambda q: w[q] * lam[q, :, None], len(w)))


class Phase:
    """Values that depend on phi alone, cells last, computed on first use.

    phi_q is phi at the quadrature points, (nc, nqp), as
    ChbSystem.phi_at_qp returns it.
    """

    def __init__(self, phi_q, params: MaterialParams):
        self.phi = cells_last(phi_q)
        self.params = params

    @cached_property
    def pi(self):
        """(pi, pi', pi'') of phi."""
        return model.pi_laws(self.phi)

    @cached_property
    def dphi(self):
        return self.phi - self.params.phi_bar

    @cached_property
    def shifted(self):
        """phi - 1/2, the argument of the double well's derivatives."""
        return self.phi - 0.5

    @cached_property
    def M(self):
        pa = self.params
        return pa.M0 + self.pi[0] * (pa.M1 - pa.M0)

    @cached_property
    def Mp(self):
        return self.pi[1] * (self.params.M1 - self.params.M0)

    @cached_property
    def ap(self):
        return self.pi[1] * (self.params.alpha1 - self.params.alpha0)

    @cached_property
    def kappa(self):
        pa = self.params
        return pa.kappa0 + self.pi[0] * (pa.kappa1 - pa.kappa0)


class Pointwise(Phase):
    """The phase values of phi plus those of one iterate's strain and pressure.

    Built from the Phase of phi, whose values computed so far it shares.
    strain is the Voigt strain per cell, (nc, 3), and p the cellwise
    pressure, (nc,).
    """

    def __init__(self, phase: Phase, strain, p):
        self.__dict__.update(phase.__dict__)
        self.strain = strain
        self.p = p

    @cached_property
    def em(self):
        """Strain minus the swelling eigenstrain, (3, nqp, nc)."""
        t = self.params.xi * self.dphi
        return self.strain.T[:, None, :] - t * model.VOIGT_ID[:, None, None]

    @cached_property
    def C(self):
        """Rows 0 and 1 of the stiffness C0 + pi(phi) dC, (2, 3, nqp, nc)."""
        pa = self.params
        return self.pi[0] * pa.dC[:2, :, None, None] + pa.C0[:2, :, None, None]

    @cached_property
    def dCem(self):
        """dC em, (3, nqp, nc)."""
        dC, em = self.params.dC[:, :, None, None], self.em
        return (dC[:, 0] * em[0] + dC[:, 2] * em[2]) + dC[:, 1] * em[1]

    @cached_property
    def em_dCem(self):
        em, dCem = self.em, self.dCem
        return (em[0] * dCem[0] + em[2] * dCem[2]) + em[1] * dCem[1]

    @cached_property
    def divu(self):
        return self.strain[:, 0] + self.strain[:, 1]


def ch_load(pw: Pointwise, wq, lam):
    """Element load vectors of the nonlinear chemical-potential terms.

    Integrand: (gamma/ell)*psi_c'(phi) + dphi_E_elastic + dphi_E_fluid,
    tested against the three P1 basis functions.  Returns (nc, 3).
    """
    pa = pw.params
    p, C, em = pw.p, pw.C, pw.em
    Cem = (C[:, 0] * em[0] + C[:, 2] * em[2]) + C[:, 1] * em[1]
    term1 = -pa.xi * (Cem[0] + Cem[1])
    term2 = 0.5 * pw.pi[1] * pw.em_dCem
    fluid = pw.Mp * p ** 2 / (2.0 * pw.M * pw.M) - p * pw.ap * pw.divu
    s = ((pa.gamma / pa.ell) * 4.0 * pw.shifted ** 3
         + term1 + term2 + fluid)
    return _lam_sum(wq * s, lam)


def ch_jac(pw: Pointwise, wq, lam):
    """Element matrices of the phi-derivative of the same terms, (nc, 3, 3)."""
    pa = pw.params
    xi, p, M, Mp, C = pa.xi, pw.p, pw.M, pw.Mp, pw.C
    _, pip, pipp = pw.pi
    tr_dCem = pw.dCem[0] + pw.dCem[1]
    Csum = ((C[0, 0] + C[0, 1]) + C[1, 0]) + C[1, 1]
    d_el = (-2.0 * xi * pip * tr_dCem + xi * xi * Csum
            + 0.5 * pipp * pw.em_dCem)
    Mpp = pipp * (pa.M1 - pa.M0)
    app = pipp * (pa.alpha1 - pa.alpha0)
    d_fl = (p ** 2 * (Mpp * M - 2.0 * Mp * Mp) / (2.0 * M ** 3)
            - p * app * pw.divu)
    coef = (pa.gamma / pa.ell) * 12.0 * pw.shifted ** 2 + d_el + d_fl
    wl = (wq * coef)[:, None, :] * lam[:, :, None]
    return _cells_first(_q_sum(
        lambda q: wl[q][:, None, :] * lam[q, None, :, None], len(wl)))


def phase_cell_integrals(ph: Phase, wq):
    """Cellwise integrals (pi, phi - phibar, pi*(phi - phibar), 1/M).

    Each is einsum("cq,cq->c") of wq and its integrand, both cells first.
    That einsum adds the even quadrature points and the odd ones in two
    running sums, then adds the two; + 0.0 stands for its zero initial
    output, which makes an all-zero sum +0.
    """
    piv, dphi = ph.pi[0], ph.dphi
    t = wq * np.stack([piv, dphi, piv * dphi, 1.0 / ph.M])
    return tuple((np.add.reduce(t[:, 0::2], axis=1, initial=0.0)
                  + np.add.reduce(t[:, 1::2], axis=1, initial=0.0)) + 0.0)


def _psi_sum(wpsi, r):
    """sum_q sum_a wpsi[q, e, a, c] * r[q, k, a, c] as (nc, 3, nk).

    The two terms of each vector component are added first, then the
    quadrature points in order.
    """
    def term(q):
        t = wpsi[q][:, None] * r[q, None]
        return t[:, :, 0] + t[:, :, 1]
    return _cells_first(_q_sum(term, len(wpsi)))


def rt0_weighted_mass(ph: Phase, wq, psi):
    """RT0 element mass matrices weighted by 1/kappa(phi), (nc, 3, 3)."""
    wpsi = (wq * (1.0 / ph.kappa))[:, None, None, :] * psi
    return _psi_sum(wpsi, psi)


def coupling_blocks(pw: Pointwise, wq, lam, qloc, B, psi):
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
    pip = pw.pi[1]
    # d(dphi_E)/d(strain) as a row on Voigt strain, (3, nqp, nc)
    r_e = -xi * (C[0] + C[1]) + pip * pw.dCem
    # sum_q sum_k w lam_i r_k B_kl, then the div(u) part of
    # d(dphi_E)/d(strain) and the pressure coupling through alpha'(phi)
    # in d(elastic residual)/d(phi), (3, 6, nc)
    wl = wq[:, None, :] * lam[:, :, None]
    mu_u = np.zeros((3, 6, wq.shape[1]))
    for q in range(wq.shape[0]):
        for k in range(3):
            mu_u += (wl[q] * r_e[k, q])[:, None, :] * B[k]
    drow = B[0] + B[1]
    wl = (wq * ap * p)[:, None, :] * lam[:, :, None]
    mu_u -= _q_sum(lambda q: wl[q][:, None, :] * drow, len(wl))
    mu_u = _cells_first(mu_u)

    dfl_dp = Mp * p / (M * M) - ap * divu
    mu_p = _lam_sum(wq * dfl_dp, lam)

    dstor = -p * Mp / (M * M) + divu * ap
    p_phi = _lam_sum(wq * dstor, lam)

    dk = pa.kappa1 - pa.kappa0
    kap = pw.kappa
    dkinv = -pip * dk / (kap * kap)
    qh = (qloc[0] * psi[:, 0] + qloc[1] * psi[:, 1]) + qloc[2] * psi[:, 2]
    wpsi = (wq * dkinv)[:, None, None, :] * psi
    q_phi = _psi_sum(wpsi * qh[:, None], lam[:, :, None, None])
    return (mu_u, mu_p, np.ascontiguousarray(mu_u.transpose(0, 2, 1)), p_phi,
            q_phi)
