"""Vectorized element-assembly kernels for the phi-dependent terms.

Each kernel integrates values of chbfem.model's laws at every (quadrature
point, cell) pair at once and returns per-cell element arrays; ChbSystem
scatters them into the global systems.  A kernel multiplies those values
by the quadrature weights and basis functions and sums; it evaluates no
law itself.  The values come from a model.Phase (the laws of phi alone)
or a model.Pointwise (those of one iterate), cells last: one contiguous
(nqp, nc) array per component, so every elementwise operation runs over
one unit-stride array.  The array inputs are:

  wq   (nqp, nc)        physical quadrature weights (sum to cell areas)
  lam  (nqp, 3)         P1 basis values at the quadrature points
  B    (3, 6, nc)       strain-displacement matrices
  psi  (nqp, 3, 2, nc)  signed RT0 basis vectors at quadrature points
  qloc (3, nc)          RT0 coefficients gathered per cell

ChbSystem keeps wq and psi cells last (wq_last, psi_last), built on
first use.  Kernel outputs are cells first and C-contiguous, as the
scatters expect: (nc, 3), (nc, 3, 3), ...

ch_load, ch_jac and coupling_blocks serve the monolithic path only.  The
splitting's Cahn-Hilliard solve evaluates its laws on coefficients frozen
for the whole solve (model.FrozenCoupling) and integrates them with one
matrix product each (ChbSystem.ch_residual_and_jacobian), to a few ulps of
these kernels.

Bit-exact contract: every kernel returns the same bits as the plain
einsum formulation it replaces (kept as tests/reference_kernels.py).
Rounding depends only on which operations run and in what order, so the
rewrites keep both: the laws in chbfem.model perform the reference's
pointwise operations, and the kernels its sums, in numpy's unoptimized
einsum order:
- a contraction with the P1 basis or an RT0 vector adds its terms to a
  zero accumulator one quadrature point after another (the quadrature
  point is the outermost summation index), and in each contraction over
  an RT0 vector component the two components are added first;
- the per-cell integrals of phase_cell_integrals add the even quadrature
  points and the odd ones in two running sums, then add the two: the
  two-lane order of numpy 2.4's two-operand einsum on an x86-64
  baseline build, which another build could change.
The contract holds for the monolithic path, whose kernels these are: the
benchmark pins its iteration counts, among them a chaotic diverging
Newton run that a 3e-16 change moves.  The splitting's converged counts
do not move at that scale, so its CH solve already runs on the ulp
contract.  Once the benchmark no longer pins the diverging run's Newton
count exactly, the monolithic contract can relax the same way, which
admits optimize=True contractions and batched matmuls here too.
"""

from __future__ import annotations

import numpy as np

from .model import Phase, Pointwise


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


def ch_load(pw: Pointwise, wq, lam):
    """Element load vectors of the nonlinear chemical-potential terms.

    Integrand: pw.mu_nonlinear, tested against the three P1 basis
    functions.  Returns (nc, 3).
    """
    return _lam_sum(wq * pw.mu_nonlinear, lam)


def ch_jac(pw: Pointwise, wq, lam):
    """Element matrices of the phi-derivative of the same terms, (nc, 3, 3)."""
    wl = (wq * pw.dmu_nonlinear)[:, None, :] * lam[:, :, None]
    return _cells_first(_q_sum(
        lambda q: wl[q][:, None, :] * lam[q, None, :, None], len(wl)))


def phase_cell_integrals(ph: Phase, wq):
    """Cellwise integrals of ph.cell_integrands.

    Each is einsum("cq,cq->c") of wq and its integrand, both cells first.
    That einsum adds the even quadrature points and the odd ones in two
    running sums, then adds the two; + 0.0 stands for its zero initial
    output, which makes an all-zero sum +0.
    """
    t = wq * np.stack(ph.cell_integrands)
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
    wpsi = (wq * ph.kinv)[:, None, None, :] * psi
    return _psi_sum(wpsi, psi)


def coupling_blocks(pw: Pointwise, wq, lam, qloc, B, psi):
    """Element blocks of the cross-derivative couplings.

    Returns (mu_u, mu_p, p_phi, q_phi) with shapes (nc,3,6), (nc,3),
    (nc,3), (nc,3,3).  Signs are those of the raw derivative; callers
    place them in the residual's Jacobian.  The (u, phi) block is mu_u
    transposed: see model.Pointwise.deps_dphi_E_elastic.
    """
    # sum_q sum_k w lam_i r_k B_kl, then the div(u) part of
    # d(dphi_E)/d(strain), -p alpha'(phi), which is also the pressure
    # coupling through alpha'(phi) in d(elastic residual)/d(phi), (3, 6, nc)
    r_e = pw.deps_dphi_E_elastic
    wl = wq[:, None, :] * lam[:, :, None]
    mu_u = np.zeros((3, 6, wq.shape[1]))
    for q in range(wq.shape[0]):
        for k in range(3):
            mu_u += (wl[q] * r_e[k, q])[:, None, :] * B[k]
    drow = B[0] + B[1]
    wl = (wq * pw.ap * pw.p)[:, None, :] * lam[:, :, None]
    mu_u -= _q_sum(lambda q: wl[q][:, None, :] * drow, len(wl))
    mu_u = _cells_first(mu_u)

    mu_p = _lam_sum(wq * pw.dp_dphi_E_fluid, lam)
    p_phi = _lam_sum(wq * pw.dphi_storage, lam)

    qh = (qloc[0] * psi[:, 0] + qloc[1] * psi[:, 1]) + qloc[2] * psi[:, 2]
    wpsi = (wq * pw.dkinv)[:, None, None, :] * psi
    q_phi = _psi_sum(wpsi * qh[:, None], lam[:, :, None, None])
    return mu_u, mu_p, p_phi, q_phi
