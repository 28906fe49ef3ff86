"""The constitutive laws of the coupled phase-field / poroelastic model,
and its parameters.

Each law is written here as the solver runs it: at the quadrature points
of every cell at once, cells last (one contiguous (nqp, nc) array per
component).  Phase holds the laws of phi alone: the interpolation pi and
its derivatives, the split double well, the interpolated coefficients M,
alpha' and kappa.  Pointwise adds those of one iterate's strain and
pressure: the swelling strain, the stiffness, and the phi-derivatives of
the elastic and fluid energies with the derivatives the Jacobians need.
chbfem._kernels only integrates these values; ChbSystem.phase_integrals
turns the cell integrals of Phase.cell_integrands into the integrated
stiffness, swelling load, storage and Biot-Willis coefficient.
Symmetric 2-tensors use Voigt form: strains as (e_xx, e_yy, 2*e_xy),
stresses as (s_xx, s_yy, s_xy), so the double contraction of a
strain-type vector with a stress-type vector is a plain dot product.

FrozenCoupling holds the same chemical-potential laws for the splitting's
Cahn-Hilliard solve, where u and p stay fixed: as polynomials in
xi (phi - phi_bar) whose coefficients are computed once per solve.  It
agrees with Pointwise to a few ulps, not bit for bit.  So the laws of
mu_nonlinear and dmu_nonlinear are written twice until the monolithic
path moves to the same form, which waits until the benchmark no longer
pins swell's diverging monolithic Newton count exactly.

Each law of Phase and Pointwise performs the operations of its twin in
tests/reference_kernels.py in the same order, as the kernels' bit-exact
contract asks (see chbfem._kernels): products left to right in the
operand order of the einsum they replace, and a sum over a Voigt index as
(t0 + t2) + t1, the order of numpy 2.4's two-operand einsum on an x86-64
baseline build.

MaterialParams declares each parameter's default and check once, with
the field helpers and the one validator, check_fields, that SolverConfig
and the experiment config share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

# plane stiffness of the two pure phases, Voigt form
DEFAULT_C0 = np.array([[100.0, 20.0, 0.0],
                       [20.0, 100.0, 0.0],
                       [0.0, 0.0, 100.0]])
DEFAULT_C1 = np.array([[1.0, 0.1, 0.0],
                       [0.1, 1.0, 0.0],
                       [0.0, 0.0, 1.0]])

# unit hydrostatic direction in Voigt form: trace(A) = A . VOIGT_ID
VOIGT_ID = np.array([1.0, 1.0, 0.0])


class ConfigError(ValueError):
    """Unreadable, unparsable or invalid configuration."""


# Each configurable field declares its default and its check once, through
# the helpers below; a check returns why a value fails, or None.

# The model is nondimensional.  Every real field, and every eigenvalue of
# a stiffness, stays within this magnitude (a positive one also above its
# reciprocal), so that products of a few coefficients, and the squares a
# residual norm adds, stay finite in double precision.
SCALE_LIMIT = 1e20


def is_number(value) -> bool:
    """A finite real number; bool (an int to Python) and strings are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond float range
        return False


def real(default, positive=False, paired_with=None):
    """A finite number; `paired_with` names an earlier field z0 that this
    one, z1, is interpolated from as z0 + pi*(z1 - z0)."""
    kind = "a positive number" if positive else "a number"
    low = 1 / SCALE_LIMIT if positive else -SCALE_LIMIT

    def check(value):
        if not is_number(value) or (positive and not value > 0):
            return f"must be {kind}"
        if not low <= value <= SCALE_LIMIT:
            return f"must lie within [{low:g}, {SCALE_LIMIT:g}]"
    return field(default=default,
                 metadata={"check": check, "paired_with": paired_with})


def integer(default, low):
    def check(value):
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < low):
            return f"must be an integer of at least {low}"
    return field(default=default, metadata={"check": check})


def choice(default, *choices):
    def check(value):
        if not (isinstance(value, str) and value in choices):
            return f"must be {', '.join(choices[:-1])} or {choices[-1]}"
    return field(default=default, metadata={"check": check})


def _voigt_check(value):
    rows = value.tolist() if isinstance(value, np.ndarray) else value
    if not (isinstance(rows, (list, tuple)) and len(rows) == 3
            and all(isinstance(r, (list, tuple)) and len(r) == 3 for r in rows)):
        return "must be a 3x3 Voigt matrix"
    if not all(is_number(x) for r in rows for x in r):
        return "must have finite entries, each a number"
    C = np.array(rows, dtype=np.float64)
    if not np.allclose(C, C.T):
        return "must be symmetric"
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return "must be positive definite"
    eig = np.linalg.eigvalsh(C)
    if eig[0] < 1 / SCALE_LIMIT or eig[-1] > SCALE_LIMIT:
        return f"must have eigenvalues within [{1 / SCALE_LIMIT:g}, {SCALE_LIMIT:g}]"


def voigt(default: np.ndarray):
    """A symmetric positive definite 3x3 Voigt matrix, as nested lists or an array."""
    return field(default_factory=default.tolist, metadata={"check": _voigt_check})


def check_fields(obj, what: str) -> None:
    """Raise a ConfigError naming every field of `obj` that fails its check.

    A paired field z1 must also survive z0 + (z1 - z0) to 1e-8 relative,
    else its interpolated coefficient can round to zero at pi = 1.
    """
    errors = {}
    for f in fields(obj):
        value, z0_name = getattr(obj, f.name), f.metadata.get("paired_with")
        reason = f.metadata["check"](value)
        if not reason and z0_name and z0_name not in errors:
            z0, z1 = float(getattr(obj, z0_name)), float(value)
            if abs(z0 + (z1 - z0) - z1) > 1e-8 * abs(z1):
                reason = f"is lost in {z0_name} + pi*({f.name} - {z0_name}) at pi = 1"
        if reason:
            errors[f.name] = f"{f.name} {reason}"
    if errors:
        raise ConfigError(f"invalid {what}: " + "; ".join(errors.values()))


@dataclass
class MaterialParams:
    """Material and discretization parameters of the baseline setup."""

    gamma: float = real(5.0, positive=True)      # surface tension
    ell: float = real(2.0e-2, positive=True)     # interface regularization width
    mobility: float = real(1.0, positive=True)
    xi: float = real(0.5)                        # swelling parameter
    phi_bar: float = real(0.5)                   # reference phase-field
    C0: np.ndarray = voigt(DEFAULT_C0)
    C1: np.ndarray = voigt(DEFAULT_C1)
    # compressibilities and permeabilities of the pure phases
    M0: float = real(1.0, positive=True)
    M1: float = real(0.1, positive=True, paired_with="M0")
    kappa0: float = real(1.0, positive=True)
    kappa1: float = real(0.1, positive=True, paired_with="kappa0")
    alpha0: float = real(1.0)                    # Biot-Willis coefficients
    alpha1: float = real(0.5)
    tau: float = real(1.0e-5, positive=True)     # time step size

    def __post_init__(self):
        check_fields(self, "material parameters")
        self.C0 = np.asarray(self.C0, dtype=np.float64)
        self.C1 = np.asarray(self.C1, dtype=np.float64)
        # exactly symmetric, as the kernels assume; the same bits for a
        # matrix that is symmetric already
        self.C0 = 0.5 * (self.C0 + self.C0.T)
        self.C1 = 0.5 * (self.C1 + self.C1.T)

    @property
    def dC(self) -> np.ndarray:
        return self.C1 - self.C0


def pi_laws(phi):
    """(pi, pi', pi'') of phi from one pass.

    pi is the phase interpolation weight: phi^2*(3-2*phi) on [0, 1], 0
    below and 1 above.  pi and pi' are evaluated at phi clipped to
    [0, 1], where their end values are exactly 0 and 1, and 0; pi''
    jumps at 0 and 1 and vanishes outside.
    """
    phi = np.asarray(phi, dtype=np.float64)
    c = np.clip(phi, 0.0, 1.0)
    six = 6.0 * c
    return (c * c * (3.0 - 2.0 * c), six - six * c,
            np.where((phi < 0.0) | (phi > 1.0), 0.0, 6.0 - 12.0 * phi))


class Phase:
    """The laws of phi alone at the quadrature points, cells last.

    phi_q is phi at the quadrature points, (nc, nqp), as
    ChbSystem.phi_at_qp returns it; every value is (nqp, nc).  A value
    that several kernels read is computed on first use and kept; a
    kernel's integrand is computed when that kernel reads it.
    """

    def __init__(self, phi_q, params: MaterialParams):
        self.phi = phi_q.T.copy()
        self.params = params

    @cached_property
    def pi(self):
        """(pi, pi', pi'') of phi."""
        return pi_laws(self.phi)

    @cached_property
    def dphi(self):
        """phi - phi_bar: the swelling strain is T(phi) = xi dphi I."""
        return self.phi - self.params.phi_bar

    @cached_property
    def shifted(self):
        """phi - 1/2 = psi_e'(phi), of the double well's split into
        psi_c = (phi - 1/2)^4 + 1/16 and psi_e = (phi - 1/2)^2 / 2."""
        return self.phi - 0.5

    @cached_property
    def M(self):
        """Compressibility M0 + pi (M1 - M0)."""
        pa = self.params
        return pa.M0 + self.pi[0] * (pa.M1 - pa.M0)

    @cached_property
    def Mp(self):
        return self.pi[1] * (self.params.M1 - self.params.M0)

    @cached_property
    def ap(self):
        """alpha' of the Biot-Willis coefficient alpha0 + pi (alpha1 - alpha0)."""
        return self.pi[1] * (self.params.alpha1 - self.params.alpha0)

    @cached_property
    def kappa(self):
        """Permeability kappa0 + pi (kappa1 - kappa0)."""
        pa = self.params
        return pa.kappa0 + self.pi[0] * (pa.kappa1 - pa.kappa0)

    # Numpy's vectorized power sends every lane with a negative base down
    # a slow scalar path, about 0.14 ms of each Newton iterate at n=16 and
    # 2.7 ms at n=65, but neither s * s * s nor a power of |s| with the
    # sign copied back gives the bits of ** 3 in every lane, and the
    # monolithic kernels are held to those bits.  The splitting reads
    # s * s * s (FrozenCoupling).  Once the benchmark no longer pins
    # swell's diverging monolithic Newton count exactly, the kernels can
    # be held to a few ulps and s * s * s replaces the power here too.
    @property
    def well_prime(self):
        """(gamma/ell) psi_c'(phi) = (gamma/ell) 4 (phi - 1/2)^3."""
        pa = self.params
        return (pa.gamma / pa.ell) * 4.0 * np.power(self.shifted, 3)

    @property
    def well_second(self):
        """(gamma/ell) psi_c''(phi) = (gamma/ell) 12 (phi - 1/2)^2."""
        pa = self.params
        return (pa.gamma / pa.ell) * 12.0 * self.shifted ** 2

    @property
    def cell_integrands(self):
        """(pi, phi - phi_bar, pi (phi - phi_bar), 1/M): integrated over a
        cell they give its stiffness C0 + pi dC and Biot-Willis coefficient,
        its swelling load C(phi) T(phi) and its pressure storage 1/M."""
        piv, dphi = self.pi[0], self.dphi
        return piv, dphi, piv * dphi, 1.0 / self.M

    @property
    def kinv(self):
        """1/kappa, the weight of the flux mass matrix."""
        return 1.0 / self.kappa

    @property
    def dkinv(self):
        """d(1/kappa)/dphi."""
        pa = self.params
        return -self.pi[1] * (pa.kappa1 - pa.kappa0) / (self.kappa * self.kappa)


class Pointwise(Phase):
    """The laws of phi plus those of one iterate's strain and pressure.

    Built from the Phase of phi, whose values computed so far it shares.
    strain is the Voigt strain per cell, (nc, 3), and p the cellwise
    pressure, (nc,).  The energies whose phi-derivatives enter the
    chemical potential are E_el = (eps - T):C(phi)(eps - T)/2, with
    C(phi) = C0 + pi dC, and E_fl = M(phi) (theta - alpha(phi) div u)^2/2
    at fixed fluid content theta, whose dual is p.
    """

    def __init__(self, phase: Phase, strain, p):
        self.__dict__.update(phase.__dict__)
        self.strain = strain
        self.p = p

    @cached_property
    def em(self):
        """Strain minus the swelling strain, eps - T(phi), (3, nqp, nc)."""
        t = self.params.xi * self.dphi
        return self.strain.T[:, None, :] - t * VOIGT_ID[:, None, None]

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

    @property
    def Cem(self):
        """Rows 0 and 1 of the elastic stress C(phi) em, (2, nqp, nc)."""
        C, em = self.C, self.em
        return (C[:, 0] * em[0] + C[:, 2] * em[2]) + C[:, 1] * em[1]

    @property
    def dphi_E_elastic(self):
        """The two terms of the phi-derivative of E_el:
        -T'(phi):C(phi) em and em:C'(phi) em / 2."""
        Cem = self.Cem
        return (-self.params.xi * (Cem[0] + Cem[1]),
                0.5 * self.pi[1] * self.em_dCem)

    @property
    def dphi_E_fluid(self):
        """phi-derivative of E_fl: M' p^2 / (2 M^2) - p alpha' div u."""
        p = self.p
        return self.Mp * p ** 2 / (2.0 * self.M * self.M) - p * self.ap * self.divu

    @property
    def mu_nonlinear(self):
        """(gamma/ell) psi_c'(phi) + dphi E_el + dphi E_fl, the part of the
        chemical potential that ch_load integrates; added left to right."""
        swelling, stiffening = self.dphi_E_elastic
        return self.well_prime + swelling + stiffening + self.dphi_E_fluid

    @property
    def d2phi_E_elastic(self):
        """phi-derivative of dphi_E_elastic at fixed strain."""
        xi, C = self.params.xi, self.C
        _, pip, pipp = self.pi
        tr_dCem = self.dCem[0] + self.dCem[1]
        # T':C(phi) T' = xi^2 (C00 + C01 + C10 + C11)
        Csum = ((C[0, 0] + C[0, 1]) + C[1, 0]) + C[1, 1]
        return (-2.0 * xi * pip * tr_dCem + xi * xi * Csum
                + 0.5 * pipp * self.em_dCem)

    @property
    def d2phi_E_fluid(self):
        """phi-derivative of dphi_E_fluid at fixed div u and p."""
        pa, p, M, Mp = self.params, self.p, self.M, self.Mp
        pipp = self.pi[2]
        Mpp = pipp * (pa.M1 - pa.M0)
        app = pipp * (pa.alpha1 - pa.alpha0)
        return (p ** 2 * (Mpp * M - 2.0 * Mp * Mp) / (2.0 * M ** 3)
                - p * app * self.divu)

    @property
    def dmu_nonlinear(self):
        """phi-derivative of mu_nonlinear, which ch_jac integrates."""
        return self.well_second + self.d2phi_E_elastic + self.d2phi_E_fluid

    @property
    def deps_dphi_E_elastic(self):
        """Derivative of the sum of dphi_E_elastic along the Voigt strain,
        (3, nqp, nc).  C0 and C1 are stored exactly symmetric, so it is
        also, bit for bit, the phi-derivative of the stress C(phi) em."""
        return -self.params.xi * (self.C[0] + self.C[1]) + self.pi[1] * self.dCem

    @property
    def dp_dphi_E_fluid(self):
        """p-derivative of dphi_E_fluid; its div u-derivative is -p alpha'."""
        return self.Mp * self.p / (self.M * self.M) - self.ap * self.divu

    @property
    def dphi_storage(self):
        """phi-derivative of the storage p/M(phi) + alpha(phi) div u."""
        return -self.p * self.Mp / (self.M * self.M) + self.divu * self.ap


class FrozenCoupling:
    """The chemical-potential laws at one frozen strain and pressure.

    The splitting solves the Cahn-Hilliard subsystem with u and p fixed,
    and a P1 displacement has one strain eps per cell, (nc, 3), as p is
    one pressure per cell, (nc,).  With t = xi (phi - phi_bar) the elastic
    strain is eps - t I and the stiffness C0 + pi dC, so every elastic and
    fluid term of Pointwise.mu_nonlinear and dmu_nonlinear is a polynomial
    in t whose coefficients are five per-cell numbers, I.C0.eps, I.dC.eps,
    eps.dC.eps, p^2 and p div u, weighted by pi, pi' and pi''.  They are
    computed once, here, and ch_laws evaluates only (nqp, nc) arrays.

    These laws are those of Pointwise written a second time, in another
    order of operations, with s * s * s for the double well's cube: they
    agree with Pointwise to a few ulps of the largest value, not bit for
    bit, and the monolithic path, whose bits the benchmark pins, keeps
    Pointwise.
    """

    def __init__(self, strain, p, params: MaterialParams):
        self.params = params
        c0_i, dc_i = params.C0 @ VOIGT_ID, params.dC @ VOIGT_ID
        # C0 and dC are symmetric, so C I . eps = I.C.eps
        self.c0_eps = strain @ c0_i
        self.dc_eps = strain @ dc_i
        self.eps_dc_eps = np.einsum("ci,ij,cj->c", strain, params.dC, strain)
        self.p2 = p * p
        self.p_divu = p * (strain[:, 0] + strain[:, 1])
        # I.C0.I and I.dC.I
        self.c0_ii = float(VOIGT_ID @ c0_i)
        self.dc_ii = float(VOIGT_ID @ dc_i)

    def ch_laws(self, ph: Phase):
        """(mu_nonlinear, dmu_nonlinear) at the phi of ph, (nqp, nc) each.

        mu = (gamma/ell) 4 s^3 - xi I.C(phi)(eps - t I) + pi' g and
        dmu = (gamma/ell) 12 s^2 + xi^2 I.C(phi).I - 2 xi pi' I.dC(eps - t I)
        + pi'' g - M'^2 p^2 / M^3, with s = phi - 1/2 and
        g = (eps - t I).dC(eps - t I) / 2 + (M1 - M0) p^2 / (2 M^2)
        - (alpha1 - alpha0) p div u.
        """
        pa, xi = self.params, self.params.xi
        piv, pip, pipp = ph.pi
        t = xi * ph.dphi
        s = ph.shifted
        s2 = s * s
        M = ph.M
        tr = self.dc_eps - t * self.dc_ii               # I.dC(eps - t I)
        csum = self.c0_ii + piv * self.dc_ii            # I.C(phi).I
        h = self.p2 / (M * M)
        g = (0.5 * (self.eps_dc_eps - t * (self.dc_eps + tr))
             + (0.5 * (pa.M1 - pa.M0)) * h
             - (pa.alpha1 - pa.alpha0) * self.p_divu)
        well = pa.gamma / pa.ell
        mu = ((4.0 * well) * (s2 * s)
              - xi * ((self.c0_eps + piv * self.dc_eps) - t * csum)
              + pip * g)
        dmu = ((12.0 * well) * s2 + (xi * xi) * csum
               - (2.0 * xi) * (pip * tr) + pipp * g - (ph.Mp * ph.Mp / M) * h)
        return mu, dmu
