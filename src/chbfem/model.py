"""Constitutive laws for the coupled phase-field / poroelastic model.

All functions are plain numpy and broadcast over leading axes, so the same
code serves scalar spot checks and per-quadrature-point arrays.  Symmetric
2-tensors use Voigt form: strains as (e_xx, e_yy, 2*e_xy), stresses as
(s_xx, s_yy, s_xy), so the double contraction of a strain-type vector with
a stress-type vector is a plain dot product.

MaterialParams declares each parameter's default and check once, with
the field helpers and the one validator, check_fields, that SolverConfig
and the experiment config share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

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
    """(pi_interp, pi_prime, pi_double_prime) of phi from one pass.

    phi^2*(3-2*phi) and its two derivatives on [0, 1].  pi and pi' are
    evaluated at phi clipped to [0, 1], where their end values are
    exactly 0 and 1, and 0; pi'' jumps at 0 and 1 and vanishes outside.
    """
    phi = np.asarray(phi, dtype=np.float64)
    c = np.clip(phi, 0.0, 1.0)
    six = 6.0 * c
    return (c * c * (3.0 - 2.0 * c), six - six * c,
            np.where((phi < 0.0) | (phi > 1.0), 0.0, 6.0 - 12.0 * phi))


def pi_interp(phi):
    """Phase interpolation weight: 0 below 0, phi^2*(3-2*phi) on [0,1], 1 above."""
    return pi_laws(phi)[0]


def pi_prime(phi):
    """Derivative of pi_interp; vanishes outside (0, 1) and at both ends."""
    return pi_laws(phi)[1]


def pi_double_prime(phi):
    """Second derivative of pi_interp (jumps at 0 and 1)."""
    return pi_laws(phi)[2]


def zeta(phi, zeta0, zeta1):
    """Interpolated material coefficient zeta0 + pi(phi)*(zeta1 - zeta0)."""
    return zeta0 + pi_interp(phi) * (zeta1 - zeta0)


def zeta_prime(phi, zeta0, zeta1):
    return pi_prime(phi) * (zeta1 - zeta0)


def psi_split(phi):
    """Convex-concave split of the double well phi^2*(1-phi)^2.

    Returns (psi_c, psi_e, psi_c', psi_e', psi_c'') with
    psi_c = (phi - 1/2)^4 + 1/16 and psi_e = (phi - 1/2)^2 / 2, both convex.
    """
    s = np.asarray(phi, dtype=np.float64) - 0.5
    psi_c = s ** 4 + 1.0 / 16.0
    psi_e = 0.5 * s ** 2
    return psi_c, psi_e, 4.0 * s ** 3, s, 12.0 * s ** 2


def swelling_T(phi, xi, phi_bar):
    """Swelling eigenstrain xi*(phi - phi_bar)*I as a Voigt strain vector."""
    scale = xi * (np.asarray(phi, dtype=np.float64) - phi_bar)
    return np.multiply.outer(scale, VOIGT_ID)


def swelling_T_prime(xi):
    """d(swelling_T)/d(phi); constant because the eigenstrain is affine in phi."""
    return xi * VOIGT_ID


def stiffness_C(phi, params: MaterialParams):
    """Interpolated Voigt stiffness C0 + pi(phi)*(C1 - C0), shape (..., 3, 3)."""
    w = pi_interp(phi)
    return params.C0 + np.multiply.outer(w, params.dC)


def stress(phi, eps, p, params: MaterialParams):
    """Total Voigt stress C(phi)*(eps - T(phi)) - alpha(phi)*p*I."""
    eps = np.asarray(eps, dtype=np.float64)
    em = eps - swelling_T(phi, params.xi, params.phi_bar)
    sig = np.einsum("...ij,...j->...i", stiffness_C(phi, params), em)
    a = zeta(phi, params.alpha0, params.alpha1)
    return sig - np.multiply.outer(np.asarray(a) * np.asarray(p), VOIGT_ID)


def dphi_E_elastic(phi, eps, params: MaterialParams):
    """Variational derivative of the elastic energy with respect to phi.

    -T'(phi):C(phi)(eps - T) + (eps - T):C'(phi)(eps - T)/2, with all
    contractions in Voigt form.
    """
    eps = np.asarray(eps, dtype=np.float64)
    em = eps - swelling_T(phi, params.xi, params.phi_bar)
    Cem = np.einsum("...ij,...j->...i", stiffness_C(phi, params), em)
    term1 = -params.xi * (Cem[..., 0] + Cem[..., 1])
    dCem = np.einsum("ij,...j->...i", params.dC, em)
    term2 = 0.5 * pi_prime(phi) * np.einsum("...i,...i->...", em, dCem)
    return term1 + term2


def d2phi_E_elastic(phi, eps, params: MaterialParams):
    """phi-derivative of dphi_E_elastic at fixed strain."""
    eps = np.asarray(eps, dtype=np.float64)
    em = eps - swelling_T(phi, params.xi, params.phi_bar)
    dCem = np.einsum("ij,...j->...i", params.dC, em)
    tr_dCem = dCem[..., 0] + dCem[..., 1]
    # T' : C(phi) T' = xi^2 * (C00 + C01 + C10 + C11)
    Csum = (stiffness_C(phi, params)[..., :2, :2]).sum(axis=(-2, -1))
    return (-2.0 * params.xi * pi_prime(phi) * tr_dCem
            + params.xi ** 2 * Csum
            + 0.5 * pi_double_prime(phi) * np.einsum("...i,...i->...", em, dCem))


def deps_dphi_E_elastic(phi, eps, params: MaterialParams):
    """Strain-direction derivative of dphi_E_elastic, shape (..., 3).

    Dotting the result with a Voigt strain perturbation gives the change
    of dphi_E_elastic.
    """
    eps = np.asarray(eps, dtype=np.float64)
    em = eps - swelling_T(phi, params.xi, params.phi_bar)
    row = -params.xi * (stiffness_C(phi, params)[..., 0, :]
                        + stiffness_C(phi, params)[..., 1, :])
    row = row + pi_prime(phi)[..., None] * np.einsum("ij,...j->...i", params.dC, em)
    return row


def dphi_E_fluid(phi, div_u, p, params: MaterialParams):
    """Variational derivative of the fluid energy with respect to phi.

    M'(phi)*p^2 / (2*M(phi)^2) - p*alpha'(phi)*div(u).
    """
    p = np.asarray(p, dtype=np.float64)
    M = zeta(phi, params.M0, params.M1)
    Mp = zeta_prime(phi, params.M0, params.M1)
    ap = zeta_prime(phi, params.alpha0, params.alpha1)
    return Mp * p * p / (2.0 * M * M) - p * ap * np.asarray(div_u)


def d2phi_E_fluid(phi, div_u, p, params: MaterialParams):
    """phi-derivative of dphi_E_fluid at fixed div(u) and p."""
    p = np.asarray(p, dtype=np.float64)
    dM = params.M1 - params.M0
    da = params.alpha1 - params.alpha0
    M = zeta(phi, params.M0, params.M1)
    Mp = pi_prime(phi) * dM
    Mpp = pi_double_prime(phi) * dM
    app = pi_double_prime(phi) * da
    return (p * p * (Mpp * M - 2.0 * Mp * Mp) / (2.0 * M ** 3)
            - p * app * np.asarray(div_u))


def dp_dphi_E_fluid(phi, div_u, p, params: MaterialParams):
    """p-derivative of dphi_E_fluid."""
    M = zeta(phi, params.M0, params.M1)
    Mp = zeta_prime(phi, params.M0, params.M1)
    ap = zeta_prime(phi, params.alpha0, params.alpha1)
    return Mp * np.asarray(p) / (M * M) - ap * np.asarray(div_u)


def ddivu_dphi_E_fluid(phi, p, params: MaterialParams):
    """div(u)-derivative of dphi_E_fluid."""
    return -np.asarray(p) * zeta_prime(phi, params.alpha0, params.alpha1)
