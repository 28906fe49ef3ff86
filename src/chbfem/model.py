"""Constitutive laws for the coupled phase-field / poroelastic model.

All functions are plain numpy and broadcast over leading axes, so the same
code serves scalar spot checks and per-quadrature-point arrays.  Symmetric
2-tensors use Voigt form: strains as (e_xx, e_yy, 2*e_xy), stresses as
(s_xx, s_yy, s_xy), so the double contraction of a strain-type vector with
a stress-type vector is a plain dot product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class MaterialParams:
    """Material and discretization parameters of the baseline setup."""

    gamma: float = 5.0          # surface tension
    ell: float = 2.0e-2         # interface regularization width
    mobility: float = 1.0
    xi: float = 0.5             # swelling parameter
    phi_bar: float = 0.5        # reference phase-field
    C0: np.ndarray = field(default_factory=lambda: DEFAULT_C0.copy())
    C1: np.ndarray = field(default_factory=lambda: DEFAULT_C1.copy())
    M0: float = 1.0             # compressibilities of the pure phases
    M1: float = 0.1
    kappa0: float = 1.0         # permeabilities
    kappa1: float = 0.1
    alpha0: float = 1.0         # Biot-Willis coefficients
    alpha1: float = 0.5
    tau: float = 1.0e-5         # time step size

    def __post_init__(self):
        self.C0 = np.asarray(self.C0, dtype=np.float64)
        self.C1 = np.asarray(self.C1, dtype=np.float64)
        errors = []
        for name in ("gamma", "ell", "mobility", "xi", "phi_bar", "M0", "M1",
                     "kappa0", "kappa1", "alpha0", "alpha1", "tau"):
            value = getattr(self, name)
            if not np.isfinite(value):
                errors.append(f"{name} must be finite")
            elif name not in ("xi", "phi_bar", "alpha0", "alpha1") and not value > 0:
                errors.append(f"{name} must be positive")
        for name in ("C0", "C1"):
            errors += stiffness_errors(name, getattr(self, name))
        if errors:
            raise ValueError("invalid material parameters: " + "; ".join(errors))
        # exactly symmetric, as the kernels assume; the same bits for a
        # matrix that is symmetric already
        self.C0 = 0.5 * (self.C0 + self.C0.T)
        self.C1 = 0.5 * (self.C1 + self.C1.T)

    @property
    def dC(self) -> np.ndarray:
        return self.C1 - self.C0


def stiffness_errors(name: str, C: np.ndarray) -> list:
    """Why C is not a symmetric positive definite 3x3 Voigt matrix, if it isn't."""
    if C.shape != (3, 3):
        return [f"{name} must be a 3x3 Voigt matrix"]
    if not np.all(np.isfinite(C)):
        return [f"{name} must have finite entries"]
    if not np.allclose(C, C.T):
        return [f"{name} must be symmetric"]
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return [f"{name} must be positive definite"]
    return []


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
