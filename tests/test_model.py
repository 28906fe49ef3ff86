import numpy as np
import pytest

from chbfem import model
from chbfem.fem import default_rule
from chbfem.model import MaterialParams


def laws(phi, strain=None, p=0.0, params=None):
    """The model's laws at the points phi, one quadrature point per cell;
    with a strain (..., 3) and a pressure also those of Pointwise."""
    phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    phase = model.Phase(phi[:, None], params or MaterialParams())
    if strain is None:
        return phase
    return model.Pointwise(phase, np.broadcast_to(strain, (len(phi), 3)).astype(float),
                           np.broadcast_to(p, len(phi)).astype(float))


# The primitives the laws derive from, written out here as independent
# oracles: C(phi) and T(phi) for the elastic energy, M and alpha for the
# fluid energy and the storage, 1/kappa, and the double well's split.

def interpolated(phi, z0, z1):
    return z0 + model.pi_interp(phi) * (z1 - z0)


def stiffness(phi, params):
    return params.C0 + np.multiply.outer(model.pi_interp(phi), params.dC)


def swelling_strain(phi, params):
    return np.multiply.outer(params.xi * (phi - params.phi_bar), [1.0, 1.0, 0.0])


def elastic_energy_density(phi, eps, params):
    em = eps - swelling_strain(phi, params)
    return 0.5 * np.einsum("...i,...ij,...j->...", em, stiffness(phi, params), em)


def fluid_energy_density(phi, theta, div_u, params):
    # at fixed fluid content theta; the pressure p = M(phi)*(theta - alpha*div u)
    # is the dual variable, so the phi-derivative at fixed (theta, u) carries
    # the +M' p^2/(2 M^2) sign
    M = interpolated(phi, params.M0, params.M1)
    a = interpolated(phi, params.alpha0, params.alpha1)
    return 0.5 * M * (theta - a * div_u) ** 2


# gamma/ell = 1, so the double-well laws read psi_c' and psi_c''
UNIT_WELL = MaterialParams(gamma=1.0, ell=1.0)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


def test_params_validation_names_offender():
    with pytest.raises(ValueError, match="tau"):
        MaterialParams(tau=-1.0)
    with pytest.raises(ValueError, match="gamma"):
        MaterialParams(gamma=0.0)
    with pytest.raises(ValueError, match="C0"):
        MaterialParams(C0=-np.eye(3))
    with pytest.raises(ValueError, match="C0 must have finite entries, each a number"):
        MaterialParams(C0=np.eye(3, dtype=bool))


@pytest.mark.parametrize("name, value", [
    ("xi", np.nan), ("phi_bar", np.nan), ("alpha0", np.inf),
    ("gamma", np.inf), ("tau", -np.inf), ("alpha1", np.nan),
    ("gamma", True), ("gamma", 10 ** 400), ("gamma", "5")])
def test_params_reject_non_finite_scalars_by_name(name, value):
    with pytest.raises(ValueError, match=rf"\b{name} must be a (positive )?number"):
        MaterialParams(**{name: value})


def test_stiffness_stored_exactly_symmetric():
    C0 = model.DEFAULT_C0.copy()
    C0[0, 1] += 1e-14  # within the symmetry check's tolerance
    params = MaterialParams(C0=C0)
    assert np.array_equal(params.C0, params.C0.T)
    assert np.array_equal(params.C1, params.C1.T)
    assert np.allclose(params.C0, C0, rtol=0, atol=1e-14)
    # a symmetric matrix keeps its bits
    assert np.array_equal(MaterialParams().C0, model.DEFAULT_C0)
    assert np.array_equal(MaterialParams().C1, model.DEFAULT_C1)


def test_pi_clamps():
    assert model.pi_interp(-0.3) == 0.0
    assert model.pi_interp(1.2) == 1.0


def test_pi_values():
    assert np.isclose(model.pi_interp(0.5), 0.5, atol=1e-15)
    assert np.isclose(model.pi_interp(0.25), 0.15625, atol=1e-15)
    assert np.isclose(model.pi_prime(0.5), 1.5, atol=1e-15)
    phi = np.linspace(0.0, 1.0, 101)
    assert np.allclose(model.pi_interp(phi) + model.pi_interp(1.0 - phi), 1.0, atol=1e-14)


def test_pi_monotone_and_prime_continuous_at_clamps():
    phi = np.linspace(-2.0, 3.0, 2001)
    vals = model.pi_interp(phi)
    assert np.all(np.diff(vals) >= -1e-15)
    for point in (0.0, 1.0):
        assert abs(model.pi_prime(point - 1e-9)) < 1e-7
        assert abs(model.pi_prime(point + 1e-9)) < 1e-7


def test_zeta_table_values():
    ph = laws([0.0, 1.0, 0.5])
    np.testing.assert_allclose(ph.M[0], [1.0, 0.1, 0.55], rtol=0, atol=1e-15)
    np.testing.assert_allclose(ph.kappa[0], [1.0, 0.1, 0.55], rtol=0, atol=1e-15)
    np.testing.assert_allclose(ph.kinv[0], [1.0, 10.0, 1.0 / 0.55], rtol=1e-15)
    assert ph.Mp[0, 2] == pytest.approx(-1.35, abs=1e-14)
    assert ph.ap[0, 2] == pytest.approx(-0.75, abs=1e-14)


def test_zeta_stays_within_endpoint_interval():
    phi = np.linspace(-1.0, 2.0, 501)
    for z0, z1 in ((1.0, 0.1), (1.0, 0.5), (100.0, 1.0)):
        ph = laws(phi, params=MaterialParams(M0=z0, M1=z1, kappa0=z0, kappa1=z1))
        for vals in (ph.M, ph.kappa):
            assert np.all(vals >= min(z0, z1) - 1e-14)
            assert np.all(vals <= max(z0, z1) + 1e-14)
            assert np.all(vals > 0)


def test_psi_split_values():
    ph = laws([0.0, 0.5, 1.0], params=UNIT_WELL)
    # psi_c' = psi_e' at the double well's stationary points
    np.testing.assert_allclose(ph.well_prime[0], ph.shifted[0], rtol=0, atol=1e-15)
    assert ph.well_prime[0, 2] == pytest.approx(0.5, abs=1e-15)
    assert ph.shifted[0, 2] == pytest.approx(0.5, abs=1e-15)
    assert ph.well_second[0, 1] == 0.0


@pytest.mark.parametrize("n", [4, 16, 65])
def test_well_prime_has_the_bits_of_the_inline_power(n):
    # phi at the quadrature points of the n x n mesh, as phi_at_qp gives it
    shape = (2 * n * n, len(default_rule().weights))
    phi_q = np.random.default_rng(n).uniform(-0.3, 1.3, shape)
    phi_q.flat[:4] = [-0.0, 0.0, 0.5, 1.0]
    pa = MaterialParams()
    got = model.Phase(phi_q, pa).well_prime
    want = (pa.gamma / pa.ell) * 4.0 * (phi_q.T - 0.5) ** 3
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_the_cube_keeps_the_callers_error_state():
    with np.errstate(over="raise"):
        ph = laws([1e103, -1e103])
        with pytest.raises(FloatingPointError):
            ph.well_prime


def test_swelling_tensor():
    p = MaterialParams()
    assert np.allclose(laws(p.phi_bar, np.zeros(3)).em, 0.0)
    em = laws(1.0, np.zeros(3), params=MaterialParams(xi=0.5, phi_bar=0.5)).em
    assert np.allclose(em[:, 0, 0], [-0.25, -0.25, 0.0])
    assert np.allclose(laws(0.8, swelling_strain(0.8, p)).em, 0.0)


def test_stress_examples():
    # the normal components of the elastic stress C(phi)(eps - T), which
    # vanish with eps - T (test_swelling_tensor)
    Cem = laws(0.0, [1.0, 0.0, 0.0]).Cem
    assert np.allclose(Cem[:, 0, 0], [130.0, 50.0], atol=1e-12)


def test_stiffness_positive_definite_for_all_phi():
    for C in stiffness(np.linspace(-1.0, 2.0, 61), MaterialParams()):
        np.linalg.cholesky(C)  # raises on failure


def test_dphi_E_elastic_examples():
    p = MaterialParams()
    assert sum(laws(0.3, swelling_strain(0.3, p)).dphi_E_elastic)[0, 0] == (
        pytest.approx(0.0, abs=1e-14))
    # pi' = 0 below zero, so only -T':C0(eps - T) survives
    phi = -0.2
    eps = swelling_strain(phi, p) + np.array([1.0, 0.0, 0.0])
    assert sum(laws(phi, eps).dphi_E_elastic)[0, 0] == pytest.approx(-60.0, abs=1e-12)


def test_dphi_E_fluid_examples():
    # strain (div u, 0, 0)
    assert laws(0.4, [1.3, 0.0, 0.0]).dphi_E_fluid[0, 0] == 0.0
    got = laws(0.5, np.zeros(3), 1.0).dphi_E_fluid[0, 0]
    assert got == pytest.approx(-1.35 / 0.605, abs=1e-6)
    assert laws(-0.5, [2.0, 0.0, 0.0], 3.0).dphi_E_fluid[0, 0] == 0.0


def test_dphi_E_elastic_matches_energy_finite_differences():
    p = MaterialParams()
    rng = np.random.default_rng(11)
    h = 1e-6
    phi = rng.uniform(0.05, 0.95, 100)
    eps = rng.normal(0.0, 0.5, (100, 3))
    want = central_diff(lambda s: elastic_energy_density(s, eps, p), phi, h)
    assert rel_err(sum(laws(phi, eps).dphi_E_elastic)[0], want) <= 1e-6


def test_dphi_E_fluid_matches_energy_finite_differences():
    p = MaterialParams()
    rng = np.random.default_rng(12)
    h = 1e-6
    phi = rng.uniform(0.05, 0.95, 100)
    div_u = rng.normal(0.0, 0.5, 100)
    pr = rng.normal(0.0, 1.0, 100)
    theta = (pr / interpolated(phi, p.M0, p.M1)
             + interpolated(phi, p.alpha0, p.alpha1) * div_u)
    want = central_diff(lambda s: fluid_energy_density(s, theta, div_u, p),
                        phi, h)
    strain = np.column_stack([div_u, np.zeros(100), np.zeros(100)])
    assert rel_err(laws(phi, strain, pr).dphi_E_fluid[0], want) <= 1e-6


def test_first_derivatives_match_finite_differences():
    p = MaterialParams()
    rng = np.random.default_rng(13)
    h = 1e-6
    phi = rng.uniform(0.02, 0.98, 100)
    ph = laws(phi, params=UNIT_WELL)
    assert rel_err(model.pi_prime(phi), central_diff(model.pi_interp, phi, h)) <= 1e-6
    assert rel_err(laws(phi).Mp[0],
                   central_diff(lambda s: interpolated(s, p.M0, p.M1), phi, h)) <= 1e-6
    assert rel_err(laws(phi).ap[0], central_diff(
        lambda s: interpolated(s, p.alpha0, p.alpha1), phi, h)) <= 1e-6
    assert rel_err(laws(phi).dkinv[0], central_diff(
        lambda s: 1.0 / interpolated(s, p.kappa0, p.kappa1), phi, h)) <= 1e-6
    # psi_c = (phi - 1/2)^4 + 1/16 and psi_e = (phi - 1/2)^2 / 2
    assert rel_err(ph.well_prime[0], central_diff(
        lambda s: (s - 0.5) ** 4 + 1.0 / 16.0, phi, h)) <= 1e-6
    assert rel_err(ph.shifted[0], central_diff(
        lambda s: 0.5 * (s - 0.5) ** 2, phi, h)) <= 1e-6
    assert rel_err(ph.well_second[0], central_diff(
        lambda s: laws(s, params=UNIT_WELL).well_prime[0], phi, h)) <= 1e-6


def test_second_derivative_helpers_match_finite_differences():
    p = MaterialParams()
    rng = np.random.default_rng(14)
    h = 1e-6
    phi = rng.uniform(0.05, 0.95, 100)
    eps = rng.normal(0.0, 0.5, (100, 3))
    pr = rng.normal(0.0, 1.0, 100)
    div_u = eps[:, 0] + eps[:, 1]
    pw = laws(phi, eps, pr)
    assert rel_err(pw.d2phi_E_elastic[0], central_diff(
        lambda s: sum(laws(s, eps, pr).dphi_E_elastic)[0], phi, h)) <= 1e-6
    assert rel_err(pw.d2phi_E_fluid[0], central_diff(
        lambda s: laws(s, eps, pr).dphi_E_fluid[0], phi, h)) <= 1e-6
    assert rel_err(pw.dmu_nonlinear[0], central_diff(
        lambda s: laws(s, eps, pr).mu_nonlinear[0], phi, h)) <= 1e-6
    assert rel_err(pw.dp_dphi_E_fluid[0], central_diff(
        lambda s: laws(phi, eps, s).dphi_E_fluid[0], pr, h)) <= 1e-6
    # the storage p/M + alpha div u
    assert rel_err(pw.dphi_storage[0], central_diff(
        lambda s: pr / interpolated(s, p.M0, p.M1)
        + interpolated(s, p.alpha0, p.alpha1) * div_u, phi, h)) <= 1e-6
    for k in range(3):
        def along(s, k=k):
            e2 = eps.copy()
            e2[:, k] = s
            return laws(phi, e2, pr)
        assert rel_err(pw.deps_dphi_E_elastic[k, 0], central_diff(
            lambda s: sum(along(s).dphi_E_elastic)[0], eps[:, k], h)) <= 1e-6
        # div u = eps_0 + eps_1: the div u-derivative -p alpha' of
        # dphi_E_fluid, which coupling_blocks integrates
        want = central_diff(lambda s: along(s).dphi_E_fluid[0], eps[:, k], h)
        got = -pr * pw.ap[0] if k < 2 else 0.0
        assert rel_err(got, want) <= 1e-6


def test_clamped_branch_kills_interpolated_couplings():
    for phi in (-0.7, 1.4):
        pw = laws(phi, [1.7, 0.0, 0.0], 2.3)
        for name in ("Mp", "ap", "dkinv", "dphi_E_fluid", "dp_dphi_E_fluid",
                     "dphi_storage"):
            assert getattr(pw, name)[0, 0] == 0.0, name
