import numpy as np
import pytest

from chbfem import model
from chbfem.model import MaterialParams


# energy densities, used only as independent oracles for the derivative checks
def elastic_energy_density(phi, eps, params):
    em = np.asarray(eps) - model.swelling_T(phi, params.xi, params.phi_bar)
    C = model.stiffness_C(phi, params)
    return 0.5 * em @ (C @ em)


def fluid_energy_density(phi, theta, div_u, params):
    # at fixed fluid content theta; the pressure p = M(phi)*(theta - alpha*div u)
    # is the dual variable, so the phi-derivative at fixed (theta, u) carries
    # the +M' p^2/(2 M^2) sign
    M = model.zeta(phi, params.M0, params.M1)
    a = model.zeta(phi, params.alpha0, params.alpha1)
    return 0.5 * M * (theta - a * div_u) ** 2


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_params_validation_names_offender():
    with pytest.raises(ValueError, match="tau"):
        MaterialParams(tau=-1.0)
    with pytest.raises(ValueError, match="gamma"):
        MaterialParams(gamma=0.0)
    with pytest.raises(ValueError, match="C0"):
        MaterialParams(C0=-np.eye(3))


@pytest.mark.parametrize("name, value", [
    ("xi", np.nan), ("phi_bar", np.nan), ("alpha0", np.inf),
    ("gamma", np.inf), ("tau", -np.inf), ("alpha1", np.nan)])
def test_params_reject_non_finite_scalars_by_name(name, value):
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
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
    assert model.zeta(0.0, 1.0, 0.1) == 1.0
    assert model.zeta(1.0, 1.0, 0.1) == pytest.approx(0.1, abs=1e-15)
    assert model.zeta(0.5, 1.0, 0.1) == pytest.approx(0.55, abs=1e-15)
    assert model.zeta_prime(0.5, 1.0, 0.1) == pytest.approx(-1.35, abs=1e-14)
    assert model.zeta(0.5, 1.0, 0.5) == pytest.approx(0.75, abs=1e-15)


def test_zeta_stays_within_endpoint_interval():
    phi = np.linspace(-1.0, 2.0, 501)
    for z0, z1 in ((1.0, 0.1), (1.0, 0.5), (100.0, 1.0)):
        vals = model.zeta(phi, z0, z1)
        assert np.all(vals >= min(z0, z1) - 1e-14)
        assert np.all(vals <= max(z0, z1) + 1e-14)
        assert np.all(vals > 0)


def test_psi_split_values():
    psi_c, psi_e, dc, de, ddc = model.psi_split(0.5)
    assert psi_c == pytest.approx(1.0 / 16.0, abs=1e-16)
    assert psi_e == 0.0
    for phi in (0.0, 1.0):
        psi_c, psi_e, _, _, _ = model.psi_split(phi)
        assert psi_c - psi_e == pytest.approx(0.0, abs=1e-15)
    _, _, dc, de, _ = model.psi_split(1.0)
    assert dc == pytest.approx(0.5, abs=1e-15)
    assert de == pytest.approx(0.5, abs=1e-15)


def test_convex_split_identity_and_convexity():
    phi = np.linspace(-1.0, 2.0, 10_000)
    psi_c, psi_e, _, _, ddc = model.psi_split(phi)
    double_well = phi ** 2 * (1.0 - phi) ** 2
    assert np.max(np.abs(psi_c - psi_e - double_well)) <= 1e-12
    assert np.all(ddc >= 0.0)  # psi_e'' = 1 > 0 identically


def test_swelling_tensor():
    p = MaterialParams()
    assert np.allclose(model.swelling_T(0.5, p.xi, p.phi_bar), 0.0)
    assert np.allclose(model.swelling_T(1.0, 0.5, 0.5), [0.25, 0.25, 0.0])
    assert np.allclose(model.swelling_T_prime(0.5), [0.5, 0.5, 0.0])


def test_stress_examples():
    p = MaterialParams()
    assert np.allclose(model.stress(p.phi_bar, np.zeros(3), 0.0, p), 0.0)
    t = model.swelling_T(0.8, p.xi, p.phi_bar)
    assert np.allclose(model.stress(0.8, t, 0.0, p), 0.0, atol=1e-14)
    sig = model.stress(0.0, np.array([1.0, 0.0, 0.0]), 0.0, p)
    assert np.allclose(sig, [130.0, 50.0, 0.0], atol=1e-12)


def test_stiffness_positive_definite_for_all_phi():
    p = MaterialParams()
    for phi in np.linspace(-1.0, 2.0, 61):
        np.linalg.cholesky(model.stiffness_C(phi, p))  # raises on failure


def test_dphi_E_elastic_examples():
    p = MaterialParams()
    t = model.swelling_T(0.3, p.xi, p.phi_bar)
    assert model.dphi_E_elastic(0.3, t, p) == pytest.approx(0.0, abs=1e-14)
    # pi' = 0 below zero, so only -T':C0(eps - T) survives
    phi = -0.2
    eps = model.swelling_T(phi, p.xi, p.phi_bar) + np.array([1.0, 0.0, 0.0])
    assert model.dphi_E_elastic(phi, eps, p) == pytest.approx(-60.0, abs=1e-12)


def test_dphi_E_fluid_examples():
    p = MaterialParams()
    assert model.dphi_E_fluid(0.4, 1.3, 0.0, p) == 0.0
    got = model.dphi_E_fluid(0.5, 0.0, 1.0, p)
    assert got == pytest.approx(-1.35 / 0.605, abs=1e-6)
    assert model.dphi_E_fluid(-0.5, 2.0, 3.0, p) == 0.0


def test_dphi_E_elastic_matches_energy_finite_differences():
    p = MaterialParams()
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(100):
        phi = rng.uniform(0.05, 0.95)
        eps = rng.normal(0.0, 0.5, 3)
        want = central_diff(lambda s: elastic_energy_density(s, eps, p), phi, h)
        got = model.dphi_E_elastic(phi, eps, p)
        assert rel_err(got, want) <= 1e-6


def test_dphi_E_fluid_matches_energy_finite_differences():
    p = MaterialParams()
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(100):
        phi = rng.uniform(0.05, 0.95)
        div_u = rng.normal(0.0, 0.5)
        pr = rng.normal(0.0, 1.0)
        theta = (pr / model.zeta(phi, p.M0, p.M1)
                 + model.zeta(phi, p.alpha0, p.alpha1) * div_u)
        want = central_diff(lambda s: fluid_energy_density(s, theta, div_u, p),
                            phi, h)
        got = model.dphi_E_fluid(phi, div_u, pr, p)
        assert rel_err(got, want) <= 1e-6


def test_first_derivatives_match_finite_differences():
    p = MaterialParams()
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(100):
        phi = rng.uniform(0.02, 0.98)
        assert rel_err(model.pi_prime(phi),
                       central_diff(model.pi_interp, phi, h)) <= 1e-6
        assert rel_err(model.zeta_prime(phi, 1.0, 0.1),
                       central_diff(lambda s: model.zeta(s, 1.0, 0.1), phi, h)) <= 1e-6
        _, _, dc, de, ddc = model.psi_split(phi)
        assert rel_err(dc, central_diff(lambda s: model.psi_split(s)[0], phi, h)) <= 1e-6
        assert rel_err(de, central_diff(lambda s: model.psi_split(s)[1], phi, h)) <= 1e-6
        assert rel_err(ddc, central_diff(lambda s: model.psi_split(s)[2], phi, h)) <= 1e-6


def test_second_derivative_helpers_match_finite_differences():
    p = MaterialParams()
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(100):
        phi = rng.uniform(0.05, 0.95)
        eps = rng.normal(0.0, 0.5, 3)
        div_u = rng.normal(0.0, 0.5)
        pr = rng.normal(0.0, 1.0)
        assert rel_err(
            model.d2phi_E_elastic(phi, eps, p),
            central_diff(lambda s: model.dphi_E_elastic(s, eps, p), phi, h)) <= 1e-6
        assert rel_err(
            model.d2phi_E_fluid(phi, div_u, pr, p),
            central_diff(lambda s: model.dphi_E_fluid(s, div_u, pr, p), phi, h)) <= 1e-6
        assert rel_err(
            model.dp_dphi_E_fluid(phi, div_u, pr, p),
            central_diff(lambda s: model.dphi_E_fluid(phi, div_u, s, p), pr, h)) <= 1e-6
        assert rel_err(
            model.ddivu_dphi_E_fluid(phi, pr, p),
            central_diff(lambda s: model.dphi_E_fluid(phi, s, pr, p), div_u, h)) <= 1e-6
        row = model.deps_dphi_E_elastic(phi, eps, p)
        for k in range(3):
            def along(s, k=k):
                e2 = eps.copy()
                e2[k] = s
                return model.dphi_E_elastic(phi, e2, p)
            assert rel_err(row[k], central_diff(along, eps[k], h)) <= 1e-6


def test_clamped_branch_kills_interpolated_couplings():
    p = MaterialParams()
    for phi in (-0.7, 1.4):
        assert model.zeta_prime(phi, p.M0, p.M1) == 0.0
        assert model.dphi_E_fluid(phi, 1.7, 2.3, p) == 0.0
