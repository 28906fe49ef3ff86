import numpy as np
import pytest
import scipy.sparse.linalg as spla

from chbfem import MaterialParams, build_unit_square_mesh
from chbfem.model import FrozenCoupling
from chbfem.solvers import ChbSystem, FieldState, IterationStats


@pytest.fixture(scope="session")
def desk_mesh():
    return build_unit_square_mesh(16)


@pytest.fixture(scope="session")
def small_mesh():
    return build_unit_square_mesh(4)


@pytest.fixture()
def baseline_params():
    return MaterialParams()


@pytest.fixture()
def splu_specs(monkeypatch):
    """The permc_spec of every SuperLU factorization made during a test."""
    specs = []
    splu = spla.splu

    def recording(A, *args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return specs


def take_step(step, state: FieldState, config):
    """Call a step method (ChbSystem.splitting_step or monolithic_step) on
    a fresh IterationStats record; returns (new state, record)."""
    stats = IterationStats(step=state.n + 1)
    return step(state, config, stats), stats


def random_state(system: ChbSystem, rng: np.random.Generator,
                 phi_low=0.15, phi_high=0.85, n=1) -> FieldState:
    """Random field state with phi away from the interpolation clamp points."""
    return FieldState(
        phi=rng.uniform(phi_low, phi_high, system.nv),
        mu=rng.normal(0.0, 0.1, system.nv),
        u=rng.normal(0.0, 0.01, 2 * system.nv),
        p=rng.normal(0.0, 0.1, system.nc),
        q=rng.normal(0.0, 0.1, system.ne),
        n=n)


def ch_frozen(system: ChbSystem, prev: FieldState, phi, u, p):
    """The values the splitting's CH residual and Jacobian at phi read,
    with u and p frozen: (system.phase_values(phi), their
    model.FrozenCoupling, system.ch_explicit_load(prev))."""
    return (system.phase_values(phi), frozen_coupling(system, u, p),
            system.ch_explicit_load(prev))


def frozen_coupling(system: ChbSystem, u, p) -> FrozenCoupling:
    """The chemical-potential laws at the frozen (u, p) of a CH solve."""
    return FrozenCoupling(system.strain_per_cell(u), p, system.params)


def ch_split_residual(system: ChbSystem, prev: FieldState, phi, mu, u, p):
    """The residual of the splitting's CH subsystem at (phi, mu), with u
    and p frozen."""
    res, _ = system.ch_residual_and_jacobian(
        prev, phi, mu, *ch_frozen(system, prev, phi, u, p))
    return res


# The splitting's CH laws (model.FrozenCoupling) and their one-product
# element integrals agree with the monolithic path's, and with
# tests/reference_kernels.py, to within this many ulps of the largest
# value compared; 2.3 ulps measured at n=4 to 65.
ULPS = 8


def assert_within_ulps(got, want, what):
    """|got - want| <= ULPS ulps of max |want|, entry by entry."""
    assert got.shape == want.shape, what
    bound = ULPS * np.finfo(np.float64).eps * np.abs(want).max()
    err = np.abs(got - want).max()
    assert err <= bound, f"{what}: {err:.3e} > {bound:.3e}"
