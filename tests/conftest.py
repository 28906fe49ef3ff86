import numpy as np
import pytest
import scipy.sparse.linalg as spla

from chbfem import MaterialParams, build_unit_square_mesh
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
