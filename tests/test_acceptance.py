"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and match the package's configured
defaults (tol = 1e-6, max_iter = 100, tau = 1e-5, baseline parameters).
"""

import time

import numpy as np
import pytest

from chbfem import model
from chbfem.cli import config_from_dict, run_experiment
from chbfem.mesh import build_unit_square_mesh
from chbfem.model import MaterialParams
from chbfem.solvers import ChbSystem, SolverConfig, advance_simulation

from conftest import ch_frozen, ch_split_residual, random_state, take_step
from reference_fem import assemble_form, mass_kernel, p1_scalar

TOL = 1.0e-6


def check(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def run_trajectory(system, strategy, num_steps):
    states = [system.initial_state()]
    cfg = SolverConfig(strategy=strategy, tol=TOL, max_iter=100,
                       num_steps=num_steps)
    _, stats = advance_simulation(system, states[0], cfg,
                                  on_step=lambda s, _: states.append(s))
    return states, stats


@pytest.fixture(scope="module")
def desk_system():
    return ChbSystem(build_unit_square_mesh(16), MaterialParams())


@pytest.fixture(scope="module")
def desk_pair(desk_system):
    t0 = time.perf_counter()
    split = run_trajectory(desk_system, "splitting", 5)
    mono = run_trajectory(desk_system, "monolithic", 5)
    return split, mono, time.perf_counter() - t0


def test_criterion_1_cross_strategy_equivalence(desk_system, desk_pair):
    (split_states, split_stats), (mono_states, mono_stats), elapsed = desk_pair
    assert all(s.converged for s in split_stats + mono_stats)
    worst = 0.0
    for ss, ms in zip(split_states[1:], mono_states[1:]):
        for name in ("phi", "u", "p"):
            worst = max(worst, np.abs(getattr(ss, name) - getattr(ms, name)).max())
    check(1, "cross-strategy equivalence", worst <= 1e-5 and elapsed < 60.0,
          f"max dof diff {worst:.3e} <= 1e-5, runtime {elapsed:.1f}s < 60s")


def test_criterion_2_fixed_point_exactness(desk_system, desk_pair):
    (split_states, _), _, _ = desk_pair
    o = desk_system
    worst = 0.0
    for prev, cur in zip(split_states[:-1], split_states[1:]):
        res = desk_system.monolithic_residual(
            prev, cur, desk_system.monolithic_iterate(cur),
            desk_system.ch_explicit_load(prev))
        for blk in (res[:o.nv], res[o.off_mu:o.off_u], res[o.off_u:o.off_p],
                    res[o.off_p:o.off_q], res[o.off_q:]):
            worst = max(worst, np.linalg.norm(blk))
    check(2, "fixed-point exactness", worst <= 10.0 * TOL,
          f"max block residual {worst:.3e} <= {10.0 * TOL:.0e}")


def test_criterion_3_jacobian_correctness():
    system = ChbSystem(build_unit_square_mesh(4), MaterialParams())
    rng = np.random.default_rng(2024)
    h = 1e-6
    names = ["phi", "mu", "u", "p", "q"]
    offs = [0, system.nv, 2 * system.nv, 4 * system.nv,
            4 * system.nv + system.nc, system.ndofs]

    def group_error(A, F):
        worst = 0.0
        for i in range(5):
            for j in range(5):
                a = A[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                f = F[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                scale = max(np.linalg.norm(f), np.linalg.norm(a))
                diff = np.linalg.norm(a - f)
                worst = max(worst, diff if scale < 1e-9 else diff / scale)
        return worst

    def mono_residual(prev, x):
        st = system.unpack(x, 1)
        return system.monolithic_residual(prev, st, system.monolithic_iterate(st),
                                          system.ch_explicit_load(prev))

    # the CH subsystem as the splitting solves it, on frozen u and p
    def ch_residual(prev, x, u, p):
        phi, mu = x[:system.nv], x[system.nv:]
        return ch_split_residual(system, prev, phi, mu, u, p)

    worst_mono = 0.0
    worst_ch = 0.0
    for k in range(20):
        interior = k < 16
        prev = random_state(system, rng)
        st = (random_state(system, rng, n=1) if interior
              else random_state(system, rng, phi_low=1.1, phi_high=1.4, n=1))
        A = system.monolithic_jacobian(st, system.monolithic_iterate(st)).toarray()
        x0 = system.pack(st)
        F = np.empty_like(A)
        for c in range(len(x0)):
            xp = x0.copy()
            xm = x0.copy()
            xp[c] += h
            xm[c] -= h
            F[:, c] = (mono_residual(prev, xp) - mono_residual(prev, xm)) / (2 * h)
        worst_mono = max(worst_mono, group_error(A, F))

        _, Jch = system.ch_residual_and_jacobian(
            prev, st.phi, st.mu, *ch_frozen(system, prev, st.phi, st.u, st.p))
        xch = np.concatenate([st.phi, st.mu])
        Fch = np.empty((2 * system.nv, 2 * system.nv))
        for c in range(2 * system.nv):
            xp = xch.copy()
            xm = xch.copy()
            xp[c] += h
            xm[c] -= h
            Fch[:, c] = (ch_residual(prev, xp, st.u, st.p)
                         - ch_residual(prev, xm, st.u, st.p)) / (2 * h)
        nv = system.nv
        ch_offs = [0, nv, 2 * nv]
        Ach = Jch.toarray()
        for i in range(2):
            for j in range(2):
                a = Ach[ch_offs[i]:ch_offs[i + 1], ch_offs[j]:ch_offs[j + 1]]
                f = Fch[ch_offs[i]:ch_offs[i + 1], ch_offs[j]:ch_offs[j + 1]]
                scale = max(np.linalg.norm(f), np.linalg.norm(a))
                diff = np.linalg.norm(a - f)
                worst_ch = max(worst_ch, diff if scale < 1e-9 else diff / scale)
    ok = worst_mono <= 1e-5 and worst_ch <= 1e-5
    check(3, "jacobian correctness", ok,
          f"monolithic rel err {worst_mono:.3e}, CH rel err {worst_ch:.3e} <= 1e-5")


def test_criterion_4_conservation(desk_system):
    states, stats = run_trajectory(desk_system, "splitting", 20)
    assert all(s.converged for s in stats)
    ones = np.ones(desk_system.nv)
    mass0 = ones @ (desk_system.M @ states[0].phi)
    worst_mass = max(abs(ones @ (desk_system.M @ s.phi) - mass0)
                     for s in states[1:])
    worst_cell = max(np.abs(desk_system.flow_cell_residual(prev, cur)).max()
                     for prev, cur in zip(states[:-1], states[1:]))
    ok = worst_mass <= 1e-10 and worst_cell <= 1e-10
    check(4, "conservation", ok,
          f"mass drift {worst_mass:.3e}, per-cell flow residual {worst_cell:.3e} <= 1e-10")


def test_criterion_5_convex_split():
    # the derivatives the solver evaluates: psi_c', psi_c'' and psi_e'
    phi = np.linspace(-1.0, 2.0, 10_000)
    ph = model.Phase(phi[:, None], MaterialParams(gamma=1.0, ell=1.0))
    double_well_prime = 2.0 * phi * (1.0 - phi) * (1.0 - 2.0 * phi)
    defect = np.max(np.abs(ph.well_prime[0] - ph.shifted[0] - double_well_prime))
    convex = bool(np.all(ph.well_second >= 0.0))  # psi_e'' = 1 >= 0 identically
    check(5, "convex split identity", defect <= 1e-12 and convex,
          f"max derivative identity defect {defect:.3e} <= 1e-12, both parts convex")


def test_criterion_6_gamma_trend():
    cfg = config_from_dict({"n": 16, "num_steps": 20, "strategy": "splitting",
                            "sweep": {"param": "gamma", "values": [1.0, 5.0, 25.0]}})
    records = run_experiment(cfg)
    outer = [r.outer_iters for r in records]
    newton = [r.inner_newton_iters for r in records]
    ok = (all(r.converged for r in records)
          and all(a >= b for a, b in zip(outer, outer[1:]))
          and all(a >= b for a, b in zip(newton, newton[1:])))
    check(6, "gamma trend", ok,
          f"outer iterations {outer} and Newton iterations {newton} "
          f"nonincreasing over gamma {[r.param_value for r in records]}")


def test_criterion_7_xi_stress():
    cfg = config_from_dict({"n": 16, "num_steps": 20, "strategy": "splitting",
                            "sweep": {"param": "xi",
                                      "values": [0.5, 1.0, 1.5, 2.0]}})
    records = run_experiment(cfg)  # never crashes; failures become rows
    assert len(records) == 4
    converged = [r for r in records if r.converged]
    outer = [r.outer_iters for r in converged]
    ok = all(a <= b for a, b in zip(outer, outer[1:]))
    detail = (f"outer iterations {outer} nondecreasing over converged xi "
              f"{[r.param_value for r in converged]}; "
              f"{len(records) - len(converged)} recorded failures")
    check(7, "xi stress behavior", ok, detail)


def test_criterion_8_element_oracles(desk_system):
    # reference triangle (0,0), (1,0), (0,1)
    from chbfem.fem import default_rule
    rule = default_rule()
    w = rule.weights * 2.0 * 0.5
    lam = rule.points
    M = np.einsum("q,qi,qj->ij", w, lam, lam)
    mass_defect = np.abs(M - (np.ones((3, 3)) + np.eye(3)) / 24.0).max()
    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    K = 0.5 * grads @ grads.T
    stiff_defect = np.abs(K - 0.5 * np.array([[2.0, -1.0, -1.0],
                                              [-1.0, 1.0, 0.0],
                                              [-1.0, 0.0, 1.0]])).max()
    V = p1_scalar(desk_system.mesh)
    total = assemble_form(V, V, mass_kernel).sum()
    sum_defect = abs(total - 1.0)
    # the solver's own P1 matrices: unit total mass, constants in the kernel
    system_sum_defect = abs(desk_system.M.sum() - 1.0)
    system_kernel_defect = np.abs(desk_system.K @ np.ones(desk_system.nv)).max()
    ok = (mass_defect <= 1e-14 and stiff_defect <= 1e-14 and sum_defect <= 1e-12
          and system_sum_defect <= 1e-12 and system_kernel_defect <= 1e-13)
    check(8, "element oracles", ok,
          f"mass defect {mass_defect:.1e}, stiffness defect {stiff_defect:.1e}, "
          f"mesh mass sum defect {sum_defect:.1e}, solver M sum defect "
          f"{system_sum_defect:.1e}, solver |K 1| {system_kernel_defect:.1e}")


def test_criterion_9_zero_data_fixed_point(desk_system):
    st0 = desk_system.initial_state(lambda x, y: 0.5)
    cfg = SolverConfig(strategy="splitting", tol=TOL, num_steps=1)
    st_s, stats_s = take_step(desk_system.splitting_step, st0, cfg)
    cfg_m = SolverConfig(strategy="monolithic", tol=TOL, num_steps=1)
    st_m, stats_m = take_step(desk_system.monolithic_step, st0, cfg_m)
    drift = max(np.abs(desk_system.pack(st_s) - desk_system.pack(st0)).max(),
                np.abs(desk_system.pack(st_m) - desk_system.pack(st0)).max())
    iters_ok = stats_s.outer_iters <= 2 and stats_m.newton_iters <= 2
    check(9, "zero-data fixed point", iters_ok and drift <= 1e-12,
          f"splitting outer {stats_s.outer_iters}, monolithic newton "
          f"{stats_m.newton_iters} (<= 2), state drift {drift:.2e} <= 1e-12")


@pytest.mark.slow
def test_criterion_10_full_resolution_smoke():
    t0 = time.perf_counter()
    system = ChbSystem(build_unit_square_mesh(65), MaterialParams())
    results = {}
    for strategy in ("splitting", "monolithic"):
        _, stats = run_trajectory(system, strategy, 3)
        results[strategy] = stats
    elapsed = time.perf_counter() - t0
    converged = all(s.converged for stats in results.values() for s in stats)
    within_budget = elapsed <= 600.0
    totals = {k: sum(s.newton_total for s in v) for k, v in results.items()}
    check(10, "full-resolution smoke run", converged and within_budget,
          f"n=65, 3 steps, both strategies converged "
          f"(newton totals {totals}) in {elapsed:.0f}s <= 600s")
