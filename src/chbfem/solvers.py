"""Time stepping and the two solution strategies.

Both strategies advance the same semi-implicit discretization (backward
Euler with the convex part of the double well implicit and the expansive
part explicit):

* monolithic: plain Newton on the full five-field residual per step,
* splitting: an outer fixed-point loop that solves the phase-field /
  chemical-potential subsystem with Newton, then the (linear) elasticity
  subsystem, then the (linear) mixed flow subsystem, until the combined
  increment of (phi, mu, u, p) drops below tolerance.

Unknown ordering in the monolithic system is (phi, mu, u, p, q) with dofs
in mesh entity order inside each block (u interleaved per vertex).
Stopping criteria use the absolute l2 norm of the stacked dof increment
for both strategies, so iteration counts are directly comparable.

advance_simulation gives each step an IterationStats record, and the step
counts its iterations there as it makes them.  So a step that fails
leaves true counts, whichever way it stops, and the exceptions it raises
carry none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import _kernels as kn
from .fem import cell_geometry, default_rule, rt0_basis
from .linalg import (SOLVE_RTOL, Block, CsrPattern, LinearSolveFailure,
                     factored_block, l2norm, matvec, solve_linear)
from .mesh import StructuredTriMesh
from .model import (VOIGT_ID, FrozenCoupling, MaterialParams, Phase,
                    Pointwise, check_fields, choice, divergence, integer, real)

DIVERGENCE_LIMIT = 1.0e6
# Monolithic Jacobians of at least this many rows carry their diagonal
# blocks, so solve_linear solves them by block-preconditioned GMRES and
# keeps no factor of them.  On a converging step that is cheaper than a
# direct LU from n=8 up, but on a diverging one GMRES needs tens of
# iterations per solve: on swell's n=16 run (2,468 rows), 15-60 of them,
# 3.6 times the direct path's time, and it diverged after 44 Newton
# iterations instead of 29.  At n=65 a kept full LU (6.4M fill) made the
# monolithic step 3.46 s against GMRES's 2.06 s.
KRYLOV_MIN_ROWS = 5000
# Every layout of a system of at least this many dofs keeps its last
# factor, and solve_linear refines each later matrix against it.  Below
# it every solve factors afresh, bit for bit as a direct LU.  Over 20
# splitting steps refinement was faster at every size measured, down to
# n=4 (188 dofs, by 7%); the threshold stays just above n=4, where the
# benchmark's smoke run checks one factorization per solve.
KEEP_FACTOR_MIN_DOFS = 250
# The monolithic Jacobian's element blocks, (row field, column field), in
# the order monolithic_jacobian lists their values.
MONOLITHIC_BLOCKS = (
    ("phi", "phi"), ("phi", "mu"),
    ("mu", "mu"), ("mu", "phi"), ("mu", "phi"), ("mu", "u"), ("mu", "p"),
    ("u", "u"), ("u", "phi"), ("u", "p"),
    ("p", "phi"), ("p", "u"), ("p", "p"), ("p", "q"),
    ("q", "q"), ("q", "p"), ("q", "phi"))


class NonConvergence(Exception):
    """A nonlinear iteration hit max_iter or diverged.

    Its iteration counts are in the step's IterationStats.
    """

    def __init__(self, message, diverged=False):
        super().__init__(message)
        self.diverged = diverged


class SimulationFailed(Exception):
    """A time step failed; carries the IterationStats of every step so
    far, the failed one last, and the exception that stopped it (cause)."""

    def __init__(self, step_index, stats, cause):
        super().__init__(f"simulation failed at step {step_index}: {cause}")
        self.step_index = step_index
        self.stats = list(stats)
        self.cause = cause


@dataclass
class FieldState:
    """Coefficient vectors of all five fields at one time level."""

    phi: np.ndarray
    mu: np.ndarray
    u: np.ndarray
    p: np.ndarray
    q: np.ndarray
    n: int = 0


@dataclass
class IterationStats:
    """Per-time-step iteration record.

    A Newton iterate counts from its start, so the one that fails counts
    too; an outer iteration counts once its three subsystem solves are
    done.
    """

    step: int
    outer_iters: int = 0                       # 0 for the monolithic strategy
    inner_newton: tuple = ()                   # CH Newton counts per outer iteration
    newton_iters: int = 0                      # monolithic Newton count
    converged: bool = False
    wall_seconds: float = 0.0

    @property
    def newton_total(self) -> int:
        return int(sum(self.inner_newton)) + self.newton_iters


@dataclass
class SolverConfig:
    strategy: str = choice("splitting", "monolithic", "splitting")
    tol: float = real(1.0e-6, positive=True)
    max_iter: int = integer(100, low=1)
    num_steps: int = integer(20, low=0)

    def __post_init__(self):
        check_fields(self, "solver configuration")


def _scatter_vector(elem, dofs, n):
    """Sum element vectors into a global one; adds in ravel order from 0.0."""
    return np.bincount(dofs.ravel(), weights=elem.ravel(), minlength=n)


def _converged(norm, config, what) -> bool:
    """Whether an increment norm is below config.tol; raises
    NonConvergence("<what> diverged") where it is not finite or above
    DIVERGENCE_LIMIT."""
    if not np.isfinite(norm) or norm > DIVERGENCE_LIMIT:
        raise NonConvergence(f"{what} diverged", diverged=True)
    return norm < config.tol


def _solve_from(A, b, start):
    """solve_linear(A, b), solved for the increment from `start`."""
    return start + solve_linear(A, b - matvec(A, start))


def _block_indices(rows, cols):
    """Row and column of each entry of per-cell blocks, in elem.ravel() order."""
    a = rows.shape[1]
    b = cols.shape[1]
    r = np.repeat(rows[:, :, None], b, axis=2).ravel()
    c = np.repeat(cols[:, None, :], a, axis=1).ravel()
    return r, c


def _slot_rows(csr) -> np.ndarray:
    """Row of every stored entry of a CSR matrix or pattern."""
    return np.repeat(np.arange(len(csr.indptr) - 1), np.diff(csr.indptr))


def _stacked_indices(blocks):
    """Rows and columns of blocks given as (rows, cols, row off, col off)."""
    return (np.concatenate([r + ro for r, _, ro, _ in blocks]),
            np.concatenate([c + co for _, c, _, co in blocks]))


def _clamped_pattern(rows, cols, fixed, shape, keep_factor=False) -> CsrPattern:
    """Pattern of a triplet list whose dofs `fixed` get identity rows.

    Leaves out the triplets in a fixed row, not those in a fixed column,
    and adds a unit diagonal triplet per fixed dof; each of these reads
    one 1.0 appended to the triplet values.  keep_factor is passed on to
    CsrPattern.
    """
    clamped = np.zeros(shape[0], dtype=bool)
    clamped[fixed] = True
    kept = ~clamped[rows]
    take = np.concatenate([np.flatnonzero(kept), np.full(len(fixed), len(rows))],
                          dtype=np.int32)
    return CsrPattern(np.concatenate([rows[kept], fixed]),
                      np.concatenate([cols[kept], fixed]), shape, take=take,
                      keep_factor=keep_factor)


class PhaseIntegrals(NamedTuple):
    """The per-cell coefficients of the laws in values (a model.Phase):
    integrated stiffness cint (nc, 3, 3), swelling load swell (nc, 3),
    pressure storage dinv and Biot-Willis coefficient abar."""

    values: Phase
    cint: np.ndarray
    swell: np.ndarray
    dinv: np.ndarray
    abar: np.ndarray

    def storage(self, p, divu) -> np.ndarray:
        """Cellwise integral of p/M(phi) + alpha(phi) div u."""
        return self.dinv * p + self.abar * divu


class ChbSystem:
    """Discrete operators of the coupled system on one mesh.

    Precomputes geometry tables, basis values at quadrature points, the
    constant P1 mass/stiffness matrices and the RT0 divergence matrix.
    The phi-dependent terms are integrated at each iterate: those of the
    splitting's Cahn-Hilliard block by products with the quadrature
    table (ch_residual_and_jacobian), the monolithic ones by the kernels.
    The laws of phi enter the elasticity and flow blocks through the
    per-cell coefficients of one PhaseIntegrals (phase_integrals), which
    every solve, residual and Jacobian at that phase field reads.
    Each linear system has one CSR layout (a linalg.CsrPattern), built at
    its first assembly; every later matrix of that system only fills it.
    Every layout keeps the LU ordering of its first factorization, and on
    a system of at least KEEP_FACTOR_MIN_DOFS dofs its last factor too
    (see chbfem.linalg).

    The flow system's pressure block is diagonal, so the pressure is
    eliminated exactly: the flux solves the flux Schur complement
    S = Mq + tau Bdiv^T diag(dinv)^-1 Bdiv, which is SPD and keeps Mq's
    pattern, and the pressure follows from the flux.  solve_flow checks
    that (p, q) on flow_residual, the residual of the full flow system
    that monolithic_residual stacks too, and solves that system directly
    where the elimination loses the contract, as at extreme M, kappa or
    tau.  In the splitting, elasticity and S are solved for the increment
    from the previous outer iterate, so refinement against a kept factor
    starts there.  A monolithic Jacobian of at least KRYLOV_MIN_ROWS rows
    carries its three diagonal blocks as ``blocks``, for block GMRES:
    factors of the CH and elasticity matrices, and the flow block solved
    through S.  The Jacobian and the elasticity matrix both clamp
    displacement rows only (_clamped_pattern), so the elasticity matrix
    is the Jacobian's (u, u) block, to roundoff.

    The layouts, their orderings and factors, the constant element blocks
    and the quadrature tables (the kernels' cells-last tables and
    lam_outer) are the solver workspace: built on first use, dropped by
    release_workspace().  advance_simulation drops it before and after
    each run, so a run's result does not depend on what the system solved
    before, and a finished run leaves only the constant operators behind.
    """

    def __init__(self, mesh: StructuredTriMesh, params: MaterialParams):
        self.mesh = mesh
        self.params = params

        self.nv = mesh.num_vertices
        self.nc = mesh.num_cells
        self.ne = mesh.num_edges
        self.off_phi = 0
        self.off_mu = self.nv
        self.off_u = 2 * self.nv
        self.off_p = 4 * self.nv
        self.off_q = 4 * self.nv + self.nc
        self.ndofs = 4 * self.nv + self.nc + self.ne

        coords, two_area, self.signed_lengths = cell_geometry(mesh)
        self.areas = 0.5 * two_area
        grads = np.empty((self.nc, 3, 2))
        for k in range(3):
            a = coords[:, (k + 1) % 3]
            b = coords[:, (k + 2) % 3]
            grads[:, k, 0] = (a[:, 1] - b[:, 1]) / two_area
            grads[:, k, 1] = (b[:, 0] - a[:, 0]) / two_area
        self.grads = grads

        quad = default_rule()
        self.lam = np.ascontiguousarray(quad.points)
        self.wq = np.ascontiguousarray(quad.weights[None, :] * two_area[:, None])

        # strain-displacement matrices; local u dofs (x0, y0, x1, y1, x2, y2)
        B = np.zeros((self.nc, 3, 6))
        B[:, 0, 0::2] = grads[:, :, 0]
        B[:, 1, 1::2] = grads[:, :, 1]
        B[:, 2, 0::2] = grads[:, :, 1]
        B[:, 2, 1::2] = grads[:, :, 0]
        self.B = B

        # cell-to-dof maps: u interleaved per vertex, one p dof per cell
        self.cells = mesh.cells
        udofs = np.empty((self.nc, 6), dtype=np.int64)
        udofs[:, 0::2] = 2 * mesh.cells
        udofs[:, 1::2] = 2 * mesh.cells + 1
        self.udofs = udofs
        self.pdofs = np.arange(self.nc, dtype=np.int64)[:, None]
        self.qdofs = mesh.cell_edges
        for dofs in (self.udofs, self.pdofs):
            dofs.setflags(write=False)

        p1 = _block_indices(self.cells, self.cells)
        self.M = sp.coo_matrix((self._m_elem.ravel(), p1),
                               shape=(self.nv, self.nv)).tocsr()
        self.K = sp.coo_matrix((self._k_elem.ravel(), p1),
                               shape=(self.nv, self.nv)).tocsr()
        self.Bdiv = sp.coo_matrix(
            (self.signed_lengths.ravel(), _block_indices(self.pdofs, self.qdofs)),
            shape=(self.nc, self.ne)).tocsr()
        self.BdivT = self.Bdiv.T.tocsr()

        bverts = np.flatnonzero(mesh.boundary_vertex_flags)
        self.u_bdofs = np.sort(np.concatenate([2 * bverts, 2 * bverts + 1]))

    def release_workspace(self) -> None:
        """Drop every table built on first use: the CSR layouts with their
        stored LU orderings and factors, the constant element blocks and
        the quadrature tables.  The next use builds each one again."""
        for name, attr in vars(ChbSystem).items():
            if isinstance(attr, cached_property):
                self.__dict__.pop(name, None)

    @property
    def _keeps_factors(self) -> bool:
        """Whether the layouts keep their last factor."""
        return self.ndofs >= KEEP_FACTOR_MIN_DOFS

    # -- constant element blocks, built on first use --------------------------

    @cached_property
    def _m_elem(self):
        """Element blocks of the P1 mass matrix, (nc, 3, 3)."""
        return (self.areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))

    @cached_property
    def _k_elem(self):
        """Element blocks of the P1 stiffness matrix, (nc, 3, 3)."""
        grads = self.grads
        return self.areas[:, None, None] * np.einsum("cia,cja->cij", grads, grads)

    @cached_property
    def drow(self) -> np.ndarray:
        """Divergence row of B per cell: rows 0 and 1 added, (nc, 6)."""
        return self.B[:, 0, :] + self.B[:, 1, :]

    # -- quadrature tables, built on first use -------------------------------

    @cached_property
    def wq_last(self) -> np.ndarray:
        """wq cells last, (nqp, nc)."""
        return kn.cells_last(self.wq)

    @cached_property
    def psi_last(self) -> np.ndarray:
        """Signed RT0 basis at the quadrature points, (nqp, 3, 2, nc)."""
        return kn.cells_last(rt0_basis(self.mesh, self.lam))

    @cached_property
    def B_last(self) -> np.ndarray:
        """B cells last, (3, 6, nc)."""
        return kn.cells_last(self.B)

    @cached_property
    def lam_outer(self) -> np.ndarray:
        """lam_i lam_j at each quadrature point, (nqp, 9)."""
        lam = self.lam
        return (lam[:, :, None] * lam[:, None, :]).reshape(len(lam), 9)

    # -- field evaluation helpers ------------------------------------------

    def phi_at_qp(self, phi: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(phi[self.cells] @ self.lam.T)

    def strain_per_cell(self, u: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(
            np.einsum("cil,cl->ci", self.B, u[self.udofs]))

    def phase_values(self, phi) -> Phase:
        """The laws of phi alone, at the quadrature points."""
        return Phase(self.phi_at_qp(phi), self.params)

    def pointwise(self, phi, u, p) -> Pointwise:
        """The laws at the iterate (phi, u, p), at the quadrature points."""
        return Pointwise(self.phase_values(phi), self.strain_per_cell(u),
                         np.ascontiguousarray(p))

    def initial_state(self, phi_expr=None) -> FieldState:
        """State at time level 0: half-domain phase split, everything else zero."""
        if phi_expr is None:
            phi_expr = lambda x, y: 1.0 if x >= 0.5 else 0.0
        phi = np.array([phi_expr(x, y) for x, y in self.mesh.vertices])
        return FieldState(phi=phi, mu=np.zeros(self.nv),
                          u=np.zeros(2 * self.nv), p=np.zeros(self.nc),
                          q=np.zeros(self.ne), n=0)

    def pack(self, state: FieldState) -> np.ndarray:
        return np.concatenate([state.phi, state.mu, state.u, state.p, state.q])

    def unpack(self, x: np.ndarray, n: int) -> FieldState:
        return FieldState(phi=x[:self.nv].copy(),
                          mu=x[self.off_mu:self.off_u].copy(),
                          u=x[self.off_u:self.off_p].copy(),
                          p=x[self.off_p:self.off_q].copy(),
                          q=x[self.off_q:].copy(), n=n)

    # -- Cahn-Hilliard subsystem -------------------------------------------

    def ch_explicit_load(self, state_prev) -> np.ndarray:
        """(gamma/ell) M (phi_prev - 1/2): the expansive double-well term,
        fixed over a time step."""
        pa = self.params
        return (pa.gamma / pa.ell) * matvec(self.M, state_prev.phi - 0.5)

    def ch_residual(self, state_prev, phi, mu, load, explicit):
        """Stacked residual of the (phi, mu) block at the iterate (phi, mu).

        load: the element load vectors of mu_nonlinear at the iterate,
        (nc, 3); explicit: ch_explicit_load(state_prev).  The convex
        double-well term and the energy couplings are evaluated at phi
        (implicit), the expansive term at the previous time step.
        """
        pa = self.params
        nl = _scatter_vector(load, self.cells, self.nv)
        r_phi = (matvec(self.M, phi - state_prev.phi)
                 + pa.tau * pa.mobility * matvec(self.K, mu))
        r_mu = (matvec(self.M, mu) - pa.gamma * pa.ell * matvec(self.K, phi)
                - nl + explicit)
        return np.concatenate([r_phi, r_mu])

    def ch_residual_and_jacobian(self, state_prev, phi, mu, values, coupling,
                                 explicit):
        """Residual and Jacobian of the Cahn-Hilliard block at the iterate,
        with u and p frozen, as the splitting solves it.

        values: phase_values(phi); coupling: the FrozenCoupling of the
        frozen u and p; explicit: ch_explicit_load(state_prev).  Each
        element integral is one product with the quadrature table:
        (wq mu)^T lam for the load, (wq dmu)^T (lam x lam) for W.
        """
        mu_nl, dmu_nl = coupling.ch_laws(values)
        wq = self.wq_last
        w_elem = ((wq * dmu_nl).T @ self.lam_outer).reshape(-1, 3, 3)
        load = (wq * mu_nl).T @ self.lam
        return (self.ch_residual(state_prev, phi, mu, load, explicit),
                self._ch_matrix(w_elem))

    def _ch_matrix(self, w_elem) -> sp.csr_matrix:
        """The CH Jacobian [[M, tau m K], [-gamma ell K - W, M]] for the
        element blocks of W.  Only the (mu, phi) slots change with W; each
        is its -gamma ell K slot minus its W slot, so each block keeps the
        bits of its P1 slot values."""
        p1, pattern, fixed, w_slots = self._ch_layout
        data = fixed.copy()
        data[w_slots] -= p1.sum(w_elem.ravel())
        return pattern.matrix(data)

    @cached_property
    def _ch_layout(self):
        """P1 pattern of M, K and W; the CH Jacobian's, their 2x2 stack; its
        slot values for W = 0; and its (mu, phi) slots, in P1 slot order.

        No slot of the stack holds more than one triplet, so its values
        are those of its P1 blocks.  Each row's columns are sorted, so the
        (mu, phi) slots of the stack, in order, are the P1 slots in order.
        """
        pa = self.params
        p1 = CsrPattern(*_block_indices(self.cells, self.cells),
                        (self.nv, self.nv))
        r, c, nv = _slot_rows(p1), p1.indices, self.nv
        blocks = [(r, c, 0, 0), (r, c, 0, nv), (r, c, nv, 0), (r, c, nv, nv)]
        pattern = CsrPattern(*_stacked_indices(blocks), (2 * nv, 2 * nv),
                             keep_factor=self._keeps_factors)
        fixed = pattern.sum(np.concatenate([
            self.M.data, self.K.data * (pa.tau * pa.mobility),
            self.K.data * (-pa.gamma * pa.ell), self.M.data]))
        w_slots = np.flatnonzero((_slot_rows(pattern) >= nv)
                                 & (pattern.indices < nv))
        return p1, pattern, fixed, w_slots

    def solve_ch_subsystem(self, state_prev, explicit, strain, p_fixed,
                           config, phi, mu, values, stats: IterationStats):
        """Newton iteration on the (phi, mu) block from the start (phi, mu)
        at the frozen strain (strain_per_cell of the frozen u) and pressure
        p_fixed; returns the new (phi, mu).

        explicit: ch_explicit_load(state_prev); values: phase_values(phi)
        of the start phi.  Appends its Newton count to stats.inner_newton
        and keeps it current.
        """
        coupling = FrozenCoupling(strain, p_fixed, self.params)
        done = stats.inner_newton
        for it in range(1, config.max_iter + 1):
            stats.inner_newton = (*done, it)
            res, J = self.ch_residual_and_jacobian(
                state_prev, phi, mu, values, coupling, explicit)
            delta = solve_linear(J, -res)
            phi = phi + delta[:self.nv]
            mu = mu + delta[self.nv:]
            if _converged(float(l2norm(delta)), config, "phase-field Newton"):
                return phi, mu
            values = self.phase_values(phi)
        raise NonConvergence(
            f"phase-field Newton did not converge in {config.max_iter} iterations")

    # -- elasticity subsystem ----------------------------------------------

    def phase_integrals(self, values) -> PhaseIntegrals:
        """The PhaseIntegrals of values, a phase_values(phi) or a pointwise
        at phi, from the cell integrals of values.cell_integrands."""
        pa = self.params
        ibar, s1, s2, dinv = kn.phase_cell_integrals(values, self.wq_last)
        cint = (self.areas[:, None, None] * pa.C0
                + ibar[:, None, None] * pa.dC)
        swell = pa.xi * (np.outer(s1, pa.C0 @ VOIGT_ID)
                         + np.outer(s2, pa.dC @ VOIGT_ID))
        abar = pa.alpha0 * self.areas + ibar * (pa.alpha1 - pa.alpha0)
        return PhaseIntegrals(values, cint, swell, dinv, abar)

    def solve_elasticity(self, phase: PhaseIntegrals, p_fixed, u_start):
        """Solve the linear elasticity subsystem at the phase field of
        `phase`.

        u_start: a displacement to solve for the increment from, zero at
        the clamped dofs.
        """
        a_elem = self._stiffness_elem(phase.cint)
        rhs_elem = (np.einsum("cai,ca->ci", self.B, phase.swell)
                    + (phase.abar * p_fixed)[:, None] * self.drow)
        b = _scatter_vector(rhs_elem, self.udofs, 2 * self.nv)
        b[self.u_bdofs] = 0.0
        return _solve_from(self._elasticity_matrix(a_elem), b, u_start)

    def _stiffness_elem(self, cint) -> np.ndarray:
        """Element stiffness blocks B^T cint B of the integrated stiffness
        per cell, (nc, 6, 6)."""
        return (self.B.transpose(0, 2, 1) @ cint) @ self.B

    def _elasticity_matrix(self, a_elem) -> sp.csr_matrix:
        """Stiffness matrix of the element blocks a_elem, Dirichlet rows
        set to identity."""
        pattern = self._elasticity_layout
        return pattern.matrix(pattern.sum(np.append(a_elem.ravel(), 1.0)))

    @cached_property
    def _elasticity_layout(self) -> CsrPattern:
        """Stiffness pattern, Dirichlet rows set to identity."""
        return _clamped_pattern(*_block_indices(self.udofs, self.udofs),
                                self.u_bdofs, (2 * self.nv, 2 * self.nv),
                                keep_factor=self._keeps_factors)

    # -- flow subsystem ------------------------------------------------------

    def divu_per_cell(self, u: np.ndarray) -> np.ndarray:
        """div u per cell."""
        return divergence(self.strain_per_cell(u))

    def storage_coefficient(self, state: FieldState) -> np.ndarray:
        """Cellwise integral of p/M(phi) + alpha(phi)*div(u) at a state."""
        return self.phase_integrals(self.phase_values(state.phi)).storage(
            state.p, self.divu_per_cell(state.u))

    def solve_flow(self, phase: PhaseIntegrals, divu, q_start, storage_prev):
        """Solve the mixed pressure/flux subsystem at the phase field of
        `phase`; returns (p, q).

        The flux solves the flux Schur complement for the increment from
        q_start (_flow_from_flux), and (p, q) must meet solve_linear's
        contract on the full flow system.  Where eliminating p loses that,
        as for a compressibility far above the flux mass's scale, or the
        complement is singular in double precision, as for a permeability
        or time step far above it, the full system is solved directly.

        divu: divu_per_cell of the displacement; storage_prev:
        storage_coefficient of the previous time step.
        """
        mq_elem = kn.rt0_weighted_mass(phase.values, self.wq_last, self.psi_last)
        dinv = phase.dinv
        f = storage_prev - phase.abar * divu
        S = self._flux_matrix(dinv, mq_elem)
        try:
            p, q = self._flow_from_flux(
                lambda rhs: _solve_from(S, rhs, q_start), dinv, f)
        except LinearSolveFailure:
            pass   # the full system below decides
        else:
            # the norm is not finite, and fails the bound, where p or q is not
            with np.errstate(over="ignore", invalid="ignore"):
                norm = l2norm(self.flow_residual(
                    phase, divu, storage_prev, mq_elem, p, q))
            if norm <= SOLVE_RTOL * max(l2norm(f), 1.0):
                return p, q
        x = solve_linear(self._flow_matrix(dinv, mq_elem),
                         np.append(f, np.zeros(self.ne)))
        return x[:self.nc], x[self.nc:]

    def flow_residual(self, phase: PhaseIntegrals, divu, storage_prev,
                      mq_elem, p, q) -> np.ndarray:
        """The flow residual at (p, q): per cell the mass balance
        storage(p, divu) - storage_prev + tau Bdiv q, storage_prev the
        previous step's storage_coefficient, then Darcy's law
        Mq q - Bdiv^T p, Mq applied by its element blocks mq_elem."""
        mq_q = _scatter_vector(np.einsum("cab,cb->ca", mq_elem, q[self.qdofs]),
                               self.qdofs, self.ne)
        return np.concatenate([
            phase.storage(p, divu) - storage_prev
            + self.params.tau * matvec(self.Bdiv, q),
            mq_q - matvec(self.BdivT, p)])

    def _flow_matrix(self, dinv, mq_elem) -> sp.csr_matrix:
        """The full flow matrix [[diag(dinv), tau Bdiv], [-Bdiv^T, Mq]],
        solved only where the condensed solve fails."""
        layout = self._flux_layout
        return sp.bmat([[sp.diags(dinv), self.params.tau * self.Bdiv],
                        [-self.BdivT, layout.matrix(layout.sum(mq_elem.ravel()))]],
                       format="csr")

    def _flow_from_flux(self, solve_flux, dinv, f, g=None):
        """(p, q) that solve the flow system
        [[diag(dinv), tau Bdiv], [-Bdiv^T, Mq]] (p, q) = (f, g), g zero
        when None.

        Eliminating p = (f - tau Bdiv q) / dinv leaves the flux Schur
        complement system S q = g + Bdiv^T (f / dinv) (_flux_matrix),
        which solve_flux solves.
        """
        rhs = matvec(self.BdivT, f / dinv)
        if g is not None:
            rhs += g
        q = solve_flux(rhs)
        return (f - self.params.tau * matvec(self.Bdiv, q)) / dinv, q

    def _flux_matrix(self, dinv, mq_elem) -> sp.csr_matrix:
        """The flux Schur complement S = Mq + tau Bdiv^T diag(dinv)^-1 Bdiv
        for the element blocks of Mq: cell c adds (tau / dinv_c) d_c d_c^T
        to its block of Mq, d_c its row of Bdiv."""
        d = self.signed_lengths
        s_elem = mq_elem + (self.params.tau / dinv)[:, None, None] * (
            d[:, :, None] * d[:, None, :])
        pattern = self._flux_layout
        return pattern.matrix(pattern.sum(s_elem.ravel()))

    @cached_property
    def _flux_layout(self) -> CsrPattern:
        """Pattern of Mq, which the flux Schur complement shares."""
        return CsrPattern(*_block_indices(self.qdofs, self.qdofs),
                          (self.ne, self.ne), keep_factor=self._keeps_factors)

    def _flow_block(self, dinv, mq_elem) -> Block:
        """The monolithic Jacobian's (p, q) block for block GMRES, solved
        through a factor of its flux Schur complement."""
        S = self._flux_matrix(dinv, mq_elem)
        nc = self.nc

        def solver():
            solve_flux = S.layout.factor(S.data)
            return lambda r: np.concatenate(
                self._flow_from_flux(solve_flux, dinv, r[:nc], r[nc:]))
        return Block(nc + self.ne, solver)

    def flow_cell_residual(self, state_prev, state: FieldState) -> np.ndarray:
        """Per-cell mass balance residual of the flow equation at a state."""
        return (self.storage_coefficient(state)
                - self.storage_coefficient(state_prev)
                + self.params.tau * (self.Bdiv @ state.q))

    # -- splitting strategy ---------------------------------------------------

    def splitting_step(self, state_prev: FieldState, config: SolverConfig,
                       stats: IterationStats) -> FieldState:
        """One time step of the iterative splitting scheme.

        Solves phase-field -> elasticity -> flow by forward substitution
        and repeats until the stacked (phi, mu, u, p) increment falls
        below tolerance.  No stabilization term is added.  Counts its
        outer and CH Newton iterations in stats.
        """
        phi_o, mu_o = state_prev.phi, state_prev.mu
        u_o, p_o, q_o = state_prev.u, state_prev.p, state_prev.q
        explicit = self.ch_explicit_load(state_prev)
        # one Phase of phi_o serves the previous step's storage term and
        # the first CH iterate; each strain serves the CH solve frozen at
        # it, and a new displacement's strain its flow solve before that
        values = self.phase_values(phi_o)
        strain = self.strain_per_cell(u_o)
        storage_prev = self.phase_integrals(values).storage(
            p_o, divergence(strain))
        for it in range(1, config.max_iter + 1):
            phi_n, mu_n = self.solve_ch_subsystem(
                state_prev, explicit, strain, p_o, config, phi_o, mu_o, values,
                stats)
            # shared by both subsystems and the next outer iteration's
            # first Cahn-Hilliard iterate, which starts at phi_n
            values = self.phase_values(phi_n)
            phase = self.phase_integrals(values)
            u_n = self.solve_elasticity(phase, p_o, u_o)
            strain = self.strain_per_cell(u_n)
            p_n, q_n = self.solve_flow(phase, divergence(strain), q_o,
                                       storage_prev)
            norm = float(np.sqrt(l2norm(phi_n - phi_o) ** 2
                                 + l2norm(mu_n - mu_o) ** 2
                                 + l2norm(u_n - u_o) ** 2
                                 + l2norm(p_n - p_o) ** 2))
            phi_o, mu_o, u_o, p_o, q_o = phi_n, mu_n, u_n, p_n, q_n
            stats.outer_iters = it
            if _converged(norm, config, "splitting outer iteration"):
                return FieldState(phi_o, mu_o, u_o, p_o, q_o, n=state_prev.n + 1)
        raise NonConvergence(
            f"splitting did not converge in {config.max_iter} outer iterations")

    # -- monolithic strategy ----------------------------------------------

    def monolithic_iterate(self, state: FieldState):
        """(pointwise values, RT0 mass) shared by a monolithic residual and
        Jacobian at the same iterate."""
        pw = self.pointwise(state.phi, state.u, state.p)
        return pw, kn.rt0_weighted_mass(pw, self.wq_last, self.psi_last)

    def monolithic_residual(self, state_prev: FieldState,
                            state_iter: FieldState, at,
                            explicit) -> np.ndarray:
        """Stacked residual of all five blocks with every coupling implicit.

        Only the expansive double-well term and the storage term keep
        their previous-time-step evaluation; boundary rows of the
        displacement block read u - 0.  at: monolithic_iterate(state_iter);
        explicit: ch_explicit_load(state_prev).
        """
        st = state_iter
        pw, mq_elem = at
        res = np.empty(self.ndofs)
        res[:2 * self.nv] = self.ch_residual(
            state_prev, st.phi, st.mu, kn.ch_load(pw, self.wq_last, self.lam),
            explicit)
        phase = self.phase_integrals(pw)
        sint = np.einsum("cab,cb->ca", phase.cint, pw.strain) - phase.swell
        ru_elem = (np.einsum("cai,ca->ci", self.B, sint)
                   - (phase.abar * st.p)[:, None] * self.drow)
        r_u = _scatter_vector(ru_elem, self.udofs, 2 * self.nv)
        r_u[self.u_bdofs] = st.u[self.u_bdofs]
        res[self.off_u:self.off_p] = r_u
        res[self.off_p:] = self.flow_residual(
            phase, pw.divu, self.storage_coefficient(state_prev), mq_elem,
            st.p, st.q)
        return res

    def monolithic_jacobian(self, state_iter: FieldState, at) -> sp.csr_matrix:
        """Exact Jacobian of monolithic_residual at the iterate; the
        previous step enters the residual only through constants.

        at: monolithic_iterate(state_iter).
        """
        pa = self.params
        st = state_iter
        pw, mq_elem = at
        qloc = st.q[self.qdofs.T]

        w_elem = kn.ch_jac(pw, self.wq_last, self.lam)
        mu_u, mu_p, p_phi, q_phi = kn.coupling_blocks(
            pw, self.wq_last, self.lam, qloc, self.B_last, self.psi_last)
        phase = self.phase_integrals(pw)
        abar, dinv = phase.abar, phase.dinv
        a_elem = self._stiffness_elem(phase.cint)
        m, k, div = self._m_elem, self._k_elem, self.signed_lengths
        # in the order of MONOLITHIC_BLOCKS, one row field per line
        values = [
            m, pa.tau * pa.mobility * k,
            m, -pa.gamma * pa.ell * k, -w_elem, -mu_u, -mu_p,
            a_elem, mu_u.transpose(0, 2, 1), -abar[:, None] * self.drow,
            p_phi, abar[:, None] * self.drow, dinv, pa.tau * div,
            mq_elem, -div, q_phi]
        pattern = self._monolithic_layout
        J = pattern.matrix(pattern.sum(np.concatenate(
            [v.ravel() for v in values] + [[1.0]])))
        if self.ndofs >= KRYLOV_MIN_ROWS:
            J.blocks = (factored_block(self._ch_matrix(w_elem)),
                        factored_block(self._elasticity_matrix(a_elem)),
                        self._flow_block(dinv, mq_elem))
        return J

    @cached_property
    def _monolithic_layout(self) -> CsrPattern:
        """Pattern of the monolithic Jacobian: the element blocks of
        MONOLITHIC_BLOCKS, with the rows of the displacement Dirichlet dofs
        set to identity (_clamped_pattern)."""
        # int32 throughout: the n=65 Jacobian has 1.3M triplets
        cells, udofs, pdofs, qdofs = (d.astype(np.int32) for d in (
            self.cells, self.udofs, self.pdofs, self.qdofs))
        fields = {"phi": (cells, self.off_phi), "mu": (cells, self.off_mu),
                  "u": (udofs, self.off_u), "p": (pdofs, self.off_p),
                  "q": (qdofs, self.off_q)}
        rows, cols = _stacked_indices([
            (*_block_indices(fields[r][0], fields[c][0]),
             fields[r][1], fields[c][1]) for r, c in MONOLITHIC_BLOCKS])
        return _clamped_pattern(
            rows, cols, (self.off_u + self.u_bdofs).astype(np.int32),
            (self.ndofs, self.ndofs), keep_factor=self._keeps_factors)

    def monolithic_step(self, state_prev: FieldState, config: SolverConfig,
                        stats: IterationStats) -> FieldState:
        """One time step of plain Newton on the full coupled system.

        Counts its Newton iterations in stats.
        """
        state = replace(state_prev, n=state_prev.n + 1)
        explicit = self.ch_explicit_load(state_prev)
        for it in range(1, config.max_iter + 1):
            stats.newton_iters = it
            at = self.monolithic_iterate(state)
            J = self.monolithic_jacobian(state, at)
            res = self.monolithic_residual(state_prev, state, at, explicit)
            del at  # its pointwise arrays need not outlive the factorization
            delta = solve_linear(J, -res)
            x = self.pack(state) + delta
            state = self.unpack(x, state.n)
            if _converged(float(l2norm(delta)), config, "monolithic Newton"):
                return state
        raise NonConvergence(
            f"monolithic Newton did not converge in {config.max_iter} iterations")


def advance_simulation(system: ChbSystem, initial_state: FieldState,
                       config: SolverConfig, on_step=None):
    """Run config.num_steps time steps from the initial state.

    Each step is config.strategy's step method, which counts its
    iterations in the IterationStats record made here; this times it.
    Returns (final_state, [IterationStats]).  A failed step aborts the
    run and raises SimulationFailed carrying the stats gathered so far,
    the failed step's counts and wall time included.  The run starts
    from an empty solver workspace and leaves none behind
    (ChbSystem.release_workspace).
    """
    step = (system.monolithic_step if config.strategy == "monolithic"
            else system.splitting_step)
    stats = []
    state = initial_state
    system.release_workspace()
    try:
        for _ in range(config.num_steps):
            record = IterationStats(step=state.n + 1)
            stats.append(record)
            t0 = time.perf_counter()
            try:
                state = step(state, config, record)
                record.converged = True
            except (NonConvergence, LinearSolveFailure) as exc:
                raise SimulationFailed(record.step, stats, exc) from exc
            finally:
                record.wall_seconds = time.perf_counter() - t0
            if on_step is not None:
                on_step(state, record)
    finally:
        system.release_workspace()
    return state, stats
