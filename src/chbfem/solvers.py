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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import _kernels as kn
from .fem import default_rule, rt0_basis
from .linalg import CsrPattern, LinearSolveFailure, solve_linear
from .mesh import StructuredTriMesh
from .model import (VOIGT_ID, MaterialParams, Phase, Pointwise, check_fields,
                    choice, integer, real)

DIVERGENCE_LIMIT = 1.0e6
# Monolithic Jacobians of at least this many rows carry their diagonal
# blocks, so solve_linear solves them by block-preconditioned GMRES.  On
# a converging step that is cheaper than a direct LU from n=8 up, but on
# a diverging one GMRES needs tens of iterations per solve: on swell's
# n=16 run (2,468 rows), 15-60 of them, 3.6 times the direct path's time,
# and it diverged after 44 Newton iterations instead of 29.
KRYLOV_MIN_ROWS = 5000
# A system of at least this many dofs keeps the last factor of each
# splitting layout, and of a monolithic Jacobian below KRYLOV_MIN_ROWS,
# and refines against it.  Below it every solve factors afresh, bit for
# bit as a direct LU.  Over 20 splitting steps refinement was faster at
# every size measured, down to n=4 (188 dofs, by 7%); the threshold stays
# just above n=4, where the benchmark's smoke run checks one
# factorization per solve.
KEEP_FACTOR_MIN_DOFS = 250
# The contraction order numpy's greedy einsum_path picks for the element
# stiffness B^T C B at every mesh size (B with C first, then with B),
# given up front so that no call searches for it.
STIFFNESS_PATH = ["einsum_path", (0, 1), (0, 1)]


class NonConvergence(Exception):
    """A nonlinear iteration hit max_iter or diverged; carries diagnostics."""

    def __init__(self, message, iterations=0, last_update_norm=np.inf,
                 diverged=False, inner_newton=(), state=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_update_norm = last_update_norm
        self.diverged = diverged
        self.inner_newton = tuple(inner_newton)
        self.state = state


class SimulationFailed(Exception):
    """A time step failed; carries the per-step stats gathered so far."""

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

    def copy(self) -> "FieldState":
        return FieldState(self.phi.copy(), self.mu.copy(), self.u.copy(),
                          self.p.copy(), self.q.copy(), self.n)


@dataclass
class IterationStats:
    """Per-time-step iteration record."""

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


def _newton_solve(J, rhs, it):
    """solve_linear at Newton iteration `it`, which a failure records."""
    try:
        return solve_linear(J, rhs)
    except LinearSolveFailure as exc:
        exc.iterations = it
        raise


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


def _clamped_pattern(rows, cols, fixed, shape, symmetric=False,
                     keep_factor=False) -> CsrPattern:
    """Pattern of a triplet list whose dofs `fixed` get identity rows.

    Leaves out the triplets in a fixed row, and with symmetric=True in a
    fixed column, and adds a unit diagonal triplet per fixed dof; each of
    these reads one 1.0 appended to the triplet values.  keep_factor is
    passed on to CsrPattern.
    """
    clamped = np.zeros(shape[0], dtype=bool)
    clamped[fixed] = True
    kept = ~clamped[rows]
    if symmetric:
        kept &= ~clamped[cols]
    take = np.concatenate([np.flatnonzero(kept), np.full(len(fixed), len(rows))],
                          dtype=np.int32)
    return CsrPattern(np.concatenate([rows[kept], fixed]),
                      np.concatenate([cols[kept], fixed]), shape, take=take,
                      keep_factor=keep_factor)


class PhaseIntegrals(NamedTuple):
    """The model.Phase of phi, the cellwise integrals that
    kn.phase_cell_integrals takes of its cell_integrands, and the
    integrated Biot-Willis coefficient abar."""

    values: Phase
    ibar: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    dinv: np.ndarray
    abar: np.ndarray


class ChbSystem:
    """Discrete operators of the coupled system on one mesh.

    Precomputes geometry tables, basis values at quadrature points, the
    constant P1 mass/stiffness matrices and the RT0 divergence matrix;
    the phi-dependent terms are assembled on demand through the kernels.
    Each linear system has one CSR layout (a linalg.CsrPattern), built at
    its first assembly; every later matrix of that system only fills it.
    Every layout also keeps the LU ordering of its first solve (see
    chbfem.linalg), which reproduces a fresh ordering's factor bit for
    bit.  On a system of at least KEEP_FACTOR_MIN_DOFS dofs the CH,
    elasticity and flow layouts, and the monolithic one below
    KRYLOV_MIN_ROWS rows, keep their last factor too, and solve_linear
    refines each later matrix against it before it factors afresh.  A
    monolithic Jacobian of at least KRYLOV_MIN_ROWS rows carries its three
    diagonal blocks, filled on those layouts, as ``blocks``: solve_linear
    factors them to precondition GMRES on the Jacobian, for that solve
    only.

    The layouts, their orderings and factors, the element triplets and the
    kernels' cells-last tables are the solver workspace: built on first
    use, dropped by release_workspace().  advance_simulation drops it
    before and after each run, so a run's result does not depend on what
    the system solved before, and a finished run leaves only the constant
    operators behind.
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

        coords = mesh.vertices[mesh.cells]
        d1 = coords[:, 1] - coords[:, 0]
        d2 = coords[:, 2] - coords[:, 0]
        two_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
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

        self.M = sp.coo_matrix((self._m_trip[2], self._m_trip[:2]),
                               shape=(self.nv, self.nv)).tocsr()
        self.K = sp.coo_matrix((self._k_trip[2], self._k_trip[:2]),
                               shape=(self.nv, self.nv)).tocsr()
        self.Bdiv = sp.coo_matrix((self._bdiv_trip[2], self._bdiv_trip[:2]),
                                  shape=(self.nc, self.ne)).tocsr()
        self.BdivT = self.Bdiv.T.tocsr()

        bverts = np.flatnonzero(mesh.boundary_vertex_flags)
        self.u_bdofs = np.sort(np.concatenate([2 * bverts, 2 * bverts + 1]))

    def release_workspace(self) -> None:
        """Drop every table built on first use: the CSR layouts with their
        stored LU orderings and factors, the CH Jacobian image, the element
        triplets and the kernels' cells-last tables.  The next use builds
        each one again."""
        for name, attr in vars(ChbSystem).items():
            if isinstance(attr, cached_property):
                self.__dict__.pop(name, None)

    @property
    def _keeps_factors(self) -> bool:
        """Whether the splitting's layouts keep their last factor."""
        return self.ndofs >= KEEP_FACTOR_MIN_DOFS

    # -- element triplets, built on first use ---------------------------------

    @cached_property
    def _m_trip(self):
        """Rows, columns and values of the P1 mass matrix's element blocks."""
        m_elem = (self.areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
        return (*_block_indices(self.cells, self.cells), m_elem.ravel())

    @cached_property
    def _k_trip(self):
        """Those of the P1 stiffness matrix, on the rows and columns of M's."""
        grads = self.grads
        k_elem = self.areas[:, None, None] * np.einsum("cia,cja->cij", grads, grads)
        return (*self._m_trip[:2], k_elem.ravel())

    @cached_property
    def _bdiv_trip(self):
        """Rows, columns and values of the RT0 divergence matrix."""
        mesh = self.mesh
        edge_vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
        elen_loc = np.linalg.norm(edge_vec, axis=1)[mesh.cell_edges]
        div_vals = (mesh.cell_signs * elen_loc).astype(np.float64)
        rows = np.repeat(np.arange(self.nc), 3)
        return rows, mesh.cell_edges.ravel(), div_vals.ravel()

    @cached_property
    def drow(self) -> np.ndarray:
        """Divergence row of B per cell: rows 0 and 1 added, (nc, 6)."""
        return self.B[:, 0, :] + self.B[:, 1, :]

    # -- the kernels' cells-last tables, built on first use -----------------

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
        return (pa.gamma / pa.ell) * (self.M @ (state_prev.phi - 0.5))

    def ch_residual(self, state_prev, phi_i, mu_i, u_fixed, p_fixed, pw=None,
                    explicit=None):
        """Stacked residual of the (phi, mu) block with u, p frozen.

        pw: pointwise(phi_i, u_fixed, p_fixed), and explicit:
        ch_explicit_load(state_prev), when the caller has them.
        """
        pa = self.params
        if pw is None:
            pw = self.pointwise(phi_i, u_fixed, p_fixed)
        if explicit is None:
            explicit = self.ch_explicit_load(state_prev)
        nl = _scatter_vector(kn.ch_load(pw, self.wq_last, self.lam),
                             self.cells, self.nv)
        r_phi = self.M @ (phi_i - state_prev.phi) + pa.tau * pa.mobility * (self.K @ mu_i)
        r_mu = (self.M @ mu_i - pa.gamma * pa.ell * (self.K @ phi_i) - nl
                + explicit)
        return np.concatenate([r_phi, r_mu])

    def ch_residual_and_jacobian(self, state_prev, phi_i, mu_i, u_fixed, p_fixed,
                                 pw=None, explicit=None):
        """Residual and Jacobian of the Cahn-Hilliard block at the iterate.

        The convex double-well term and the energy couplings are evaluated
        at phi_i (implicit), the expansive term at the previous time step.
        pw and explicit as for ch_residual.
        """
        if pw is None:
            pw = self.pointwise(phi_i, u_fixed, p_fixed)
        res = self.ch_residual(state_prev, phi_i, mu_i, u_fixed, p_fixed, pw,
                               explicit)
        return res, self._ch_matrix(kn.ch_jac(pw, self.wq_last, self.lam))

    def _ch_matrix(self, w_elem) -> sp.csr_matrix:
        """The CH Jacobian [[M, tau m K], [-gamma ell K - W, M]] for the
        element blocks of W."""
        p1, pattern = self._ch_layout
        image, mu_phi, k_mu_phi = self._ch_image
        data = image.copy()
        data[mu_phi] = k_mu_phi - p1.sum(w_elem.ravel())
        return pattern.matrix(data)

    @cached_property
    def _ch_layout(self):
        """P1 pattern of M, K and W, and the CH Jacobian's, its 2x2 stack."""
        p1 = CsrPattern(self._m_trip[0], self._m_trip[1], (self.nv, self.nv))
        r, c, nv = _slot_rows(p1), p1.indices, self.nv
        blocks = [(r, c, 0, 0), (r, c, 0, nv), (r, c, nv, 0), (r, c, nv, nv)]
        return p1, CsrPattern(*_stacked_indices(blocks), (2 * nv, 2 * nv),
                              keep_factor=self._keeps_factors)

    @cached_property
    def _ch_image(self):
        """The CH Jacobian [[M, tau m K], [-gamma ell K - W, M]] without W.

        Returns its slot values, the slots of its (mu, phi) block, which
        follow the P1 slot order of W, and -gamma ell K there.  No slot of
        the stack holds more than one triplet.
        """
        pa = self.params
        _, pattern = self._ch_layout
        k_mu_phi = self.K.data * (-pa.gamma * pa.ell)
        image = pattern.sum(np.concatenate([
            self.M.data, self.K.data * (pa.tau * pa.mobility), k_mu_phi,
            self.M.data]))
        mu_phi = np.flatnonzero((_slot_rows(pattern) >= self.nv)
                                & (pattern.indices < self.nv))
        return image, mu_phi, k_mu_phi

    def solve_ch_subsystem(self, state_prev, u_fixed, p_fixed, config,
                           phi_init=None, mu_init=None, values=None):
        """Newton iteration on the (phi, mu) block; returns (phi, mu, iters).

        values: phase_values(phi_init), when the caller has it.
        """
        phi = (state_prev.phi if phi_init is None else phi_init).copy()
        mu = (state_prev.mu if mu_init is None else mu_init).copy()
        # fixed over the Newton iteration
        strain = self.strain_per_cell(u_fixed)
        p_cell = np.ascontiguousarray(p_fixed)
        explicit = self.ch_explicit_load(state_prev)
        norm = np.inf
        for it in range(1, config.max_iter + 1):
            if values is None:
                values = self.phase_values(phi)
            res, J = self.ch_residual_and_jacobian(
                state_prev, phi, mu, u_fixed, p_fixed,
                pw=Pointwise(values, strain, p_cell), explicit=explicit)
            values = None  # phi moves below
            delta = _newton_solve(J, -res, it)
            phi += delta[:self.nv]
            mu += delta[self.nv:]
            norm = float(np.linalg.norm(delta))
            if not np.isfinite(norm) or norm > DIVERGENCE_LIMIT:
                raise NonConvergence("phase-field Newton diverged",
                                     iterations=it, last_update_norm=norm,
                                     diverged=True)
            if norm < config.tol:
                return phi, mu, it
        raise NonConvergence(
            f"phase-field Newton did not converge in {config.max_iter} iterations",
            iterations=config.max_iter, last_update_norm=norm)

    # -- elasticity subsystem ----------------------------------------------

    def phase_integrals(self, phi, values=None) -> PhaseIntegrals:
        """The laws of phi and their cellwise integrals.

        values: phase_values(phi), or a pointwise at phi, when the caller
        has it already.
        """
        pa = self.params
        if values is None:
            values = self.phase_values(phi)
        ibar, s1, s2, dinv = kn.phase_cell_integrals(values, self.wq_last)
        abar = pa.alpha0 * self.areas + ibar * (pa.alpha1 - pa.alpha0)
        return PhaseIntegrals(values, ibar, s1, s2, dinv, abar)

    def _elasticity_data(self, phi, phase=None):
        """Integrated stiffness, swelling load and pressure coupling per cell."""
        pa = self.params
        if phase is None:
            phase = self.phase_integrals(phi)
        cint = (self.areas[:, None, None] * pa.C0
                + phase.ibar[:, None, None] * pa.dC)
        swell = pa.xi * (np.outer(phase.s1, pa.C0 @ VOIGT_ID)
                         + np.outer(phase.s2, pa.dC @ VOIGT_ID))
        return cint, phase.abar, swell, phase.dinv

    def solve_elasticity(self, phi, p_fixed, phase=None):
        """Solve the linear elasticity subsystem at the given phase field.

        phase: phase_integrals(phi), when the caller has it already.
        """
        cint, abar, swell, _ = self._elasticity_data(phi, phase)
        a_elem = np.einsum("cai,cab,cbj->cij", self.B, cint, self.B,
                           optimize=STIFFNESS_PATH)
        rhs_elem = (np.einsum("cai,ca->ci", self.B, swell)
                    + (abar * p_fixed)[:, None] * self.drow)
        b = _scatter_vector(rhs_elem, self.udofs, 2 * self.nv)
        b[self.u_bdofs] = 0.0
        return solve_linear(self._elasticity_matrix(a_elem), b)

    def _elasticity_matrix(self, a_elem) -> sp.csr_matrix:
        """Stiffness matrix of the element blocks a_elem, Dirichlet rows
        and columns set to identity."""
        pattern = self._elasticity_layout
        return pattern.matrix(pattern.sum(np.append(a_elem.ravel(), 1.0)))

    @cached_property
    def _elasticity_layout(self) -> CsrPattern:
        """Stiffness pattern, Dirichlet rows and columns set to identity."""
        return _clamped_pattern(*_block_indices(self.udofs, self.udofs),
                                self.u_bdofs, (2 * self.nv, 2 * self.nv),
                                symmetric=True, keep_factor=self._keeps_factors)

    # -- flow subsystem ------------------------------------------------------

    def storage_coefficient(self, state: FieldState) -> np.ndarray:
        """Cellwise integral of p/M(phi) + alpha(phi)*div(u) at a state."""
        phase = self.phase_integrals(state.phi)
        divu = self.strain_per_cell(state.u) @ VOIGT_ID
        return phase.dinv * state.p + phase.abar * divu

    def _flow_data(self, phi, phase=None):
        if phase is None:
            phase = self.phase_integrals(phi)
        mq_elem = kn.rt0_weighted_mass(phase.values, self.wq_last, self.psi_last)
        return phase.dinv, phase.abar, mq_elem

    def solve_flow(self, phi, u, state_prev, storage_prev=None, phase=None):
        """Solve the mixed pressure/flux subsystem; returns (p, q).

        phase: phase_integrals(phi), when the caller has it already.
        """
        dinv, abar, mq_elem = self._flow_data(phi, phase)
        if storage_prev is None:
            storage_prev = self.storage_coefficient(state_prev)
        divu = self.strain_per_cell(u) @ VOIGT_ID
        rhs = np.concatenate([storage_prev - abar * divu, np.zeros(self.ne)])
        x = solve_linear(self._flow_matrix(dinv, mq_elem), rhs)
        return x[:self.nc], x[self.nc:]

    def _flow_matrix(self, dinv, mq_elem) -> sp.csr_matrix:
        """The flow matrix [[diag(dinv), tau Bdiv], [-Bdiv^T, Mq]] for the
        element blocks of Mq."""
        mq, pattern = self._flow_layout
        return pattern.matrix(pattern.sum(np.concatenate([
            dinv, self.Bdiv.data * self.params.tau, -self.BdivT.data,
            mq.sum(mq_elem.ravel())])))

    @cached_property
    def _flow_layout(self):
        """Pattern of Mq, and the flow matrix's, its 2x2 block stack."""
        mq = CsrPattern(*_block_indices(self.qdofs, self.qdofs),
                        (self.ne, self.ne))
        diag, nc = np.arange(self.nc), self.nc
        blocks = [(diag, diag, 0, 0),
                  (_slot_rows(self.Bdiv), self.Bdiv.indices, 0, nc),
                  (_slot_rows(self.BdivT), self.BdivT.indices, nc, 0),
                  (_slot_rows(mq), mq.indices, nc, nc)]
        return mq, CsrPattern(*_stacked_indices(blocks),
                              (nc + self.ne, nc + self.ne),
                              keep_factor=self._keeps_factors)

    def flow_cell_residual(self, state_prev, state: FieldState) -> np.ndarray:
        """Per-cell mass balance residual of the flow equation at a state."""
        return (self.storage_coefficient(state)
                - self.storage_coefficient(state_prev)
                + self.params.tau * (self.Bdiv @ state.q))

    # -- splitting strategy ---------------------------------------------------

    def splitting_step(self, state_prev: FieldState, config: SolverConfig):
        """One time step of the iterative splitting scheme.

        Solves phase-field -> elasticity -> flow by forward substitution
        and repeats until the stacked (phi, mu, u, p) increment falls
        below tolerance.  No stabilization term is added.
        """
        t0 = time.perf_counter()
        phi_o, mu_o = state_prev.phi.copy(), state_prev.mu.copy()
        u_o, p_o = state_prev.u.copy(), state_prev.p.copy()
        q_o = state_prev.q.copy()
        storage_prev = self.storage_coefficient(state_prev)
        inner = []
        norm = np.inf
        phase = None
        for it in range(1, config.max_iter + 1):
            try:
                phi_n, mu_n, nit = self.solve_ch_subsystem(
                    state_prev, u_o, p_o, config, phi_init=phi_o, mu_init=mu_o,
                    values=None if phase is None else phase.values)
            except NonConvergence as exc:
                raise NonConvergence(
                    f"splitting step failed in the phase-field solve: {exc}",
                    iterations=it - 1, last_update_norm=exc.last_update_norm,
                    diverged=exc.diverged,
                    inner_newton=inner + [exc.iterations]) from exc
            except LinearSolveFailure as exc:
                exc.iterations, exc.inner_newton = it - 1, (*inner, exc.iterations)
                raise
            inner.append(nit)
            # shared by both subsystems and the next outer iteration's
            # first Cahn-Hilliard iterate, which starts at phi_n
            phase = self.phase_integrals(phi_n)
            try:
                u_n = self.solve_elasticity(phi_n, p_o, phase=phase)
                p_n, q_n = self.solve_flow(phi_n, u_n, state_prev,
                                           storage_prev=storage_prev, phase=phase)
            except LinearSolveFailure as exc:
                exc.iterations, exc.inner_newton = it - 1, tuple(inner)
                raise
            norm = float(np.sqrt(np.linalg.norm(phi_n - phi_o) ** 2
                                 + np.linalg.norm(mu_n - mu_o) ** 2
                                 + np.linalg.norm(u_n - u_o) ** 2
                                 + np.linalg.norm(p_n - p_o) ** 2))
            phi_o, mu_o, u_o, p_o, q_o = phi_n, mu_n, u_n, p_n, q_n
            if not np.isfinite(norm) or norm > DIVERGENCE_LIMIT:
                raise NonConvergence("splitting outer iteration diverged",
                                     iterations=it, last_update_norm=norm,
                                     diverged=True, inner_newton=inner)
            if norm < config.tol:
                stats = IterationStats(step=state_prev.n + 1, outer_iters=it,
                                       inner_newton=tuple(inner), converged=True,
                                       wall_seconds=time.perf_counter() - t0)
                return FieldState(phi_o, mu_o, u_o, p_o, q_o,
                                  n=state_prev.n + 1), stats
        raise NonConvergence(
            f"splitting did not converge in {config.max_iter} outer iterations",
            iterations=config.max_iter, last_update_norm=norm,
            inner_newton=inner,
            state=FieldState(phi_o, mu_o, u_o, p_o, q_o, n=state_prev.n + 1))

    # -- monolithic strategy ----------------------------------------------

    def monolithic_iterate(self, state: FieldState):
        """(pointwise values, RT0 mass) shared by a monolithic residual and
        Jacobian at the same iterate."""
        pw = self.pointwise(state.phi, state.u, state.p)
        return pw, kn.rt0_weighted_mass(pw, self.wq_last, self.psi_last)

    def monolithic_residual(self, state_prev: FieldState,
                            state_iter: FieldState, at=None) -> np.ndarray:
        """Stacked residual of all five blocks with every coupling implicit.

        Only the expansive double-well term and the storage term keep
        their previous-time-step evaluation; boundary rows of the
        displacement block read u - 0.  at: monolithic_iterate(state_iter),
        when the caller has it.
        """
        pa = self.params
        st = state_iter
        pw, mq_elem = self.monolithic_iterate(st) if at is None else at
        res = np.empty(self.ndofs)
        res[:2 * self.nv] = self.ch_residual(state_prev, st.phi, st.mu,
                                             st.u, st.p, pw)
        cint, abar, swell, dinv = self._elasticity_data(
            st.phi, self.phase_integrals(st.phi, pw))
        strain = pw.strain
        sint = np.einsum("cab,cb->ca", cint, strain) - swell
        ru_elem = (np.einsum("cai,ca->ci", self.B, sint)
                   - (abar * st.p)[:, None] * self.drow)
        r_u = _scatter_vector(ru_elem, self.udofs, 2 * self.nv)
        r_u[self.u_bdofs] = st.u[self.u_bdofs]
        res[self.off_u:self.off_p] = r_u
        divu = strain @ VOIGT_ID
        storage_prev = self.storage_coefficient(state_prev)
        res[self.off_p:self.off_q] = (dinv * st.p + abar * divu - storage_prev
                                      + pa.tau * (self.Bdiv @ st.q))
        mq_q = np.einsum("cij,cj->ci", mq_elem, st.q[self.qdofs])
        res[self.off_q:] = _scatter_vector(mq_q, self.qdofs, self.ne) \
            - self.BdivT @ st.p
        return res

    def monolithic_jacobian(self, state_prev: FieldState,
                            state_iter: FieldState, at=None) -> sp.csr_matrix:
        """Exact Jacobian of monolithic_residual at the iterate.

        at: monolithic_iterate(state_iter), when the caller has it.
        """
        pa = self.params
        st = state_iter
        pw, mq_elem = self.monolithic_iterate(st) if at is None else at
        qloc = st.q[self.qdofs.T]

        # values in the block order of _monolithic_layout
        w_elem = kn.ch_jac(pw, self.wq_last, self.lam)
        mu_u, mu_p, u_phi, p_phi, q_phi = kn.coupling_blocks(
            pw, self.wq_last, self.lam, qloc, self.B_last, self.psi_last)
        cint, abar, _, dinv = self._elasticity_data(
            st.phi, self.phase_integrals(st.phi, pw))
        a_elem = np.einsum("cai,cab,cbj->cij", self.B, cint, self.B,
                           optimize=STIFFNESS_PATH)
        m, k, div = self._m_trip[2], self._k_trip[2], self._bdiv_trip[2]
        vals = np.concatenate([
            m, pa.tau * pa.mobility * k, m, -pa.gamma * pa.ell * k,
            -w_elem.ravel(), -mu_u.ravel(), -mu_p.ravel(),
            a_elem.ravel(), u_phi.ravel(), (-abar[:, None] * self.drow).ravel(),
            p_phi.ravel(), (abar[:, None] * self.drow).ravel(), dinv,
            pa.tau * div, mq_elem.ravel(), -div, q_phi.ravel(), [1.0]])
        pattern = self._monolithic_layout
        J = pattern.matrix(pattern.sum(vals))
        if self.ndofs >= KRYLOV_MIN_ROWS:
            # The (u, u) block of J keeps the columns of the clamped dofs,
            # which the elasticity matrix sets to identity.  Both agree on
            # every vector that is zero at the clamped dofs, as every
            # Newton right-hand side is, and the preconditioned Krylov
            # space stays among those vectors.
            J.blocks = (self._ch_matrix(w_elem), self._elasticity_matrix(a_elem),
                        self._flow_matrix(dinv, mq_elem))
        return J

    @cached_property
    def _monolithic_layout(self) -> CsrPattern:
        """Pattern of the monolithic Jacobian.

        Its triplets are the blocks below, in this order; the rows of the
        displacement Dirichlet dofs are identity rows (_clamped_pattern).
        """
        # int32 throughout: the n=65 Jacobian has 1.3M triplets
        cells, u, pd, q, m_r, m_c, div_r, div_c = (
            a.astype(np.int32) for a in (self.cells, self.udofs, self.pdofs,
                                         self.qdofs, *self._m_trip[:2],
                                         *self._bdiv_trip[:2]))
        off_phi, off_mu, off_u, off_p, off_q = (
            self.off_phi, self.off_mu, self.off_u, self.off_p, self.off_q)
        diag_p = np.arange(self.nc, dtype=np.int32)
        rows, cols = _stacked_indices([
            # (phi, *) and (mu, mu): constant blocks
            (m_r, m_c, off_phi, off_phi), (m_r, m_c, off_phi, off_mu),
            (m_r, m_c, off_mu, off_mu),
            # (mu, phi): stiffness, convex double well and energy couplings
            (m_r, m_c, off_mu, off_phi),
            (*_block_indices(cells, cells), off_mu, off_phi),
            (*_block_indices(cells, u), off_mu, off_u),
            (*_block_indices(cells, pd), off_mu, off_p),
            (*_block_indices(u, u), off_u, off_u),
            (*_block_indices(u, cells), off_u, off_phi),
            (*_block_indices(u, pd), off_u, off_p),
            (*_block_indices(pd, cells), off_p, off_phi),
            (*_block_indices(pd, u), off_p, off_u),
            (diag_p, diag_p, off_p, off_p),
            (div_r, div_c, off_p, off_q),
            (*_block_indices(q, q), off_q, off_q),
            (div_c, div_r, off_q, off_p),
            (*_block_indices(q, cells), off_q, off_phi),
        ])
        # A Jacobian below KRYLOV_MIN_ROWS is solved directly; from
        # KEEP_FACTOR_MIN_DOFS up its layout keeps the last factor, and
        # each later Newton iterate is refined against it.  A larger one
        # serves the Krylov path's products and residual check, and the
        # direct solve it falls back to, whose full factor (6.4M fill at
        # n=65) is not worth keeping.
        return _clamped_pattern(
            rows, cols, (off_u + self.u_bdofs).astype(np.int32),
            (self.ndofs, self.ndofs),
            keep_factor=KEEP_FACTOR_MIN_DOFS <= self.ndofs < KRYLOV_MIN_ROWS)

    def monolithic_step(self, state_prev: FieldState, config: SolverConfig):
        """One time step of plain Newton on the full coupled system."""
        t0 = time.perf_counter()
        state = state_prev.copy()
        state.n = state_prev.n + 1
        norm = np.inf
        for it in range(1, config.max_iter + 1):
            at = self.monolithic_iterate(state)
            res = self.monolithic_residual(state_prev, state, at)
            J = self.monolithic_jacobian(state_prev, state, at)
            del at  # its pointwise arrays need not outlive the factorization
            delta = _newton_solve(J, -res, it)
            x = self.pack(state) + delta
            state = self.unpack(x, state.n)
            norm = float(np.linalg.norm(delta))
            if not np.isfinite(norm) or norm > DIVERGENCE_LIMIT:
                raise NonConvergence("monolithic Newton diverged",
                                     iterations=it, last_update_norm=norm,
                                     diverged=True, state=state)
            if norm < config.tol:
                stats = IterationStats(step=state.n, newton_iters=it,
                                       converged=True,
                                       wall_seconds=time.perf_counter() - t0)
                return state, stats
        raise NonConvergence(
            f"monolithic Newton did not converge in {config.max_iter} iterations",
            iterations=config.max_iter, last_update_norm=norm, state=state)

    def step(self, state_prev: FieldState, config: SolverConfig):
        if config.strategy == "monolithic":
            return self.monolithic_step(state_prev, config)
        return self.splitting_step(state_prev, config)


def advance_simulation(system: ChbSystem, initial_state: FieldState,
                       config: SolverConfig, on_step=None):
    """Run config.num_steps time steps from the initial state.

    Returns (final_state, [IterationStats]).  A failed step aborts the
    run and raises SimulationFailed carrying the stats gathered so far
    (including the partial counts and the wall time of the failing step).
    The run starts from an empty solver workspace and leaves none behind
    (ChbSystem.release_workspace).
    """
    stats = []
    state = initial_state
    system.release_workspace()
    try:
        for _ in range(config.num_steps):
            t0 = time.perf_counter()
            try:
                state, step_stats = system.step(state, config)
            except (NonConvergence, LinearSolveFailure) as exc:
                split = config.strategy == "splitting"
                failed = IterationStats(
                    step=state.n + 1,
                    outer_iters=exc.iterations if split else 0,
                    inner_newton=exc.inner_newton,
                    newton_iters=0 if split else exc.iterations,
                    converged=False, wall_seconds=time.perf_counter() - t0)
                raise SimulationFailed(state.n + 1, stats + [failed], exc) from exc
            stats.append(step_stats)
            if on_step is not None:
                on_step(state, step_stats)
    finally:
        system.release_workspace()
    return state, stats
