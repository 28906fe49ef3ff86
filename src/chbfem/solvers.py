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
from .mesh import StructuredTriMesh, boundary_dofs
from .model import MaterialParams

DIVERGENCE_LIMIT = 1.0e6


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
    strategy: str = "splitting"
    tol: float = 1.0e-6
    max_iter: int = 100
    num_steps: int = 20

    def __post_init__(self):
        if self.strategy not in ("monolithic", "splitting"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.num_steps < 0:
            raise ValueError("num_steps must be nonnegative")


def _scatter_vector(elem, dofs, n):
    """Sum element vectors into a global one; adds in ravel order from 0.0."""
    return np.bincount(dofs.ravel(), weights=elem.ravel(), minlength=n)


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


def _block_pattern(blocks, shape):
    """Pattern of a matrix stacked from duplicate-free blocks.

    blocks: (rows, cols, row offset, column offset) per block, in the
    order their values are concatenated.  Also returns each slot's block.
    """
    pattern = CsrPattern(*_stacked_indices(blocks), shape)
    block_of = np.concatenate([np.full(len(r), k, dtype=np.float64)
                               for k, (r, _, _, _) in enumerate(blocks)])
    return pattern, pattern.sum(block_of)


class PhaseIntegrals(NamedTuple):
    """phi at the quadrature points and kn.phase_cell_integrals of it."""

    phi_q: np.ndarray
    ibar: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    dinv: np.ndarray


class ChbSystem:
    """Discrete operators of the coupled system on one mesh.

    Precomputes geometry tables, basis values at quadrature points, the
    constant P1 mass/stiffness matrices and the RT0 divergence matrix;
    the phi-dependent terms are assembled on demand through the kernels.
    Each linear system's CSR pattern (a linalg.CsrPattern) is built at its
    first assembly; later assemblies only compute and place values.
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
        self.drow = B[:, 0, :] + B[:, 1, :]

        self.psi_q = rt0_basis(mesh, self.lam)

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

        m_elem = (self.areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
        k_elem = self.areas[:, None, None] * np.einsum("cia,cja->cij", grads, grads)
        self._m_trip = (*_block_indices(self.cells, self.cells), m_elem.ravel())
        self._k_trip = (*_block_indices(self.cells, self.cells), k_elem.ravel())
        self.M = sp.coo_matrix((self._m_trip[2], self._m_trip[:2]),
                               shape=(self.nv, self.nv)).tocsr()
        self.K = sp.coo_matrix((self._k_trip[2], self._k_trip[:2]),
                               shape=(self.nv, self.nv)).tocsr()

        edge_vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
        elen_loc = np.linalg.norm(edge_vec, axis=1)[mesh.cell_edges]
        div_vals = (mesh.cell_signs * elen_loc).astype(np.float64)
        rows = np.repeat(np.arange(self.nc), 3)
        self._bdiv_trip = (rows, mesh.cell_edges.ravel(), div_vals.ravel())
        self.Bdiv = sp.coo_matrix((self._bdiv_trip[2], self._bdiv_trip[:2]),
                                  shape=(self.nc, self.ne)).tocsr()
        self.BdivT = self.Bdiv.T.tocsr()

        bverts = boundary_dofs(mesh, "vertex")
        self.u_bdofs = np.sort(np.concatenate([2 * bverts, 2 * bverts + 1]))

    # -- field evaluation helpers ------------------------------------------

    def phi_at_qp(self, phi: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(phi[self.cells] @ self.lam.T)

    def strain_per_cell(self, u: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(
            np.einsum("cil,cl->ci", self.B, u[self.udofs]))

    def pointwise(self, phi, u, p) -> kn.Pointwise:
        """Kernel pointwise values at the iterate (phi, u, p)."""
        return kn.Pointwise(self.phi_at_qp(phi), self.strain_per_cell(u),
                            np.ascontiguousarray(p), self.params)

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

    def ch_residual(self, state_prev, phi_i, mu_i, u_fixed, p_fixed, pw=None):
        """Stacked residual of the (phi, mu) block with u, p frozen.

        pw: pointwise(phi_i, u_fixed, p_fixed), when the caller has it.
        """
        pa = self.params
        if pw is None:
            pw = self.pointwise(phi_i, u_fixed, p_fixed)
        nl = _scatter_vector(kn.ch_load(pw, self.wq, self.lam), self.cells,
                             self.nv)
        r_phi = self.M @ (phi_i - state_prev.phi) + pa.tau * pa.mobility * (self.K @ mu_i)
        r_mu = (self.M @ mu_i - pa.gamma * pa.ell * (self.K @ phi_i) - nl
                + (pa.gamma / pa.ell) * (self.M @ (state_prev.phi - 0.5)))
        return np.concatenate([r_phi, r_mu])

    def ch_residual_and_jacobian(self, state_prev, phi_i, mu_i, u_fixed, p_fixed):
        """Residual and Jacobian of the Cahn-Hilliard block at the iterate.

        The convex double-well term and the energy couplings are evaluated
        at phi_i (implicit), the expansive term at the previous time step.
        """
        pa = self.params
        pw = self.pointwise(phi_i, u_fixed, p_fixed)
        res = self.ch_residual(state_prev, phi_i, mu_i, u_fixed, p_fixed, pw)
        w_elem = kn.ch_jac(pw, self.wq, self.lam)
        p1, pattern, block = self._ch_layout
        W = p1.sum(w_elem.ravel())
        # [[M, tau m K], [-gamma ell K - W, M]]; the sparse difference
        # leaves out its exact zeros
        data = pattern.sum(np.concatenate([
            self.M.data, self.K.data * (pa.tau * pa.mobility),
            self.K.data * (-pa.gamma * pa.ell) - W, self.M.data]))
        J = pattern.matrix(data, dropped=(block == 2) & (data == 0))
        return res, J

    @cached_property
    def _ch_layout(self):
        """P1 pattern of M, K and W; CH Jacobian pattern and slot blocks."""
        p1 = CsrPattern(self._m_trip[0], self._m_trip[1], (self.nv, self.nv))
        r, c, nv = _slot_rows(p1), p1.indices, self.nv
        blocks = [(r, c, 0, 0), (r, c, 0, nv), (r, c, nv, 0), (r, c, nv, nv)]
        return (p1, *_block_pattern(blocks, (2 * nv, 2 * nv)))

    def solve_ch_subsystem(self, state_prev, u_fixed, p_fixed, config,
                           phi_init=None, mu_init=None):
        """Newton iteration on the (phi, mu) block; returns (phi, mu, iters)."""
        phi = (state_prev.phi if phi_init is None else phi_init).copy()
        mu = (state_prev.mu if mu_init is None else mu_init).copy()
        norm = np.inf
        for it in range(1, config.max_iter + 1):
            res, J = self.ch_residual_and_jacobian(state_prev, phi, mu,
                                                   u_fixed, p_fixed)
            delta = solve_linear(J, -res)
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

    def phase_integrals(self, phi, phi_q=None) -> PhaseIntegrals:
        """phi at the quadrature points and its cellwise phase integrals.

        phi_q: phi_at_qp(phi), when the caller has it already.
        """
        if phi_q is None:
            phi_q = self.phi_at_qp(phi)
        return PhaseIntegrals(phi_q,
                              *kn.phase_cell_integrals(phi_q, self.wq, self.params))

    def _elasticity_data(self, phi, phase=None):
        """Integrated stiffness, swelling load and pressure coupling per cell."""
        pa = self.params
        if phase is None:
            phase = self.phase_integrals(phi)
        _, ibar, s1, s2, dinv = phase
        cint = self.areas[:, None, None] * pa.C0 + ibar[:, None, None] * pa.dC
        abar = pa.alpha0 * self.areas + ibar * (pa.alpha1 - pa.alpha0)
        v = np.array([1.0, 1.0, 0.0])
        swell = pa.xi * (np.outer(s1, pa.C0 @ v) + np.outer(s2, pa.dC @ v))
        return cint, abar, swell, dinv

    def solve_elasticity(self, phi, p_fixed, phase=None):
        """Solve the linear elasticity subsystem at the given phase field.

        phase: phase_integrals(phi), when the caller has it already.
        """
        cint, abar, swell, _ = self._elasticity_data(phi, phase)
        a_elem = np.einsum("cai,cab,cbj->cij", self.B, cint, self.B,
                           optimize=True)
        rhs_elem = (np.einsum("cai,ca->ci", self.B, swell)
                    + (abar * p_fixed)[:, None] * self.drow)
        pattern, fixed, fixed_diag = self._elasticity_layout
        # Dirichlet dofs: rows and columns eliminated, identity on the
        # diagonal, exact zeros left out
        data = pattern.sum(a_elem.ravel())
        data[fixed] = 0.0
        data[fixed_diag] = 1.0
        A = pattern.matrix(data, dropped=data == 0)
        b = _scatter_vector(rhs_elem, self.udofs, 2 * self.nv)
        b[self.u_bdofs] = 0.0
        return solve_linear(A, b)

    @cached_property
    def _elasticity_layout(self):
        """Stiffness pattern, its Dirichlet slots and their diagonal slots."""
        pattern = CsrPattern(*_block_indices(self.udofs, self.udofs),
                             (2 * self.nv, 2 * self.nv))
        rows, cols = _slot_rows(pattern), pattern.indices
        on_boundary = np.zeros(2 * self.nv, dtype=bool)
        on_boundary[self.u_bdofs] = True
        fixed = on_boundary[rows] | on_boundary[cols]
        return pattern, fixed, np.flatnonzero(fixed & (rows == cols))

    # -- flow subsystem ------------------------------------------------------

    def storage_coefficient(self, state: FieldState) -> np.ndarray:
        """Cellwise integral of p/M(phi) + alpha(phi)*div(u) at a state."""
        pa = self.params
        phi_q = self.phi_at_qp(state.phi)
        ibar, _, _, dinv = kn.phase_cell_integrals(phi_q, self.wq, pa)
        abar = pa.alpha0 * self.areas + ibar * (pa.alpha1 - pa.alpha0)
        divu = self.strain_per_cell(state.u) @ np.array([1.0, 1.0, 0.0])
        return dinv * state.p + abar * divu

    def _flow_data(self, phi, phase=None):
        pa = self.params
        if phase is None:
            phase = self.phase_integrals(phi)
        phi_q, ibar, _, _, dinv = phase
        abar = pa.alpha0 * self.areas + ibar * (pa.alpha1 - pa.alpha0)
        mq_elem = kn.rt0_weighted_mass(phi_q, self.wq, self.psi_q, pa)
        return dinv, abar, mq_elem

    def solve_flow(self, phi, u, state_prev, storage_prev=None, phase=None):
        """Solve the mixed pressure/flux subsystem; returns (p, q).

        phase: phase_integrals(phi), when the caller has it already.
        """
        pa = self.params
        dinv, abar, mq_elem = self._flow_data(phi, phase)
        if storage_prev is None:
            storage_prev = self.storage_coefficient(state_prev)
        divu = self.strain_per_cell(u) @ np.array([1.0, 1.0, 0.0])
        rhs = np.concatenate([storage_prev - abar * divu, np.zeros(self.ne)])
        mq, pattern, block = self._flow_layout
        # [[diag(dinv), tau Bdiv], [-Bdiv^T, Mq]]; zeros of the diagonal
        # block are left out
        data = pattern.sum(np.concatenate([
            dinv, self.Bdiv.data * pa.tau, -self.BdivT.data,
            mq.sum(mq_elem.ravel())]))
        A = pattern.matrix(data, dropped=(block == 0) & (data == 0))
        x = solve_linear(A, rhs)
        return x[:self.nc], x[self.nc:]

    @cached_property
    def _flow_layout(self):
        """Pattern of Mq; flow matrix pattern and slot blocks."""
        mq = CsrPattern(*_block_indices(self.qdofs, self.qdofs),
                        (self.ne, self.ne))
        diag, nc = np.arange(self.nc), self.nc
        blocks = [(diag, diag, 0, 0),
                  (_slot_rows(self.Bdiv), self.Bdiv.indices, 0, nc),
                  (_slot_rows(self.BdivT), self.BdivT.indices, nc, 0),
                  (_slot_rows(mq), mq.indices, nc, nc)]
        return (mq, *_block_pattern(blocks, (nc + self.ne, nc + self.ne)))

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
        for it in range(1, config.max_iter + 1):
            try:
                phi_n, mu_n, nit = self.solve_ch_subsystem(
                    state_prev, u_o, p_o, config, phi_init=phi_o, mu_init=mu_o)
            except NonConvergence as exc:
                raise NonConvergence(
                    f"splitting step failed in the phase-field solve: {exc}",
                    iterations=it - 1, last_update_norm=exc.last_update_norm,
                    diverged=exc.diverged,
                    inner_newton=inner + [exc.iterations]) from exc
            inner.append(nit)
            phase = self.phase_integrals(phi_n)
            u_n = self.solve_elasticity(phi_n, p_o, phase=phase)
            p_n, q_n = self.solve_flow(phi_n, u_n, state_prev,
                                       storage_prev=storage_prev, phase=phase)
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
        return pw, kn.rt0_weighted_mass(pw.phi_q, self.wq, self.psi_q,
                                        self.params)

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
            st.phi, self.phase_integrals(st.phi, pw.phi_q))
        strain = pw.strain
        sint = np.einsum("cab,cb->ca", cint, strain) - swell
        ru_elem = (np.einsum("cai,ca->ci", self.B, sint)
                   - (abar * st.p)[:, None] * self.drow)
        r_u = _scatter_vector(ru_elem, self.udofs, 2 * self.nv)
        r_u[self.u_bdofs] = st.u[self.u_bdofs]
        res[self.off_u:self.off_p] = r_u
        divu = strain @ np.array([1.0, 1.0, 0.0])
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
        qloc = np.ascontiguousarray(st.q[self.qdofs])

        # values in the block order of _monolithic_layout
        w_elem = kn.ch_jac(pw, self.wq, self.lam)
        mu_u, mu_p, u_phi, p_phi, q_phi = kn.coupling_blocks(
            pw, self.wq, self.lam, qloc, self.B, self.psi_q)
        cint, abar, _, dinv = self._elasticity_data(
            st.phi, self.phase_integrals(st.phi, pw.phi_q))
        a_elem = np.einsum("cai,cab,cbj->cij", self.B, cint, self.B,
                           optimize=True)
        m, k, div = self._m_trip[2], self._k_trip[2], self._bdiv_trip[2]
        vals = np.concatenate([
            m, pa.tau * pa.mobility * k, m, -pa.gamma * pa.ell * k,
            -w_elem.ravel(), -mu_u.ravel(), -mu_p.ravel(),
            a_elem.ravel(), u_phi.ravel(), (-abar[:, None] * self.drow).ravel(),
            p_phi.ravel(), (abar[:, None] * self.drow).ravel(), dinv,
            pa.tau * div, mq_elem.ravel(), -div, q_phi.ravel(),
            np.ones(len(self.u_bdofs))])
        pattern = self._monolithic_layout
        return pattern.matrix(pattern.sum(vals))

    @cached_property
    def _monolithic_layout(self) -> CsrPattern:
        """Pattern of the monolithic Jacobian.

        Its triplets are the blocks below, in this order, followed by one
        identity triplet per displacement Dirichlet dof, whose row drops
        every other triplet.
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
        # displacement Dirichlet rows become identity rows
        fixed = (off_u + self.u_bdofs).astype(np.int32)
        on_boundary = np.zeros(self.ndofs, dtype=bool)
        on_boundary[fixed] = True
        kept = ~on_boundary[rows]
        take = np.concatenate([np.flatnonzero(kept),
                               len(rows) + np.arange(len(fixed))], dtype=np.int32)
        rows = np.concatenate([rows[kept], fixed])
        cols = np.concatenate([cols[kept], fixed])
        return CsrPattern(rows, cols, (self.ndofs, self.ndofs), take=take)

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
            delta = solve_linear(J, -res)
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
    """
    stats = []
    state = initial_state
    for _ in range(config.num_steps):
        t0 = time.perf_counter()
        try:
            state, step_stats = system.step(state, config)
        except NonConvergence as exc:
            failed = IterationStats(
                step=state.n + 1,
                outer_iters=exc.iterations if config.strategy == "splitting" else 0,
                inner_newton=exc.inner_newton,
                newton_iters=exc.iterations if config.strategy == "monolithic" else 0,
                converged=False, wall_seconds=time.perf_counter() - t0)
            raise SimulationFailed(state.n + 1, stats + [failed], exc) from exc
        except LinearSolveFailure as exc:
            failed = IterationStats(step=state.n + 1, converged=False,
                                    wall_seconds=time.perf_counter() - t0)
            raise SimulationFailed(state.n + 1, stats + [failed], exc) from exc
        stats.append(step_stats)
        if on_step is not None:
            on_step(state, step_stats)
    return state, stats
