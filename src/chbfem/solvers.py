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

import numpy as np
import scipy.sparse as sp

from . import _kernels as kn
from .fem import default_rule, p0_space, p1_scalar, p1_vector, rt0_space
from .linalg import LinearSolveFailure, SparseMatrix, solve_linear
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
    out = np.zeros(n)
    np.add.at(out, dofs.ravel(), elem.ravel())
    return out


def _block_triplets(elem, rows, cols):
    a = rows.shape[1]
    b = cols.shape[1]
    r = np.repeat(rows[:, :, None], b, axis=2).ravel()
    c = np.repeat(cols[:, None, :], a, axis=1).ravel()
    return r, c, elem.ravel()


class ChbSystem:
    """Discrete operators of the coupled system on one mesh.

    Precomputes geometry tables, basis values at quadrature points, the
    constant P1 mass/stiffness matrices and the RT0 divergence matrix;
    the phi-dependent terms are assembled on demand through the kernels.
    """

    def __init__(self, mesh: StructuredTriMesh, params: MaterialParams):
        self.mesh = mesh
        self.params = params
        self.ch_space = p1_scalar(mesh)
        self.u_space = p1_vector(mesh)
        self.p_space = p0_space(mesh)
        self.q_space = rt0_space(mesh)

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

        edge_vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
        self.edge_len = np.linalg.norm(edge_vec, axis=1)
        elen_loc = self.edge_len[mesh.cell_edges]
        fac = mesh.cell_signs * elen_loc / two_area[:, None]
        xq = np.einsum("qi,cia->cqa", self.lam, coords)
        self.psi_q = np.ascontiguousarray(
            fac[:, None, :, None] * (xq[:, :, None, :] - coords[:, None, :, :]))

        self.cells = mesh.cells
        self.udofs = self.u_space.cell_dofs
        self.pdofs = self.p_space.cell_dofs
        self.qdofs = mesh.cell_edges

        m_elem = (self.areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
        k_elem = self.areas[:, None, None] * np.einsum("cia,cja->cij", grads, grads)
        self._m_trip = _block_triplets(m_elem, self.cells, self.cells)
        self._k_trip = _block_triplets(k_elem, self.cells, self.cells)
        self.M = sp.coo_matrix((self._m_trip[2], self._m_trip[:2]),
                               shape=(self.nv, self.nv)).tocsr()
        self.K = sp.coo_matrix((self._k_trip[2], self._k_trip[:2]),
                               shape=(self.nv, self.nv)).tocsr()

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

    def _kernel_params(self):
        pa = self.params
        return (pa.gamma, pa.ell, pa.xi, pa.phi_bar, pa.M0, pa.M1,
                pa.alpha0, pa.alpha1, pa.C0, pa.dC)

    # -- Cahn-Hilliard subsystem -------------------------------------------

    def ch_residual(self, state_prev, phi_i, mu_i, u_fixed, p_fixed):
        """Stacked residual of the (phi, mu) block with u, p frozen."""
        pa = self.params
        phi_q = self.phi_at_qp(phi_i)
        strain = self.strain_per_cell(u_fixed)
        nl_elem = kn.ch_load(phi_q, self.wq, self.lam, strain,
                             np.ascontiguousarray(p_fixed), *self._kernel_params())
        nl = _scatter_vector(nl_elem, self.cells, self.nv)
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
        res = self.ch_residual(state_prev, phi_i, mu_i, u_fixed, p_fixed)
        phi_q = self.phi_at_qp(phi_i)
        strain = self.strain_per_cell(u_fixed)
        w_elem = kn.ch_jac(phi_q, self.wq, self.lam, strain,
                           np.ascontiguousarray(p_fixed), *self._kernel_params())
        r, c, v = _block_triplets(w_elem, self.cells, self.cells)
        W = sp.coo_matrix((v, (r, c)), shape=(self.nv, self.nv)).tocsr()
        J = sp.bmat([[self.M, pa.tau * pa.mobility * self.K],
                     [-pa.gamma * pa.ell * self.K - W, self.M]], format="csr")
        return res, SparseMatrix(J)

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

    def _elasticity_data(self, phi):
        """Integrated stiffness, swelling load and pressure coupling per cell."""
        pa = self.params
        phi_q = self.phi_at_qp(phi)
        ibar, s1, s2, dinv = kn.phase_cell_integrals(phi_q, self.wq,
                                                     pa.phi_bar, pa.M0, pa.M1)
        cint = self.areas[:, None, None] * pa.C0 + ibar[:, None, None] * pa.dC
        abar = pa.alpha0 * self.areas + ibar * (pa.alpha1 - pa.alpha0)
        v = np.array([1.0, 1.0, 0.0])
        swell = pa.xi * (np.outer(s1, pa.C0 @ v) + np.outer(s2, pa.dC @ v))
        return cint, abar, swell, dinv

    def solve_elasticity(self, phi, p_fixed):
        """Solve the linear elasticity subsystem at the given phase field."""
        cint, abar, swell, _ = self._elasticity_data(phi)
        a_elem = np.einsum("cai,cab,cbj->cij", self.B, cint, self.B)
        rhs_elem = (np.einsum("cai,ca->ci", self.B, swell)
                    + (abar * p_fixed)[:, None] * self.drow)
        r, c, v = _block_triplets(a_elem, self.udofs, self.udofs)
        A = sp.coo_matrix((v, (r, c)), shape=(2 * self.nv, 2 * self.nv)).tocsr()
        b = _scatter_vector(rhs_elem, self.udofs, 2 * self.nv)
        # symmetric elimination of the homogeneous Dirichlet rows/columns:
        # D A D zeros them, the indicator restores unit diagonal entries
        keep = np.ones(2 * self.nv)
        keep[self.u_bdofs] = 0.0
        D = sp.diags(keep)
        A = D @ A @ D + sp.diags(1.0 - keep)
        b[self.u_bdofs] = 0.0
        return solve_linear(SparseMatrix(A.tocsr()), b)

    # -- flow subsystem ------------------------------------------------------

    def storage_coefficient(self, state: FieldState) -> np.ndarray:
        """Cellwise integral of p/M(phi) + alpha(phi)*div(u) at a state."""
        pa = self.params
        phi_q = self.phi_at_qp(state.phi)
        ibar, _, _, dinv = kn.phase_cell_integrals(phi_q, self.wq,
                                                   pa.phi_bar, pa.M0, pa.M1)
        abar = pa.alpha0 * self.areas + ibar * (pa.alpha1 - pa.alpha0)
        divu = self.strain_per_cell(state.u) @ np.array([1.0, 1.0, 0.0])
        return dinv * state.p + abar * divu

    def _flow_data(self, phi):
        pa = self.params
        phi_q = self.phi_at_qp(phi)
        ibar, _, _, dinv = kn.phase_cell_integrals(phi_q, self.wq,
                                                   pa.phi_bar, pa.M0, pa.M1)
        abar = pa.alpha0 * self.areas + ibar * (pa.alpha1 - pa.alpha0)
        mq_elem = kn.rt0_weighted_mass(phi_q, self.wq, self.psi_q,
                                       pa.kappa0, pa.kappa1)
        return dinv, abar, mq_elem

    def solve_flow(self, phi, u, state_prev, config=None, storage_prev=None):
        """Solve the mixed pressure/flux subsystem; returns (p, q)."""
        pa = self.params
        dinv, abar, mq_elem = self._flow_data(phi)
        if storage_prev is None:
            storage_prev = self.storage_coefficient(state_prev)
        divu = self.strain_per_cell(u) @ np.array([1.0, 1.0, 0.0])
        rhs = np.concatenate([storage_prev - abar * divu, np.zeros(self.ne)])
        r, c, v = _block_triplets(mq_elem, self.qdofs, self.qdofs)
        Mq = sp.coo_matrix((v, (r, c)), shape=(self.ne, self.ne)).tocsr()
        A = sp.bmat([[sp.diags(dinv), pa.tau * self.Bdiv],
                     [-self.BdivT, Mq]], format="csr")
        x = solve_linear(SparseMatrix(A), rhs)
        return x[:self.nc], x[self.nc:]

    def flow_cell_residual(self, state_prev, state: FieldState) -> np.ndarray:
        """Per-cell mass balance residual of the flow equation at a state."""
        pa = self.params
        dinv, abar, _ = self._flow_data(state.phi)
        divu = self.strain_per_cell(state.u) @ np.array([1.0, 1.0, 0.0])
        storage_prev = self.storage_coefficient(state_prev)
        return (dinv * state.p + abar * divu - storage_prev
                + pa.tau * (self.Bdiv @ state.q))

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
            u_n = self.solve_elasticity(phi_n, p_o)
            p_n, q_n = self.solve_flow(phi_n, u_n, state_prev,
                                       storage_prev=storage_prev)
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

    def monolithic_residual(self, state_prev: FieldState,
                            state_iter: FieldState) -> np.ndarray:
        """Stacked residual of all five blocks with every coupling implicit.

        Only the expansive double-well term and the storage term keep
        their previous-time-step evaluation; boundary rows of the
        displacement block read u - 0.
        """
        pa = self.params
        st = state_iter
        res = np.empty(self.ndofs)
        res[:2 * self.nv] = self.ch_residual(state_prev, st.phi, st.mu,
                                             st.u, st.p)
        cint, abar, swell, dinv = self._elasticity_data(st.phi)
        strain = self.strain_per_cell(st.u)
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
        mq_elem = kn.rt0_weighted_mass(self.phi_at_qp(st.phi), self.wq,
                                       self.psi_q, pa.kappa0, pa.kappa1)
        mq_q = np.einsum("cij,cj->ci", mq_elem, st.q[self.qdofs])
        res[self.off_q:] = _scatter_vector(mq_q, self.qdofs, self.ne) \
            - self.BdivT @ st.p
        return res

    def monolithic_jacobian(self, state_prev: FieldState,
                            state_iter: FieldState) -> SparseMatrix:
        """Exact Jacobian of monolithic_residual at the iterate."""
        pa = self.params
        st = state_iter
        phi_q = self.phi_at_qp(st.phi)
        strain = self.strain_per_cell(st.u)
        p_cell = np.ascontiguousarray(st.p)
        qloc = np.ascontiguousarray(st.q[self.qdofs])

        rows, cols, vals = [], [], []

        def add(trip, roff, coff):
            rows.append(trip[0] + roff)
            cols.append(trip[1] + coff)
            vals.append(trip[2])

        # (phi, *) and (mu, mu): constant blocks
        add(self._m_trip, self.off_phi, self.off_phi)
        add((self._k_trip[0], self._k_trip[1],
             pa.tau * pa.mobility * self._k_trip[2]), self.off_phi, self.off_mu)
        add(self._m_trip, self.off_mu, self.off_mu)

        # (mu, phi): stiffness, convex double well and energy couplings
        w_elem = kn.ch_jac(phi_q, self.wq, self.lam, strain, p_cell,
                           *self._kernel_params())
        add((self._k_trip[0], self._k_trip[1],
             -pa.gamma * pa.ell * self._k_trip[2]), self.off_mu, self.off_phi)
        r, c, v = _block_triplets(w_elem, self.cells, self.cells)
        add((r, c, -v), self.off_mu, self.off_phi)

        mu_u, mu_p, u_phi, p_phi, q_phi = kn.coupling_blocks(
            phi_q, self.wq, self.lam, strain, p_cell, qloc, self.B, self.psi_q,
            pa.xi, pa.phi_bar, pa.M0, pa.M1, pa.alpha0, pa.alpha1,
            pa.kappa0, pa.kappa1, pa.C0, pa.dC)

        r, c, v = _block_triplets(mu_u, self.cells, self.udofs)
        add((r, c, -v), self.off_mu, self.off_u)
        r, c, v = _block_triplets(mu_p[:, :, None], self.cells, self.pdofs)
        add((r, c, -v), self.off_mu, self.off_p)

        cint, abar, _, dinv = self._elasticity_data(st.phi)
        a_elem = np.einsum("cai,cab,cbj->cij", self.B, cint, self.B)
        add(_block_triplets(a_elem, self.udofs, self.udofs),
            self.off_u, self.off_u)
        add(_block_triplets(u_phi, self.udofs, self.cells),
            self.off_u, self.off_phi)
        up_elem = -abar[:, None] * self.drow
        add(_block_triplets(up_elem[:, :, None], self.udofs, self.pdofs),
            self.off_u, self.off_p)

        add(_block_triplets(p_phi, self.pdofs, self.cells),
            self.off_p, self.off_phi)
        pu_elem = abar[:, None] * self.drow
        add(_block_triplets(pu_elem[:, None, :], self.pdofs, self.udofs),
            self.off_p, self.off_u)
        add((np.arange(self.nc), np.arange(self.nc), dinv),
            self.off_p, self.off_p)
        add((self._bdiv_trip[0], self._bdiv_trip[1],
             pa.tau * self._bdiv_trip[2]), self.off_p, self.off_q)

        mq_elem = kn.rt0_weighted_mass(phi_q, self.wq, self.psi_q,
                                       pa.kappa0, pa.kappa1)
        add(_block_triplets(mq_elem, self.qdofs, self.qdofs),
            self.off_q, self.off_q)
        add((self._bdiv_trip[1], self._bdiv_trip[0],
             -self._bdiv_trip[2]), self.off_q, self.off_p)
        add(_block_triplets(q_phi, self.qdofs, self.cells),
            self.off_q, self.off_phi)

        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)

        # displacement Dirichlet rows become identity rows
        bmask = np.zeros(self.ndofs, dtype=bool)
        bmask[self.off_u + self.u_bdofs] = True
        keep = ~bmask[rows]
        rows = np.concatenate([rows[keep], self.off_u + self.u_bdofs])
        cols = np.concatenate([cols[keep], self.off_u + self.u_bdofs])
        vals = np.concatenate([vals[keep], np.ones(len(self.u_bdofs))])
        J = sp.coo_matrix((vals, (rows, cols)),
                          shape=(self.ndofs, self.ndofs)).tocsr()
        return SparseMatrix(J)

    def monolithic_step(self, state_prev: FieldState, config: SolverConfig):
        """One time step of plain Newton on the full coupled system."""
        t0 = time.perf_counter()
        state = state_prev.copy()
        state.n = state_prev.n + 1
        norm = np.inf
        for it in range(1, config.max_iter + 1):
            res = self.monolithic_residual(state_prev, state)
            J = self.monolithic_jacobian(state_prev, state)
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
