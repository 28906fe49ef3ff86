"""Quadrature on triangles, the cell geometry, and the discretization of
one mesh.

A Discretization holds every table that ChbSystem reads from the mesh
alone: the cell geometry, the P1 gradients and strain-displacement
matrices, the quadrature points and weights, the cell-to-dof maps (P1
for phi and mu, vector P1 for u, P0 for p and RT0 for q), the element
blocks of the P1 mass and stiffness matrices, the constant matrices M,
K and Bdiv, and the vectorized RT0 basis at any barycentric points.
None of it depends on the material parameters, so every system on a
mesh shares one: discretization(mesh) builds it on its first call for
that mesh object and returns the same object after, for as long as the
mesh lives.  Its arrays and matrix data are read-only.

A generic per-cell assembly path, used only as an oracle, lives with the
tests in tests/reference_fem.py.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .linalg import CsrPattern
from .mesh import StructuredTriMesh


class QuadratureRule(NamedTuple):
    """Symmetric rule on the reference triangle.

    points are barycentric coordinates, weights sum to the reference
    triangle area 1/2; physical weights are weights * 2 * cell_area.
    """

    points: np.ndarray
    weights: np.ndarray


def default_rule() -> QuadratureRule:
    """Seven-point symmetric rule, exact through polynomial degree 5."""
    a1 = (6.0 - np.sqrt(15.0)) / 21.0
    a2 = (6.0 + np.sqrt(15.0)) / 21.0
    w1 = (155.0 - np.sqrt(15.0)) / 1200.0
    w2 = (155.0 + np.sqrt(15.0)) / 1200.0
    pts = [(1 / 3, 1 / 3, 1 / 3)]
    wts = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        b = 1.0 - 2.0 * a
        pts += [(b, a, a), (a, b, a), (a, a, b)]
        wts += [w, w, w]
    return QuadratureRule(np.array(pts), 0.5 * np.array(wts))


def cell_geometry(mesh: StructuredTriMesh):
    """(coords, two_area, signed_lengths) of every cell: the vertex
    coordinates (nc, 3, 2), twice the signed area (nc,) and the length of
    each local edge, signed by the cell's orientation of it, (nc, 3)."""
    coords = mesh.vertices[mesh.cells]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    two_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    edge_vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    elen_loc = np.linalg.norm(edge_vec, axis=1)[mesh.cell_edges]
    return coords, two_area, mesh.cell_signs * elen_loc


def block_indices(rows, cols):
    """Row and column of each entry of per-cell blocks, in elem.ravel() order."""
    a = rows.shape[1]
    b = cols.shape[1]
    r = np.repeat(rows[:, :, None], b, axis=2).ravel()
    c = np.repeat(cols[:, None, :], a, axis=1).ravel()
    return r, c


@dataclass(frozen=True, eq=False)
class Discretization:
    """The parameter-free tables of one mesh, shared by every system on it.

    Attributes
    ----------
    coords, two_area, areas, signed_lengths
        cell_geometry, and the cell areas.
    grads : (nc, 3, 2)
        Gradients of the P1 basis functions per cell.
    B : (nc, 3, 6)
        Strain-displacement matrices, Voigt rows (xx, yy, xy), local u
        dofs (x0, y0, x1, y1, x2, y2); drow (nc, 6) is its divergence
        row, rows 0 and 1 added.
    lam : (nqp, 3), wq : (nc, nqp)
        Quadrature points (barycentric) and physical weights per cell.
    cells, udofs, pdofs, qdofs, u_bdofs
        Cell-to-dof maps of P1, vector P1 (interleaved per vertex), P0
        and RT0, and the displacement dofs on the boundary, sorted.
    m_elem, k_elem : (nc, 3, 3)
        Element blocks of the P1 mass and stiffness matrices.
    p1 : CsrPattern
        The P1 layout; M and K are its matrices, with the bits of a
        COO-to-CSR conversion of their element blocks.
    M, K, Bdiv, BdivT
        P1 mass and stiffness, the RT0 divergence (cells x edges) and its
        transpose, as CSR matrices.
    """

    coords: np.ndarray
    two_area: np.ndarray
    areas: np.ndarray
    signed_lengths: np.ndarray
    grads: np.ndarray
    B: np.ndarray
    drow: np.ndarray
    lam: np.ndarray
    wq: np.ndarray
    cells: np.ndarray
    udofs: np.ndarray
    pdofs: np.ndarray
    qdofs: np.ndarray
    u_bdofs: np.ndarray
    m_elem: np.ndarray
    k_elem: np.ndarray
    p1: CsrPattern
    M: sp.csr_matrix
    K: sp.csr_matrix
    Bdiv: sp.csr_matrix
    BdivT: sp.csr_matrix

    def rt0_basis(self, points) -> np.ndarray:
        """Signed RT0 basis vectors of every cell at barycentric points.

        points has shape (npts, 3); returns (num_cells, npts, 3, 2), the
        basis function of local edge k being sign*|e_k|/(2*area) * (x - x_k).
        """
        coords = self.coords
        fac = self.signed_lengths / self.two_area[:, None]
        x = np.einsum("qi,cia->cqa", points, coords)
        return np.ascontiguousarray(
            fac[:, None, :, None] * (x[:, :, None, :] - coords[:, None, :, :]))

    @cached_property
    def centroid_basis(self) -> np.ndarray:
        """The RT0 basis at each cell's centroid, (nc, 3, 2), read-only;
        built on first use."""
        psi = self.rt0_basis(np.full((1, 3), 1.0 / 3.0))[:, 0]
        psi.setflags(write=False)
        return psi


def _discretize(mesh: StructuredTriMesh) -> Discretization:
    """Build the Discretization of a mesh."""
    nv, nc = mesh.num_vertices, mesh.num_cells
    coords, two_area, signed_lengths = cell_geometry(mesh)
    areas = 0.5 * two_area
    grads = np.empty((nc, 3, 2))
    for k in range(3):
        a = coords[:, (k + 1) % 3]
        b = coords[:, (k + 2) % 3]
        grads[:, k, 0] = (a[:, 1] - b[:, 1]) / two_area
        grads[:, k, 1] = (b[:, 0] - a[:, 0]) / two_area

    quad = default_rule()
    lam = np.ascontiguousarray(quad.points)
    wq = np.ascontiguousarray(quad.weights[None, :] * two_area[:, None])

    B = np.zeros((nc, 3, 6))
    B[:, 0, 0::2] = grads[:, :, 0]
    B[:, 1, 1::2] = grads[:, :, 1]
    B[:, 2, 0::2] = grads[:, :, 1]
    B[:, 2, 1::2] = grads[:, :, 0]
    drow = B[:, 0, :] + B[:, 1, :]

    cells = mesh.cells
    udofs = np.empty((nc, 6), dtype=np.int64)
    udofs[:, 0::2] = 2 * cells
    udofs[:, 1::2] = 2 * cells + 1
    pdofs = np.arange(nc, dtype=np.int64)[:, None]
    qdofs = mesh.cell_edges
    bverts = np.flatnonzero(mesh.boundary_vertex_flags)
    u_bdofs = np.sort(np.concatenate([2 * bverts, 2 * bverts + 1]))

    m_elem = (areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    k_elem = areas[:, None, None] * np.einsum("cia,cja->cij", grads, grads)
    p1 = CsrPattern(*block_indices(cells, cells), (nv, nv))
    M = p1.matrix(p1.sum(m_elem.ravel()))
    K = p1.matrix(p1.sum(k_elem.ravel()))
    Bdiv = sp.coo_matrix((signed_lengths.ravel(), block_indices(pdofs, qdofs)),
                         shape=(nc, mesh.num_edges)).tocsr()
    BdivT = Bdiv.T.tocsr()

    for arr in (coords, two_area, areas, signed_lengths, grads, B, drow, lam,
                wq, udofs, pdofs, u_bdofs, m_elem, k_elem):
        arr.setflags(write=False)
    for mat in (M, K, Bdiv, BdivT):
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
    return Discretization(
        coords=coords, two_area=two_area, areas=areas,
        signed_lengths=signed_lengths, grads=grads, B=B, drow=drow, lam=lam,
        wq=wq, cells=cells, udofs=udofs, pdofs=pdofs, qdofs=qdofs,
        u_bdofs=u_bdofs, m_elem=m_elem, k_elem=k_elem, p1=p1, M=M, K=K,
        Bdiv=Bdiv, BdivT=BdivT)


# one Discretization per live mesh object, looked up by identity: two
# meshes of the same size have one each.  A Discretization holds no
# reference to its mesh, so its entry goes when the mesh does.
_BY_MESH: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def discretization(mesh: StructuredTriMesh) -> Discretization:
    """The one Discretization of a mesh object, built on first call."""
    found = _BY_MESH.get(mesh)
    if found is None:
        found = _BY_MESH[mesh] = _discretize(mesh)
    return found
