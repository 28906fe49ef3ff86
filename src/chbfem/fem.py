"""Quadrature on triangles and the vectorized lowest-order Raviart-Thomas basis.

ChbSystem builds every element table it needs (P1 for phi and mu,
vector P1 for u, P0 for p and RT0 for q) directly from these and the
mesh arrays.  A generic per-cell assembly path, used only as an oracle,
lives with the tests in tests/reference_fem.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import StructuredTriMesh


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric rule on the reference triangle.

    points are barycentric coordinates, weights sum to the reference
    triangle area 1/2; physical weights are weights * 2 * cell_area.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")


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
    return QuadratureRule(points=np.array(pts), weights=0.5 * np.array(wts), degree=5)


def rt0_basis(mesh: StructuredTriMesh, points) -> np.ndarray:
    """Signed RT0 basis vectors of every cell at barycentric points.

    points has shape (npts, 3); returns (num_cells, npts, 3, 2), the basis
    function of local edge k being sign*|e_k|/(2*area) * (x - x_k).
    """
    coords = mesh.vertices[mesh.cells]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    two_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    edge_vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    elen_loc = np.linalg.norm(edge_vec, axis=1)[mesh.cell_edges]
    fac = mesh.cell_signs * elen_loc / two_area[:, None]
    x = np.einsum("qi,cia->cqa", points, coords)
    return np.ascontiguousarray(
        fac[:, None, :, None] * (x[:, :, None, :] - coords[:, None, :, :]))
