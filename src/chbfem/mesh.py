"""Structured triangular meshes of the unit square.

Each of the n x n squares is split along its lower-left to upper-right
diagonal, giving 2*n^2 counterclockwise triangles.  Edge entities carry a
global orientation (low vertex index -> high vertex index) together with
per-cell signs, which is exactly the bookkeeping lowest-order
Raviart-Thomas elements need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class StructuredTriMesh:
    """Immutable triangulation of the unit square.

    A mesh equals only itself and hashes by identity, so tables built
    from it can be looked up by the mesh object (fem.discretization).

    Attributes
    ----------
    n : int
        Cells per side of the underlying square grid.
    vertices : (nv, 2) float array
        Vertex coordinates, nv = (n+1)^2.
    cells : (nc, 3) int array
        Vertex indices per triangle, counterclockwise, nc = 2*n^2.
    edges : (ne, 2) int array
        Vertex index pairs, oriented low -> high, ne = 3*n^2 + 2*n.
    cell_edges : (nc, 3) int array
        Global edge index of the local edge opposite each local vertex.
    cell_signs : (nc, 3) int array
        +1 if the cell's outward normal on that edge matches the global
        edge orientation, else -1.
    boundary_vertex_flags : (nv,) bool array
    """

    n: int
    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    cell_signs: np.ndarray
    boundary_vertex_flags: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


def build_unit_square_mesh(n: int) -> StructuredTriMesh:
    """Triangulate the unit square with n cells per side.

    Parameters
    ----------
    n : int
        Number of squares per side; each is split into two triangles by
        the diagonal from its lower-left to its upper-right corner.

    Returns
    -------
    StructuredTriMesh
        With (n+1)^2 vertices, 2*n^2 cells and 3*n^2 + 2*n edges.

    Raises
    ------
    ValueError
        If n < 1.
    """
    if n < 1:
        raise ValueError(f"need at least one cell per side, got n={n}")

    ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    vertices = np.column_stack([ix.ravel() / n, iy.ravel() / n]).astype(np.float64)

    # vertex index of grid point (i, j) is j*(n+1) + i
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = (j * (n + 1) + i).ravel()
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1

    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    cells[0::2] = lower
    cells[1::2] = upper

    # local edge k sits opposite local vertex k
    nxt = cells[:, [1, 2, 0]]
    prv = cells[:, [2, 0, 1]]
    # edges numbered in (low, high) vertex order, through one integer key
    # per pair: a 1-D unique is far cheaper than np.unique(axis=0)
    nv = vertices.shape[0]
    keys, inverse = np.unique(np.minimum(nxt, prv) * nv + np.maximum(nxt, prv),
                              return_inverse=True)
    edges = np.stack(np.divmod(keys, nv), axis=-1)
    cell_edges = inverse.reshape(-1, 3).astype(np.int64)
    cell_signs = np.where(nxt < prv, 1, -1).astype(np.int64)

    on_x = (ix.ravel() == 0) | (ix.ravel() == n)
    on_y = (iy.ravel() == 0) | (iy.ravel() == n)
    boundary_vertex_flags = on_x | on_y

    for arr in (vertices, cells, edges, cell_edges, cell_signs,
                boundary_vertex_flags):
        arr.setflags(write=False)

    return StructuredTriMesh(
        n=n,
        vertices=vertices,
        cells=cells,
        edges=edges,
        cell_edges=cell_edges,
        cell_signs=cell_signs,
        boundary_vertex_flags=boundary_vertex_flags,
    )

