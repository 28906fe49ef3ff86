import dataclasses

import numpy as np
import pytest

from chbfem.mesh import build_unit_square_mesh
from chbfem.model import MaterialParams
from chbfem.solvers import ChbSystem
from reference_fem import cell_geometry


def signed_area(coords):
    d1 = coords[1] - coords[0]
    d2 = coords[2] - coords[0]
    return 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])


@pytest.mark.parametrize("n,nv,nc,ne", [(1, 4, 2, 5), (2, 9, 8, 16), (65, 66 * 66, 2 * 65 * 65, 3 * 65 * 65 + 2 * 65)])
def test_entity_counts(n, nv, nc, ne):
    mesh = build_unit_square_mesh(n)
    assert mesh.num_vertices == nv
    assert mesh.num_cells == nc
    assert mesh.num_edges == ne


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 65])
def test_euler_relation(n):
    mesh = build_unit_square_mesh(n)
    assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 1


def test_mesh_size_matches_table():
    # h is the triangle hypotenuse: sqrt(2)/65 for n = 65
    mesh = build_unit_square_mesh(65)
    elens = np.linalg.norm(mesh.vertices[mesh.edges[:, 1]]
                           - mesh.vertices[mesh.edges[:, 0]], axis=1)
    assert np.isclose(elens.max(), np.sqrt(2.0) / 65.0, rtol=0, atol=1e-15)


def test_areas_positive_and_sum_to_one():
    for n in range(1, 66):
        mesh = build_unit_square_mesh(n)
        total = 0.0
        for c in range(mesh.num_cells):
            a = signed_area(mesh.vertices[mesh.cells[c]])
            assert a > 0
            total += a
        assert abs(total - 1.0) <= 1e-12


def system_geometry(n):
    """Mesh and the areas and gradients ChbSystem builds on it."""
    mesh = build_unit_square_mesh(n)
    system = ChbSystem(mesh, MaterialParams())
    return mesh, system.fem.areas, system.fem.grads


def test_n1_cell_areas_are_half():
    mesh, areas, _ = system_geometry(1)
    for c in range(2):
        area, _, _ = cell_geometry(mesh, c)
        assert np.isclose(area, 0.5, atol=1e-15)
        assert np.isclose(areas[c], area, rtol=0, atol=1e-15)


def test_right_triangle_area_on_n2():
    # every cell of the n=2 mesh is a right triangle with legs 1/2
    mesh, areas, _ = system_geometry(2)
    for c in range(mesh.num_cells):
        area, _, _ = cell_geometry(mesh, c)
        assert np.isclose(area, 1.0 / 8.0, atol=1e-15)
        assert np.isclose(areas[c], area, rtol=0, atol=1e-15)


def test_basis_gradients_sum_to_zero():
    for n in (1, 2, 3):
        mesh, areas, grads = system_geometry(n)
        for c in range(mesh.num_cells):
            ref_area, _, ref_grads = cell_geometry(mesh, c)
            assert np.isclose(areas[c], ref_area, rtol=0, atol=1e-15)
            assert np.allclose(grads[c], ref_grads, rtol=0, atol=1e-14)
            assert np.allclose(grads[c].sum(axis=0), 0.0, atol=1e-14)


def test_gradients_reproduce_barycentric_functions():
    for n in (1, 2, 3):
        mesh, _, grads = system_geometry(n)
        for c in range(mesh.num_cells):
            coords = mesh.vertices[mesh.cells[c]]
            # lambda_i is affine with lambda_i(x_j) = delta_ij
            for i in range(3):
                for j in range(3):
                    val = 1.0 + grads[c, i] @ (coords[j] - coords[i])
                    assert np.isclose(val, 1.0 if i == j else 0.0, atol=1e-12)


def _edges_on_the_boundary(mesh):
    """Whether each edge lies on a side of the unit square."""
    ends = mesh.vertices[mesh.edges]
    return np.any((ends[:, 0] == ends[:, 1]) & ((ends[:, 0] == 0.0)
                                               | (ends[:, 0] == 1.0)), axis=1)


def test_interior_edges_have_two_cells_with_opposite_signs():
    mesh = build_unit_square_mesh(4)
    seen = {}
    for c in range(mesh.num_cells):
        for k in range(3):
            seen.setdefault(mesh.cell_edges[c, k], []).append(mesh.cell_signs[c, k])
    assert len(seen) == mesh.num_edges
    on_boundary = _edges_on_the_boundary(mesh)
    for e, signs in seen.items():
        if on_boundary[e]:
            assert len(signs) == 1
        else:
            assert len(signs) == 2 and signs[0] == -signs[1]


def test_determinism():
    a = build_unit_square_mesh(5)
    b = build_unit_square_mesh(5)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.cell_edges, b.cell_edges)
    assert np.array_equal(a.cell_signs, b.cell_signs)


@pytest.mark.parametrize("n", [*range(1, 21), 65])
def test_edges_match_a_row_unique_of_the_vertex_pairs(n):
    # the oracle numbers edges by np.unique over (low, high) rows
    mesh = build_unit_square_mesh(n)
    nxt = mesh.cells[:, [1, 2, 0]]
    prv = mesh.cells[:, [2, 0, 1]]
    pairs = np.stack([np.minimum(nxt, prv), np.maximum(nxt, prv)], axis=-1)
    edges, inverse = np.unique(pairs.reshape(-1, 2), axis=0,
                               return_inverse=True)
    for got, want in ((mesh.edges, edges),
                      (mesh.cell_edges, inverse.reshape(-1, 3))):
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_edges_oriented_low_to_high():
    mesh = build_unit_square_mesh(4)
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])


def test_boundary_dofs_vertex():
    assert np.count_nonzero(build_unit_square_mesh(1).boundary_vertex_flags) == 4
    assert np.count_nonzero(build_unit_square_mesh(2).boundary_vertex_flags) == 8


def test_boundary_dofs_edge():
    # the RT0 dofs (cell_edges) of a boundary edge belong to one cell alone
    mesh = build_unit_square_mesh(2)
    cells_per_edge = np.bincount(mesh.cell_edges.ravel(), minlength=mesh.num_edges)
    assert np.array_equal(cells_per_edge == 1, _edges_on_the_boundary(mesh))
    assert np.count_nonzero(cells_per_edge == 1) == 8


def test_rejects_zero_cells():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)


def test_cell_geometry_out_of_range():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(IndexError):
        cell_geometry(mesh, mesh.num_cells)


def test_mesh_arrays_immutable():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 3.0


def test_mesh_hashes_and_compares_by_identity():
    # tables built from a mesh are looked up by the mesh object, so it
    # must hash, and a second mesh of the same n is another mesh
    a, b = build_unit_square_mesh(3), build_unit_square_mesh(3)
    assert hash(a) == hash(a) and a == a
    assert a != b and not a == b
    assert len({a, b, a}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.n = 4
