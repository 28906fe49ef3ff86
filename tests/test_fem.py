import math

import numpy as np
import pytest
import scipy.sparse as sp

from chbfem import fem
from chbfem.fem import default_rule
from chbfem.linalg import solve_linear
from chbfem.mesh import build_unit_square_mesh
from reference_fem import (FieldFunction, FunctionSpace, apply_dirichlet,
                           assemble_form, cell_geometry, eval_basis,
                           integrate_scalar, interpolate, mass_kernel, p0_space,
                           p1_scalar, p1_vector, rt0_space, stiffness_kernel)

REFERENCE_GEOM = (0.5,
                  np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]))


def exact_monomial_integral(a, b):
    # over the reference triangle {x, y >= 0, x + y <= 1}
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_quadrature_weights():
    rule = default_rule()
    assert np.all(rule.weights > 0)
    assert np.isclose(rule.weights.sum(), 0.5, atol=1e-15)


def test_quadrature_exactness_through_degree_five():
    rule = default_rule()
    coords = REFERENCE_GEOM[1]
    x = rule.points @ coords
    w = rule.weights * 2.0 * REFERENCE_GEOM[0]
    for a in range(6):
        for b in range(6 - a):
            got = float(w @ (x[:, 0] ** a * x[:, 1] ** b))
            assert got == pytest.approx(exact_monomial_integral(a, b), abs=1e-15)


def test_p1_basis_at_barycenter():
    vals = eval_basis("p1", REFERENCE_GEOM, (1 / 3, 1 / 3, 1 / 3))
    assert np.allclose(vals.values, 1.0 / 3.0)
    assert np.allclose(vals.grads.sum(axis=0), 0.0, atol=1e-15)


def test_p0_basis():
    vals = eval_basis("p0", REFERENCE_GEOM, (0.2, 0.5, 0.3))
    assert vals.values[0] == 1.0


def test_rt0_divergence_on_reference():
    # hypotenuse (opposite vertex 0): |div| = |E|/|K| = sqrt(2)/(1/2)
    vals = eval_basis("rt0", REFERENCE_GEOM, (1 / 3, 1 / 3, 1 / 3))
    assert np.isclose(abs(vals.divs[0]), 2.0 * np.sqrt(2.0), atol=1e-14)
    sgn = eval_basis("rt0", REFERENCE_GEOM, (1 / 3, 1 / 3, 1 / 3),
                     rt0_signs=(-1, 1, 1))
    assert np.isclose(sgn.divs[0], -2.0 * np.sqrt(2.0), atol=1e-14)


def test_unknown_space_kind():
    with pytest.raises(ValueError):
        eval_basis("p3", REFERENCE_GEOM, (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(ValueError):
        FunctionSpace("p7", build_unit_square_mesh(1))


def test_partition_of_unity_at_random_points():
    rng = np.random.default_rng(5)
    mesh = build_unit_square_mesh(3)
    geom = cell_geometry(mesh, 4)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(3))
        vals = eval_basis("p1", geom, lam)
        assert np.isclose(vals.values.sum(), 1.0, atol=1e-14)
        assert np.allclose(vals.grads.sum(axis=0), 0.0, atol=1e-13)


def test_rt0_normal_flux_duality():
    # mean normal flux of basis i across edge j (global orientation) is delta_ij
    mesh = build_unit_square_mesh(2)
    gauss = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    for c in range(mesh.num_cells):
        geom = cell_geometry(mesh, c)
        verts = mesh.cells[c]
        for j in range(3):
            a = mesh.vertices[verts[(j + 1) % 3]]
            b = mesh.vertices[verts[(j + 2) % 3]]
            edge = mesh.edges[mesh.cell_edges[c, j]]
            ga, gb = mesh.vertices[edge[0]], mesh.vertices[edge[1]]
            tang = (gb - ga) / np.linalg.norm(gb - ga)
            normal = np.array([tang[1], -tang[0]])
            flux = np.zeros(3)
            for s in gauss:
                x = (1 - s) * a + s * b
                lam = _barycentric(geom[1], x)
                vals = eval_basis("rt0", geom, lam, rt0_signs=mesh.cell_signs[c])
                flux += 0.5 * vals.values @ normal
            want = np.zeros(3)
            want[j] = 1.0
            assert np.allclose(flux, want, atol=1e-12)


def test_rt0_basis_matches_per_cell_evaluation():
    rng = np.random.default_rng(7)
    mesh = build_unit_square_mesh(3)
    points = rng.dirichlet(np.ones(3), size=4)
    table = fem.rt0_basis(mesh, points)
    assert table.shape == (mesh.num_cells, 4, 3, 2)
    for c in range(mesh.num_cells):
        geom = cell_geometry(mesh, c)
        for q, lam in enumerate(points):
            vals = eval_basis("rt0", geom, lam, rt0_signs=mesh.cell_signs[c])
            assert np.allclose(table[c, q], vals.values, rtol=0, atol=1e-13)


def _barycentric(coords, x):
    T = np.column_stack([coords[1] - coords[0], coords[2] - coords[0]])
    ab = np.linalg.solve(T, x - coords[0])
    return np.array([1.0 - ab.sum(), ab[0], ab[1]])


def test_p1_mass_matrix_reference_triangle():
    rule = default_rule()
    w = rule.weights * 2.0 * REFERENCE_GEOM[0]
    lam = rule.points
    M = np.einsum("q,qi,qj->ij", w, lam, lam)
    want = (np.ones((3, 3)) + np.eye(3)) / 24.0
    assert np.allclose(M, want, atol=1e-15)


def test_p1_stiffness_matrix_reference_triangle():
    grads = REFERENCE_GEOM[2]
    K = REFERENCE_GEOM[0] * grads @ grads.T
    want = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(K, want, atol=1e-15)


def test_assembled_mass_matrix_properties():
    mesh = build_unit_square_mesh(4)
    V = p1_scalar(mesh)
    M = assemble_form(V, V, mass_kernel).toarray()
    assert np.allclose(M, M.T, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(M) > 0)
    # total sum: integral of 1 over the unit square
    assert np.isclose(M.sum(), 1.0, atol=1e-12)
    # row sums are the basis integrals: one third of the vertex patch area
    patch = np.zeros(mesh.num_vertices)
    for c in range(mesh.num_cells):
        area, _, _ = cell_geometry(mesh, c)
        patch[mesh.cells[c]] += area
    assert np.allclose(M.sum(axis=1), patch / 3.0, atol=1e-14)


def test_assembled_stiffness_matrix_properties():
    mesh = build_unit_square_mesh(4)
    V = p1_scalar(mesh)
    K = assemble_form(V, V, stiffness_kernel).toarray()
    assert np.allclose(K, K.T, atol=1e-13)
    # kernel contains exactly the constants under natural conditions
    assert np.allclose(K @ np.ones(mesh.num_vertices), 0.0, atol=1e-13)
    eigs = np.linalg.eigvalsh(K)
    assert eigs[0] > -1e-12
    assert np.sum(np.abs(eigs) < 1e-10) == 1


def test_assemble_form_vector_mode_and_coefficients():
    mesh = build_unit_square_mesh(3)
    V = p1_scalar(mesh)
    f = interpolate(V, lambda x, y: x)

    def load(ctx):
        return np.einsum("q,q,iq->i", ctx.w, ctx.coeffs[0], ctx.test.vals)

    b = assemble_form(V, None, load, coefficients=(f,))
    # sum of the load vector is the integral of x over the square
    assert np.isclose(b.sum(), 0.5, atol=1e-13)


def test_assemble_form_space_mismatch():
    V = p1_scalar(build_unit_square_mesh(2))
    W = p1_scalar(build_unit_square_mesh(3))
    with pytest.raises(ValueError):
        assemble_form(V, W, mass_kernel)


def test_apply_dirichlet_row_replacement():
    A = sp.csr_matrix([[2.0, 1.0], [1.0, 3.0]])
    Ab, bb = apply_dirichlet(A, np.array([3.0, 5.0]), [0], value=0.0)
    dense = Ab.toarray()
    assert np.array_equal(dense[0], [1.0, 0.0])
    assert bb[0] == 0.0
    x = solve_linear(Ab, bb)
    assert x[0] == pytest.approx(0.0, abs=1e-14)


def test_apply_dirichlet_symmetric_elimination():
    A = sp.coo_matrix(([2.0, 1.0, 1.0, 3.0, 4.0, 1.0, 1.0],
                       ([0, 0, 1, 1, 2, 2, 1], [0, 1, 0, 1, 2, 1, 2])),
                      shape=(3, 3)).tocsr()
    Ab, bb = apply_dirichlet(A, np.array([1.0, 1.0, 1.0]), [2], value=2.0,
                             symmetric=True)
    dense = Ab.toarray()
    assert np.allclose(dense, dense.T)
    x = solve_linear(Ab, bb)
    assert x[2] == pytest.approx(2.0, abs=1e-14)
    # eliminated system equals solving the full system with x2 fixed
    assert np.allclose(np.array([[2.0, 1.0], [1.0, 3.0]]) @ x[:2],
                       np.array([1.0, 1.0 - 2.0]), atol=1e-12)


def test_apply_dirichlet_out_of_range():
    A = sp.csr_matrix([[1.0]])
    with pytest.raises(IndexError):
        apply_dirichlet(A, np.zeros(1), [5])


def test_interpolate_constant_and_step():
    mesh = build_unit_square_mesh(2)
    V = p1_scalar(mesh)
    ones = interpolate(V, lambda x, y: 1.0)
    assert np.all(ones.coefficients == 1.0)
    step = interpolate(V, lambda x, y: 1.0 if x >= 0.5 else 0.0)
    for v, (x, _) in enumerate(mesh.vertices):
        assert step.coefficients[v] == (1.0 if x >= 0.5 else 0.0)
    zero_p = interpolate(p0_space(mesh), lambda x, y: 0.0)
    assert np.all(zero_p.coefficients == 0.0)


def test_interpolate_rt0_constant_field_is_exact():
    mesh = build_unit_square_mesh(3)
    Q = rt0_space(mesh)
    qf = interpolate(Q, lambda x, y: np.array([1.0, 2.0]))
    # RT0 contains constants: reconstructed field at centroids equals (1, 2)
    for c in range(mesh.num_cells):
        geom = cell_geometry(mesh, c)
        vals = eval_basis("rt0", geom, (1 / 3, 1 / 3, 1 / 3),
                          rt0_signs=mesh.cell_signs[c])
        rec = qf.coefficients[mesh.cell_edges[c]] @ vals.values
        assert np.allclose(rec, [1.0, 2.0], atol=1e-12)


def test_integrate_scalar():
    mesh = build_unit_square_mesh(4)
    V = p1_scalar(mesh)
    assert integrate_scalar(interpolate(V, lambda x, y: 1.0)) == pytest.approx(1.0, abs=1e-13)
    assert integrate_scalar(interpolate(V, lambda x, y: x)) == pytest.approx(0.5, abs=1e-13)
    # the pointwise step integrates to the half-square area (interface on a mesh line)
    assert integrate_scalar(lambda x, y: 1.0 if x >= 0.5 else 0.0,
                            mesh=mesh) == pytest.approx(0.5, abs=1e-13)


def test_field_function_length_check():
    V = p1_scalar(build_unit_square_mesh(2))
    with pytest.raises(ValueError):
        FieldFunction(V, np.zeros(3))


def test_dof_counts():
    mesh = build_unit_square_mesh(3)
    assert p1_scalar(mesh).num_dofs == mesh.num_vertices
    assert p1_vector(mesh).num_dofs == 2 * mesh.num_vertices
    assert p0_space(mesh).num_dofs == mesh.num_cells
    assert rt0_space(mesh).num_dofs == mesh.num_edges
