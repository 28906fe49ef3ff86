"""Generic per-cell finite-element assembly, the tests' independent oracle.

ChbSystem builds its operators from vectorized tables; this module builds
the same quantities the textbook way, one cell at a time through
cell_geometry and eval_basis, so the tests can check the production
tables against code that shares none of them.  Written for clarity, not
speed.

Four discretizations are supported on a StructuredTriMesh:

  p1   scalar first-order Lagrange (one dof per vertex)
  p1v  vector first-order Lagrange (two dofs per vertex, interleaved:
       dof 2*v is the x-component at vertex v, dof 2*v+1 the y-component);
       its dof map only, no basis tables
  p0   piecewise constants (one dof per cell)
  rt0  lowest-order Raviart-Thomas (one dof per edge: the normal flux
       density across the edge in its global orientation)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from chbfem.fem import QuadratureRule, default_rule
from chbfem.mesh import StructuredTriMesh

SPACE_KINDS = ("p1", "p1v", "p0", "rt0")


def cell_geometry(mesh: StructuredTriMesh, cell_index: int):
    """Area, vertex coordinates and P1 basis gradients of one cell.

    Returns
    -------
    (area, coords, grads)
        area : positive float; coords : (3, 2) vertex coordinates;
        grads : (3, 2) constant gradients of the barycentric basis
        functions (they sum to the zero vector).
    """
    if not 0 <= cell_index < mesh.num_cells:
        raise IndexError(f"cell index {cell_index} out of range [0, {mesh.num_cells})")
    coords = mesh.vertices[mesh.cells[cell_index]]
    d1 = coords[1] - coords[0]
    d2 = coords[2] - coords[0]
    twice_area = d1[0] * d2[1] - d1[1] * d2[0]
    grads = np.empty((3, 2))
    for k in range(3):
        a = coords[(k + 1) % 3]
        b = coords[(k + 2) % 3]
        grads[k] = (a[1] - b[1], b[0] - a[0])
    grads /= twice_area
    return 0.5 * twice_area, coords, grads


class FunctionSpace:
    """A discretization kind bound to a mesh, with its cell-to-dof map."""

    def __init__(self, kind: str, mesh: StructuredTriMesh):
        if kind not in SPACE_KINDS:
            raise ValueError(f"unknown space kind {kind!r}")
        self.kind = kind
        self.mesh = mesh
        if kind == "p1":
            self.num_dofs = mesh.num_vertices
            self.cell_dofs = mesh.cells.copy()
        elif kind == "p1v":
            self.num_dofs = 2 * mesh.num_vertices
            cd = np.empty((mesh.num_cells, 6), dtype=np.int64)
            cd[:, 0::2] = 2 * mesh.cells
            cd[:, 1::2] = 2 * mesh.cells + 1
            self.cell_dofs = cd
        elif kind == "p0":
            self.num_dofs = mesh.num_cells
            self.cell_dofs = np.arange(mesh.num_cells, dtype=np.int64)[:, None]
        else:  # rt0
            self.num_dofs = mesh.num_edges
            self.cell_dofs = mesh.cell_edges.copy()
        self.cell_dofs.setflags(write=False)


def p1_scalar(mesh) -> FunctionSpace:
    return FunctionSpace("p1", mesh)


def p1_vector(mesh) -> FunctionSpace:
    return FunctionSpace("p1v", mesh)


def p0_space(mesh) -> FunctionSpace:
    return FunctionSpace("p0", mesh)


def rt0_space(mesh) -> FunctionSpace:
    return FunctionSpace("rt0", mesh)


@dataclass
class FieldFunction:
    """Coefficient vector tied to its function space."""

    space: FunctionSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.shape != (self.space.num_dofs,):
            raise ValueError(
                f"coefficient vector has length {self.coefficients.shape}, "
                f"space has {self.space.num_dofs} dofs")


@dataclass
class BasisValues:
    """Basis data at one or more quadrature points (shapes depend on kind)."""

    values: np.ndarray
    grads: Optional[np.ndarray] = None
    divs: Optional[np.ndarray] = None


def eval_basis(space_kind, cell_geom, point, rt0_signs=None) -> BasisValues:
    """Evaluate local basis functions at one barycentric point.

    cell_geom is the (area, coords, grads) triple from cell_geometry.
    For rt0, rt0_signs holds the three +-1 orientation factors (defaults
    to all +1); the basis for local edge k then has constant divergence
    sign*|e_k|/area and unit normal flux across edge k, zero across the
    other two edges.
    """
    area, coords, grads = cell_geom
    lam = np.asarray(point, dtype=np.float64)
    if space_kind == "p1":
        return BasisValues(values=lam.copy(), grads=grads.copy())
    if space_kind == "p0":
        return BasisValues(values=np.array([1.0]))
    if space_kind == "rt0":
        signs = np.ones(3) if rt0_signs is None else np.asarray(rt0_signs, dtype=np.float64)
        x = lam @ coords
        vals = np.zeros((3, 2))
        divs = np.zeros(3)
        for k in range(3):
            elen = np.linalg.norm(coords[(k + 2) % 3] - coords[(k + 1) % 3])
            vals[k] = signs[k] * elen / (2.0 * area) * (x - coords[k])
            divs[k] = signs[k] * elen / area
        return BasisValues(values=vals, divs=divs)
    raise ValueError(f"unknown space kind {space_kind!r}")


@dataclass
class CellContext:
    """Everything a per-cell assembly kernel gets to see."""

    cell: int
    area: float
    w: np.ndarray                 # (nqp,) physical quadrature weights
    test: "SpaceTables"
    trial: Optional["SpaceTables"]
    coeffs: tuple


@dataclass
class SpaceTables:
    """Per-cell basis tables of one space at all quadrature points."""

    kind: str
    vals: np.ndarray              # p1: (3, nqp); rt0: (3, nqp, 2); p0: (1, nqp)
    grads: Optional[np.ndarray]   # p1: (3, 2)


def _space_tables(space: FunctionSpace, cell: int, geom, quad) -> SpaceTables:
    kind = space.kind
    nqp = len(quad.weights)
    if kind == "p1":
        return SpaceTables(kind, quad.points.T.copy(), geom[2].copy())
    if kind == "p0":
        return SpaceTables(kind, np.ones((1, nqp)), None)
    if kind != "rt0":
        raise ValueError(f"no per-cell tables for space kind {kind!r}")
    vals = np.empty((3, nqp, 2))
    for q in range(nqp):
        vals[:, q, :] = eval_basis(kind, geom, quad.points[q],
                                   rt0_signs=space.mesh.cell_signs[cell]).values
    return SpaceTables(kind, vals, None)


def _coeff_at_points(f: FieldFunction, cell: int, tables: SpaceTables) -> np.ndarray:
    local = f.coefficients[f.space.cell_dofs[cell]]
    if f.space.kind in ("p1", "p0"):
        return local @ tables.vals
    return np.einsum("i,iqc->qc", local, tables.vals)


def assemble_form(test_space: FunctionSpace,
                  trial_space: Optional[FunctionSpace],
                  kernel: Callable[[CellContext], np.ndarray],
                  coefficients: tuple = (),
                  quad: Optional[QuadratureRule] = None):
    """Kernel-driven assembly over all cells.

    The kernel receives a CellContext and returns the local element
    matrix (ntest_loc, ntrial_loc) when trial_space is given, or the
    local element vector (ntest_loc,) otherwise.  Coefficient fields are
    evaluated at the quadrature points and passed along in ctx.coeffs.

    Returns a CSR matrix with duplicates summed (matrix mode) or a dense
    residual vector.
    """
    mesh = test_space.mesh
    if trial_space is not None and trial_space.mesh is not mesh:
        raise ValueError("test and trial spaces live on different meshes")
    for f in coefficients:
        if f.space.mesh is not mesh:
            raise ValueError("coefficient field lives on a different mesh")
    quad = quad or default_rule()

    out_vec = np.zeros(test_space.num_dofs)
    rows, cols, vals = [], [], []
    coeff_tables = {}
    for c in range(mesh.num_cells):
        geom = cell_geometry(mesh, c)
        w = quad.weights * 2.0 * geom[0]
        test_t = _space_tables(test_space, c, geom, quad)
        trial_t = _space_tables(trial_space, c, geom, quad) if trial_space is not None else None
        cvals = []
        for f in coefficients:
            key = id(f.space)
            if key not in coeff_tables or f.space.kind == "rt0":
                coeff_tables[key] = _space_tables(f.space, c, geom, quad)
            cvals.append(_coeff_at_points(f, c, coeff_tables[key]))
        ctx = CellContext(cell=c, area=geom[0], w=w, test=test_t, trial=trial_t,
                          coeffs=tuple(cvals))
        elem = np.asarray(kernel(ctx), dtype=np.float64)
        test_dofs = test_space.cell_dofs[c]
        if trial_space is None:
            np.add.at(out_vec, test_dofs, elem)
        else:
            trial_dofs = trial_space.cell_dofs[c]
            rows.append(np.repeat(test_dofs, len(trial_dofs)))
            cols.append(np.tile(trial_dofs, len(test_dofs)))
            vals.append(elem.ravel())
    if trial_space is None:
        return out_vec
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(test_space.num_dofs, trial_space.num_dofs)).tocsr()


def mass_kernel(ctx: CellContext) -> np.ndarray:
    """Element mass matrix for scalar Lagrange/constant spaces."""
    return np.einsum("q,iq,jq->ij", ctx.w, ctx.test.vals, ctx.trial.vals)


def stiffness_kernel(ctx: CellContext) -> np.ndarray:
    """Element stiffness matrix for p1 (constant gradients)."""
    return ctx.area * (ctx.test.grads @ ctx.trial.grads.T)


def apply_dirichlet(A: sp.spmatrix, rhs: np.ndarray, dofs, value: float = 0.0,
                    symmetric: bool = False):
    """Impose essential conditions x[dofs] = value on an assembled system.

    Constrained rows become identity rows with rhs entries equal to value.
    With symmetric=True the columns are eliminated as well (moving the
    known values to the right-hand side), preserving symmetry.

    Returns the modified (CSR matrix, rhs) pair; inputs are not mutated.
    """
    n = A.shape[0]
    dofs = np.asarray(dofs, dtype=np.int64)
    if len(dofs) and (dofs.min() < 0 or dofs.max() >= n):
        raise IndexError("constrained dof out of range")
    mat = A.tocsr()
    b = np.array(rhs, dtype=np.float64, copy=True)
    keep = np.ones(n)
    keep[dofs] = 0.0
    D = sp.diags(keep)
    if symmetric:
        lifted = np.zeros(n)
        lifted[dofs] = value
        b -= mat @ lifted
        mat = D @ mat @ D
    else:
        mat = D @ mat
    mat = (mat + sp.diags(1.0 - keep)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    b[dofs] = value
    return mat, b


def interpolate(space: FunctionSpace, expr: Callable) -> FieldFunction:
    """Nodal interpolation of a pointwise expression.

    expr(x, y) returns a scalar for p1/p0 and a length-2 vector for rt0.
    Dof locations are vertices (p1), centroids (p0) and edge midpoints
    (rt0, where the dof is the normal component in the global edge
    orientation).
    """
    mesh = space.mesh
    if space.kind == "p1":
        coefs = np.array([expr(x, y) for x, y in mesh.vertices], dtype=np.float64)
    elif space.kind == "p0":
        cent = mesh.vertices[mesh.cells].mean(axis=1)
        coefs = np.array([expr(x, y) for x, y in cent], dtype=np.float64)
    elif space.kind == "rt0":  # normal flux density at edge midpoints
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        mid = 0.5 * (a + b)
        tang = b - a
        tang /= np.linalg.norm(tang, axis=1)[:, None]
        normal = np.column_stack([tang[:, 1], -tang[:, 0]])
        coefs = np.array([np.dot(expr(x, y), nrm)
                          for (x, y), nrm in zip(mid, normal)])
    else:
        raise ValueError(f"no interpolation into space kind {space.kind!r}")
    return FieldFunction(space, coefs)


def integrate_scalar(arg, mesh: Optional[StructuredTriMesh] = None,
                     quad: Optional[QuadratureRule] = None) -> float:
    """Integrate a scalar FieldFunction or a pointwise expression over the mesh."""
    quad = quad or default_rule()
    if isinstance(arg, FieldFunction):
        space = arg.space
        if space.kind not in ("p1", "p0"):
            raise ValueError("integrate_scalar expects a scalar field")
        mesh = space.mesh
        total = 0.0
        for c in range(mesh.num_cells):
            geom = cell_geometry(mesh, c)
            w = quad.weights * 2.0 * geom[0]
            local = arg.coefficients[space.cell_dofs[c]]
            vals = local @ quad.points.T if space.kind == "p1" else np.full(len(w), local[0])
            total += float(w @ vals)
        return total
    if mesh is None:
        raise ValueError("integrating an expression requires a mesh")
    total = 0.0
    for c in range(mesh.num_cells):
        geom = cell_geometry(mesh, c)
        w = quad.weights * 2.0 * geom[0]
        x = quad.points @ geom[1]
        total += float(w @ np.array([arg(px, py) for px, py in x]))
    return total
