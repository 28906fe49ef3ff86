"""Function spaces, quadrature and element-level assembly.

Four discretizations are supported on a StructuredTriMesh:

  p1   scalar first-order Lagrange (one dof per vertex)
  p1v  vector first-order Lagrange (two dofs per vertex, interleaved:
       dof 2*v is the x-component at vertex v, dof 2*v+1 the y-component)
  p0   piecewise constants (one dof per cell)
  rt0  lowest-order Raviart-Thomas (one dof per edge: the normal flux
       density across the edge in its global orientation)

assemble_form is the general, kernel-driven assembly loop.  It is written
for clarity, not speed; the time-critical solver assembly goes through the
specialized kernels in chbfem._kernels and is cross-checked against this
path in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .linalg import SparseMatrix, TripletBuffer, compress
from .mesh import StructuredTriMesh, cell_geometry

SPACE_KINDS = ("p1", "p1v", "p0", "rt0")


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

    @property
    def local_dofs(self) -> int:
        return self.cell_dofs.shape[1]

    def zero_field(self) -> "FieldFunction":
        return FieldFunction(self, np.zeros(self.num_dofs))


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

    cell_geom is the (area, coords, grads) triple from mesh.cell_geometry.
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
    if space_kind == "p1v":
        vals = np.zeros((6, 2))
        g = np.zeros((6, 2, 2))
        divs = np.zeros(6)
        for i in range(3):
            for c in range(2):
                vals[2 * i + c, c] = lam[i]
                g[2 * i + c, c, :] = grads[i]
                divs[2 * i + c] = grads[i, c]
        return BasisValues(values=vals, grads=g, divs=divs)
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


@dataclass
class CellContext:
    """Everything a per-cell assembly kernel gets to see."""

    cell: int
    area: float
    w: np.ndarray                 # (nqp,) physical quadrature weights
    x: np.ndarray                 # (nqp, 2) physical point coordinates
    test: "SpaceTables"
    trial: Optional["SpaceTables"]
    coeffs: tuple


@dataclass
class SpaceTables:
    """Per-cell basis tables of one space at all quadrature points."""

    kind: str
    vals: np.ndarray              # p1: (3, nqp); p1v/rt0: (nloc, nqp, 2); p0: (1, nqp)
    grads: Optional[np.ndarray]   # p1: (3, 2); p1v: (6, 2, 2)
    divs: Optional[np.ndarray]    # p1v: (6,); rt0: (3,)


def _space_tables(space: FunctionSpace, cell: int, geom, quad) -> SpaceTables:
    kind = space.kind
    nqp = len(quad.weights)
    if kind == "p1":
        return SpaceTables(kind, quad.points.T.copy(), geom[2].copy(), None)
    if kind == "p0":
        return SpaceTables(kind, np.ones((1, nqp)), None, None)
    first = eval_basis(kind, geom, quad.points[0],
                       rt0_signs=space.mesh.cell_signs[cell] if kind == "rt0" else None)
    nloc = first.values.shape[0]
    vals = np.empty((nloc, nqp, 2))
    for q in range(nqp):
        bq = eval_basis(kind, geom, quad.points[q],
                        rt0_signs=space.mesh.cell_signs[cell] if kind == "rt0" else None)
        vals[:, q, :] = bq.values
    return SpaceTables(kind, vals, first.grads, first.divs)


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

    Returns a TripletBuffer (matrix mode) or a dense residual vector.
    """
    mesh = test_space.mesh
    if trial_space is not None and trial_space.mesh is not mesh:
        raise ValueError("test and trial spaces live on different meshes")
    for f in coefficients:
        if f.space.mesh is not mesh:
            raise ValueError("coefficient field lives on a different mesh")
    quad = quad or default_rule()

    out_vec = None if trial_space is not None else np.zeros(test_space.num_dofs)
    buf = TripletBuffer() if trial_space is not None else None

    coeff_tables = {}
    for c in range(mesh.num_cells):
        geom = cell_geometry(mesh, c)
        w = quad.weights * 2.0 * geom[0]
        x = quad.points @ geom[1]
        test_t = _space_tables(test_space, c, geom, quad)
        trial_t = _space_tables(trial_space, c, geom, quad) if trial_space is not None else None
        cvals = []
        for f in coefficients:
            key = id(f.space)
            if key not in coeff_tables or f.space.kind in ("p1v", "rt0"):
                coeff_tables[key] = _space_tables(f.space, c, geom, quad)
            cvals.append(_coeff_at_points(f, c, coeff_tables[key]))
        ctx = CellContext(cell=c, area=geom[0], w=w, x=x,
                          test=test_t, trial=trial_t, coeffs=tuple(cvals))
        elem = np.asarray(kernel(ctx), dtype=np.float64)
        rows = test_space.cell_dofs[c]
        if trial_space is None:
            np.add.at(out_vec, rows, elem)
        else:
            cols = trial_space.cell_dofs[c]
            buf.add_block(np.repeat(rows, len(cols)),
                          np.tile(cols, len(rows)), elem)
    return buf if trial_space is not None else out_vec


def assemble_matrix(test_space, trial_space, kernel, coefficients=(), quad=None) -> SparseMatrix:
    """assemble_form followed by compression to a SparseMatrix."""
    buf = assemble_form(test_space, trial_space, kernel, coefficients, quad)
    return compress(buf, test_space.num_dofs, trial_space.num_dofs)


def mass_kernel(ctx: CellContext) -> np.ndarray:
    """Element mass matrix for scalar Lagrange/constant spaces."""
    return np.einsum("q,iq,jq->ij", ctx.w, ctx.test.vals, ctx.trial.vals)


def stiffness_kernel(ctx: CellContext) -> np.ndarray:
    """Element stiffness matrix for p1 (constant gradients)."""
    return ctx.area * (ctx.test.grads @ ctx.trial.grads.T)


def apply_dirichlet(A: SparseMatrix, rhs: np.ndarray, dofs, value: float = 0.0,
                    symmetric: bool = False):
    """Impose essential conditions x[dofs] = value on an assembled system.

    Constrained rows become identity rows with rhs entries equal to value.
    With symmetric=True the columns are eliminated as well (moving the
    known values to the right-hand side), preserving symmetry.

    Returns the modified (SparseMatrix, rhs) pair; inputs are not mutated.
    """
    n = A.shape[0]
    dofs = np.asarray(dofs, dtype=np.int64)
    if len(dofs) and (dofs.min() < 0 or dofs.max() >= n):
        raise IndexError("constrained dof out of range")
    mat = A.to_scipy()
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
    mat = mat + sp.diags(1.0 - keep)
    b[dofs] = value
    return SparseMatrix(mat.tocsr()), b


def interpolate(space: FunctionSpace, expr: Callable) -> FieldFunction:
    """Nodal interpolation of a pointwise expression.

    expr(x, y) returns a scalar for p1/p0, a length-2 vector for p1v and
    rt0.  Dof locations are vertices (p1/p1v), centroids (p0) and edge
    midpoints (rt0, where the dof is the normal component in the global
    edge orientation).
    """
    mesh = space.mesh
    if space.kind == "p1":
        coefs = np.array([expr(x, y) for x, y in mesh.vertices], dtype=np.float64)
    elif space.kind == "p1v":
        coefs = np.empty(2 * mesh.num_vertices)
        for v, (x, y) in enumerate(mesh.vertices):
            coefs[2 * v:2 * v + 2] = expr(x, y)
    elif space.kind == "p0":
        cent = mesh.vertices[mesh.cells].mean(axis=1)
        coefs = np.array([expr(x, y) for x, y in cent], dtype=np.float64)
    else:  # rt0: normal flux density at edge midpoints
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        mid = 0.5 * (a + b)
        tang = b - a
        tang /= np.linalg.norm(tang, axis=1)[:, None]
        normal = np.column_stack([tang[:, 1], -tang[:, 0]])
        coefs = np.array([np.dot(expr(x, y), nrm)
                          for (x, y), nrm in zip(mid, normal)])
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
