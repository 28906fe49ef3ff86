"""Sparse assembly buffers and direct linear solves.

Storage and factorization are delegated to scipy.sparse; this module pins
down the contracts the rest of the code relies on: duplicate triplets sum
on compression, compressed rows are sorted, and every solve is verified
against the residual tolerance below.

The factorization is chosen from the sparsity pattern of the matrix.  A
pattern equal to its transpose (the phase-field Jacobian, the elasticity
matrix and the mixed flow matrix) is first factored by SuperLU in
symmetric mode: a minimum-degree ordering of A^T + A applied to rows and
columns alike, diagonal pivots preferred.  That keeps far less fill than
the general setting.  Whenever it breaks down or misses the residual
tolerance, and for every other pattern (the monolithic Jacobian), the
matrix is factored with a COLAMD column ordering and partial pivoting.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# relative residual every successful solve must satisfy
SOLVE_RTOL = 1e-10


class LinearSolveFailure(Exception):
    """Factorization breakdown or a solve that missed the residual contract."""


class TripletBuffer:
    """Accumulates (row, col, value) contributions; duplicates sum on compress."""

    def __init__(self):
        self._rows = []
        self._cols = []
        self._vals = []

    def add(self, row: int, col: int, value: float) -> None:
        self._rows.append(np.asarray([row], dtype=np.int64))
        self._cols.append(np.asarray([col], dtype=np.int64))
        self._vals.append(np.asarray([value], dtype=np.float64))

    def add_block(self, rows, cols, values) -> None:
        """Append flattened index/value arrays of equal length."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must have matching sizes")
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(values)

    def arrays(self):
        if self._rows:
            return (np.concatenate(self._rows), np.concatenate(self._cols),
                    np.concatenate(self._vals))
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return sum(len(r) for r in self._rows)


class SparseMatrix:
    """Compressed sparse row matrix with sorted, duplicate-free columns."""

    def __init__(self, csr: sp.csr_matrix):
        csr = csr.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        self._csr = csr

    @property
    def shape(self):
        return self._csr.shape

    @property
    def row_offsets(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def values(self) -> np.ndarray:
        return self._csr.data

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def to_scipy(self) -> sp.csr_matrix:
        return self._csr


def compress(buffer: TripletBuffer, nrows: int, ncols: int) -> SparseMatrix:
    """Compress a triplet buffer, summing duplicate entries.

    Raises
    ------
    ValueError
        If any index falls outside [0, nrows) x [0, ncols).
    """
    rows, cols, vals = buffer.arrays()
    if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
        raise ValueError("row index out of range")
    if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
        raise ValueError("column index out of range")
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    return SparseMatrix(coo.tocsr())


def _pattern_is_symmetric(mat: sp.csr_matrix) -> bool:
    """True when the stored pattern of a CSR matrix equals its transpose's.

    Unsorted column indices read as unsymmetric, which only costs speed.
    """
    t = mat.T.tocsr()
    return (np.array_equal(mat.indptr, t.indptr)
            and np.array_equal(mat.indices, t.indices))


def _verified(mat, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return x if it is finite and meets SOLVE_RTOL, else raise."""
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("solve produced non-finite entries")
    residual = np.linalg.norm(b - mat @ x) / max(np.linalg.norm(b), 1.0)
    if residual > SOLVE_RTOL:
        raise LinearSolveFailure(
            f"relative residual {residual:.3e} exceeds {SOLVE_RTOL:.1e}")
    return x


def solve_linear(A: SparseMatrix | sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Direct sparse solve with a residual check.

    Handles nonsymmetric and indefinite (saddle-point) systems.  A matrix
    whose pattern equals its transpose's is first factored in SuperLU's
    symmetric mode (MMD on A^T + A, diagonal pivots preferred); if that
    factorization breaks down or its solution misses the contract below,
    the solve is repeated with COLAMD and partial pivoting, which is also
    the only path for matrices with an unsymmetric pattern.  The returned
    x satisfies ||b - A x||_2 / max(||b||_2, 1) <= 1e-10, else
    LinearSolveFailure is raised; singular factorizations raise the same
    error so callers can tell linear breakdown apart from nonlinear
    non-convergence.
    """
    mat = A.to_scipy() if isinstance(A, SparseMatrix) else A.tocsr()
    nrows, ncols = mat.shape
    if nrows != ncols:
        raise LinearSolveFailure(f"matrix is not square: {mat.shape}")
    b = np.asarray(b, dtype=np.float64)
    csc = mat.tocsc()
    if _pattern_is_symmetric(mat):
        try:
            lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
            return _verified(mat, lu.solve(b), b)
        except (RuntimeError, LinearSolveFailure):
            pass  # the pivoting path below decides
    try:
        lu = spla.splu(csc)
        x = lu.solve(b)
    except RuntimeError as exc:  # raised by SuperLU on singular factors
        raise LinearSolveFailure(f"sparse factorization failed: {exc}") from exc
    return _verified(mat, x, b)


def norms(v: np.ndarray) -> tuple[float, float]:
    """(l2, linf) norms of a vector; (0, 0) for the empty vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        return 0.0, 0.0
    return float(np.linalg.norm(v)), float(np.max(np.abs(v)))
