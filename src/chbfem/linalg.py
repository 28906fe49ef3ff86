"""Fixed CSR layouts and verified direct linear solves.

Matrices are scipy.sparse CSR matrices throughout; this module pins down
the contracts the rest of the code relies on: duplicate triplets sum in
the order scipy's COO-to-CSR conversion adds them, each row's columns are
sorted, and every solve is verified against the residual tolerance below.

A CsrPattern holds the CSR layout of a triplet list whose positions stay
fixed while its values change, as in every Newton or outer iteration on
one mesh.  It is built once; each fill then only gathers and adds values.
Its sums are those of scipy's COO-to-CSR conversion bit for bit: every
slot adds its triplets in the order that conversion adds them, an order
taken once from scipy's own sort of the triplet numbers.

Every matrix is first factored by SuperLU in symmetric mode: a
minimum-degree ordering of A^T + A applied to rows and columns alike,
diagonal pivots preferred.  That keeps far less fill than the general
setting, also for the monolithic Jacobian, whose pattern is not
symmetric.  Whenever it breaks down or misses the residual tolerance, the
matrix is factored again with a COLAMD column ordering and partial
pivoting.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# relative residual every successful solve must satisfy
SOLVE_RTOL = 1e-10


class LinearSolveFailure(Exception):
    """Factorization breakdown or a solve that missed the residual contract."""


class CsrPattern:
    """CSR layout of a fixed triplet list, filled with new values on demand.

    Built once from the (rows, cols) of a triplet list.  ``sum(values)``
    then returns the ``data`` array that
    ``coo_matrix((values, (rows, cols)), shape).tocsr()`` holds, bit for
    bit: every slot adds its triplets left to right in the order scipy's
    conversion uses (a stable sort by row, then scipy's own sort of each
    row by column).  That order is found once, by letting scipy sort the
    triplet numbers in place of values.

    With ``take``, triplet k reads ``values[take[k]]``, so a caller can
    fill from a longer value list that contains entries it leaves out.
    Tables are int32: the first triplet of each slot, and a (slot,
    triplet) pair for each further one, in summation order.
    """

    def __init__(self, rows, cols, shape, take=None):
        nrows, ncols = shape
        rows = np.asarray(rows).ravel()
        cols = np.asarray(cols).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have matching sizes")
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows
                          or cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("triplet index out of range")
        self.shape = (nrows, ncols)
        # the row pass of scipy's coo_tocsr is a stable counting sort
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
        csr = sp.csr_matrix((order.astype(np.float64), cols[order], indptr),
                            shape=self.shape)
        del order
        csr.sort_indices()
        order = csr.data.astype(np.int32)
        sorted_cols = csr.indices.astype(np.int32, copy=False)
        del csr
        if take is not None:
            order = np.asarray(take, dtype=np.int32)[order]

        # a slot starts at every row start and wherever the column changes
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = sorted_cols[1:] != sorted_cols[:-1]
        starts[indptr[:-1][indptr[:-1] < len(order)]] = True
        slot_ends = np.zeros(len(order) + 1, dtype=np.int32)
        np.cumsum(starts, out=slot_ends[1:])
        self.indptr = slot_ends[indptr]
        self.indices = sorted_cols[starts]
        self.nnz = len(self.indices)
        del sorted_cols
        self._head = order[starts]
        later = np.flatnonzero(~starts)
        del starts
        self._tail_slot = slot_ends[later + 1] - 1
        self._tail_src = order[later]
        for table in (self.indptr, self.indices):
            table.flags.writeable = False

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Slot values: each slot's triplet values added in scipy's order."""
        data = values[self._head]
        # ufunc.at adds unbuffered, one pair after another
        np.add.at(data, self._tail_slot, values[self._tail_src])
        return data

    def matrix(self, data: np.ndarray, dropped=None) -> sp.csr_matrix:
        """CSR matrix of slot values; slots where `dropped` is set are left out."""
        indptr, indices = self.indptr, self.indices
        if dropped is not None and dropped.any():
            kept = ~dropped
            ends = np.zeros(self.nnz + 1, dtype=np.int32)
            np.cumsum(kept, out=ends[1:])
            indptr, indices, data = ends[indptr], indices[kept], data[kept]
        mat = sp.csr_matrix((data, indices, indptr), shape=self.shape)
        mat.has_canonical_format = True
        return mat


def _verified(mat, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return x if it is finite and meets SOLVE_RTOL, else raise."""
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("solve produced non-finite entries")
    residual = np.linalg.norm(b - mat @ x) / max(np.linalg.norm(b), 1.0)
    if residual > SOLVE_RTOL:
        raise LinearSolveFailure(
            f"relative residual {residual:.3e} exceeds {SOLVE_RTOL:.1e}")
    return x


def solve_linear(A: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a square scipy sparse matrix, checking the residual.

    A is used as it is when it is CSR, as CsrPattern.matrix returns it,
    and converted otherwise.  Handles nonsymmetric and indefinite
    (saddle-point) systems.  The matrix is first factored in SuperLU's
    symmetric mode (MMD on A^T + A, diagonal pivots preferred); if that
    factorization breaks down or its solution misses the contract below,
    the solve is repeated with COLAMD and partial pivoting.  The returned
    x satisfies
    ||b - A x||_2 / max(||b||_2, 1) <= 1e-10, else LinearSolveFailure is
    raised; singular factorizations raise the same error so callers can
    tell linear breakdown apart from nonlinear non-convergence.
    """
    mat = A.tocsr()
    nrows, ncols = mat.shape
    if nrows != ncols:
        raise LinearSolveFailure(f"matrix is not square: {mat.shape}")
    b = np.asarray(b, dtype=np.float64)
    csc = mat.tocsc()
    try:
        lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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
