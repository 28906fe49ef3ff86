"""Fixed CSR layouts and verified linear solves.

Matrices are scipy.sparse CSR matrices throughout; this module pins down
the contracts the rest of the code relies on: duplicate triplets sum in
the order scipy's COO-to-CSR conversion adds them, each row's columns are
sorted, and every solve is verified against the residual tolerance below.

A CsrPattern holds the CSR layout of a triplet list whose positions stay
fixed while its values change, as in every Newton or outer iteration on
one mesh.  It is built once; each fill only gathers and adds values and
keeps every slot, exact zeros included.  Its sums are those of scipy's
COO-to-CSR conversion bit for bit: every slot adds its triplets in the
order that conversion adds them, taken once from scipy's own sort.

Every matrix is first factored by SuperLU in symmetric mode: a
minimum-degree ordering of A^T + A applied to rows and columns alike,
diagonal pivots preferred.  That keeps far less fill than the general
setting, also for the monolithic Jacobian, whose pattern is not
symmetric.  Whenever it breaks down or misses the residual tolerance, the
matrix is factored again with a COLAMD column ordering and partial
pivoting.

A matrix filled on a CsrPattern carries that layout.  Unless the layout
was built with ``keep_ordering=False``, its first successful
symmetric-mode factorization leaves the ordering (``perm_c``) on the
layout, together with a gather of the CSR slots into the CSC layout of
P A P^T.  Every later matrix of the layout is gathered straight into
that layout and factored in symmetric mode with the natural ordering:
the same fill, without the minimum-degree pass and the CSR-to-CSC copy.
Its solution is checked against the original matrix like any other, and
the COLAMD factorization above is its fallback.

A matrix may also carry its diagonal blocks (``blocks``), each a matrix
filled on a layout that keeps its ordering.  It is then solved first by
one restart cycle of GMRES (Saad & Schultz 1986) of at most
KRYLOV_MAX_ITERS iterations, preconditioned by lower block Gauss-Seidel
over those blocks: each is factored once, on its layout's stored
ordering, and serves every iteration.  The matrix itself only multiplies
vectors.  GMRES stops at KRYLOV_RTOL, a hundredth of the contract.  If a
block's factorization breaks down, or GMRES ends without meeting the
contract, the matrix is solved by the direct path above, as if it
carried no blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# relative residual every successful solve must satisfy
SOLVE_RTOL = 1e-10
# GMRES on a matrix with diagonal blocks: the length of its one restart
# cycle, and the relative residual it stops at, below SOLVE_RTOL so that
# its solution keeps close to the direct one
KRYLOV_MAX_ITERS = 60
KRYLOV_RTOL = 1e-2 * SOLVE_RTOL


class LinearSolveFailure(Exception):
    """Factorization breakdown or a solve that missed the residual contract."""

    # set by the nonlinear solver it stops, as on a NonConvergence
    iterations = 0
    inner_newton = ()


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
    fill from a longer value list that contains entries it leaves out,
    or let several triplets read one value.  Every matrix of one pattern
    keeps all its slots, exact zeros included, and shares its layout.
    Tables are int32: the first triplet of each slot, and a (slot,
    triplet) pair for each further one, in summation order.

    With ``keep_ordering``, solve_linear stores the ordering of the first
    successful symmetric-mode factorization of one of its matrices in
    ``ordering`` and reuses it for every later one.
    """

    def __init__(self, rows, cols, shape, take=None, keep_ordering=True):
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
        del sorted_cols
        self._head = order[starts]
        later = np.flatnonzero(~starts)
        del starts
        self._tail_slot = slot_ends[later + 1] - 1
        self._tail_src = order[later]
        for table in (self.indptr, self.indices):
            table.flags.writeable = False
        self.keep_ordering = keep_ordering
        self.ordering = None

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Slot values: each slot's triplet values added in scipy's order."""
        data = values[self._head]
        # ufunc.at adds unbuffered, one pair after another
        np.add.at(data, self._tail_slot, values[self._tail_src])
        return data

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix of slot values on this layout, which every such matrix
        shares; its ``layout`` attribute is this pattern."""
        mat = sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        mat.has_canonical_format = True
        mat.layout = self
        return mat


class _StoredOrdering:
    """A symmetric-mode column ordering kept for one square CsrPattern.

    perm is SuperLU's ``perm_c``: entry (i, k) of A is entry
    (perm[i], perm[k]) of P A P^T.  gather takes the CSR slot values of A
    to the data of ``permuted``, the CSC matrix P A P^T, which every solve
    on this ordering refills.
    """

    def __init__(self, pattern: CsrPattern, perm: np.ndarray):
        n = pattern.shape[0]
        self.perm = perm.astype(np.int32)
        self.order = np.argsort(self.perm).astype(np.int32)
        rows = self.perm[np.repeat(np.arange(n), np.diff(pattern.indptr))]
        cols = self.perm[pattern.indices]
        self.gather = np.lexsort((rows, cols)).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        # SuperLU keeps no reference to the matrix it factors
        self.permuted = sp.csc_matrix(
            (np.zeros(len(self.gather)), rows[self.gather], indptr), shape=(n, n))
        self.permuted.has_canonical_format = True

    def factor(self, data: np.ndarray):
        """Solver b -> x of the matrix of slot values `data`, factored once
        in this order; it serves any number of right-hand sides."""
        np.take(data, self.gather, out=self.permuted.data)
        lu = _symmetric_lu(self.permuted, "NATURAL")
        return lambda b: lu.solve(b[self.order])[self.perm]


def _symmetric_lu(csc, permc_spec):
    """SuperLU in symmetric mode: one ordering for rows and columns,
    diagonal pivots preferred."""
    return spla.splu(csc, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _block_solver(block):
    """Solver b -> x of one diagonal block, factored in symmetric mode on
    its layout's stored ordering, which its first factorization stores."""
    layout = block.layout
    if layout.ordering is not None:
        return layout.ordering.factor(block.data)
    lu = _symmetric_lu(block.tocsc(), "MMD_AT_PLUS_A")
    if layout.keep_ordering:
        layout.ordering = _StoredOrdering(layout, lu.perm_c)
    return lu.solve


def _block_gmres(mat, blocks, b: np.ndarray) -> np.ndarray:
    """One restart cycle of GMRES on mat, preconditioned by lower block
    Gauss-Seidel over its diagonal `blocks`; its iterate at KRYLOV_RTOL or
    after KRYLOV_MAX_ITERS iterations, whichever comes first."""
    solvers = [_block_solver(block) for block in blocks]
    ends = np.cumsum([block.shape[0] for block in blocks])
    spans = [(end - block.shape[0], end) for block, end in zip(blocks, ends)]
    # mat's rows of every later block; applied to the parts solved so far
    # (zeros elsewhere) they give its entries left of the diagonal block
    lower = [mat[lo:hi] for lo, hi in spans[1:]]

    def precondition(r):
        z = np.zeros(len(r))
        lo, hi = spans[0]
        z[lo:hi] = solvers[0](r[lo:hi])
        for (lo, hi), rows, solve in zip(spans[1:], lower, solvers[1:]):
            z[lo:hi] = solve(r[lo:hi] - rows @ z)
        return z

    # a miss of KRYLOV_RTOL alone is no failure: SOLVE_RTOL decides
    return spla.gmres(
        mat, b, rtol=0.0, atol=KRYLOV_RTOL * max(np.linalg.norm(b), 1.0),
        restart=KRYLOV_MAX_ITERS, maxiter=1,
        M=spla.LinearOperator(mat.shape, precondition))[0]


def _verified(mat, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return x if it is finite and meets SOLVE_RTOL, else raise; a residual
    too large to measure in double precision misses the contract."""
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("solve produced non-finite entries")
    try:
        with np.errstate(over="raise"):
            residual = np.linalg.norm(b - mat @ x) / max(np.linalg.norm(b), 1.0)
    except FloatingPointError as exc:
        raise LinearSolveFailure(f"residual norm overflows: {exc}") from exc
    if residual > SOLVE_RTOL:
        raise LinearSolveFailure(
            f"relative residual {residual:.3e} exceeds {SOLVE_RTOL:.1e}")
    return x


def solve_linear(A: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a square scipy sparse matrix, checking the residual.

    A is used as it is when it is CSR, as CsrPattern.matrix returns it,
    and converted otherwise; b must be a vector of A's size.  Handles
    nonsymmetric and indefinite (saddle-point) systems.  When A carries
    its diagonal blocks (``A.blocks``, matrices on kept CsrPattern
    layouts whose sizes add up to A's), it is first solved by GMRES,
    preconditioned by lower block Gauss-Seidel over them, in at most
    KRYLOV_MAX_ITERS iterations; each block is factored once, on its
    layout's stored ordering.  If a block's factorization breaks down or
    GMRES ends without meeting the contract below, A is solved as if it
    carried no blocks.  The matrix is then first factored in SuperLU's
    symmetric mode: on the stored ordering of its layout when that layout
    has one (CsrPattern.ordering), else with a fresh MMD ordering of
    A^T + A, which a layout with keep_ordering then stores if the solve
    succeeds.  If that factorization breaks down or its solution misses
    the contract below, the solve is repeated with COLAMD and partial
    pivoting.  The returned x satisfies
    ||b - A x||_2 / max(||b||_2, 1) <= 1e-10, else LinearSolveFailure is
    raised; singular factorizations and a b of the wrong shape raise the
    same error so callers can tell linear breakdown apart from nonlinear
    non-convergence.
    """
    mat = A.tocsr()
    nrows, ncols = mat.shape
    if nrows != ncols:
        raise LinearSolveFailure(f"matrix is not square: {mat.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (nrows,):
        raise LinearSolveFailure(
            f"right-hand side of shape {b.shape} for a {nrows}-row matrix")
    blocks = getattr(mat, "blocks", None)
    if blocks is not None:
        try:
            return _verified(mat, _block_gmres(mat, blocks, b), b)
        except (RuntimeError, LinearSolveFailure):
            pass  # the direct path below decides
    layout = getattr(mat, "layout", None)
    try:
        if layout is not None and layout.ordering is not None:
            return _verified(mat, layout.ordering.factor(mat.data)(b), b)
        lu = _symmetric_lu(mat.tocsc(), "MMD_AT_PLUS_A")
        x = _verified(mat, lu.solve(b), b)
        if layout is not None and layout.keep_ordering:
            layout.ordering = _StoredOrdering(layout, lu.perm_c)
        return x
    except (RuntimeError, LinearSolveFailure):
        pass  # the pivoting path below decides
    try:
        lu = spla.splu(mat.tocsc())
        x = lu.solve(b)
    except RuntimeError as exc:  # raised by SuperLU on singular factors
        raise LinearSolveFailure(f"sparse factorization failed: {exc}") from exc
    return _verified(mat, x, b)
