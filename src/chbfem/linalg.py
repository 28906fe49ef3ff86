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
order that conversion adds them, taken once from scipy's own routines,
run on the triplet numbers: the row pass of its kernel coo_tocsr, a
private name like csr_matvec below, and its sort of each row.  The tests
compare patterns with ``coo_matrix(...).tocsr()`` bit for bit.
Its matrices are made without scipy's constructor: the layout checks one
csr_matrix of its tables once, and each fill is a shallow copy of that
template with its own ``data``.  Each is a real csr_matrix on the same
read-only tables, so scipy's operations take it as they took one built
by the constructor, and its values are the fill's own, bit for bit.

matvec multiplies a CSR matrix by a vector wherever a solve, its check
or a subsystem residual does.  It calls scipy's kernel csr_matvec, which
``A @ x`` runs for such a product, on the same arrays and from the same
zero vector, so its result has the bits of ``A @ x``; it skips only the
dispatch around the kernel (6.0 us against 8.4 us for the 578-row CH
Jacobian of n=16, on a 2-core Intel Xeon VM).  l2norm is np.linalg.norm
of a vector by the same two calls, ``np.sqrt(x.dot(x))``, without its
argument checks (0.6 us against 1.2 us there).  csr_matvec is scipy's
private name; the tests compare matvec with ``A @ x`` bit for bit, so a
scipy whose kernel changed fails them rather than moving a result.

CsrPattern.factor is the one place that factors a layout's matrix: by
SuperLU in symmetric mode, a minimum-degree ordering of A^T + A applied
to rows and columns alike, diagonal pivots preferred.  That keeps far
less fill than the general setting, also for the monolithic Jacobian,
whose pattern is not symmetric.  The first factorization stores its
ordering (``perm_c``) on the layout at once, together with a gather of
the CSR slots into the CSC layout of P A P^T.  Every later matrix of the
layout is gathered straight into that layout and factored with the
natural ordering, without the minimum-degree pass and the CSR-to-CSC
copy.  Each column of that CSC matrix lists its rows by their number in
A, not in P A P^T: SuperLU's depth-first search visits a column's rows
in the order they are stored, and a fresh factorization of A stores them
by A's row number.  So a factor on a stored ordering equals the fresh
MMD one bit for bit.

solve_linear checks every solution against the residual contract
SOLVE_RTOL.  Whenever the symmetric-mode factorization breaks down or its
solution misses the contract, the matrix is factored again with a COLAMD
column ordering and partial pivoting; the layout keeps its ordering.

A layout built with ``keep_factor`` also keeps the last symmetric-mode
factor solve_linear made of it (``kept``).  Each later matrix of the
layout is then first solved against that factor by iterative refinement
with a lagged factor (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 12): x <- x + LU^-1 (b - A x), until
||b - A x|| <= KRYLOV_RTOL max(||b||, 1), a hundredth of the contract.
Refinement gives up at the first step whose contraction rate, kept up
for the steps left of REFINE_MAX_STEPS, would not reach that target; a
rate of 1 or more gives up at once.  The kept factor is then dropped and
the matrix factored afresh; a layout whose matrix needs COLAMD keeps no
factor.  Its solutions differ from a fresh factor's at roundoff.

A matrix may also carry its diagonal blocks (``blocks``), each a Block:
its number of rows and a function that makes its solver.  A matrix
filled on its own layout gives one through factored_block; a caller may
pass any other exact solve of its block, such as one through a Schur
complement.  The matrix is then solved first by one restart cycle of
GMRES (Saad & Schultz 1986) of at most KRYLOV_MAX_ITERS iterations,
preconditioned by lower block Gauss-Seidel over those blocks: each
block's solver is made once and serves every iteration of that one
solve; none is kept.  The matrix itself only multiplies vectors.  GMRES
stops at KRYLOV_RTOL; a right-hand side that zero already meets is
solved by zero before any solver is made.  If a block's solver breaks
down, or GMRES ends without meeting the contract, the matrix is solved
directly, and its layout keeps no factor of it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import coo_tocsr as _coo_tocsr
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

# relative residual every successful solve must satisfy
SOLVE_RTOL = 1e-10
# GMRES on a matrix with diagonal blocks: the length of its one restart
# cycle, and the relative residual it and refinement against a kept
# factor stop at, below SOLVE_RTOL so that their solutions keep close to
# the direct one
KRYLOV_MAX_ITERS = 60
KRYLOV_RTOL = 1e-2 * SOLVE_RTOL
# the most steps of refinement against a kept factor before the matrix
# is factored afresh; refinement stops early once its rate shows that
# these steps will not reach KRYLOV_RTOL
REFINE_MAX_STEPS = 6


def matvec(A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """A @ x for a float64 CSR matrix A and a vector x, bit for bit:
    scipy's own kernel, without the dispatch around it."""
    nrows, ncols = A.shape
    # the kernel reads x and writes y by A's indices, unchecked
    if x.shape != (ncols,):
        raise ValueError(f"vector of shape {x.shape} for a {A.shape} matrix")
    y = np.zeros(nrows)
    _csr_matvec(nrows, ncols, A.indptr, A.indices, A.data, x, y)
    return y


def l2norm(x: np.ndarray) -> np.float64:
    """np.linalg.norm of a float vector, by the same calls: the same bits,
    NaN and inf included, and the same floating-point warnings."""
    return np.sqrt(x.dot(x))


class LinearSolveFailure(Exception):
    """Factorization breakdown or a solve that missed the residual contract.

    It says what broke down, and nothing of the iteration whose solve it
    stops.
    """


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
    Tables are the first triplet of each slot, and a (slot, triplet) pair
    for each further one, in summation order.  They are int32, except the
    first triplets: every fill gathers by them, and numpy converts an
    int32 index to intp on every gather (for the 120k slots of the n=65
    Cahn-Hilliard Jacobian, 125 against 66 us on a 2-core AMD EPYC VM).

    ``factor`` stores the ordering of its first factorization in
    ``ordering`` and reuses it, with the same bits, for every later one.
    With ``keep_factor``, solve_linear keeps its last factor in ``kept``
    and first solves later matrices by refinement against it.
    """

    def __init__(self, rows, cols, shape, take=None, keep_factor=False):
        nrows, ncols = shape
        rows = np.asarray(rows).ravel()
        cols = np.asarray(cols).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have matching sizes")
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows
                          or cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("triplet index out of range")
        self.shape = (nrows, ncols)
        ntrip = len(rows)
        # scipy's conversion moves the triplet numbers in place of values:
        # coo_tocsr's row pass, a stable counting sort, then its sort of
        # each row, which moves entries by their columns alone, so the
        # numbers' type does not matter
        indptr = np.empty(nrows + 1, dtype=np.int32)
        sorted_cols = np.empty(ntrip, dtype=np.int32)
        order = np.empty(ntrip, dtype=np.int32)
        _coo_tocsr(nrows, ncols, ntrip, rows.astype(np.int32, copy=False),
                   cols.astype(np.int32, copy=False),
                   np.arange(ntrip, dtype=np.int32), indptr, sorted_cols, order)
        del rows, cols
        csr = sp.csr_matrix((order, sorted_cols, indptr), shape=self.shape)
        csr.sort_indices()
        order, sorted_cols = csr.data, csr.indices
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
        self._head = order[starts].astype(np.intp)
        later = ~starts
        del starts
        self._tail_src = order[later]
        del order
        self._tail_slot = slot_ends[1:][later]
        self._tail_slot -= 1
        for table in (self.indptr, self.indices, self._head, self._tail_src,
                      self._tail_slot):
            table.flags.writeable = False
        # scipy checks the tables once; its zero data is never touched, and
        # is not kept.  The template holds no reference to this pattern.
        template = sp.csr_matrix(
            (np.zeros(len(self.indices)), self.indices, self.indptr),
            shape=self.shape)
        template.has_canonical_format = True
        self._template = {name: value for name, value in vars(template).items()
                          if name != "data"}
        self.keep_factor = keep_factor
        self.ordering = None
        self.kept = None

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Slot values: each slot's triplet values added in scipy's order."""
        data = values[self._head]
        # ufunc.at adds unbuffered, one pair after another
        np.add.at(data, self._tail_slot, values[self._tail_src])
        return data

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix of slot values on this layout, which every such matrix
        shares; its ``layout`` attribute is this pattern.

        It is a shallow copy of the csr_matrix that scipy checked when the
        pattern was built, with `data` as its own values: a real
        csr_matrix, marked canonical, without scipy's constructor and its
        checks on every fill (0.6 us against 13 us on the n=16 CH layout,
        on a 2-core Intel Xeon VM).  Its attributes are its own, so
        ``blocks`` set on one matrix is on no other.
        """
        mat = sp.csr_matrix.__new__(sp.csr_matrix)
        vars(mat).update(self._template, data=data, layout=self)
        return mat

    def factor(self, data: np.ndarray) -> _Factor:
        """Symmetric-mode factor of the matrix of slot values `data`: on
        the stored ordering, else with a fresh MMD ordering of A^T + A,
        which it stores at once."""
        if self.ordering is not None:
            return self.ordering.factor(data)
        lu = _symmetric_lu(self.matrix(data).tocsc(), "MMD_AT_PLUS_A")
        self.ordering = _StoredOrdering(self, lu.perm_c)
        return _Factor(lu)


class _Factor:
    """Solver b -> x of one SuperLU factor, which serves any number of
    right-hand sides.  With (order, perm), the factor is of P A P^T, and
    b and x are permuted to and from it.  It holds only the factor and
    those arrays, so dropping the last reference frees it at once."""

    __slots__ = ("lu", "order", "perm", "__weakref__")

    def __init__(self, lu, order=None, perm=None):
        self.lu, self.order, self.perm = lu, order, perm

    def __call__(self, b: np.ndarray) -> np.ndarray:
        if self.order is None:
            return self.lu.solve(b)
        return self.lu.solve(b[self.order])[self.perm]


class _StoredOrdering:
    """A symmetric-mode column ordering kept for one square CsrPattern.

    perm is SuperLU's ``perm_c``: entry (i, k) of A is entry
    (perm[i], perm[k]) of P A P^T.  gather takes the CSR slot values of A
    to the data of ``permuted``, the CSC matrix P A P^T, which every solve
    on this ordering refills.  Its columns list their rows in A's row
    order (see the module docstring), unsorted; scipy's splu hands a
    matrix marked canonical to SuperLU as it is.
    """

    def __init__(self, pattern: CsrPattern, perm: np.ndarray):
        n = pattern.shape[0]
        self.perm = perm.astype(np.int32)
        self.order = np.argsort(self.perm).astype(np.int32)
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(pattern.indptr))
        cols = self.perm[pattern.indices]
        # each column lists its rows by A's row number, not by P A P^T's
        self.gather = np.lexsort((rows, cols)).astype(np.int32)
        rows = self.perm[rows]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        # SuperLU keeps no reference to the matrix it factors
        self.permuted = sp.csc_matrix(
            (np.zeros(len(self.gather)), rows[self.gather], indptr), shape=(n, n))
        self.permuted.has_canonical_format = True

    def factor(self, data: np.ndarray) -> _Factor:
        """Factor of the matrix of slot values `data`, in this order."""
        np.take(data, self.gather, out=self.permuted.data)
        return _Factor(_symmetric_lu(self.permuted, "NATURAL"),
                       self.order, self.perm)


def _symmetric_lu(csc, permc_spec):
    """SuperLU in symmetric mode: one ordering for rows and columns,
    diagonal pivots preferred."""
    return spla.splu(csc, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _rows(mat, lo: int, hi: int) -> sp.csr_matrix:
    """Rows lo:hi of a CSR matrix as a view of its data and indices."""
    start, end = mat.indptr[lo], mat.indptr[hi]
    rows = sp.csr_matrix((hi - lo, mat.shape[1]))
    rows.indptr = mat.indptr[lo:hi + 1] - start
    rows.indices, rows.data = mat.indices[start:end], mat.data[start:end]
    return rows


class Block(NamedTuple):
    """A diagonal block of a matrix that block GMRES solves: its number of
    rows, and a function that returns its solver b -> x.  GMRES calls it
    once per solve, and only when the right-hand side needs a solve."""

    size: int
    solver: Callable[[], Callable[[np.ndarray], np.ndarray]]


def factored_block(mat) -> Block:
    """The Block of a matrix on a layout: its CsrPattern.factor."""
    return Block(mat.shape[0], partial(mat.layout.factor, mat.data))


def _block_gmres(mat, blocks, b: np.ndarray) -> np.ndarray:
    """One restart cycle of GMRES on mat, preconditioned by lower block
    Gauss-Seidel over its diagonal `blocks` (Block); its iterate at
    KRYLOV_RTOL or after KRYLOV_MAX_ITERS iterations, whichever comes
    first."""
    norm = l2norm(b)
    atol = KRYLOV_RTOL * max(norm, 1.0)
    if norm <= atol:
        return np.zeros(len(b))   # GMRES would stop at its zero start
    solvers = [block.solver() for block in blocks]
    ends = np.cumsum([block.size for block in blocks])
    spans = [(end - block.size, end) for block, end in zip(blocks, ends)]
    # mat's rows of every later block; applied to the parts solved so far
    # (zeros elsewhere) they give its entries left of the diagonal block
    lower = [_rows(mat, lo, hi) for lo, hi in spans[1:]]

    def precondition(r):
        z = np.zeros(len(r))
        lo, hi = spans[0]
        z[lo:hi] = solvers[0](r[lo:hi])
        for (lo, hi), rows, solve in zip(spans[1:], lower, solvers[1:]):
            z[lo:hi] = solve(r[lo:hi] - rows @ z)
        return z

    # a miss of KRYLOV_RTOL alone is no failure: SOLVE_RTOL decides
    return spla.gmres(
        mat, b, rtol=0.0, atol=atol, restart=KRYLOV_MAX_ITERS, maxiter=1,
        M=spla.LinearOperator(mat.shape, precondition))[0]


def _refined(mat, solve: _Factor, b: np.ndarray):
    """Iterative refinement of A x = b against the factor of an earlier
    matrix: x at KRYLOV_RTOL, or None at the first step whose contraction
    rate, kept up, would not reach it within REFINE_MAX_STEPS steps.

    The x returned meets SOLVE_RTOL with no further check: its residual
    ||b - A x|| is at most KRYLOV_RTOL max(||b||, 1), a hundredth of the
    contract's bound.  A non-finite x fails that test, because every
    column of a layout that was factored holds a slot, so its residual
    norm is NaN or inf; so does a residual too large to measure.
    """
    last = l2norm(b)
    atol = KRYLOV_RTOL * max(last, 1.0)
    x, r = np.zeros(len(b)), b
    with np.errstate(over="ignore", invalid="ignore"):
        for left in range(REFINE_MAX_STEPS - 1, -1, -1):
            x += solve(r)
            r = b - matvec(mat, x)
            norm = l2norm(r)
            if norm <= atol:
                return x
            if not norm * (norm / last) ** left <= atol:
                return None
            last = norm
    return None


def _verified(mat, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return x if it is finite and meets SOLVE_RTOL, else raise; a residual
    too large to measure in double precision misses the contract."""
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("solve produced non-finite entries")
    try:
        with np.errstate(over="raise"):
            residual = l2norm(b - matvec(mat, x)) / max(l2norm(b), 1.0)
    except FloatingPointError as exc:
        raise LinearSolveFailure(f"residual norm overflows: {exc}") from exc
    if residual > SOLVE_RTOL:
        raise LinearSolveFailure(
            f"relative residual {residual:.3e} exceeds {SOLVE_RTOL:.1e}")
    return x


def solve_linear(A: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a square scipy sparse matrix, checking the residual.

    A is used as it is when it is CSR, as CsrPattern.matrix returns it,
    and converted otherwise; b must be a vector of A's size.  Paths, in
    order, as the module docstring describes: block GMRES when A carries
    ``blocks``, refinement against its layout's kept factor, a
    symmetric-mode factor (CsrPattern.factor on a layout), COLAMD.  The
    returned x satisfies ||b - A x||_2 / max(||b||_2, 1) <= SOLVE_RTOL;
    otherwise, and on a singular factorization or a b of the wrong shape,
    LinearSolveFailure is raised, so callers can tell linear breakdown
    apart from nonlinear non-convergence.
    """
    mat = A.tocsr()
    nrows, ncols = mat.shape
    if nrows != ncols:
        raise LinearSolveFailure(f"matrix is not square: {mat.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (nrows,):
        raise LinearSolveFailure(
            f"right-hand side of shape {b.shape} for a {nrows}-row matrix")
    layout = getattr(mat, "layout", None)
    blocks = getattr(mat, "blocks", None)
    if blocks is not None:
        try:
            return _verified(mat, _block_gmres(mat, blocks, b), b)
        except (RuntimeError, LinearSolveFailure):
            pass  # the direct path below decides
    # a matrix with blocks falls back to a direct factor too large to keep
    keep = layout is not None and layout.keep_factor and blocks is None
    try:
        if keep and layout.kept is not None:
            x = _refined(mat, layout.kept, b)
            if x is not None:
                return x
            layout.kept = None   # freed before the next factor is made
        if layout is None:
            solve = _Factor(_symmetric_lu(mat.tocsc(), "MMD_AT_PLUS_A"))
        else:
            solve = layout.factor(mat.data)
        x = _verified(mat, solve(b), b)
        if keep:
            layout.kept = solve
        return x
    except (RuntimeError, LinearSolveFailure):
        pass  # the pivoting path below decides
    try:
        lu = spla.splu(mat.tocsc())
        x = lu.solve(b)
    except RuntimeError as exc:  # raised by SuperLU on singular factors
        raise LinearSolveFailure(f"sparse factorization failed: {exc}") from exc
    return _verified(mat, x, b)
