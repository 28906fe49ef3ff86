import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chbfem import MaterialParams, build_unit_square_mesh, linalg
from chbfem.linalg import CsrPattern, LinearSolveFailure, solve_linear
from chbfem.solvers import ChbSystem, SolverConfig, _slot_rows


def test_hand_matvec():
    pattern = CsrPattern([0, 1], [1, 0], (2, 2))
    A = pattern.matrix(pattern.sum(np.array([5.0, 7.0])))
    assert np.array_equal(A @ np.array([1.0, 1.0]), np.array([5.0, 7.0]))


def test_csr_columns_sorted_unique():
    pattern = CsrPattern([0, 0, 0, 1], [2, 1, 2, 0], (2, 3))
    A = pattern.matrix(pattern.sum(np.array([1.0, 2.0, 3.0, 4.0])))
    for r in range(2):
        cols = A.indices[A.indptr[r]:A.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)
    assert np.array_equal(A.toarray(), [[0.0, 2.0, 4.0], [4.0, 0.0, 0.0]])


def test_solve_identity():
    A = sp.eye(4, format="csr")
    b = np.array([1.0, -2.0, 3.5, 0.0])
    assert np.allclose(solve_linear(A, b), b, atol=1e-14)


def test_solve_two_by_two():
    A = sp.csr_matrix([[2.0, 1.0], [1.0, 3.0]])
    x = solve_linear(A, np.array([3.0, 5.0]))
    assert np.allclose(x, [0.8, 1.4], atol=1e-12)


def test_solve_random_spd():
    rng = np.random.default_rng(42)
    R = rng.normal(size=(50, 50))
    A = sp.csr_matrix(R @ R.T + 50 * np.eye(50))
    b = rng.normal(size=50)
    x = solve_linear(A, b)
    assert np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1.0) <= 1e-10


def test_residual_contract_on_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(5, 40)
        A = sp.csr_matrix(rng.normal(size=(n, n)) + n * np.eye(n))
        b = rng.normal(size=n)
        x = solve_linear(A, b)
        assert np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1.0) <= 1e-10


def test_singular_matrix_raises_distinct_error():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(LinearSolveFailure):
        solve_linear(A, np.array([1.0, 1.0]))


def test_nonsquare_raises():
    A = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(LinearSolveFailure):
        solve_linear(A, np.ones(2))


def test_indefinite_saddle_point_solve():
    # [[I, B^T], [B, 0]] with full-rank B
    B = np.array([[1.0, 2.0, 0.0]])
    A = np.block([[np.eye(3), B.T], [B, np.zeros((1, 1))]])
    b = np.array([1.0, 0.0, 2.0, 1.0])
    x = solve_linear(sp.csr_matrix(A), b)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)


SYMMETRIC = "MMD_AT_PLUS_A"


def test_every_pattern_starts_on_symmetric_mode(splu_specs):
    b = np.array([1.0, 2.0])
    solve_linear(sp.csr_matrix([[2.0, 1.0], [3.0, 4.0]]), b)
    solve_linear(sp.csr_matrix([[2.0, 1.0], [0.0, 4.0]]), b)
    assert splu_specs == [SYMMETRIC, SYMMETRIC]


def test_unsymmetric_pattern_with_bad_diagonal_pivots_falls_back(splu_specs):
    A = sp.csr_matrix(np.array([[1e-20, 1.0, 0.0],
                                [1.0, 1e-20, 0.0],
                                [1.0, 0.0, 1.0]]))
    b = np.array([1.0, 2.0, 3.0])
    x = solve_linear(A, b)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
    assert splu_specs == [SYMMETRIC, None]


@pytest.mark.parametrize("eps", [0.0, 1e-20])
def test_pattern_symmetric_solve_with_bad_diagonal_pivots(eps, splu_specs):
    # SuperLU steps off an exactly zero diagonal, but takes a tiny one as
    # the pivot in symmetric mode and loses the residual contract; the
    # pivoting factorization must then repeat the solve
    A = sp.csr_matrix(np.array([[eps, 1.0], [1.0, eps]]))
    b = np.array([1.0, 2.0])
    x = solve_linear(A, b)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
    assert splu_specs[0] == SYMMETRIC
    if eps:
        assert splu_specs == [SYMMETRIC, None]


def test_singular_pattern_symmetric_matrix_raises(splu_specs):
    A = sp.csr_matrix(np.ones((2, 2)))
    with pytest.raises(LinearSolveFailure, match="factorization failed"):
        solve_linear(A, np.array([1.0, 1.0]))
    assert splu_specs == [SYMMETRIC, None]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_pattern_sums_like_coo_to_csr_bit_for_bit(seed):
    # values of wildly different magnitudes and signed zeros make every
    # change of summation order visible; long rows take scipy's sort past
    # its insertion-sort cutoff
    rng = np.random.default_rng(seed)
    nrows, ncols = 7, 40
    rows = np.concatenate([rng.integers(0, nrows, 400), np.full(300, 3)])
    cols = rng.integers(0, ncols, len(rows))
    pattern = CsrPattern(rows, cols, (nrows, ncols))
    for _ in range(3):
        vals = (rng.choice([1e16, -1e16, 1.0, -1.0, 0.0, -0.0, 1e-300], len(rows))
                * rng.uniform(0.5, 2.0, len(rows)))
        ref = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
        assert np.array_equal(pattern.indptr, ref.indptr)
        assert np.array_equal(pattern.indices, ref.indices)
        assert np.array_equal(_bits(pattern.sum(vals)), _bits(ref.data))
        A = pattern.matrix(pattern.sum(vals))
        assert np.array_equal(A.toarray(), ref.toarray())


def test_pattern_take_reads_a_longer_value_list():
    rows = np.array([0, 1, 0, 1, 0])
    cols = np.array([1, 0, 1, 1, 1])
    keep = np.array([0, 2, 3, 4])
    pattern = CsrPattern(rows[keep], cols[keep], (2, 2), take=keep)
    vals = np.array([1.0, 100.0, 2.0, 4.0, 8.0])
    A = pattern.matrix(pattern.sum(vals))
    assert np.array_equal(A.toarray(), [[0.0, 11.0], [0.0, 4.0]])
    # exact zeros stay stored: every matrix has the pattern's layout,
    # shares its tables, and leaves them intact
    Z = pattern.matrix(pattern.sum(np.array([1.0, 100.0, -1.0, 0.0, 0.0])))
    for mat in (A, Z):
        assert mat.nnz == len(pattern.indices) == 2
        assert np.shares_memory(mat.indptr, pattern.indptr)
        assert np.shares_memory(mat.indices, pattern.indices)
    assert np.array_equal(Z.data, [0.0, 0.0])
    with pytest.raises(ValueError):
        pattern.indices[0] = 0


def test_pattern_rejects_out_of_range_triplets():
    with pytest.raises(ValueError, match="out of range"):
        CsrPattern([0, 3], [0, 0], (3, 3))
    with pytest.raises(ValueError, match="out of range"):
        CsrPattern([0, 1], [0, -1], (3, 3))


def test_right_hand_side_must_match_the_matrix():
    with pytest.raises(LinearSolveFailure, match="right-hand side"):
        solve_linear(sp.csr_matrix(np.eye(3)), np.ones(2))
    # a stored ordering would otherwise read the first rows of a longer b
    pattern = CsrPattern([0, 1, 2], [0, 1, 2], (3, 3))
    A = pattern.matrix(pattern.sum(np.ones(3)))
    solve_linear(A, np.ones(3))
    assert pattern.ordering is not None
    for b in (np.ones(4), np.ones((3, 1)), np.float64(1.0)):
        with pytest.raises(LinearSolveFailure, match="right-hand side"):
            solve_linear(A, b)


NATURAL = "NATURAL"


@pytest.fixture()
def factors(monkeypatch):
    """(permc_spec, SuperLU object) of every factorization made during a test."""
    made = []
    splu = spla.splu

    def recording(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        made.append((kwargs.get("permc_spec"), lu))
        return lu

    monkeypatch.setattr(spla, "splu", recording)
    return made


def _fresh_symmetric_lu(A):
    # the factorization solve_linear makes on a matrix it has no order for
    return spla.splu(A.tocsc(), permc_spec=SYMMETRIC, diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def test_pattern_reuses_its_first_ordering(factors):
    # an unsymmetric pattern with a full diagonal, filled four times
    rng = np.random.default_rng(3)
    n = 120
    rows = np.concatenate([np.arange(n), rng.integers(0, n, 5 * n)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, 5 * n)])
    pattern = CsrPattern(rows, cols, (n, n))
    specs = []
    for _ in range(4):
        vals = rng.normal(size=len(rows))
        vals[:n] += 20.0
        A = pattern.matrix(pattern.sum(vals))
        b = rng.normal(size=n)
        fresh = _fresh_symmetric_lu(A)
        want = fresh.solve(b)
        factors.clear()
        x = solve_linear(A, b)
        assert len(factors) == 1
        spec, lu = factors[0]
        specs.append(spec)
        assert lu.nnz == fresh.nnz
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert specs == [SYMMETRIC, NATURAL, NATURAL, NATURAL]


def test_stored_solves_refill_one_container_bit_for_bit():
    # every stored-ordering solve of a layout refills the same CSC
    # container; each must give the bits of a freshly built one
    rng = np.random.default_rng(4)
    n = 80
    rows = np.concatenate([np.arange(n), rng.integers(0, n, 4 * n)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, 4 * n)])
    pattern = CsrPattern(rows, cols, (n, n))

    def filled():
        vals = rng.normal(size=len(rows))
        vals[:n] += 20.0
        return pattern.matrix(pattern.sum(vals)), rng.normal(size=n)

    solve_linear(*filled())  # stores the ordering
    stored = pattern.ordering
    container = stored.permuted
    for _ in range(2):
        A, b = filled()
        x = solve_linear(A, b)
        assert stored.permuted is container
        fresh = sp.csc_matrix((A.data[stored.gather], container.indices.copy(),
                               container.indptr.copy()), shape=(n, n))
        want = spla.splu(fresh, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True)).solve(b[stored.order])
        assert np.array_equal(x, want[stored.perm])


def test_stored_ordering_falls_back_to_colamd(splu_specs):
    pattern = CsrPattern([0, 0, 1, 1], [0, 1, 0, 1], (2, 2))
    b = np.array([1.0, 2.0])
    for diagonal in (2.0, 1e-20, 3.0):
        A = pattern.matrix(pattern.sum(np.array([diagonal, 1.0, 1.0, diagonal])))
        x = solve_linear(A, b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
    # the tiny diagonal pivot misses the contract on the stored order; the
    # ordering survives the fallback
    assert splu_specs == [SYMMETRIC, NATURAL, None, NATURAL]


def test_matrices_without_a_kept_layout_are_ordered_afresh(splu_specs):
    b = np.array([1.0, 2.0])
    A = sp.csr_matrix([[2.0, 1.0], [1.0, 3.0]])
    solve_linear(A, b)
    solve_linear(A, b)
    pattern = CsrPattern([0, 0, 1, 1], [0, 1, 0, 1], (2, 2), keep_ordering=False)
    B = pattern.matrix(pattern.sum(np.array([2.0, 1.0, 1.0, 3.0])))
    solve_linear(B, b)
    solve_linear(B, b)
    # a copy of a kept layout's matrix no longer carries the layout
    kept = CsrPattern([0, 0, 1, 1], [0, 1, 0, 1], (2, 2))
    C = kept.matrix(kept.sum(np.array([2.0, 1.0, 1.0, 3.0])))
    solve_linear(C, b)
    solve_linear(C.copy(), b)
    assert splu_specs == [SYMMETRIC] * 6
    assert pattern.ordering is None and kept.ordering is not None


def test_systems_on_one_mesh_never_share_an_ordering(splu_specs):
    mesh = build_unit_square_mesh(4)
    first, second = (ChbSystem(mesh, MaterialParams()) for _ in range(2))
    cfg = SolverConfig()
    first.splitting_step(first.initial_state(), cfg)
    assert splu_specs.count(SYMMETRIC) == 3
    splu_specs.clear()
    second.splitting_step(second.initial_state(), cfg)
    # the second system orders each of its layouts itself
    assert splu_specs.count(SYMMETRIC) == 3
    layouts = [lambda s: s._ch_layout[1], lambda s: s._elasticity_layout,
               lambda s: s._flow_layout[1]]
    for layout in layouts:
        assert layout(first) is not layout(second)
        assert layout(first).ordering is not None
        assert layout(second).ordering is not None
        assert layout(first).ordering is not layout(second).ordering
    # an ordering lives on its system's layout and goes away with it
    stored = weakref.ref(first._ch_layout[1].ordering)
    del first
    gc.collect()
    assert stored() is None
    assert all(layout(second).ordering is not None for layout in layouts)


def _block_system(rng, sizes=(30, 20, 25), singular=None):
    """A matrix with couplings on both sides of its diagonal blocks, and
    those blocks filled on kept layouts; the block numbered `singular` is
    attached with a zero row, while the matrix keeps it regular."""
    diagonal, attached = [], []
    for k, n in enumerate(sizes):
        rows = np.concatenate([np.arange(n), rng.integers(0, n, 3 * n)])
        cols = np.concatenate([np.arange(n), rng.integers(0, n, 3 * n)])
        vals = rng.normal(size=len(rows))
        vals[:n] += 8.0
        pattern = CsrPattern(rows, cols, (n, n))
        block = pattern.matrix(pattern.sum(vals))
        diagonal.append(block)
        if k == singular:
            block = pattern.matrix(np.where(_slot_rows(block) == 0, 0.0,
                                            block.data))
        attached.append(block)
    grid = [[diagonal[i] if i == j
             else sp.random(m, n, density=0.1, random_state=rng) * 0.5
             for j, n in enumerate(sizes)] for i, m in enumerate(sizes)]
    A = sp.bmat(grid, format="csr")
    A.blocks = tuple(attached)
    return A, rng.normal(size=A.shape[0])


def _direct(A, b):
    """solve_linear's result for A without its blocks."""
    return solve_linear(A.copy(), b)


def test_block_path_meets_the_contract_and_matches_the_direct_solve(factors):
    rng = np.random.default_rng(11)
    A, b = _block_system(rng)
    want = _direct(A, b)
    factors.clear()
    for _ in range(2):
        x = solve_linear(A, b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
        assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    # one factorization per block and solve, never of A itself; the
    # second solve reuses the orderings the first stored on the layouts
    assert [lu.shape for _, lu in factors] == [blk.shape for blk in A.blocks] * 2
    assert [spec for spec, _ in factors] == [SYMMETRIC] * 3 + [NATURAL] * 3
    assert all(blk.layout.ordering is not None for blk in A.blocks)


@pytest.mark.parametrize("miss", ["singular_block", "capped_gmres"])
def test_block_path_falls_back_to_the_direct_solve(miss, factors, monkeypatch):
    rng = np.random.default_rng(12)
    A, b = _block_system(rng, singular=1 if miss == "singular_block" else None)
    want = _direct(A, b)
    if miss == "capped_gmres":
        monkeypatch.setattr(linalg, "KRYLOV_MAX_ITERS", 1)
    factors.clear()
    x = solve_linear(A, b)
    assert np.array_equal(x, want)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
    # the blocks factored before the miss, then A as if it carried none
    factored = 1 if miss == "singular_block" else 3
    assert [lu.shape for _, lu in factors] == (
        [blk.shape for blk in A.blocks[:factored]] + [A.shape])
    assert [spec for spec, _ in factors] == [SYMMETRIC] * (factored + 1)


def test_matrix_without_blocks_is_solved_as_before(factors, monkeypatch):
    monkeypatch.setattr(spla, "gmres", None)   # never reached
    rng = np.random.default_rng(13)
    A, b = _block_system(rng)
    del A.blocks
    x = solve_linear(A, b)
    assert [spec for spec, _ in factors] == [SYMMETRIC]
    assert np.array_equal(x, _fresh_symmetric_lu(A).solve(b))
