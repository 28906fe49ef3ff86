import numpy as np
import pytest
import scipy.sparse as sp

from chbfem.linalg import CsrPattern, LinearSolveFailure, solve_linear


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
    assert np.array_equal(pattern.matrix(pattern.sum(vals)).toarray(),
                          [[0.0, 11.0], [0.0, 4.0]])


def test_pattern_matrix_leaves_out_dropped_slots():
    pattern = CsrPattern([0, 0, 1, 2], [0, 2, 1, 2], (3, 3))
    data = np.array([1.0, 0.0, 0.0, 3.0])
    A = pattern.matrix(data, dropped=np.array([False, True, False, False]))
    assert np.array_equal(A.indptr, [0, 1, 2, 3])
    assert np.array_equal(A.indices, [0, 1, 2])
    assert np.array_equal(A.data, [1.0, 0.0, 3.0])
    # the pattern itself is shared by every matrix and stays intact
    assert pattern.nnz == 4
    with pytest.raises(ValueError):
        pattern.indices[0] = 1


def test_pattern_rejects_out_of_range_triplets():
    with pytest.raises(ValueError, match="out of range"):
        CsrPattern([0, 3], [0, 0], (3, 3))
    with pytest.raises(ValueError, match="out of range"):
        CsrPattern([0, 1], [0, -1], (3, 3))
