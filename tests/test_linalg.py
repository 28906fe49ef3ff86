import numpy as np
import pytest
import scipy.sparse as sp

from chbfem.linalg import (LinearSolveFailure, SparseMatrix, TripletBuffer,
                           compress, norms, solve_linear)


def test_duplicates_sum_on_compress():
    buf = TripletBuffer()
    buf.add(0, 0, 1.0)
    buf.add(0, 0, 2.0)
    A = compress(buf, 1, 1)
    assert A.nnz == 1
    assert A.toarray()[0, 0] == 3.0


def test_empty_buffer_is_zero_matrix():
    A = compress(TripletBuffer(), 3, 3)
    x = np.array([1.0, -2.0, 5.0])
    assert np.array_equal(A.matvec(x), np.zeros(3))


def test_hand_matvec():
    buf = TripletBuffer()
    buf.add(0, 1, 5.0)
    buf.add(1, 0, 7.0)
    A = compress(buf, 2, 2)
    assert np.array_equal(A.matvec(np.array([1.0, 1.0])), np.array([5.0, 7.0]))


def test_compress_rejects_out_of_range():
    buf = TripletBuffer()
    buf.add(2, 0, 1.0)
    with pytest.raises(ValueError):
        compress(buf, 2, 2)


def test_compress_order_independent():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 10, 200)
    cols = rng.integers(0, 10, 200)
    vals = rng.normal(size=200)
    buf1 = TripletBuffer()
    buf1.add_block(rows, cols, vals)
    perm = rng.permutation(200)
    buf2 = TripletBuffer()
    buf2.add_block(rows[perm], cols[perm], vals[perm])
    A1 = compress(buf1, 10, 10)
    A2 = compress(buf2, 10, 10)
    assert np.array_equal(A1.row_offsets, A2.row_offsets)
    assert np.array_equal(A1.col_indices, A2.col_indices)
    assert np.allclose(A1.values, A2.values, rtol=0, atol=1e-15)


def test_csr_columns_sorted_unique():
    buf = TripletBuffer()
    buf.add_block([0, 0, 0, 1], [2, 1, 2, 0], [1.0, 2.0, 3.0, 4.0])
    A = compress(buf, 2, 3)
    for r in range(2):
        cols = A.col_indices[A.row_offsets[r]:A.row_offsets[r + 1]]
        assert np.all(np.diff(cols) > 0)


def test_solve_identity():
    A = SparseMatrix(sp.eye(4, format="csr"))
    b = np.array([1.0, -2.0, 3.5, 0.0])
    assert np.allclose(solve_linear(A, b), b, atol=1e-14)


def test_solve_two_by_two():
    buf = TripletBuffer()
    buf.add_block([0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 3.0])
    A = compress(buf, 2, 2)
    x = solve_linear(A, np.array([3.0, 5.0]))
    assert np.allclose(x, [0.8, 1.4], atol=1e-12)


def test_solve_random_spd():
    rng = np.random.default_rng(42)
    R = rng.normal(size=(50, 50))
    A = sp.csr_matrix(R @ R.T + 50 * np.eye(50))
    b = rng.normal(size=50)
    x = solve_linear(SparseMatrix(A), b)
    assert np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1.0) <= 1e-10


def test_residual_contract_on_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(5, 40)
        A = sp.csr_matrix(rng.normal(size=(n, n)) + n * np.eye(n))
        b = rng.normal(size=n)
        x = solve_linear(SparseMatrix(A), b)
        assert np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1.0) <= 1e-10


def test_singular_matrix_raises_distinct_error():
    A = SparseMatrix(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])))
    with pytest.raises(LinearSolveFailure):
        solve_linear(A, np.array([1.0, 1.0]))


def test_nonsquare_raises():
    A = SparseMatrix(sp.csr_matrix(np.ones((2, 3))))
    with pytest.raises(LinearSolveFailure):
        solve_linear(A, np.ones(2))


def test_indefinite_saddle_point_solve():
    # [[I, B^T], [B, 0]] with full-rank B
    B = np.array([[1.0, 2.0, 0.0]])
    A = np.block([[np.eye(3), B.T], [B, np.zeros((1, 1))]])
    b = np.array([1.0, 0.0, 2.0, 1.0])
    x = solve_linear(SparseMatrix(sp.csr_matrix(A)), b)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)


SYMMETRIC = "MMD_AT_PLUS_A"


def test_pattern_decides_factorization(splu_specs):
    b = np.array([1.0, 2.0])
    solve_linear(SparseMatrix(sp.csr_matrix([[2.0, 1.0], [3.0, 4.0]])), b)
    solve_linear(SparseMatrix(sp.csr_matrix([[2.0, 1.0], [0.0, 4.0]])), b)
    assert splu_specs == [SYMMETRIC, None]


@pytest.mark.parametrize("eps", [0.0, 1e-20])
def test_pattern_symmetric_solve_with_bad_diagonal_pivots(eps, splu_specs):
    # SuperLU steps off an exactly zero diagonal, but takes a tiny one as
    # the pivot in symmetric mode and loses the residual contract; the
    # pivoting factorization must then repeat the solve
    A = sp.csr_matrix(np.array([[eps, 1.0], [1.0, eps]]))
    b = np.array([1.0, 2.0])
    x = solve_linear(SparseMatrix(A), b)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
    assert splu_specs[0] == SYMMETRIC
    if eps:
        assert splu_specs == [SYMMETRIC, None]


def test_singular_pattern_symmetric_matrix_raises(splu_specs):
    A = SparseMatrix(sp.csr_matrix(np.ones((2, 2))))
    with pytest.raises(LinearSolveFailure, match="factorization failed"):
        solve_linear(A, np.array([1.0, 1.0]))
    assert splu_specs == [SYMMETRIC, None]


def test_norms_examples():
    assert norms(np.array([3.0, 4.0])) == (5.0, 4.0)
    assert norms(np.zeros(5)) == (0.0, 0.0)
    l2, linf = norms(np.array([1.0, -2.0, 2.0]))
    assert np.isclose(l2, 3.0) and linf == 2.0
