import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chbfem import MaterialParams, build_unit_square_mesh, linalg
from chbfem import _kernels as kn
from chbfem.linalg import CsrPattern, LinearSolveFailure, solve_linear
from chbfem.solvers import ChbSystem, SolverConfig, _slot_rows

from conftest import random_state, take_step


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
        # each column of the stored CSC lists its rows by A's row number,
        # the order SuperLU visits them in a fresh factorization
        assert np.array_equal(x, want)
    assert specs == [SYMMETRIC, NATURAL, NATURAL, NATURAL]


@pytest.mark.parametrize("n", [4, 16])
def test_stored_orderings_reproduce_fresh_factors_on_every_layout(n):
    system = ChbSystem(build_unit_square_mesh(n), MaterialParams())
    rng = np.random.default_rng(n)
    prev, st = random_state(system, rng), random_state(system, rng)
    pw = system.pointwise(st.phi, st.u, st.p)
    phase = system.phase_integrals(pw)
    mq_elem = kn.rt0_weighted_mass(pw, system.wq_last, system.psi_last)
    matrices = {
        "ch": system._ch_matrix(kn.ch_jac(pw, system.wq_last, system.lam)),
        "elasticity": system._elasticity_matrix(
            np.einsum("cai,cab,cbj->cij", system.B, phase.cint, system.B)),
        "flux": system._flux_matrix(phase.dinv, mq_elem),
        "monolithic": system.monolithic_jacobian(st, system.monolithic_iterate(st)),
    }
    for name, A in matrices.items():
        b = rng.normal(size=A.shape[0])
        fresh = _fresh_symmetric_lu(A)
        stored = linalg._StoredOrdering(A.layout, fresh.perm_c)
        assert np.array_equal(stored.factor(A.data)(b), fresh.solve(b)), name


@pytest.mark.parametrize("n", [4, 16])
def test_matvec_has_the_bits_of_scipys_product(n):
    # every matrix the solve loop multiplies by linalg.matvec
    system = ChbSystem(build_unit_square_mesh(n), MaterialParams())
    rng = np.random.default_rng(n)
    st = random_state(system, rng)
    pw = system.pointwise(st.phi, st.u, st.p)
    phase = system.phase_integrals(pw)
    matrices = {
        "ch": system._ch_matrix(kn.ch_jac(pw, system.wq_last, system.lam)),
        "elasticity": system._elasticity_matrix(
            system._stiffness_elem(phase.cint)),
        "flux": system._flux_matrix(
            phase.dinv, kn.rt0_weighted_mass(pw, system.wq_last,
                                             system.psi_last)),
        "monolithic": system.monolithic_jacobian(
            st, system.monolithic_iterate(st)),
        "M": system.M, "K": system.K, "Bdiv": system.Bdiv,
        "BdivT": system.BdivT,
    }
    for name, A in matrices.items():
        assert A.format == "csr", name
        assert A.indices.dtype == A.indptr.dtype == np.int32, name
        ncols = A.shape[1]
        vectors = [rng.normal(size=ncols), np.zeros(ncols),
                   rng.normal(size=ncols) * 1e300]
        for bad in (np.nan, np.inf, -np.inf):
            x = rng.normal(size=ncols)
            x[rng.integers(ncols)] = bad
            vectors.append(x)
        with np.errstate(over="ignore", invalid="ignore"):
            for x in vectors:
                got, want = linalg.matvec(A, x), A @ x
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError):
            linalg.matvec(A, np.ones(ncols + 1))


def test_l2norm_has_the_bits_of_numpys_norm():
    rng = np.random.default_rng(3)
    for x in (rng.normal(size=578), np.zeros(7), np.full(3, 1e200),
              np.array([1.0, np.nan]), np.array([np.inf, 1.0])):
        with np.errstate(over="ignore"):
            got, want = linalg.l2norm(x), np.linalg.norm(x)
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        linalg.l2norm(np.full(3, 1e200))


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
        fresh.has_canonical_format = True   # rows in A's order, unsorted
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


def test_a_layout_keeps_the_ordering_of_a_first_solve_that_misses(factors):
    pattern = CsrPattern([0, 0, 1, 1], [0, 1, 0, 1], (2, 2))
    b = np.array([1.0, 2.0])
    A = pattern.matrix(pattern.sum(np.array([1e-20, 1.0, 1.0, 1e-20])))
    solve_linear(A, b)
    # the tiny diagonal pivot misses the contract; COLAMD solves A
    assert [spec for spec, _ in factors] == [SYMMETRIC, None]
    assert pattern.ordering is not None
    factors.clear()
    A = pattern.matrix(pattern.sum(np.array([2.0, 1.0, 1.0, 3.0])))
    x = solve_linear(A, b)
    assert [spec for spec, _ in factors] == [NATURAL]
    assert np.array_equal(x, _fresh_symmetric_lu(A).solve(b))


def test_matrices_without_a_kept_layout_are_ordered_afresh(splu_specs):
    b = np.array([1.0, 2.0])
    A = sp.csr_matrix([[2.0, 1.0], [1.0, 3.0]])
    solve_linear(A, b)
    solve_linear(A, b)
    # a copy of a layout's matrix no longer carries the layout
    kept = CsrPattern([0, 0, 1, 1], [0, 1, 0, 1], (2, 2))
    C = kept.matrix(kept.sum(np.array([2.0, 1.0, 1.0, 3.0])))
    solve_linear(C, b)
    solve_linear(C.copy(), b)
    assert splu_specs == [SYMMETRIC] * 4
    assert kept.ordering is not None


def test_systems_on_one_mesh_never_share_an_ordering(splu_specs):
    mesh = build_unit_square_mesh(4)
    first, second = (ChbSystem(mesh, MaterialParams()) for _ in range(2))
    cfg = SolverConfig()
    take_step(first.splitting_step, first.initial_state(), cfg)
    assert splu_specs.count(SYMMETRIC) == 3
    splu_specs.clear()
    take_step(second.splitting_step, second.initial_state(), cfg)
    # the second system orders each of its layouts itself
    assert splu_specs.count(SYMMETRIC) == 3
    layouts = [lambda s: s._ch_layout[1], lambda s: s._elasticity_layout,
               lambda s: s._flux_layout]
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


def _kept_layout(rng, n=120):
    """An unsymmetric pattern with a full diagonal that keeps its factor,
    and a filler of its slots with diagonal `diagonal` plus noise."""
    rows = np.concatenate([np.arange(n), rng.integers(0, n, 5 * n)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, 5 * n)])
    pattern = CsrPattern(rows, cols, (n, n), keep_factor=True)

    def filled(diagonal, vals=None):
        vals = rng.normal(size=len(rows)) if vals is None else vals.copy()
        vals[:n] += diagonal
        return pattern.matrix(pattern.sum(vals))
    return pattern, filled


def test_kept_factor_serves_slowly_varying_matrices(splu_specs):
    rng = np.random.default_rng(5)
    pattern, filled = _kept_layout(rng)
    base, drift = rng.normal(size=(2, 720))
    made = []
    for k in range(6):
        A = filled(20.0, base + 1e-3 * k * drift)
        b = rng.normal(size=A.shape[0])
        before = len(splu_specs)
        x = solve_linear(A, b)
        made.append(splu_specs[before:])
        assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
        want = _fresh_symmetric_lu(A).solve(b)
        assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    # the first factor, ordered by MMD, serves every later matrix
    assert made == [[SYMMETRIC]] + [[]] * 5
    assert pattern.kept is not None


@pytest.mark.parametrize("new", ["different", "singular", np.nan, np.inf])
def test_kept_factor_falls_back_to_fresh_factors(new, splu_specs):
    rng = np.random.default_rng(6)
    pattern, filled = _kept_layout(rng)
    first = filled(20.0)
    b = rng.normal(size=first.shape[0])
    solve_linear(first, b)
    if new != "singular":
        if new == "different":
            # refinement with the old factor doubles the residual
            A = filled(-20.0)
        else:
            # a kept factor that returns non-finite values
            A = first
            pattern.kept = lambda r: np.full_like(r, new)
        x = solve_linear(A, b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
        # the fresh factor on the stored ordering is kept and serves A again
        solve_linear(A, rng.normal(size=A.shape[0]))
        assert splu_specs == [SYMMETRIC, NATURAL]
    else:
        # the residual of a zero row stays: refinement gives up, and both
        # factorizations break down
        A = pattern.matrix(np.where(_slot_rows(first) == 0, 0.0, first.data))
        with pytest.raises(LinearSolveFailure):
            solve_linear(A, b)
        assert pattern.kept is None
        # the next matrix is factored afresh on the stored ordering
        solve_linear(first, b)
        assert splu_specs == [SYMMETRIC, NATURAL, None, NATURAL]
    assert pattern.kept is not None


@pytest.mark.parametrize("max_steps", [linalg.REFINE_MAX_STEPS, 40])
def test_refinement_gives_up_once_its_rate_cannot_reach_the_target(
        max_steps, splu_specs, monkeypatch):
    monkeypatch.setattr(linalg, "REFINE_MAX_STEPS", max_steps)
    rng = np.random.default_rng(8)
    pattern, filled = _kept_layout(rng)
    first = filled(20.0)
    b = rng.normal(size=first.shape[0])
    solve_linear(first, b)
    kept, steps = pattern.kept, []

    def counted(r):
        steps.append(np.linalg.norm(r))
        return kept(r)

    pattern.kept = counted
    # against the factor of `first`, each step leaves 0.3 of the residual:
    # KRYLOV_RTOL takes 23 steps
    A = pattern.matrix(1.3 * first.data)
    x = solve_linear(A, b)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
    rates = np.array(steps[1:]) / steps[:-1]
    np.testing.assert_allclose(rates, 0.3, rtol=1e-6)
    if max_steps < 23:
        # the first step's rate shows that the cap is too short
        assert len(steps) == 1
        assert splu_specs == [SYMMETRIC, NATURAL]
        # the fresh factor is kept and serves A again
        assert pattern.kept is not counted
        solve_linear(A, rng.normal(size=A.shape[0]))
        assert splu_specs == [SYMMETRIC, NATURAL]
    else:
        assert len(steps) == 23
        assert splu_specs == [SYMMETRIC]
        assert pattern.kept is counted



def _block_system(rng, sizes=(30, 20, 25), singular=None):
    """A matrix with couplings on both sides of its diagonal blocks, which
    it carries as factored_block of each; those are filled on their own
    layouts, returned too.  The block numbered `singular` is attached with
    a zero row, while the matrix keeps it regular."""
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
    A.blocks = tuple(linalg.factored_block(block) for block in attached)
    return A, rng.normal(size=A.shape[0]), attached


def _direct(A, b):
    """solve_linear's result for A without its blocks."""
    return solve_linear(A.copy(), b)


def test_block_path_meets_the_contract_and_matches_the_direct_solve(factors):
    rng = np.random.default_rng(11)
    A, b, blocks = _block_system(rng)
    want = _direct(A, b)
    factors.clear()
    for _ in range(2):
        x = solve_linear(A, b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * max(np.linalg.norm(b), 1.0)
        assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    # one factorization per block and solve, never of A itself; the
    # second solve reuses the orderings the first stored on the layouts
    assert [lu.shape for _, lu in factors] == [blk.shape for blk in blocks] * 2
    assert [spec for spec, _ in factors] == [SYMMETRIC] * 3 + [NATURAL] * 3
    assert all(blk.layout.ordering is not None for blk in blocks)


@pytest.mark.parametrize("miss", ["singular_block", "capped_gmres"])
def test_block_path_falls_back_to_the_direct_solve(miss, factors, monkeypatch):
    rng = np.random.default_rng(12)
    A, b, blocks = _block_system(rng,
                                 singular=1 if miss == "singular_block" else None)
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
        [blk.shape for blk in blocks[:factored]] + [A.shape])
    assert [spec for spec, _ in factors] == [SYMMETRIC] * (factored + 1)


def test_block_path_takes_any_exact_block_solver(factors):
    rng = np.random.default_rng(16)
    A, b, blocks = _block_system(rng)
    made = []

    def dense(block):
        def solver():
            made.append(block.shape[0])
            return lambda r: np.linalg.solve(block.toarray(), r)
        return linalg.Block(block.shape[0], solver)

    A.blocks = tuple(dense(block) for block in blocks)
    want = _direct(A, b)
    factors.clear()
    x = solve_linear(A, b)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    # each solver is made once for the solve, and nothing is factored
    assert made == [30, 20, 25]
    assert factors == []


def test_block_path_factors_nothing_when_zero_meets_the_tolerance(factors):
    rng = np.random.default_rng(14)
    A, b, _ = _block_system(rng)
    x = solve_linear(A, 1e-13 * b / np.linalg.norm(b))
    assert factors == [] and np.array_equal(x, np.zeros(len(b)))
    # a larger right-hand side is solved by GMRES as before
    solve_linear(A, 1e-11 * b / np.linalg.norm(b))
    assert len(factors) == 3


def test_block_rows_are_views_of_the_matrix():
    rng = np.random.default_rng(15)
    A, _, _ = _block_system(rng)
    z = rng.normal(size=A.shape[0])
    rows = linalg._rows(A, 30, 50)
    assert np.shares_memory(rows.data, A.data)
    assert np.shares_memory(rows.indices, A.indices)
    assert np.array_equal(rows @ z, A[30:50] @ z)


def test_matrix_without_blocks_is_solved_as_before(factors, monkeypatch):
    monkeypatch.setattr(spla, "gmres", None)   # never reached
    rng = np.random.default_rng(13)
    A, b, _ = _block_system(rng)
    del A.blocks
    x = solve_linear(A, b)
    assert [spec for spec, _ in factors] == [SYMMETRIC]
    assert np.array_equal(x, _fresh_symmetric_lu(A).solve(b))
