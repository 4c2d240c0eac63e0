"""Block Jacobi, MDF ordering, and block ILU0."""

import numpy as np
import pytest
import scipy.sparse

import kktprecond.blocklinalg as blocklinalg
from kktprecond.blocklinalg import block_rows
from kktprecond.conprec import build_at_preconditioner
from kktprecond.dgprecond import MdfOrdering, bilu0_blocks, bilu0_factor, build_block_jacobi, mdf_order
from kktprecond.errors import SingularBlock, SingularPivotBlock
from kktprecond.krylov import GmresConfig, gmres_solve
from kktprecond.stencil import generate_stencil_system
from oracles import LinearOperator, bilu_factors, bilu_matrix, getrf
from test_bitwise_oracles import _diagonal, scaled_stencil


def bsr(blocks, indices, indptr):
    """Square BSR matrix of a (count, s, s) block stack in block-CSR layout."""
    blocks = np.asarray(blocks, dtype=float)
    n = (len(indptr) - 1) * blocks.shape[1]
    return scipy.sparse.bsr_matrix((blocks, indices, indptr), shape=(n, n))


def block_diag_matrix(blocks):
    n = len(blocks)
    return bsr(blocks, np.arange(n), np.arange(n + 1))


def stored_blocks(A):
    """{(i, j): block} of the stored blocks of a BSR matrix."""
    rows = block_rows(A.indptr)
    return {(int(i), int(j)): blk for i, j, blk in zip(rows, A.indices, A.data)}


def block_tridiagonal(n, size, rng, diag_boost=4.0):
    row_ptr = [0]
    col_idx = []
    blocks = []
    for i in range(n):
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                col_idx.append(j)
                blk = rng.standard_normal((size, size))
                if j == i:
                    blk += diag_boost * np.eye(size)
                blocks.append(blk)
        row_ptr.append(len(col_idx))
    return bsr(blocks, col_idx, row_ptr)


def natural_order(n):
    return MdfOrdering(np.arange(n), np.zeros(n))


def permutation_matrix(order, sizes):
    """Point permutation P with (P A P^T) the block-reordered matrix."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    cols = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in order])
    P = np.zeros((len(cols), len(cols)))
    P[np.arange(len(cols)), cols] = 1.0
    return P


# Block Jacobi ---------------------------------------------------------------


def test_block_jacobi_is_exact_inverse_of_block_diagonal():
    rng = np.random.default_rng(1)
    blocks = [rng.standard_normal((3, 3)) + 4.0 * np.eye(3) for _ in range(3)]
    A = block_diag_matrix(blocks)
    P = build_block_jacobi(A)
    v = rng.standard_normal(9)
    np.testing.assert_allclose(
        P.apply(v), np.linalg.solve(A.toarray(), v), rtol=1e-12
    )
    dense = A.toarray()
    op = LinearOperator(9, lambda w: dense @ w)
    M = LinearOperator(9, P.apply)
    rep = gmres_solve(op, v, M, GmresConfig(tol=1e-8))
    assert rep.converged and rep.iterations == 1


def test_block_jacobi_rejects_missing_diagonal():
    A = bsr([[[1.0]], [[1.0]]], [1, 0], [0, 1, 2])
    with pytest.raises(SingularBlock):
        build_block_jacobi(A)


@pytest.mark.parametrize("scale", [0.0, 1e-15])
def test_block_jacobi_rejects_singular_diagonal_block(scale):
    # The stored diagonal block of row 1 has a pivot below 1e-14 of its
    # largest entry: exactly singular, or singular to working precision.
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((2, 2)) + 3.0 * np.eye(2) for _ in range(3)]
    blocks[1][1] = scale * blocks[1][0]
    with pytest.raises(SingularBlock, match="block row 1: pivot below 1e-14 relative threshold"):
        build_block_jacobi(block_diag_matrix(blocks))


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1", "stencil"])
def test_block_jacobi_matches_per_block_lu_solves(name, request):
    # The inverted blocks against LAPACK getrs of each diagonal block's LU;
    # the stencil's blocks are scaled over two decades and pivot.
    A = scaled_stencil(0) if name == "stencil" else request.getfixturevalue(name).Ju
    s = A.blocksize[0]
    diag = A.data[_diagonal(A)]
    P = build_block_jacobi(A)
    v = np.random.default_rng(6).standard_normal(A.shape[0])
    for apply, trans in ((P.apply, "N"), (P.apply_T, "T")):
        want = np.concatenate([getrf(D).solve(v[m * s : (m + 1) * s], trans) for m, D in enumerate(diag)])
        np.testing.assert_allclose(apply(v), want, rtol=1e-12)


def test_block_jacobi_identity_diagonals_is_identity_map():
    rng = np.random.default_rng(2)
    A = block_tridiagonal(3, 2, rng)
    for (i, j), blk in stored_blocks(A).items():
        if i == j:
            blk[:] = np.eye(2)
    P = build_block_jacobi(A)
    v = rng.standard_normal(6)
    np.testing.assert_allclose(P.apply(v), v, rtol=1e-14)


def test_block_jacobi_examples_and_transpose():
    A = block_diag_matrix([np.eye(3), np.eye(3)])
    v = np.arange(6.0)
    np.testing.assert_array_equal(build_block_jacobi(A).apply(v), v)

    A2 = block_diag_matrix([np.array([[2.0]]), np.array([[2.0]])])
    np.testing.assert_allclose(
        build_block_jacobi(A2).apply(np.array([4.0, 4.0])), [2.0, 2.0]
    )

    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((2, 2)) + 3.0 * np.eye(2) for _ in range(4)]
    A3 = block_diag_matrix(blocks)
    P3 = build_block_jacobi(A3)
    w = rng.standard_normal(8)
    np.testing.assert_allclose(
        P3.apply_T(w),
        np.linalg.solve(A3.toarray().T, w),
        rtol=1e-12,
    )


# MDF ordering ---------------------------------------------------------------


def brute_force_mdf(A):
    """Independent greedy reference: recompute every weight from scratch with
    dense algebra at each step."""
    dense_blocks = stored_blocks(A)
    n = len(A.indptr) - 1

    alive = set(range(n))
    order = []

    def weight(k):
        total = 0.0
        akk_inv = np.linalg.inv(dense_blocks[(k, k)])
        for i in alive:
            if i == k or (i, k) not in dense_blocks:
                continue
            for j in alive:
                if j == k or j == i:
                    continue
                if (k, j) in dense_blocks and (i, j) not in dense_blocks:
                    fill = dense_blocks[(i, k)] @ akk_inv @ dense_blocks[(k, j)]
                    total += np.sum(fill * fill)
        return np.sqrt(total)

    while alive:
        best = min(sorted(alive), key=lambda k: (weight(k), k))
        order.append(best)
        alive.remove(best)
    return np.array(order)


def test_mdf_block_diagonal_natural_order_zero_weights():
    rng = np.random.default_rng(4)
    A = block_diag_matrix([rng.standard_normal((2, 2)) + 3.0 * np.eye(2) for _ in range(5)])
    ordering = mdf_order(A)
    np.testing.assert_array_equal(ordering.order, np.arange(5))
    np.testing.assert_array_equal(ordering.weights_at_selection, np.zeros(5))


def test_mdf_tridiagonal_is_natural_order():
    # Endpoint rows never discard fill (their only alive neighbor pair is
    # degenerate), so elimination proceeds inward from the first row; ties go
    # to the lowest index.
    rng = np.random.default_rng(5)
    blk = rng.standard_normal((2, 2))
    blk = blk @ blk.T + 2.0 * np.eye(2)
    off = rng.standard_normal((2, 2)) * 0.3
    n = 4
    row_ptr, col_idx, blocks = [0], [], []
    for i in range(n):
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                col_idx.append(j)
                blocks.append(blk.copy() if j == i else off.copy())
        row_ptr.append(len(col_idx))
    A = bsr(blocks, col_idx, row_ptr)
    ordering = mdf_order(A)
    np.testing.assert_array_equal(ordering.order, [0, 1, 2, 3])
    np.testing.assert_allclose(ordering.weights_at_selection, np.zeros(4), atol=1e-14)


def test_mdf_matches_brute_force_greedy_oracle():
    for seed in range(6):
        A = generate_stencil_system(3, 2, seed=seed)
        ordering = mdf_order(A)
        np.testing.assert_array_equal(ordering.order, brute_force_mdf(A))


def test_mdf_weights_at_selection_match_recomputation():
    # The recorded weight of each selected row equals the brute-force weight
    # in the state the selection was made.
    A = generate_stencil_system(3, 1, seed=9)
    ordering = mdf_order(A)
    dense_blocks = stored_blocks(A)
    alive = set(range(len(A.indptr) - 1))
    for step, k in enumerate(ordering.order):
        total = 0.0
        akk_inv = np.linalg.inv(dense_blocks[(k, k)])
        for i in alive:
            if i == k or (i, k) not in dense_blocks:
                continue
            for j in alive:
                if j in (i, k) or (k, j) not in dense_blocks or (i, j) in dense_blocks:
                    continue
                fill = dense_blocks[(i, k)] @ akk_inv @ dense_blocks[(k, j)]
                total += np.sum(fill * fill)
        np.testing.assert_allclose(ordering.weights_at_selection[step], np.sqrt(total), atol=1e-12)
        alive.remove(int(k))


# Block ILU0 -----------------------------------------------------------------


def test_bilu_block_diagonal_factors_trivially():
    # Three blocks, then none: a 0 x 0 matrix factors to empty factors.
    rng = np.random.default_rng(6)
    for n in (3, 0):
        A = block_diag_matrix(np.reshape([rng.standard_normal((2, 2)) + 3.0 * np.eye(2) for _ in range(n)], (n, 2, 2)))
        ordering = mdf_order(A)
        assert np.array_equal(ordering.order, np.arange(n))
        P = bilu0_factor(A, ordering)
        # No sub-diagonal positions exist, so the stored blocks are exactly A (U = A).
        F = bilu0_blocks(A, np.arange(n))
        assert F.data.shape == A.data.shape == (n, 2, 2)
        for got, want in zip(F.data, A.data, strict=True):
            np.testing.assert_array_equal(got, want)
        v = rng.standard_normal(2 * n)
        np.testing.assert_allclose(P.apply(v), np.linalg.solve(A.toarray(), v), rtol=1e-12)
        np.testing.assert_allclose(P.apply_T(v), np.linalg.solve(A.toarray().T, v), rtol=1e-12)
        np.testing.assert_allclose(P.apply(v), build_block_jacobi(A).apply(v), rtol=1e-12)


def test_bilu_exact_on_block_tridiagonal():
    # Tridiagonal elimination in natural order creates no fill, so the
    # factorization is exact: L U = A.
    rng = np.random.default_rng(7)
    A = block_tridiagonal(5, 3, rng)
    P = bilu0_factor(A, natural_order(5))
    dense = A.toarray()
    L, U = bilu_factors(bilu0_blocks(A, np.arange(5)))
    defect = np.linalg.norm(L @ U - dense) / np.linalg.norm(dense)
    assert defect <= 1e-12

    w = rng.standard_normal(15)
    np.testing.assert_allclose(P.apply(w), np.linalg.solve(dense, w), rtol=1e-10)
    np.testing.assert_allclose(
        P.apply_T(w), np.linalg.solve(dense.T, w), rtol=1e-10
    )


def test_bilu_discards_fill_on_stencil():
    A = generate_stencil_system(3, 2, seed=0)
    ordering = mdf_order(A)
    sizes = np.full(len(A.indptr) - 1, A.blocksize[0])
    Pm = permutation_matrix(ordering.order, sizes)
    L, U = bilu_factors(bilu0_blocks(A, ordering.order))
    PA = Pm @ A.toarray() @ Pm.T
    assert np.linalg.norm(L @ U - PA) > 1e-8


BILU_INPUTS = {
    "stencil": lambda request: generate_stencil_system(3, 2, seed=1),
    # Discarded fill, with blocks scaled over two decades.
    "scaled_stencil0": lambda request: scaled_stencil(0),
    # DG Jacobians, where partial pivoting swaps rows in every diagonal block.
    "sys8_k1": lambda request: request.getfixturevalue("sys8_k1").Ju,
    "sys16_k1": lambda request: request.getfixturevalue("sys16_k1").Ju,
}


@pytest.mark.parametrize("name", BILU_INPUTS)
def test_bilu_inverse_consistent_with_permuted_factors(name, request):
    # The block ILU0 solve must equal a dense solve with the recomposed
    # approximation mapped back to the original ordering.
    A = BILU_INPUTS[name](request)
    ordering = mdf_order(A)
    P = bilu0_factor(A, ordering)
    sizes = np.full(len(A.indptr) - 1, A.blocksize[0])
    Pm = permutation_matrix(ordering.order, sizes)
    L, U = bilu_factors(bilu0_blocks(A, ordering.order))
    approx = Pm.T @ (L @ U) @ Pm
    n = Pm.shape[0]
    np.testing.assert_array_equal(bilu_matrix(A), approx)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(n)
    np.testing.assert_allclose(P.apply(w), np.linalg.solve(approx, w), rtol=1e-10)
    np.testing.assert_allclose(
        P.apply_T(w), np.linalg.solve(approx.T, w), rtol=1e-10
    )


def test_bilu_identity_factor_returns_input():
    A = block_diag_matrix([np.eye(2), np.eye(2)])
    P = bilu0_factor(A, natural_order(2))
    w = np.array([1.0, -2.0, 3.0, -4.0])
    np.testing.assert_allclose(P.apply(w), w, rtol=1e-14)


def test_bilu_singular_pivot_raises():
    # Eliminating the first row of [[I, I], [I, I]] zeroes the second pivot.
    A = bsr([np.eye(2)] * 4, [0, 1, 0, 1], [0, 2, 4])
    with pytest.raises(SingularPivotBlock):
        bilu0_factor(A, natural_order(2))


@pytest.mark.parametrize(
    "order",
    [
        [0, 0, 1, 2, 3, 4, 5, 6, 7],
        [0, 1, 2, 3, 4, 5, 6, 7],
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 8],
        [0, 1, 2, 3, 4, 5, 6, 7, 9],
        [-1, 1, 2, 3, 4, 5, 6, 7, 8],
        np.arange(9.0),
        [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
    ],
    ids=["duplicate", "missing", "long", "out-of-range", "negative", "float", "two-dimensional"],
)
def test_bilu_rejects_an_order_that_is_not_a_permutation(order):
    # One ValueError before any elimination, from both entry points.
    A = generate_stencil_system(3, 2, seed=0)
    for build in (lambda: bilu0_blocks(A, order), lambda: bilu0_factor(A, MdfOrdering(np.asarray(order), None))):
        with pytest.raises(ValueError, match="integer permutation of the block rows 0..8"):
            build()


def test_a_bilu_build_checks_its_matrix_arrays_on_every_call(sys16_k1, monkeypatch):
    # mdf_order, then bilu0_factor through bilu0_blocks: one full format
    # check and one read of the order of the block column indices each, on
    # a fresh matrix and on a system's Ju alike, though the system checked
    # its Ju when it was built: nothing is remembered between calls. The
    # catalog build adds point ILU0's read of Byy's column indices.
    full, orders = [], []
    check = scipy.sparse.bsr_matrix.check_format
    kernel = blocklinalg.csr_has_canonical_format

    def counting(self, full_check=True):
        full.append(full_check)
        return check(self, full_check)

    def reading(n_rows, indptr, indices):
        orders.append(n_rows)
        return kernel(n_rows, indptr, indices)

    monkeypatch.setattr(scipy.sparse.bsr_matrix, "check_format", counting)
    monkeypatch.setattr(blocklinalg, "csr_has_canonical_format", reading)
    Ju, Byy = sys16_k1.Ju, sys16_k1.Byy
    A = scipy.sparse.bsr_matrix((Ju.data.copy(), Ju.indices.copy(), Ju.indptr.copy()), shape=Ju.shape)
    for M in (A, Ju):
        full.clear()
        orders.clear()
        bilu0_factor(M, mdf_order(M))
        assert full.count(True) == 2 and orders == [16, 16]
    full.clear()
    orders.clear()
    build_at_preconditioner(sys16_k1, "BILU-ilu")
    assert full.count(True) == 2 and orders == [16, 16, Byy.shape[0]]
