"""Block-CSR containers and dense-block kernels."""

import numpy as np
import pytest
import scipy.sparse

from kktprecond.blocklinalg import (
    BlockCsrMatrix,
    BlockPattern,
    block_to_scipy,
    block_transpose_matvec,
    dense_lu_factor,
    densify,
    sparse_lu,
)
from kktprecond.errors import DimensionMismatch, PatternViolation, SingularBlock


def block_diag_pattern(sizes):
    n = len(sizes)
    return BlockPattern(sizes, sizes, np.arange(n + 1), np.arange(n))


def random_block_tridiagonal(n, size, rng):
    row_ptr = [0]
    col_idx = []
    blocks = []
    for i in range(n):
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                col_idx.append(j)
                blocks.append(rng.standard_normal((size, size)))
        row_ptr.append(len(col_idx))
    pat = BlockPattern(np.full(n, size), np.full(n, size), np.array(row_ptr), np.array(col_idx))
    return BlockCsrMatrix(pat, blocks)


# Dense block LU ------------------------------------------------------------


def test_lu_identity():
    lu = dense_lu_factor(np.eye(3))
    np.testing.assert_allclose(lu.solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_lu_diagonal():
    lu = dense_lu_factor(np.array([[2.0, 0.0], [0.0, 4.0]]))
    np.testing.assert_allclose(lu.solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_lu_2x2_hand_solution():
    # [[4,1],[1,3]] x = [1,2] has the solution (1/11, 7/11): 4/11+7/11 = 1,
    # 1/11+21/11 = 2.
    lu = dense_lu_factor(np.array([[4.0, 1.0], [1.0, 3.0]]))
    np.testing.assert_allclose(lu.solve(np.array([1.0, 2.0])), [1 / 11, 7 / 11], rtol=1e-14)


def test_lu_transpose_solve():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    b = rng.standard_normal(5)
    lu = dense_lu_factor(A)
    np.testing.assert_allclose(lu.solve(b, trans="T"), np.linalg.solve(A.T, b), rtol=1e-12)


def test_lu_rejects_singular_and_nonsquare():
    with pytest.raises(SingularBlock):
        dense_lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularBlock):
        dense_lu_factor(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        dense_lu_factor(np.ones((2, 3)))


def test_sparse_lu_rejects_exactly_singular_matrix():
    # SuperLU's "Factor is exactly singular" is a typed error, not a RuntimeError.
    with pytest.raises(SingularBlock, match="singular"):
        sparse_lu(scipy.sparse.csr_matrix(np.array([[1.0, 0.0], [2.0, 0.0]])))


# Pattern validation ---------------------------------------------------------


def test_pattern_rejects_bad_row_ptr():
    with pytest.raises(PatternViolation):
        BlockPattern([2, 2], [2, 2], [0, 1], [0, 1])
    with pytest.raises(PatternViolation):
        BlockPattern([2, 2], [2, 2], [0, 2, 1], [0, 1, 0])


def test_pattern_rejects_unsorted_or_out_of_range_columns():
    with pytest.raises(PatternViolation):
        BlockPattern([2, 2], [2, 2], [0, 2, 2], [1, 0])
    with pytest.raises(PatternViolation):
        BlockPattern([2, 2], [2, 2], [0, 1, 2], [0, 2])


def test_validation_names_the_first_bad_row_or_block():
    # Row 1 is empty, row 2 repeats a column, row 3 is out of range.
    with pytest.raises(PatternViolation, match="block row 2:"):
        BlockPattern([1] * 4, [1] * 4, [0, 1, 1, 3, 4], [0, 1, 1, 4])
    pat = BlockPattern([1, 2], [1, 2], [0, 1, 3], [0, 0, 1])
    with pytest.raises(DimensionMismatch, match=r"block \(1,1\) has shape \(2, 1\), expected \(2, 2\)"):
        BlockCsrMatrix(pat, [np.zeros((1, 1)), np.zeros((2, 1)), np.zeros((2, 1))])


def test_block_shape_checked_against_pattern():
    pat = BlockPattern([2, 3], [2, 3], [0, 1, 2], [0, 1])
    with pytest.raises(DimensionMismatch):
        BlockCsrMatrix(pat, [np.zeros((2, 2)), np.zeros((2, 3))])


def test_block_index_lookup():
    pat = BlockPattern([1, 1, 1], [1, 1, 1], [0, 2, 3, 5], [0, 1, 1, 1, 2])
    assert pat.block_index(0, 1) == 1
    assert pat.block_index(2, 0) is None


# Matvec kernels: a block product goes through the scalar CSR view ----------


def test_block_matvec_identity_pattern():
    pat = block_diag_pattern(np.array([2, 3]))
    A = BlockCsrMatrix(pat, [np.eye(2), np.eye(3)])
    v = np.arange(5.0)
    np.testing.assert_array_equal(block_to_scipy(A) @ v, v)


def test_block_matvec_antidiagonal_swaps_subvectors():
    pat = BlockPattern([2, 2], [2, 2], [0, 1, 2], [1, 0])
    A = BlockCsrMatrix(pat, [np.eye(2), np.eye(2)])
    v = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(block_to_scipy(A) @ v, [3.0, 4.0, 1.0, 2.0])


def test_block_matvec_matches_dense_oracle():
    rng = np.random.default_rng(7)
    A = random_block_tridiagonal(4, 3, rng)
    v = rng.standard_normal(12)
    expect = densify(A) @ v
    np.testing.assert_allclose(block_to_scipy(A) @ v, expect, rtol=1e-13)


def test_transpose_matvec_symmetric_matches_matvec():
    # On a symmetric matrix A^T v and A v must agree; symmetrize a random
    # tridiagonal by mirroring the upper blocks onto the lower ones.
    rng = np.random.default_rng(11)
    sym = random_block_tridiagonal(4, 2, rng)
    sym.blocks = [0.5 * (b + b.T) if b.shape[0] == b.shape[1] else b for b in sym.blocks]
    pat = sym.pattern
    for i in range(pat.n_block_rows):
        for k in range(pat.row_ptr[i], pat.row_ptr[i + 1]):
            j = int(pat.col_idx[k])
            if j > i:
                sym.blocks[pat.block_index(j, i)] = sym.blocks[k].T.copy()
    dense = densify(sym)
    np.testing.assert_array_equal(dense, dense.T)
    v = rng.standard_normal(8)
    np.testing.assert_allclose(
        block_transpose_matvec(sym, v), block_to_scipy(sym) @ v, rtol=1e-13
    )


def test_transpose_matvec_identity_and_rectangular():
    pat = block_diag_pattern(np.array([3]))
    A = BlockCsrMatrix(pat, [np.eye(3)])
    v = np.array([4.0, 5.0, 6.0])
    np.testing.assert_array_equal(block_transpose_matvec(A, v), v)

    pat = BlockPattern([2], [3], [0, 1], [0])
    blk = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    B = BlockCsrMatrix(pat, [blk])
    w = np.array([1.0, -1.0])
    np.testing.assert_allclose(block_transpose_matvec(B, w), blk.T @ w, rtol=1e-14)


def test_transpose_matvec_property():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        size = int(rng.integers(1, 4))
        A = random_block_tridiagonal(n, size, rng)
        v = rng.standard_normal(n * size)
        np.testing.assert_allclose(
            block_transpose_matvec(A, v), densify(A).T @ v, rtol=1e-12, atol=1e-13
        )


def test_block_to_scipy_matches_densify():
    rng = np.random.default_rng(23)
    A = random_block_tridiagonal(3, 2, rng)
    np.testing.assert_array_equal(block_to_scipy(A).toarray(), densify(A))


@pytest.mark.parametrize(
    "row_sizes, col_sizes, row_ptr, col_idx",
    [
        # dRdx-like: point columns, an empty block row.
        ([3, 2, 4, 2], [1, 1, 1, 1, 1], [0, 2, 2, 5, 6], [0, 1, 1, 2, 4, 3]),
        # Row and column block sizes that differ from each other and per block.
        ([2, 3], [3, 1, 2], [0, 2, 5], [0, 2, 0, 1, 2]),
    ],
)
def test_block_to_scipy_mixed_block_sizes(row_sizes, col_sizes, row_ptr, col_idx):
    rng = np.random.default_rng(29)
    pat = BlockPattern(row_sizes, col_sizes, row_ptr, col_idx)
    brow = np.repeat(np.arange(len(row_sizes)), np.diff(row_ptr))
    blocks = [rng.standard_normal((row_sizes[i], col_sizes[j])) for i, j in zip(brow, col_idx)]
    blocks[1][:] = 0.0
    A = BlockCsrMatrix(pat, blocks)
    S = block_to_scipy(A)
    np.testing.assert_array_equal(S.toarray(), densify(A))
    # Stored zeros stay in the pattern: one entry per entry of a stored block.
    assert S.nnz == sum(b.size for b in blocks)
    assert S.has_sorted_indices


def test_block_to_scipy_without_stored_blocks():
    pat = BlockPattern([2, 3], [4], [0, 0, 0], [])
    S = block_to_scipy(BlockCsrMatrix(pat, []))
    assert S.shape == (5, 4)
    assert S.nnz == 0
    np.testing.assert_array_equal(S.toarray(), densify(BlockCsrMatrix(pat, [])))
