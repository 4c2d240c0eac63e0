"""BSR canonical form and dense-block kernels."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from kktprecond.blocklinalg import canonical_bsr, first_singular, sparse_lu
from kktprecond.errors import DimensionMismatch, PatternViolation, SingularBlock
from kktprecond.pmultigrid import assemble_coarse
from kktprecond.stencil import generate_stencil_system
from oracles import dense_lu_factor, getrf


def bsr(blocks, indices, indptr, n_block_cols):
    """BSR matrix of a (count, r, c) block stack in block-CSR layout."""
    blocks = np.asarray(blocks, dtype=float)
    _, r, c = blocks.shape
    return scipy.sparse.bsr_matrix((blocks, indices, indptr), shape=((len(indptr) - 1) * r, n_block_cols * c))


def block_diagonal(blocks):
    n = len(blocks)
    return bsr(blocks, np.arange(n), np.arange(n + 1), n)


def random_block_tridiagonal(n, size, rng):
    indptr = [0]
    indices = []
    for i in range(n):
        indices.extend(j for j in (i - 1, i, i + 1) if 0 <= j < n)
        indptr.append(len(indices))
    return bsr(rng.standard_normal((len(indices), size, size)), indices, indptr, n)


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


def test_sparse_lu_rejects_pivot_below_relative_threshold():
    # U's second pivot is about 1e-15, nonzero for SuperLU but below
    # 1e-14 times the largest entry, as dense_lu_factor rejects it.
    with pytest.raises(SingularBlock, match="relative threshold"):
        sparse_lu(scipy.sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])))
    assert sparse_lu(scipy.sparse.csr_matrix((0, 0))).solve(np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("name", ["random", "stencil_6_2", "stencil_10_3", "coarse_16_2_2"])
def test_sparse_lu_matches_splu_when_column_order_is_no_involution(name, request):
    # SuperLU's column order of these matrices is not its own inverse, so a
    # solve that confused perm_c with its inverse would be wrong here.
    if name == "random":
        A = scipy.sparse.random(50, 50, density=0.1, random_state=1, format="csr") + 10.0 * scipy.sparse.eye(50)
    elif name == "coarse_16_2_2":
        sys = request.getfixturevalue("sys16_k1")
        A = assemble_coarse(sys, *sys.dims.transfers()).A0
    else:
        A = generate_stencil_system(*map(int, name.split("_")[1:]), 0).tocsr()
    ref = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(A))
    n = A.shape[0]
    assert not np.array_equal(ref.perm_c[ref.perm_c], np.arange(n))
    lu = sparse_lu(A)
    b = np.random.default_rng(5).standard_normal(n)
    for trans in ("N", "T"):
        want = ref.solve(b, trans=trans)
        np.testing.assert_allclose(lu.solve(b, trans=trans), want, rtol=0, atol=1e-12 * np.abs(want).max())


# Canonical form --------------------------------------------------------------


def test_pattern_rejects_bad_row_ptr():
    blocks = np.ones((2, 2, 2))
    with pytest.raises(PatternViolation):
        canonical_bsr(bsr(blocks, [0, 1], [0, 2, 1], 2))
    A = bsr(blocks, [0, 1], [0, 1, 2], 2)
    A.indptr[0] = 1
    with pytest.raises(PatternViolation):
        canonical_bsr(A)


def test_pattern_rejects_unsorted_or_out_of_range_columns():
    blocks = np.ones((2, 2, 2))
    for indices, indptr in (([1, 0], [0, 2, 2]), ([1, 1], [0, 2, 2]), ([0, 2], [0, 1, 2])):
        with pytest.raises(PatternViolation):
            canonical_bsr(bsr(blocks, indices, indptr, 2))


def test_canonical_bsr_rejects_other_types_and_keeps_float_arrays():
    A = random_block_tridiagonal(3, 2, np.random.default_rng(1))
    assert canonical_bsr(A) is A
    with pytest.raises(TypeError, match="Ju must be a scipy BSR matrix, got csr_matrix"):
        canonical_bsr(A.tocsr(), "Ju")
    with pytest.raises(TypeError):
        canonical_bsr(A.toarray())
    ints = scipy.sparse.bsr_matrix((np.ones((1, 2, 2), dtype=int), [0], [0, 1]), shape=(2, 2))
    assert canonical_bsr(ints).dtype == np.float64


# Matvec kernels: a block product goes through the scalar CSR view ----------


def test_block_matvec_identity_pattern():
    A = block_diagonal(np.eye(3)[None].repeat(2, axis=0))
    v = np.arange(6.0)
    np.testing.assert_array_equal(A.tocsr() @ v, v)


def test_block_matvec_antidiagonal_swaps_subvectors():
    A = bsr([np.eye(2), np.eye(2)], [1, 0], [0, 1, 2], 2)
    v = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(A.tocsr() @ v, [3.0, 4.0, 1.0, 2.0])


def test_block_matvec_matches_dense_oracle():
    rng = np.random.default_rng(7)
    A = random_block_tridiagonal(4, 3, rng)
    v = rng.standard_normal(12)
    expect = A.toarray() @ v
    np.testing.assert_allclose(A.tocsr() @ v, expect, rtol=1e-13)


def test_transpose_matvec_symmetric_matches_matvec():
    # On a symmetric matrix A^T v and A v must agree; symmetrize a random
    # tridiagonal by mirroring the upper blocks onto the lower ones.
    rng = np.random.default_rng(11)
    sym = random_block_tridiagonal(4, 2, rng)
    rows = np.repeat(np.arange(4), np.diff(sym.indptr))
    where = {(i, int(j)): k for k, (i, j) in enumerate(zip(rows, sym.indices))}
    for (i, j), k in where.items():
        if i == j:
            sym.data[k] = 0.5 * (sym.data[k] + sym.data[k].T)
        elif j > i:
            sym.data[where[j, i]] = sym.data[k].T
    dense = sym.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    v = rng.standard_normal(8)
    np.testing.assert_allclose(sym.T @ v, sym.tocsr() @ v, rtol=1e-13)


def test_transpose_matvec_identity_and_rectangular():
    A = block_diagonal([np.eye(3)])
    v = np.array([4.0, 5.0, 6.0])
    np.testing.assert_array_equal(A.T @ v, v)

    blk = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    B = block_diagonal([blk])
    w = np.array([1.0, -1.0])
    np.testing.assert_allclose(B.T @ w, blk.T @ w, rtol=1e-14)


def test_transpose_matvec_property():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        size = int(rng.integers(1, 4))
        A = random_block_tridiagonal(n, size, rng)
        v = rng.standard_normal(n * size)
        np.testing.assert_allclose(A.T @ v, A.toarray().T @ v, rtol=1e-12, atol=1e-13)


def test_block_to_scipy_matches_densify():
    rng = np.random.default_rng(23)
    A = random_block_tridiagonal(3, 2, rng)
    np.testing.assert_array_equal(A.tocsr().toarray(), A.toarray())


@pytest.mark.parametrize(
    "row_sizes, col_sizes, row_ptr, col_idx",
    [
        # dRdx-like: point columns, an empty block row.
        ([3, 3, 3, 3], [1, 1, 1, 1, 1], [0, 2, 2, 5, 6], [0, 1, 1, 2, 4, 3]),
        # Row and column block sizes that differ from each other.
        ([2, 2], [3, 3, 3], [0, 2, 5], [0, 2, 0, 1, 2]),
    ],
)
def test_block_to_scipy_mixed_block_sizes(row_sizes, col_sizes, row_ptr, col_idx):
    # One block shape per matrix, rectangular ones included.
    rng = np.random.default_rng(29)
    blocks = rng.standard_normal((len(col_idx), row_sizes[0], col_sizes[0]))
    blocks[1] = 0.0
    A = bsr(blocks, col_idx, row_ptr, len(col_sizes))
    assert A.shape == (sum(row_sizes), sum(col_sizes))
    S = A.tocsr()
    np.testing.assert_array_equal(S.toarray(), A.toarray())
    # Stored zeros stay in the pattern: one entry per entry of a stored block.
    assert S.nnz == blocks.size
    assert S.has_sorted_indices


def test_block_to_scipy_without_stored_blocks():
    A = bsr(np.zeros((0, 1, 4)), [], [0, 0, 0, 0, 0, 0], 1)
    S = A.tocsr()
    assert S.shape == (5, 4)
    assert S.nnz == 0
    np.testing.assert_array_equal(S.toarray(), np.zeros((5, 4)))


@pytest.mark.parametrize("stacked", [False, True])
def test_first_singular_rejects_pivots_below_1e_14_of_the_largest_entry(stacked):
    # A pivot of 2e-14 passes in a block whose largest entry is 1, and fails
    # where it is 4; the LU entries may come as a list or as one stack.
    blocks = np.array([np.diag([1.0, 2e-14]), np.diag([2e-14, 1.0]), np.diag([4.0, 2e-14])])
    lu_entries = [getrf(block).lu_entries for block in blocks]
    if stacked:
        lu_entries = np.array(lu_entries)
    assert first_singular(blocks, lu_entries) == (2, "pivot below 1e-14 relative threshold (scale 4)")
    assert first_singular(blocks[:2], lu_entries[:2]) is None
