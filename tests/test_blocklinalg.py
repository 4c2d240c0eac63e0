"""BSR canonical form, dense-block kernels, the compiled CSR product and the
kernel layer of the set-up products."""

import ast
import pathlib

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import kktprecond
import kktprecond.blocklinalg as blocklinalg
from kktprecond.blocklinalg import (
    CsrArrays,
    bsr_to_csr,
    canonical_bsr,
    canonical_pattern,
    csr_arrays,
    csr_matmul,
    csr_plus,
    csr_product,
    csr_transpose,
    csr_vstack,
    drop_zeros,
    first_singular,
    sort_rows,
    sparse_lu,
    sparse_product,
)
from kktprecond.conprec import point_ilu0_values
from kktprecond.dgprecond import bilu0_blocks, build_block_jacobi, mdf_order
from kktprecond.errors import DimensionMismatch, PatternViolation, SingularBlock
from kktprecond.kkt import kkt_matvec
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
    assert sparse_lu(scipy.sparse.csr_matrix((0, 0))).apply(np.zeros(0)).shape == (0,)


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
    for apply, trans in ((lu.apply, "N"), (lu.apply_T, "T")):
        want = ref.solve(b, trans=trans)
        np.testing.assert_allclose(apply(b), want, rtol=0, atol=1e-12 * np.abs(want).max())


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


def test_canonical_bsr_checks_a_matrix_again_when_its_arrays_change():
    # Every call reads the arrays, so a replaced array is checked again.
    A = random_block_tridiagonal(3, 2, np.random.default_rng(2))
    assert canonical_bsr(A) is A and canonical_bsr(A) is A
    A.indices = A.indices + 3
    with pytest.raises(PatternViolation):
        canonical_bsr(A)
    B = random_block_tridiagonal(3, 2, np.random.default_rng(2))
    canonical_bsr(B)
    B.indptr = np.array([0, 2, 1, 7], dtype=B.indptr.dtype)
    with pytest.raises(PatternViolation):
        canonical_bsr(B)


def test_canonical_bsr_rejects_misordered_indices_after_a_first_check():
    # A 1 x 3 block row passes, then its indices are replaced by in-range
    # but misordered ones: rejected, as a fresh matrix on those arrays is,
    # whatever scipy cached as has_canonical_format at the first check.
    A = bsr(np.ones((3, 1, 1)), np.array([0, 1, 2], dtype=np.int32), np.array([0, 3], dtype=np.int32), 3)
    assert canonical_bsr(A) is A and A.has_canonical_format
    A.indices = np.array([2, 1, 0], dtype=np.int32)
    for M in (A, bsr(A.data, A.indices, A.indptr, 3)):
        with pytest.raises(PatternViolation, match="strictly increasing in every block row"):
            canonical_bsr(M)


def test_canonical_pattern_reads_no_pointer_past_the_entries(monkeypatch):
    # Where nothing is stored, check_format's full check does not bound the
    # index pointer, which the kernel would follow past the entries: a
    # nonzero one is not canonical, and the kernel does not run.
    def unbounded_read(*args):
        raise AssertionError("csr_has_canonical_format ran on a matrix that stores nothing")

    monkeypatch.setattr(blocklinalg, "csr_has_canonical_format", unbounded_read)
    for fmt in ("bsr", "csr"):
        empty = scipy.sparse.csr_matrix((2, 2)).asformat(fmt)
        assert canonical_pattern(empty, "empty")
        empty.indptr = np.array([0, 2**30, 0], dtype=np.int32)
        assert not canonical_pattern(empty, "empty")


@st.composite
def canonical_block_systems(draw):
    """A square canonical BSR matrix whose diagonal blocks are stored and
    dominate, so that every factor builds, with at least one block row of
    two or more blocks."""
    n, s = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    off_diagonal = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    pattern = np.eye(n, dtype=bool) | np.reshape(off_diagonal, (n, n))
    pattern[0, 1] = True
    rows, cols = np.nonzero(pattern)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.uniform(-1.0, 1.0, (len(rows), s, s))
    blocks[rows == cols] += 2 * n * s * np.eye(s)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    return bsr(blocks, cols.astype(np.int32), indptr, n)


@settings(max_examples=40, deadline=None)
@given(canonical_block_systems(), st.data())
def test_every_pattern_check_reads_the_arrays_after_a_first_check(A, data):
    # Each entry point passes a canonical matrix, then rejects it once its
    # indices are replaced by a copy with two entries of one row swapped:
    # no check trusts what an earlier call or scipy cached on the object.
    n = len(A.indptr) - 1
    B = A.tocsr()
    entry_points = [
        (A, canonical_bsr),
        (A, mdf_order),
        (A, lambda M: bilu0_blocks(M, np.arange(n))),
        (A, build_block_jacobi),
        (B, point_ilu0_values),
    ]
    for M, check in entry_points:
        check(M)
    for M, check in entry_points:
        long_rows = np.flatnonzero(np.diff(M.indptr) >= 2)
        start = int(M.indptr[data.draw(st.sampled_from(long_rows.tolist()))])
        original = M.indices
        broken = original.copy()
        broken[[start, start + 1]] = broken[[start + 1, start]]
        M.indices = broken
        with pytest.raises(PatternViolation):
            check(M)
        M.indices = original


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


# Compiled CSR product ---------------------------------------------------------


@st.composite
def csr_operands(draw):
    """A float64 CSR matrix with its index arrays as int32 or int64, and a
    vector to multiply: rows may be empty and the matrix may store nothing,
    stored zeros and -0.0 entries are kept, and a row may repeat or misorder
    its column indices, as the arrays of a non-canonical matrix do."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    counts = draw(st.lists(st.integers(0, 4 if n else 0), min_size=m, max_size=m))
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e6, 1e6, width=64))
    data = draw(st.lists(values, min_size=sum(counts), max_size=sum(counts)))
    indices = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=sum(counts), max_size=sum(counts)))
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    A = scipy.sparse.csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=int), np.cumsum([0] + counts)), shape=(m, n)
    )
    # The constructor picks the smallest index dtype; set the drawn one.
    A.indices, A.indptr = A.indices.astype(index_dtype), A.indptr.astype(index_dtype)
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
    return A, x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(csr_operands())
def test_csr_product_is_the_scipy_product_bit_for_bit(operand):
    A, x = operand
    got, want = csr_product(A)(x), A @ x
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_csr_product_operands_cover_every_edge():
    # The strategy above reaches empty rows, an empty matrix, stored -0.0
    # entries and both index dtypes.
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(csr_operands())
    def record(operand):
        A, _ = operand
        rows = np.diff(A.indptr)
        seen.update(
            name
            for name, hit in [
                ("empty row", (rows == 0).any()),
                ("nnz 0", A.nnz == 0 and A.shape[0] > 0),
                ("stored zero", (A.data == 0.0).any()),
                ("-0.0", np.signbit(A.data[A.data == 0.0]).any()),
                ("int32", A.indices.dtype == np.int32),
                ("int64", A.indices.dtype == np.int64),
            ]
            if hit
        )

    record()
    assert seen == {"empty row", "nnz 0", "stored zero", "-0.0", "int32", "int64"}


def test_csr_product_rejects_other_shapes_before_the_kernel_runs():
    A = scipy.sparse.csr_matrix(np.arange(6.0).reshape(2, 3))
    product = csr_product(A)
    np.testing.assert_array_equal(product(np.ones(3)), [3.0, 12.0])
    for x in (np.ones(2), np.ones(4), np.ones((3, 1)), np.float64(1.0), [1.0, 1.0, 1.0]):
        with pytest.raises(DimensionMismatch, match="incompatible with a 2 x 3 matrix"):
            product(x)


def test_csr_product_needs_a_float64_csr_matrix():
    A = scipy.sparse.csr_matrix(np.eye(2))
    for other in (A.tocsc(), A.astype(np.float32), A.astype(np.int64), A.toarray()):
        with pytest.raises(TypeError, match="float64 CSR matrix"):
            csr_product(other)


WRONG_LENGTHS = {"0": lambda n: 0, "n-1": lambda n: n - 1, "n+1": lambda n: n + 1, "2n": lambda n: 2 * n}


@pytest.mark.parametrize("length", WRONG_LENGTHS.values(), ids=WRONG_LENGTHS.keys())
def test_kkt_matvec_rejects_a_wrong_length_before_the_compiled_product(sys8_k1, length):
    # The compiled kernel does not bound its reads; kkt_matvec and the
    # product itself both refuse a vector of another length.
    n = sys8_k1.dimension
    v = np.ones(length(n))
    with pytest.raises(DimensionMismatch, match=f"incompatible with dimension {n}"):
        kkt_matvec(sys8_k1, v)
    with pytest.raises(DimensionMismatch):
        sys8_k1.K_product(v)
    np.testing.assert_array_equal(kkt_matvec(sys8_k1, np.ones(n)), sys8_k1.K @ np.ones(n))


def test_only_blocklinalg_uses_the_private_sparsetools_module():
    # csr_product is the one route to scipy.sparse._sparsetools: no other
    # package module imports it or reaches it as an attribute.
    users = set()
    for path in sorted(pathlib.Path(kktprecond.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            if any("_sparsetools" in name for name in names):
                users.add(path.name)
    assert users == {"blocklinalg.py"}


# The kernel layer -------------------------------------------------------------

KERNEL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), st.just(np.nan), st.floats(-1e6, 1e6, width=64)
)


def drawn_csr(draw, m, n):
    """An m x n float64 CSR matrix with int32 indices whose rows may be
    empty and may repeat or misorder their column indices; stored zeros,
    -0.0 and NaN entries are kept."""
    counts = draw(st.lists(st.integers(0, 3 if n else 0), min_size=m, max_size=m))
    data = draw(st.lists(KERNEL_VALUES, min_size=sum(counts), max_size=sum(counts)))
    indices = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=sum(counts), max_size=sum(counts)))
    return scipy.sparse.csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int32), np.cumsum([0] + counts, dtype=np.int32)),
        shape=(m, n),
    )


@st.composite
def kernel_operands(draw):
    """Operands of every kernel helper: A and C of one shape m x k (C is
    sometimes -A, so the sum cancels), B of shape k x n, and a BSR matrix of
    R x C blocks."""
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    A = drawn_csr(draw, m, k)
    C = scipy.sparse.csr_matrix((-A.data, A.indices, A.indptr), shape=A.shape) if draw(st.booleans()) else None
    C = drawn_csr(draw, m, k) if C is None else C
    B = drawn_csr(draw, k, n)
    R, Cb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nb_rows, nb_cols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    pattern = drawn_csr(draw, nb_rows, nb_cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.choice(np.array([0.0, -0.0, np.nan, 1.5, -2.25]), (pattern.nnz, R, Cb))
    S = scipy.sparse.bsr_matrix((blocks, pattern.indices, pattern.indptr), shape=(nb_rows * R, nb_cols * Cb))
    return A, B, C, S


def _copy(A) -> CsrArrays:
    return CsrArrays(A.shape, A.indptr.copy(), A.indices.copy(), A.data.copy())


def _same_kernel_result(got: CsrArrays, want):
    """The layer's arrays, as the next kernel call gets them, against a
    scipy operator's result, bit for bit: arrays, dtypes, signs of zeros
    and the sorted flag."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=name == "data")
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))
    assert got.tocsr().has_sorted_indices == want.has_sorted_indices


def _kernel_cases(A, B, C, S):
    """(layer result, scipy result) of every kernel helper on the operands."""
    sorted_copy, without_zeros = A.copy(), A.copy()
    sorted_copy.sort_indices()
    without_zeros.eliminate_zeros()
    A_arrays = csr_arrays(A)
    transposed = csr_transpose(A_arrays)
    csc = A.tocsc()
    return [
        (transposed, A.T.tocsr()),
        (transposed, scipy.sparse.csr_matrix((csc.data, csc.indices, csc.indptr), shape=csc.shape[::-1])),
        (csr_matmul(A_arrays, csr_arrays(B)), A @ B),
        (csr_plus(A_arrays, csr_arrays(C)), A + C),
        (sort_rows(_copy(A)), sorted_copy),
        (drop_zeros(_copy(A)), without_zeros),
        (bsr_to_csr(S.data, S.indices, S.indptr, S.shape), S.tocsr()),
        (csr_vstack([A_arrays, csr_arrays(C), A_arrays]), scipy.sparse.vstack([A, C, A], format="csr")),
        (csr_vstack([A_arrays]), scipy.sparse.vstack([A], format="csr")),
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kernel_operands())
def test_kernel_layer_is_scipy_operators_bit_for_bit(operands):
    for got, want in _kernel_cases(*operands):
        _same_kernel_result(got, want)
    # The results are int32 and float64 throughout, as the next kernel call needs.
    A, B, _, _ = operands
    assert sparse_product(A, B).indices.dtype == np.int32


def test_kernel_operands_cover_every_edge():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kernel_operands())
    def record(operands):
        A, B, C, S = operands
        ones = [scipy.sparse.csr_matrix((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape) for M in (A, B)]
        dense_A, dense_C = A.toarray(), C.toarray()
        stored = A.data[A.data == 0.0]
        seen.update(
            name
            for name, hit in [
                ("empty row", (np.diff(A.indptr) == 0).any()),
                ("empty product", A.shape[0] > 0 and (ones[0] @ ones[1]).nnz == 0),
                ("stored 0.0", (~np.signbit(stored)).any()),
                ("stored -0.0", np.signbit(stored).any()),
                ("cancelling sum", ((dense_A != 0) & (dense_C != 0) & (dense_A + dense_C == 0)).any()),
                ("unsorted sum operand", not A.has_sorted_indices or not C.has_sorted_indices),
                (f"{S.blocksize[0]}x{S.blocksize[1]} blocks", S.nnz > 0),
                ("NaN kept by drop_zeros", np.isnan(A.data).any()),
            ]
            if hit
        )

    record()
    blocks = {f"{r}x{c} blocks" for r in (1, 2, 3) for c in (1, 2, 3)}
    edges = {"empty row", "empty product", "stored 0.0", "stored -0.0", "cancelling sum", "unsorted sum operand"}
    assert seen == edges | blocks | {"NaN kept by drop_zeros"}


def test_kernel_layer_needs_int32_indices_and_float64_data():
    A = scipy.sparse.csr_matrix(np.arange(6.0).reshape(2, 3))
    wide = CsrArrays(A.shape, A.indptr.astype(np.int64), A.indices.astype(np.int64), A.data)
    single = CsrArrays(A.shape, A.indptr, A.indices, A.data.astype(np.float32))
    S = scipy.sparse.bsr_matrix(np.eye(4), blocksize=(2, 2))
    for bad in (wide, single):
        for helper in (csr_transpose, sort_rows, drop_zeros, lambda M: csr_vstack([M])):
            with pytest.raises(TypeError, match="int32 indices and float64 data"):
                helper(bad)
        with pytest.raises(TypeError, match="int32 indices and float64 data"):
            csr_matmul(csr_arrays(A), bad._replace(shape=(3, 2)))
        with pytest.raises(TypeError, match="int32 indices and float64 data"):
            csr_plus(bad, csr_arrays(A))
    for bad in (A.tocsc(), A.astype(np.float32), S):
        with pytest.raises(TypeError):
            csr_arrays(bad)
    int64 = A.copy()
    int64.indices, int64.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
    with pytest.raises(TypeError, match="int32 indices and float64 data"):
        sparse_product(int64, A.T.tocsr())
    with pytest.raises(TypeError, match="int32 indices and float64 data"):
        bsr_to_csr(S.data, S.indices.astype(np.int64), S.indptr, S.shape)
    with pytest.raises(TypeError, match="int32 indices and float64 data"):
        bsr_to_csr(S.data.astype(np.float32), S.indices, S.indptr, S.shape)


def test_kernel_layer_rejects_mismatched_shapes():
    A = csr_arrays(scipy.sparse.csr_matrix(np.ones((2, 3))))
    with pytest.raises(DimensionMismatch):
        csr_matmul(A, A)
    with pytest.raises(DimensionMismatch):
        csr_plus(A, csr_transpose(A))
    with pytest.raises(DimensionMismatch):
        csr_vstack([A, csr_transpose(A)])
    with pytest.raises(DimensionMismatch):
        bsr_to_csr(np.ones((2, 2, 2)), np.array([0, 1], np.int32), np.array([0, 2], np.int32), (4, 4))
