"""Bitwise identity of the compiled kernels with the plain ones they replaced.

Each kernel keeps the float operations of its oracle in `oracles.py` and
their order, so every comparison here is np.array_equal, never a tolerance.
"""

import ctypes
import dataclasses
import os
from functools import partial

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprecond import conprec, dgprecond, krylov, shocktrack
from kktprecond.blocklinalg import block_rows, first_singular, triangular_split
from kktprecond.conprec import CATALOG, build_at_preconditioner, point_ilu0_factor, point_ilu0_values
from kktprecond.dgprecond import MdfOrdering, bilu0_blocks, mdf_order
from kktprecond.errors import KktPrecondError, ManifestError, SingularBlock
from kktprecond.kkt import SystemDims, assemble_Byy, kkt_matvec, reference_solution
from kktprecond.krylov import GmresConfig, gmres_solve
from kktprecond.manifest import export_system
from kktprecond.mmio import _parse_block_tag, read_matrix, read_vector, write_matrix
from kktprecond.pmultigrid import assemble_coarse
from kktprecond.shocktrack import (
    ShockTrackProblem1d,
    SqpConfig,
    build_kkt,
    dg_residual,
    initial_state,
    phi_map,
    run_sqp,
)
from kktprecond.stencil import generate_stencil_system
from oracles import (
    LinearOperator,
    argsort_read_matrix,
    argsort_kkt,
    bmat_kkt,
    coo_block_split,
    coo_block_to_scipy,
    csc_view_assemble_Byy,
    dense_lu_factor,
    factor_apply,
    fill_table_mdf_order,
    five_step_apply,
    getrf,
    givens_column,
    ikj_bilu_blocks,
    ikj_point_ilu0_values,
    looped_transfers,
    looping_dlasr,
    nine_product_matvec,
    padded_row_sum_terms,
    padded_row_sums,
    per_block_bilu0_blocks,
    per_block_pivot_check,
    per_slot_mdf_order,
    permuted_point_ilu0_factor,
    recomputing_mdf_order,
    scipy_assemble_Byy,
    scipy_coarse_matrix,
    scipy_Jy,
    scipy_lu_factor,
    scipy_lu_solve,
    scipy_triangular_split,
    sliced_block_matvec,
    sliced_coarse_matrix,
    single_degree_jacobian,
    single_degree_residual,
    three_table_basis,
    tocsc_reference_solution,
    transposing_kkt,
    tril_point_split,
    two_pass_read_matrix,
    two_pass_read_vector,
    word_by_word_block_tag,
)
from test_compiled_factors import dominant_block_matrices
from test_krylov import shifted_system
from test_mmio import sparse_or_block_matrices

SYSTEMS = ("sys8_k1", "sys16_k1", "sys8_zero_coupling")


def _sparse_equal(X, Y):
    return X.shape == Y.shape and X.nnz == Y.nnz and np.array_equal(X.toarray(), Y.toarray())


def _dense(X):
    return X.toarray() if scipy.sparse.issparse(X) else X


def _within_rounding(K, X, got, want):
    """|got - want| <= 1e-14 |K| |X| entrywise, for a vector or a block X."""
    scale = abs(K) @ abs(X)
    return np.all(np.abs(_dense(got) - _dense(want)) <= 1e-14 * _dense(scale))


@pytest.mark.parametrize("name", SYSTEMS)
def test_kkt_product_matches_nine_products(name, request):
    # Bit for bit the product with the assembled matrix, and the nine factor
    # products up to rounding.
    sys = request.getfixturevalue(name)
    K = bmat_kkt(sys)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(sys.dimension)
    v[::3] = 0.0
    for x in (v, rng.standard_normal(sys.dimension), np.zeros(sys.dimension)):
        got = kkt_matvec(sys, x)
        assert np.array_equal(got, K @ x)
        assert _within_rounding(K, x, got, nine_product_matvec(sys, x))

    prolong, _ = sys.dims.transfers()
    block = scipy.sparse.random(sys.dimension, 7, density=0.2, format="csr", random_state=1)
    for X in (prolong, block):
        got = kkt_matvec(sys, X)
        assert isinstance(got, scipy.sparse.csr_matrix) and _sparse_equal(got, K @ X)
        assert _within_rounding(K, X, got, nine_product_matvec(sys, X))


def scaled_stencil(seed, n=6, block=2):
    """An n x n grid 5-point stencil with block x block blocks, each block
    scaled by a random power of ten, so the fill terms of a weight differ in
    size and their summation order shows in the last bits."""
    A = generate_stencil_system(n, block, seed)
    rng = np.random.default_rng(seed)
    blocks = np.array([blk * 10.0 ** rng.uniform(-1.0, 1.0) for blk in A.data])
    return scipy.sparse.bsr_matrix((blocks, A.indices, A.indptr), shape=A.shape)


def _same_mdf(A):
    """mdf_order(A) against the fill-table oracle, bit for bit, NaN weights
    included."""
    got = mdf_order(A)
    order, weights = fill_table_mdf_order(A)
    assert np.array_equal(got.order, order)
    assert np.array_equal(got.weights_at_selection, weights, equal_nan=True)
    return got


def _same_csc(got, want):
    """Identical CSC arrays and dtypes, as SuperLU receives them, down to
    the signs of zeros and the sorted flag."""
    assert got.format == want.format == "csc" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=name == "data")
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))
    assert got.has_sorted_indices == want.has_sorted_indices


def _same_splits(F, B, values):
    """triangular_split of the block ILU0 blocks F and of the point ILU0
    values of B against the COO and tril/triu oracles."""
    for got, want in zip(triangular_split(F.data, F.indices, F.indptr), coo_block_split(F), strict=True):
        _same_csc(got, want)
    got = triangular_split(values.reshape(-1, 1, 1), B.indices, B.indptr)
    for g, w in zip(got, tril_point_split(B, values), strict=True):
        _same_csc(g, w)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mdf_order_matches_recomputed_weights_on_stencils(seed):
    # A 2D stencil has up to twelve discarded fill terms per row, so the
    # order of the terms in each weight's sum is exercised.
    A = scaled_stencil(seed)
    got = _same_mdf(A)
    order, weights = recomputing_mdf_order(A)
    assert np.array_equal(got.order, order)
    assert np.array_equal(got.weights_at_selection, weights)
    blocks = bilu0_blocks(A, got.order)
    assert all(np.array_equal(g, w) for g, w in zip(blocks.data, ikj_bilu_blocks(A, order), strict=True))
    B = A.tocsr()
    _same_splits(blocks, B, point_ilu0_values(B))


@pytest.mark.parametrize("seed, n, block", [(3, 10, 3), (4, 20, 2)])
def test_mdf_order_and_splits_match_oracles_on_larger_stencils(seed, n, block):
    A = scaled_stencil(seed, n, block)
    got = _same_mdf(A)
    B = A.tocsr()
    _same_splits(bilu0_blocks(A, got.order), B, point_ilu0_values(B))


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("seed, n", [(0, 6), (5, 9)])
def test_mdf_order_matches_per_slot_first_weights_on_stencils(seed, n, block):
    # The first weights come from one bincount over the fill table; the
    # oracle sums them a term slot at a time.
    A = scaled_stencil(seed, n, block)
    got = mdf_order(A)
    order, weights = per_slot_mdf_order(A)
    assert np.array_equal(got.order, order)
    assert np.array_equal(_bits(got.weights_at_selection), _bits(weights))


def perturbed_stencil(seed, kind):
    """The 6 x 6 scaled stencil with a third of its off-diagonal blocks made
    NaN, +inf, -inf or zero in one entry or whole; or, for "ties", every
    diagonal block 4 I and every neighbor block one fixed block, so equal
    weights abound."""
    A = scaled_stencil(seed)
    blocks = A.data.copy()
    off = np.flatnonzero(A.indices != np.repeat(np.arange(len(A.indptr) - 1), np.diff(A.indptr)))
    rng = np.random.default_rng(seed)
    if kind == "ties":
        blocks[:] = blocks[off[0]]
        blocks[_diagonal(A)] = 4.0 * np.eye(2)
    else:
        value = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "zero": 0.0}[kind]
        for t in rng.choice(off, len(off) // 3, replace=False):
            if rng.integers(2):
                blocks[t] = value
            else:
                blocks[t][tuple(rng.integers(0, 2, 2))] = value
    return scipy.sparse.bsr_matrix((blocks, A.indices, A.indptr), shape=A.shape)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "zero", "ties"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mdf_order_matches_fill_table_oracle_on_perturbed_stencils(seed, kind):
    # NaN weights rank first and equal weights go to the lowest index, as
    # the oracle's argmin over the alive rows does.
    A = perturbed_stencil(seed, kind)
    got = _same_mdf(A)
    if kind == "ties":
        assert len(np.unique(got.weights_at_selection)) < len(got.order) // 2
    if kind in ("nan", "inf", "-inf"):
        assert np.isnan(got.weights_at_selection).any() or np.isinf(got.weights_at_selection).any()


@st.composite
def split_inputs(draw):
    """A block-CSR stack with every diagonal block stored, of one block size
    drawn per example, with whole zero blocks, zero, negative zero and NaN
    entries mixed in."""
    nb = draw(st.integers(1, 6))
    s = draw(st.integers(1, 3))
    stored = np.array(draw(st.lists(st.booleans(), min_size=nb * nb, max_size=nb * nb))).reshape(nb, nb)
    stored |= np.eye(nb, dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    I, J = np.nonzero(stored)
    blocks = rng.standard_normal((len(I), s, s))
    specials = np.array([0.0, -0.0, np.nan])
    pick = rng.random(blocks.shape) < 0.3
    blocks[pick] = rng.choice(specials, pick.sum())
    blocks[rng.random(len(I)) < 0.2] = 0.0
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    return blocks, J.astype(np.int32), indptr.astype(np.int32)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(split_inputs())
def test_triangular_split_matches_coo_and_tril_oracles(case):
    # Stored zeros stay in U; exact zeros of the strict lower blocks leave L.
    blocks, indices, indptr = case
    nb, s = len(indptr) - 1, blocks.shape[1]
    F = scipy.sparse.bsr_matrix((blocks, indices, indptr), shape=(nb * s, nb * s))
    for got, want in zip(triangular_split(blocks, indices, indptr), coo_block_split(F), strict=True):
        _same_csc(got, want)
    B = F.tocsr()
    values = B.data.copy()
    for got, want in zip(
        triangular_split(values.reshape(-1, 1, 1), B.indices, B.indptr), tril_point_split(B, values), strict=True
    ):
        _same_csc(got, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dominant_block_matrices())
def test_block_and_point_ilu0_match_ikj_loops(A):
    ordering = _same_mdf(A)
    order, weights = recomputing_mdf_order(A)
    assert np.array_equal(ordering.order, order)
    assert np.array_equal(ordering.weights_at_selection, weights)
    F = bilu0_blocks(A, ordering.order)
    want = ikj_bilu_blocks(A, order)
    assert all(np.array_equal(g, w) for g, w in zip(F.data, want, strict=True))
    B = A.tocsr()
    values = point_ilu0_values(B)
    assert np.array_equal(values, ikj_point_ilu0_values(B))
    _same_splits(F, B, values)


@st.composite
def well_conditioned_blocks(draw):
    """A random n x n block plus n * I with rows scaled over two decades, so
    partial pivoting swaps rows, and a vector, a matrix and a transposed
    (Fortran-ordered) matrix of right-hand sides."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = (rng.standard_normal((n, n)) + n * np.eye(n)) * 10.0 ** rng.uniform(-1.0, 1.0, (n, 1))
    rhs = (rng.standard_normal(n), rng.standard_normal((n, k)), rng.standard_normal((k, n)).T)
    return block, rhs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(well_conditioned_blocks(), st.sampled_from(["N", "T"]))
def test_block_lu_matches_scipy_wrappers(case, trans):
    block, rhs = case
    factor = dense_lu_factor(block)
    lu_piv = scipy_lu_factor(block)
    assert np.array_equal(factor.lu_entries, lu_piv[0])
    assert np.array_equal(factor.pivots, lu_piv[1])
    for b in rhs:
        assert np.array_equal(factor.solve(b, trans=trans), scipy_lu_solve(lu_piv, b, trans))


def test_block_lu_of_empty_block():
    factor = dense_lu_factor(np.zeros((0, 0)))
    assert factor.lu_entries.shape == (0, 0) and factor.pivots.shape == (0,)
    assert factor.solve(np.zeros(0)).shape == (0,)
    assert factor.solve(np.zeros((0, 2)), trans="T").shape == (0, 2)


@pytest.fixture(scope="module")
def sys1024_initial():
    """The system at the initial state of (n_elem=1024, p=2, q=2)."""
    prob = ShockTrackProblem1d(n_elem=1024, p=2, q=2)
    return build_kkt(prob, initial_state(prob))


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1", "sys1024_initial"])
def test_mdf_and_factor_builds_match_oracles_on_systems(name, request):
    sys = request.getfixturevalue(name)
    Ju = sys.Ju
    ordering = _same_mdf(Ju)
    order, weights = recomputing_mdf_order(Ju)
    assert np.array_equal(ordering.order, order)
    assert np.array_equal(ordering.weights_at_selection, weights)
    F = bilu0_blocks(Ju, ordering.order)
    assert all(np.array_equal(g, w) for g, w in zip(F.data, ikj_bilu_blocks(Ju, order), strict=True))
    values = point_ilu0_values(sys.Byy)
    assert np.array_equal(values, ikj_point_ilu0_values(sys.Byy))
    _same_splits(F, sys.Byy, values)


@pytest.mark.parametrize("name", SYSTEMS)
def test_point_ilu0_solve_matches_permuted_lu(name, request):
    """point_ilu0_factor solves with its two natural-order sweeps alone, for
    the bits of the same sweeps behind an identity gather and scatter."""
    Byy = request.getfixturevalue(name).Byy
    F, want = point_ilu0_factor(Byy), permuted_point_ilu0_factor(Byy)
    rng = np.random.default_rng(3)
    for got, expect in ((F.apply, want.apply), (F.apply_T, want.apply_T)):
        v = rng.standard_normal(Byy.shape[0])
        assert np.array_equal(got(v), expect(v))


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1"])
@pytest.mark.parametrize("variant", CATALOG)
def test_catalog_apply_matches_five_step_oracle(name, variant, request):
    sys = request.getfixturevalue(name)
    P = build_at_preconditioner(sys, variant)
    rng = np.random.default_rng(7)
    for v in (rng.standard_normal(P.dimension), sys.rhs()):
        want, A0 = five_step_apply(P, sys, v)
        assert np.array_equal(P.apply(v), want)
    assert (P.multigrid is None) == (A0 is None)
    if A0 is not None:
        _, coarse = P.multigrid
        assert np.array_equal(coarse.A0.toarray(), A0.toarray())


@pytest.mark.parametrize("name", SYSTEMS)
def test_compiled_products_are_the_scipy_products(name, request):
    # Every product of a GMRES iteration runs through csr_product, and each
    # is scipy's product with the matrix it stands for, bit for bit: K, Jy,
    # the transposed view of Jy, block Jacobi's inverted diagonal blocks
    # and their transposes, and the transfers of the cycle.
    sys = request.getfixturevalue(name)
    rng = np.random.default_rng(11)

    def vector(n):
        v = rng.standard_normal(n)
        v[::4] = -0.0
        return v

    def same(got, want):
        assert np.array_equal(_bits(got), _bits(want))

    x, u, y = vector(sys.dimension), vector(sys.n_u), vector(sys.n_y)
    same(sys.K_product(x), sys.K @ x)
    prec = build_at_preconditioner(sys, "BJ-p0")
    Jy, Jy_T = prec.Jy_products
    same(Jy(y), sys.Jy @ y)
    same(Jy_T(u), sys.Jy.T @ u)
    Ju = sys.Ju
    inverted = scipy.sparse.block_diag(list(np.linalg.inv(Ju.data[Ju.indices == block_rows(Ju.indptr)])), format="csr")
    same(prec.ju.apply(u), inverted @ u)
    same(prec.ju.apply_T(u), inverted.T @ u)
    _, coarse = prec.multigrid
    prolong, restrict = sys.dims.transfers()
    same(coarse.restrict(x), restrict @ x)
    c = vector(prolong.shape[1])
    same(coarse.prolong(c), prolong @ c)


def _bits(a) -> np.ndarray:
    """The IEEE bit patterns of a float array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _same_arrays(X, Y) -> bool:
    """Same shape, index arrays and data bits of two compressed matrices."""
    return (
        X.shape == Y.shape
        and np.array_equal(X.indptr, Y.indptr)
        and np.array_equal(X.indices, Y.indices)
        and np.array_equal(_bits(X.data), _bits(Y.data))
    )


def _same_matrix(A, B) -> bool:
    """Same type, layout and value bits of two read matrices."""
    if isinstance(A, scipy.sparse.bsr_matrix) and A.blocksize != B.blocksize:
        return False
    return type(A) is type(B) and _same_arrays(A, B)


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1"])
def test_reader_matches_two_pass_reader_on_exported_systems(name, request, tmp_path):
    export_system(request.getfixturevalue(name), tmp_path)
    for fname in sorted(os.listdir(tmp_path)):
        path = tmp_path / fname
        if fname in ("g.mtx", "r.mtx"):
            assert np.array_equal(_bits(read_vector(path)), _bits(two_pass_read_vector(path)))
        elif fname.endswith(".mtx"):
            assert _same_matrix(read_matrix(path), two_pass_read_matrix(path))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_or_block_matrices(), st.integers(0, 2**32 - 1))
def test_reader_matches_two_pass_reader_on_shuffled_repeated_entries(tmp_path_factory, A, seed):
    # Block shapes drawn per matrix, entries in random order, and some entries
    # repeated later in the file with other values (the last one wins).
    path = tmp_path_factory.mktemp("shuffled") / "a.mtx"
    write_matrix(path, A)
    lines = path.read_text().splitlines()
    k = 2 if isinstance(A, scipy.sparse.bsr_matrix) else 1
    rng = np.random.default_rng(seed)
    entries = [lines[i] for i in rng.permutation(range(k + 1, len(lines)))]
    for i in rng.integers(0, len(entries), len(entries) // 2) if entries else []:
        row, col, _ = entries[i].split()
        entries.append(f"{row} {col} {rng.standard_normal()!r}")
    n_rows, n_cols, _ = lines[k].split()
    path.write_text("\n".join(lines[:k] + [f"{n_rows} {n_cols} {len(entries)}"] + entries) + "\n")
    assert _same_matrix(read_matrix(path), two_pass_read_matrix(path))


def _diagonal(F):
    """Storage positions of the diagonal blocks of a BSR matrix."""
    return np.flatnonzero(F.indices == np.repeat(np.arange(len(F.indptr) - 1), np.diff(F.indptr)))


@st.composite
def block_batches(draw):
    """A (count, n, n) stack of square blocks of one order n (1 to 5, drawn
    per batch) scaled over many decades, some exactly singular, some nearly
    so, some all zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        block = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8.0, 8.0)
        kind = rng.integers(0, 5)
        if kind == 0:
            block[:, -1] = block[:, 0]
        elif kind == 1:
            block[-1] = 1e-15 * block[0]
        elif kind == 2:
            block[:] = 0.0
        blocks.append(block)
    return np.array(blocks)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(block_batches())
def test_vectorized_pivot_check_matches_per_block_check(blocks):
    factors = [getrf(b) for b in blocks]
    want = per_block_pivot_check(blocks, factors)
    bad = first_singular(blocks, [f.lu_entries for f in factors])
    if want is None:
        assert bad is None
        return
    assert bad[0] == want
    with pytest.raises(SingularBlock) as single:
        dense_lu_factor(blocks[want])
    assert str(single.value) == bad[1]


@pytest.mark.parametrize("name", SYSTEMS)
def test_sparse_block_product_and_coarse_matrix_match_sliced_oracle(name, request):
    # Bit for bit the product with the assembled matrix, and the two-product
    # sliced form up to rounding.
    sys = request.getfixturevalue(name)
    K = bmat_kkt(sys)
    prolong, restrict = sys.dims.transfers()
    block = scipy.sparse.random(sys.dimension, 7, density=0.2, format="csr", random_state=1)
    for X in (prolong, block):
        got, want = kkt_matvec(sys, X), K @ X
        assert got.nnz == want.nnz and np.array_equal(_bits(got.toarray()), _bits(want.toarray()))
        assert _within_rounding(K, X, got, sliced_block_matvec(sys, X))
    A0 = assemble_coarse(sys, prolong, restrict).A0.toarray()
    assert np.array_equal(_bits(A0), _bits(sliced_coarse_matrix(sys)))


@pytest.mark.parametrize("n_elem", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (2, 2), (3, 1), (1, 3), (2, 4)])
def test_transfers_match_looped_construction(n_elem, p, q):
    P, Q = SystemDims(n_elem, p, q).transfers()
    want_P, want_Q = looped_transfers(n_elem, p, q)
    assert _same_arrays(P, want_P) and _same_arrays(Q, want_Q)


@pytest.mark.parametrize("name", SYSTEMS)
def test_reference_assembly_matches_bmat(name, request):
    sys = request.getfixturevalue(name)
    A = sys.K.tocsc()
    assert isinstance(A, scipy.sparse.csc_matrix) and _same_arrays(A, bmat_kkt(sys))
    want = scipy.sparse.linalg.splu(bmat_kkt(sys)).solve(sys.rhs())
    assert np.array_equal(_bits(reference_solution(sys)), _bits(want))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        dominant_block_matrices(), sparse_or_block_matrices().filter(lambda A: isinstance(A, scipy.sparse.bsr_matrix))
    )
)
def test_block_to_scipy_matches_coo_construction(A):
    # Rectangular block shapes drawn per matrix, stored zero blocks, empty
    # block rows.
    got, want = A.tocsr(), coo_block_to_scipy(A)
    assert _same_arrays(got, want)
    assert got.indices.dtype == want.indices.dtype and got.indptr.dtype == want.indptr.dtype


@pytest.mark.parametrize(
    "n_groups, n_rows, width, nz, drop, dead",
    [
        (1, 1, 3, 2, 0.2, 0.0),
        (6, 3, 5, 9, 0.2, 0.0),
        (12, 4, 7, 10, 0.2, 0.0),
        (30, 1, 4, 12, 0.2, 0.0),
        (5, 2, 4, 6, 1.0, 0.0),
        (6, 3, 5, 9, 0.2, 0.4),
        (12, 4, 7, 10, 0.2, 0.5),
    ],
)
def test_row_sums_match_the_outer_product_sums(n_groups, n_rows, width, nz, drop, dead):
    """The bincount sums equal the padded tables' sums of every term bit for
    bit, and both equal each pair's terms summed from 0.0 over its shared
    groups and their rows in ascending order, on A with signed zeros and
    pairs that share fewer groups than the widest pair; with every column
    dropped there is no pair and no term. With a share dead of A's (row,
    column) places not live, A an exact +-0 there in every group, the terms
    with a dead factor are left out and a pair with none left goes, whose
    sum of every term is 0.0."""
    rng = np.random.default_rng(n_groups * 100 + width)
    cols = np.array([rng.choice(nz, width - 1, replace=False) for _ in range(n_groups)])
    cols[rng.random(cols.shape) < drop] = -1
    cols = np.hstack([cols, np.full((n_groups, 1), nz)])
    A = rng.standard_normal((n_groups, n_rows, width))
    A[rng.random(A.shape) < 0.3] = 0.0
    A[rng.random(A.shape) < 0.2] = -0.0
    live = rng.random((n_rows, width)) >= dead
    A[:, ~live] = rng.choice([0.0, -0.0], size=A[:, ~live].shape)

    I, J, left, right, pair = shocktrack._row_sum_terms(cols, live, nz)
    padded_I, padded_J, padded_left, padded_right = padded_row_sum_terms(cols, n_rows, nz)
    at = np.searchsorted(padded_I * (nz + 1) + padded_J, I * (nz + 1) + J)
    assert np.array_equal(I, padded_I[at]) and np.array_equal(J, padded_J[at])
    got = shocktrack._row_sums(A, left, right, pair, len(I))
    every = padded_row_sums(A, padded_left, padded_right)
    assert np.array_equal(_bits(got), _bits(every[at]))
    assert not _bits(np.delete(every, at)).any()

    want, n_terms, shared = [], [], []
    for i, j in zip(I, J):
        acc, count, n_shared = 0.0, 0, 0
        for g in range(n_groups):
            c1, c2 = np.flatnonzero(cols[g] == i), np.flatnonzero(cols[g] == j)
            if c1.size and c2.size:
                n_shared += 1
                for row in range(n_rows):
                    if live[row, c1[0]] and live[row, c2[0]]:
                        acc += A[g, row, c1[0]] * A[g, row, c2[0]]
                        count += 1
        want.append(acc)
        n_terms.append(count)
        shared.append(n_shared)
    pairs = {
        (int(g[c1]), int(g[c2]))
        for g in cols
        for c1 in range(width)
        for c2 in range(width)
        if 0 <= g[c1] <= g[c2] and g[c1] < nz and (live[:, c1] & live[:, c2]).any()
    }
    assert sorted(pairs) == list(zip(I.tolist(), J.tolist()))
    assert np.array_equal(_bits(got), _bits(want))
    # One term per shared group and row where both factors are live; the
    # pairs numbered in ascending (I, J), and each pair's terms, wherever
    # they lie in the list, in ascending group x n_rows + row: the order the
    # bincount sums rest on.
    assert np.array_equal(np.bincount(pair, minlength=len(I)), n_terms) and min(n_terms, default=1) > 0
    assert np.all(np.diff(I * (nz + 1) + J) > 0)
    by_pair = np.argsort(pair, kind="stable")
    assert np.all(np.diff(left[by_pair] // width)[np.diff(pair[by_pair]) == 0] > 0)
    if drop == 1.0:
        assert len(I) == len(left) == 0
    elif dead == 0.0:
        assert n_terms == [k * n_rows for k in shared]
        if n_groups > 1:
            assert min(shared) < max(shared)
    else:
        assert len(I) < len(padded_I) and len(left) < n_rows * sum(shared)


@pytest.mark.parametrize("source_on", [True, False])
@pytest.mark.parametrize("p, q", [(0, 1), (1, 2), (2, 2), (3, 1)])
def test_shared_residual_pass_matches_one_degree_at_a_time(p, q, source_on):
    """The residuals and Jacobian blocks of both test degrees from one
    shared pass equal dg_residual's and the one-degree oracles', bit for bit."""
    prob = ShockTrackProblem1d(n_elem=7, p=p, q=q, source_on=source_on)
    rng = np.random.default_rng(10 * p + q)
    st = initial_state(prob)
    u = st.u + 0.1 * rng.standard_normal(prob.dims.n_u)
    x = phi_map(prob, st.y + (0.01 / prob.n_elem) * rng.standard_normal(prob.dims.n_y))
    degrees = (p, p + 1)
    gx, residuals = shocktrack._residuals(prob, u, x, degrees)
    assert np.array_equal(_bits(gx), _bits(shocktrack._element_geometry(prob, x)))
    blocks = shocktrack._jacobians(prob, u[prob.elem_u], gx, degrees)
    for degree, R, block in zip(degrees, residuals, blocks):
        assert np.array_equal(_bits(R), _bits(dg_residual(prob, u, x, degree)))
        assert np.array_equal(_bits(R), _bits(single_degree_residual(prob, u, x, degree)))
        want = single_degree_jacobian(prob, u[prob.elem_u], gx, degree)
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(block, want))


def _same_layout(X, Y) -> bool:
    """Same type, block shape, index dtypes, index arrays and data bits."""
    return (
        _same_matrix(X, Y)
        and X.indptr.dtype == Y.indptr.dtype
        and X.indices.dtype == Y.indices.dtype
        and X.data.dtype == Y.data.dtype
    )


@pytest.mark.parametrize("n_elem", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (2, 2), (3, 1), (1, 3), (2, 4)])
def test_transfers_keep_the_block_diag_layout(n_elem, p, q):
    # The arrays, their index dtypes and the sorted flag of the block_diag
    # construction in the looped oracle.
    for got, want in zip(SystemDims(n_elem, p, q).transfers(), looped_transfers(n_elem, p, q)):
        assert _same_layout(got, want) and got.has_sorted_indices == want.has_sorted_indices


@pytest.fixture(scope="module")
def catalog64_systems(prob64, states64):
    return [build_kkt(prob64, states64[k]) for k in (1, 3, 5)]


def _variants(sys):
    """The system with its own weights, with kappa, gamma or both zero, and
    with a dPhidy of random values and extra entries, whose products round
    (the mesh map's own dPhidy only selects nodes, so products with it are
    exact)."""
    weights = ((0.0, sys.gamma), (sys.kappa, 0.0), (0.0, 0.0))
    extra = scipy.sparse.random(*sys.dPhidy.shape, density=0.3, format="csr", random_state=7)
    rng = np.random.default_rng(7)
    phi = (sys.dPhidy.multiply(rng.uniform(0.5, 2.0, sys.dPhidy.shape)) + extra).tocsr()
    return [sys, dataclasses.replace(sys, dPhidy=phi)] + [
        dataclasses.replace(sys, kappa=kappa, gamma=gamma) for kappa, gamma in weights
    ]


@pytest.mark.parametrize("name", SYSTEMS)
def test_byy_matches_csc_view_assembly(name, request):
    for sys in _variants(request.getfixturevalue(name)):
        got, want = assemble_Byy(sys), csc_view_assemble_Byy(sys)
        assert _same_layout(got, want) and got.has_canonical_format == want.has_canonical_format
        assert _same_arrays(sys.Byy, want)


def test_byy_matches_csc_view_assembly_on_catalog_states(catalog64_systems):
    for sys in catalog64_systems:
        assert _same_layout(assemble_Byy(sys), csc_view_assemble_Byy(sys))


@pytest.mark.parametrize("name", SYSTEMS)
def test_kkt_matrix_matches_transposing_assembly(name, request):
    for sys in _variants(request.getfixturevalue(name)):
        K = sys.K
        assert _same_layout(K, transposing_kkt(sys)) and K.has_canonical_format
        assert _same_arrays(K.tocsc(), bmat_kkt(sys))


def test_kkt_matrix_matches_transposing_assembly_on_catalog_states(catalog64_systems):
    for sys in catalog64_systems:
        assert _same_layout(sys.K, transposing_kkt(sys))


def _same_csr(got, want):
    """Identical CSR arrays and dtypes, down to the signs of zeros and the
    sorted flag, as _same_csc compares CSC matrices."""
    assert got.format == want.format == "csr" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=name == "data")
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))
    assert got.has_sorted_indices == want.has_sorted_indices


@pytest.fixture(scope="module")
def setup_systems(prob64, states64, degree_systems):
    """The six catalog states of (64, 2, 2) and state 1 of (32, 0, 1)."""
    assert len(states64) == 7
    return [build_kkt(prob64, state) for state in states64[1:]] + [degree_systems[0]]


def test_setup_products_match_scipy_operators(setup_systems):
    # Every sparse product of a solve's set-up through the kernel layer
    # against the same steps through scipy's operators, bit for bit: Byy,
    # Jy, K, K P, the coarse matrix, and the splits of the block ILU0 of Ju
    # and of the point ILU0 of Byy.
    for sys in setup_systems:
        _same_csr(assemble_Byy(sys), scipy_assemble_Byy(sys))
        _same_csr(sys.Byy, scipy_assemble_Byy(sys))
        _same_csr(sys.Jy, scipy_Jy(sys))
        _same_csr(sys.K, argsort_kkt(sys))
        P, Q = sys.transfers
        want_A0, want_KP = scipy_coarse_matrix(sys, P, Q)
        _same_csr(kkt_matvec(sys, P), want_KP)
        _same_csr(assemble_coarse(sys, P, Q).A0, want_A0)
        F = bilu0_blocks(sys.Ju, mdf_order(sys.Ju).order)
        values = point_ilu0_values(sys.Byy)
        for args in ((F.data, F.indices, F.indptr), (values.reshape(-1, 1, 1), sys.Byy.indices, sys.Byy.indptr)):
            for got, want in zip(triangular_split(*args), scipy_triangular_split(*args), strict=True):
                _same_csc(got, want)


@pytest.mark.parametrize("name", SYSTEMS)
def test_reader_matches_argsort_reader_on_exported_systems(name, request, tmp_path):
    # sys8_zero_coupling stores all-zero dRdu blocks.
    export_system(request.getfixturevalue(name), tmp_path)
    for fname in sorted(os.listdir(tmp_path)):
        if fname.endswith(".mtx") and fname not in ("g.mtx", "r.mtx"):
            path = tmp_path / fname
            assert _same_layout(read_matrix(path), argsort_read_matrix(path))


def test_reader_matches_argsort_reader_on_signed_zeros_out_of_order(sys8_k1, tmp_path):
    # Every third value of each exported factor is made -0 and every fifth
    # 0, and the entry lines are reversed, so the sort reorders them.
    export_system(sys8_k1, tmp_path)
    for fname in sorted(os.listdir(tmp_path)):
        if not fname.endswith(".mtx") or fname in ("g.mtx", "r.mtx"):
            continue
        path = tmp_path / fname
        lines = path.read_text().splitlines()
        k = 2 if lines[1].startswith("%%block-sizes") else 1
        entries = [line.split() for line in lines[k + 1 :]]
        for i, words in enumerate(entries):
            words[2] = "-0" if i % 3 == 0 else "0" if i % 5 == 0 else words[2]
        path.write_text("\n".join(lines[: k + 1] + [" ".join(words) for words in reversed(entries)]) + "\n")
        got, want = read_matrix(path), argsort_read_matrix(path)
        assert _same_layout(got, want) and np.signbit(got.data).any()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_or_block_matrices(), st.integers(0, 2**32 - 1), st.booleans())
def test_reader_matches_argsort_reader_on_shuffled_repeated_entries(tmp_path_factory, A, seed, shuffle):
    # Block shapes drawn per matrix, entries in file order or shuffled, and
    # then some entries repeated later in the file with other values (the
    # last one wins).
    path = tmp_path_factory.mktemp("shuffled") / "a.mtx"
    write_matrix(path, A)
    lines = path.read_text().splitlines()
    k = 2 if isinstance(A, scipy.sparse.bsr_matrix) else 1
    rng = np.random.default_rng(seed)
    entries = lines[k + 1 :]
    if shuffle:
        entries = [entries[i] for i in rng.permutation(len(entries))]
        for i in rng.integers(0, len(entries), len(entries) // 2) if entries else []:
            row, col, _ = entries[i].split()
            entries.append(f"{row} {col} {rng.standard_normal()!r}")
    n_rows, n_cols, _ = lines[k].split()
    path.write_text("\n".join(lines[:k] + [f"{n_rows} {n_cols} {len(entries)}"] + entries) + "\n")
    assert _same_layout(read_matrix(path), argsort_read_matrix(path))


def _same_block_tag_parse(line):
    """Same sizes, or the same error text, as the parse that checked and
    converted every word."""
    try:
        want = word_by_word_block_tag("a.mtx", line)
    except ManifestError as exc:
        with pytest.raises(ManifestError) as got:
            _parse_block_tag("a.mtx", line)
        assert str(got.value) == str(exc)
        return
    got = _parse_block_tag("a.mtx", line)
    assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


@pytest.mark.parametrize(
    "sizes",
    ["rows=3,03 cols=2", "rows=3,3 cols=\u0663", "rows=3,0 cols=2", "rows=3,4 cols=2", "rows=x cols=2", "rows= cols=2"]
    + ["rows=2", "row=2 cols=2", "rows=2,2 cols=1 rows=1,2"],
)
def test_block_tag_parse_matches_word_by_word_parse_on_edge_lines(sizes):
    _same_block_tag_parse(f"%%block-sizes {sizes}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["rows", "cols", "row", ""]),
            st.lists(
                st.sampled_from(["1", "2", "3", "0", "00", "03", "x", "", "-1", "\u0663"]), min_size=1, max_size=5
            ),
        ),
        max_size=3,
    )
)
def test_block_tag_parse_matches_word_by_word_parse(fields):
    _same_block_tag_parse("%%block-sizes " + " ".join(f"{key}={','.join(words)}" for key, words in fields))


@pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (1, 2), (2, 2), (3, 1), (3, 2)])
def test_basis_tables_match_three_table_oracle(p, q):
    problem = ShockTrackProblem1d(n_elem=4, p=p, q=q)
    for degree in {p, p + 1, q}:
        basis = problem.basis(degree)
        for got, want in zip((basis.V, basis.D, basis.t0, basis.t1), three_table_basis(problem, degree)):
            assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


def _outcome(build):
    """build()'s result, or the type and message of the error it raised: a
    package error, or SuperLU's RuntimeError on an exactly singular factor."""
    try:
        return build()
    except (KktPrecondError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def degree_systems(sys8_k1, sys16_k1):
    """State-1 systems whose Ju blocks have sizes 1 to 4: p = 0, 1, 2, 3."""

    def first_step(n_elem, p, q):
        prob = ShockTrackProblem1d(n_elem=n_elem, p=p, q=q)
        return build_kkt(prob, run_sqp(prob, SqpConfig(max_iters=1))[1])

    return {0: first_step(32, 0, 1), 1: sys8_k1, 2: sys16_k1, 3: first_step(16, 3, 1)}


def _same_bilu_as_per_block_path(A):
    """The MDF order and weights, the bilu0_blocks data, and L and U against
    the per-block path (getrf and BlockLuFactor.solve per block), bit for
    bit; a singular pivot must raise the same error on both."""
    order = _same_mdf(A).order
    got = _outcome(lambda: bilu0_blocks(A, order))
    want = _outcome(lambda: per_block_bilu0_blocks(A, order))
    if isinstance(want, tuple):
        assert got == want
        return
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert np.array_equal(_bits(got.data), _bits(want.data))
    split = triangular_split(got.data, got.indices, got.indptr)
    for g, w in zip(split, triangular_split(want.data, want.indices, want.indptr), strict=True):
        _same_csc(g, w)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_bilu_matches_per_block_path_on_systems(p, degree_systems):
    Ju = degree_systems[p].Ju
    assert Ju.blocksize == (p + 1, p + 1)
    _same_bilu_as_per_block_path(Ju)


@pytest.mark.parametrize("block", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_bilu_matches_per_block_path_on_stencils(seed, block):
    _same_bilu_as_per_block_path(scaled_stencil(seed, 6, block))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "zero", "ties"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bilu_matches_per_block_path_on_perturbed_stencils(seed, kind):
    _same_bilu_as_per_block_path(perturbed_stencil(seed, kind))


def _per_block_build(monkeypatch, build):
    """build() with MDF ordered by the per-block fill table and block ILU0
    factored by the per-block loop."""
    with monkeypatch.context() as m:
        m.setattr(dgprecond, "bilu0_blocks", per_block_bilu0_blocks)
        m.setattr(conprec, "mdf_order", lambda A: MdfOrdering(*fill_table_mdf_order(A)))
        m.setattr(dgprecond, "mdf_order", lambda A: MdfOrdering(*fill_table_mdf_order(A)))
        return build()


def _same_report(got, want):
    """Two GMRES outcomes alike: the same package error, or the same
    iterations, stop, history, solution and residuals, bit for bit."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.iterations, got.converged, got.stop_reason) == (want.iterations, want.converged, want.stop_reason)
    for g, w in ((got.history, want.history), (got.solution, want.solution)):
        assert np.array_equal(_bits(g), _bits(w))
    assert np.array_equal(_bits([got.criterion, got.true_residual]), _bits([want.criterion, want.true_residual]))


@pytest.mark.parametrize("variant", CATALOG)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_catalog_gmres_reports_match_per_block_path(p, variant, degree_systems, monkeypatch):
    # The new builds and their cycle against the per-block builds applied
    # factor by factor (factor_apply), over whole solves.
    sys = degree_systems[p]
    cfg = GmresConfig(tol=1e-3, max_iters=1000, reference=reference_solution(sys))
    new = build_at_preconditioner(sys, variant)
    old = _per_block_build(monkeypatch, lambda: build_at_preconditioner(sys, variant))
    want = gmres_solve(sys, sys.rhs(), LinearOperator(old.dimension, partial(factor_apply, old)), cfg)
    assert want.converged
    _same_report(gmres_solve(sys, sys.rhs(), new, cfg), want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "zero", "ties", "none"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_factor_gmres_reports_match_per_block_path_on_perturbed_stencils(seed, kind, monkeypatch):
    # GMRES on the stencil itself, with block Jacobi or block ILU0 in MDF
    # order as M, applied through apply against the per-block build's apply.
    A = scaled_stencil(seed) if kind == "none" else perturbed_stencil(seed, kind)
    operator = LinearOperator(A.shape[0], A.dot)
    b = np.random.default_rng(seed).standard_normal(A.shape[0])
    cfg = GmresConfig(tol=1e-10, max_iters=200)
    for build in (dgprecond.build_block_jacobi, lambda A: dgprecond.bilu0_factor(A, dgprecond.mdf_order(A))):
        new = _outcome(lambda: build(A))
        old = _per_block_build(monkeypatch, lambda: _outcome(lambda: build(A)))
        if isinstance(old, tuple):
            assert new == old
            continue
        want = _outcome(lambda: gmres_solve(operator, b, LinearOperator(old.n, old.apply), cfg))
        _same_report(_outcome(lambda: gmres_solve(operator, b, LinearOperator(new.n, new.apply), cfg)), want)


@pytest.mark.parametrize("case", [(8, 1, 1), (16, 2, 2), (5, 0, 1), (7, 3, 2), (64, 2, 2)])
def test_reference_solve_factors_k_without_a_transposition(case, prob64, states64):
    # K is exactly symmetric, so K.T, the CSC matrix on K's own arrays, is
    # K.tocsc() array for array, and the reference solution keeps its bits;
    # (64, 2, 2) is the catalog's run.
    prob = prob64 if case == (64, 2, 2) else ShockTrackProblem1d(*case)
    for state in states64 if case == (64, 2, 2) else run_sqp(prob, SqpConfig()):
        sys = build_kkt(prob, state)
        K_T, C = sys.K.T, sys.K.tocsc()
        _same_csc(K_T, C)
        assert np.array_equal(_bits(K_T.data), _bits(C.data))
        assert np.array_equal(_bits(reference_solution(sys)), _bits(tocsc_reference_solution(sys)))


# GMRES rotations --------------------------------------------------------------


def _dlasr_column(col, cs, sn) -> np.ndarray:
    """col rotated in place by the dlasr call of gmres_solve: side L, pivot
    V, direct F, one column of len(col) rows."""
    a, c, s = (np.array(x, dtype=float) for x in (col, cs, sn))
    m = ctypes.c_int(len(a))
    krylov._dlasr(b"L", b"V", b"F", m, ctypes.c_int(1), c.ctypes.data, s.ctypes.data, a.ctypes.data, m)
    return a


def _is_identity(c, s) -> bool:
    return c == 1.0 and s == 0.0


def _skipping_identities(col, cs, sn) -> np.ndarray:
    """givens_column with every rotation (1, +-0) left out, one rotation at a
    time."""
    col = np.array(col, dtype=float)
    for i, (c, s) in enumerate(zip(cs, sn, strict=True)):
        if not _is_identity(c, s):
            col[i : i + 2] = givens_column(col[i : i + 2], [c], [s])
    return col


@st.composite
def rotated_columns(draw):
    """A column of 1 to 300 entries of magnitude 1e-300 to 1e300 with random
    signs, some of them signed zeros, and one rotation per neighbour pair:
    (cos t, sin t), or an exact (+-1, +-0) or (+-0, +-1) one."""
    rows = draw(st.integers(1, 300))
    zeros, exact = draw(st.sampled_from([0.0, 0.1, 0.5])), draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    col = rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-300.0, 300.0, rows)
    col[rng.random(rows) < zeros] *= 0.0
    t = rng.uniform(0.0, 2.0 * np.pi, rows - 1)
    cs, sn = np.cos(t), np.sin(t)
    special = np.flatnonzero(rng.random(rows - 1) < exact)
    pairs = np.array([(1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, -1.0)])
    cs[special], sn[special] = pairs[rng.integers(0, len(pairs), len(special))].T
    return col, cs, sn


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rotated_columns())
def test_dlasr_rotates_a_column_as_the_python_loop(case):
    # dlasr skips a rotation (1, +-0), which the loop applies as x + 0 y:
    # that can only turn a -0.0 into +0.0. So dlasr is the loop without
    # those rotations bit for bit, and the loop itself up to signed zeros.
    col, cs, sn = case
    got, want = _dlasr_column(col, cs, sn), givens_column(col, cs, sn)
    assert np.array_equal(_bits(got), _bits(_skipping_identities(col, cs, sn)))
    assert np.array_equal(got, want)
    if not any(_is_identity(c, s) for c, s in zip(cs, sn, strict=True)):
        assert np.array_equal(_bits(got), _bits(want))


def test_dlasr_keeps_a_negative_zero_that_the_loop_turns_positive():
    col, cs, sn = [-0.0, 1.0], [1.0], [0.0]
    assert np.array_equal(_bits(givens_column(col, cs, sn)), _bits([0.0, 1.0]))
    assert np.array_equal(_bits(_dlasr_column(col, cs, sn)), _bits([-0.0, 1.0]))


def _same_report_as_loop(monkeypatch, solve):
    """solve() against solve() with the rotations applied by givens_column,
    bit for bit."""
    got = _outcome(solve)
    with monkeypatch.context() as m:
        m.setattr(krylov, "_dlasr", looping_dlasr)
        want = _outcome(solve)
    _same_report(got, want)
    return got


@pytest.fixture(scope="module")
def catalog64_all_states(prob64, states64):
    return [build_kkt(prob64, state) for state in states64[1:7]]


@pytest.mark.parametrize("variant", CATALOG)
def test_catalog_gmres_reports_match_rotation_loop(variant, catalog64_all_states, degree_systems, monkeypatch):
    # All 8 variants on catalog states 1 to 6 of (64, 2, 2) and on the p = 0
    # to 3 systems, under both convergence criteria.
    for sys in [*catalog64_all_states, *degree_systems.values()]:
        M, b = build_at_preconditioner(sys, variant), sys.rhs()
        exact = GmresConfig(tol=1e-3, max_iters=1000, reference=reference_solution(sys))
        for cfg in (exact, GmresConfig(tol=1e-8, max_iters=1000)):
            rep = _same_report_as_loop(monkeypatch, lambda: gmres_solve(sys, b, M, cfg))
            assert rep.iterations > 1 or variant in ("A0", "A0-p0", "BJ-p0", "BILU-p0")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "zero", "ties", "none"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stencil_gmres_reports_match_rotation_loop(seed, kind, monkeypatch):
    A = scaled_stencil(seed) if kind == "none" else perturbed_stencil(seed, kind)
    operator = LinearOperator(A.shape[0], A.dot)
    b = np.random.default_rng(seed).standard_normal(A.shape[0])
    cfg = GmresConfig(tol=1e-10, max_iters=200)
    for build in (dgprecond.build_block_jacobi, lambda A: dgprecond.bilu0_factor(A, dgprecond.mdf_order(A))):
        M = _outcome(lambda: build(A))
        if not isinstance(M, tuple):
            _same_report_as_loop(monkeypatch, lambda: gmres_solve(operator, b, LinearOperator(M.n, M.apply), cfg))


@pytest.mark.parametrize("exact", [False, True], ids=["residual", "exact-solution"])
def test_gmres_report_over_storage_chunks_matches_rotation_loop(exact, monkeypatch):
    # Over 128 iterations: CS, SN and R grow from 64 rows twice, and the
    # rotations are read from the new arrays.
    A, b = shifted_system(3, 300, 1.05)
    cfg = GmresConfig(tol=1e-10)
    if exact:
        cfg = GmresConfig(tol=1e-10, reference=np.linalg.solve(A, b))
    operator = LinearOperator(300, lambda v: A @ v)
    rep = _same_report_as_loop(monkeypatch, lambda: gmres_solve(operator, b, LinearOperator(300, np.copy), cfg))
    assert rep.converged and rep.iterations > 128
