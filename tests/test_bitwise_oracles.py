"""Bitwise identity of the compiled kernels with the plain ones they replaced.

Each kernel keeps the float operations of its oracle in `oracles.py` and
their order, so every comparison here is np.array_equal, never a tolerance.
"""

import os

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprecond import shocktrack
from kktprecond.blocklinalg import first_singular, getrf, triangular_split
from kktprecond.conprec import CATALOG, build_at_preconditioner, point_ilu0_factor, point_ilu0_values
from kktprecond.dgprecond import bilu0_blocks, mdf_order
from kktprecond.errors import SingularBlock
from kktprecond.kkt import KktOperator, SystemDims, reference_solution
from kktprecond.manifest import export_system
from kktprecond.mmio import read_matrix, read_vector, write_matrix
from kktprecond.pmultigrid import assemble_coarse, build_transfer, full_prolongation, full_restriction
from kktprecond.shocktrack import ShockTrackProblem1d, build_kkt, dg_residual, initial_state, phi_map
from kktprecond.stencil import generate_stencil_system
from oracles import (
    bmat_kkt,
    coo_block_split,
    coo_block_to_scipy,
    dense_lu_factor,
    fill_table_mdf_order,
    five_step_apply,
    ikj_bilu_blocks,
    ikj_point_ilu0_values,
    looped_transfers,
    nine_product_matvec,
    outer_product_row_sums,
    per_block_pivot_check,
    permuted_point_ilu0_factor,
    recomputing_mdf_order,
    scipy_lu_factor,
    scipy_lu_solve,
    sliced_block_matvec,
    sliced_coarse_matrix,
    single_degree_jacobian,
    single_degree_residual,
    tril_point_split,
    two_pass_read_matrix,
    two_pass_read_vector,
)
from test_compiled_factors import dominant_block_matrices
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
    op = KktOperator(sys)
    K = bmat_kkt(sys)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(op.dimension)
    v[::3] = 0.0
    for x in (v, rng.standard_normal(op.dimension), np.zeros(op.dimension)):
        got = op.matvec(x)
        assert np.array_equal(got, K @ x)
        assert _within_rounding(K, x, got, nine_product_matvec(sys, x))

    prolong = full_prolongation(build_transfer(sys.dims))
    block = scipy.sparse.random(op.dimension, 7, density=0.2, format="csr", random_state=1)
    for X in (prolong, block):
        got = op.matmat(X)
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
    """Identical CSC arrays and dtypes, as SuperLU receives them."""
    assert got.format == want.format == "csc" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=name == "data")


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
    Ju = sys.factors.Ju
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
    for trans in ("N", "T"):
        v = rng.standard_normal(Byy.shape[0])
        assert np.array_equal(F.solve(v, trans=trans), want.solve(v, trans=trans))


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1"])
@pytest.mark.parametrize("variant", CATALOG)
def test_catalog_apply_matches_five_step_oracle(name, variant, request):
    sys = request.getfixturevalue(name)
    P = build_at_preconditioner(sys, variant)
    rng = np.random.default_rng(7)
    for v in (rng.standard_normal(P.dimension), sys.rhs()):
        want, A0 = five_step_apply(P, sys, v)
        assert np.array_equal(P.apply_inverse(v), want)
    assert (P.multigrid is None) == (A0 is None)
    if A0 is not None:
        assert np.array_equal(P.multigrid.coarse.A0.toarray(), A0.toarray())


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
    bad = first_singular(blocks, factors)
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
    op = KktOperator(sys)
    K = bmat_kkt(sys)
    prolong = full_prolongation(build_transfer(sys.dims))
    block = scipy.sparse.random(op.dimension, 7, density=0.2, format="csr", random_state=1)
    for X in (prolong, block):
        got, want = op.matmat(X), K @ X
        assert got.nnz == want.nnz and np.array_equal(_bits(got.toarray()), _bits(want.toarray()))
        assert _within_rounding(K, X, got, sliced_block_matvec(sys, X))
    A0 = assemble_coarse(op, build_transfer(sys.dims)).A0.toarray()
    assert np.array_equal(_bits(A0), _bits(sliced_coarse_matrix(sys)))


@pytest.mark.parametrize("n_elem", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (2, 2), (3, 1), (1, 3), (2, 4)])
def test_transfers_match_looped_construction(n_elem, p, q):
    T = build_transfer(SystemDims(n_elem, p, q))
    want, P, Q = looped_transfers(n_elem, p, q)
    pairs = [(T.Pu, want.Pu), (T.Py, want.Py), (T.Qy, want.Qy), (full_prolongation(T), P), (full_restriction(T), Q)]
    assert all(_same_arrays(got, exp) for got, exp in pairs)


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


@pytest.mark.parametrize("n_groups, n_rows, width, nz", [(1, 1, 3, 2), (6, 3, 5, 9), (12, 4, 7, 10), (30, 1, 4, 12)])
def test_row_sums_match_the_outer_product_sums(n_groups, n_rows, width, nz):
    """The chunked sums equal the full outer-product gather bit for bit, and
    both equal each pair's terms summed from 0.0 over its shared groups and
    their rows in ascending order, on A with signed zeros and pairs that
    share fewer groups than the tables have slots."""
    rng = np.random.default_rng(n_groups * 100 + width)
    cols = np.array([rng.choice(nz, width - 1, replace=False) for _ in range(n_groups)])
    cols[rng.random(cols.shape) < 0.2] = -1
    cols = np.hstack([cols, np.full((n_groups, 1), nz)])
    A = rng.standard_normal((n_groups, n_rows, width))
    A[rng.random(A.shape) < 0.3] = 0.0
    A[rng.random(A.shape) < 0.2] = -0.0

    I, J, left, right = shocktrack._row_sum_terms(cols, n_rows, nz)
    assert left.dtype == right.dtype == np.int32 and left.shape == right.shape == (left.shape[0], len(I))
    got = shocktrack._row_sums(A, left, right)
    assert np.array_equal(_bits(got), _bits(outer_product_row_sums(A, left, right)))

    want, shared = [], []
    for i, j in zip(I, J):
        acc, n_shared = 0.0, 0
        for g in range(n_groups):
            c1, c2 = np.flatnonzero(cols[g] == i), np.flatnonzero(cols[g] == j)
            if c1.size and c2.size:
                n_shared += 1
                for row in range(n_rows):
                    acc += A[g, row, c1[0]] * A[g, row, c2[0]]
        want.append(acc)
        shared.append(n_shared)
    pairs = {(int(c1), int(c2)) for g in cols for c1 in g for c2 in g if 0 <= c1 <= c2 and c1 < nz}
    assert sorted(pairs) == list(zip(I.tolist(), J.tolist()))
    assert np.array_equal(_bits(got), _bits(want))
    assert left.shape[0] == max(shared) * n_rows
    if n_groups > 1:
        assert min(shared) < max(shared)


@pytest.mark.parametrize("source_on", [True, False])
@pytest.mark.parametrize("p, q", [(0, 1), (1, 2), (2, 2), (3, 1)])
def test_shared_residual_pass_matches_one_degree_at_a_time(p, q, source_on):
    """The residuals and Jacobian blocks of both test degrees from one
    shared pass equal dg_residual's and the one-degree oracles', bit for bit."""
    prob = ShockTrackProblem1d(n_elem=7, p=p, q=q, source_on=source_on)
    rng = np.random.default_rng(10 * p + q)
    st = initial_state(prob)
    u = st.u + 0.1 * rng.standard_normal(prob.n_u)
    x = phi_map(prob, st.y + (0.01 / prob.n_elem) * rng.standard_normal(prob.n_y))
    degrees = (p, p + 1)
    gx, residuals = shocktrack._residuals(prob, u, x, degrees)
    assert np.array_equal(_bits(gx), _bits(shocktrack._element_geometry(prob, x)))
    blocks = shocktrack._jacobians(prob, u[prob.elem_u], gx, degrees)
    for degree, R, block in zip(degrees, residuals, blocks):
        assert np.array_equal(_bits(R), _bits(dg_residual(prob, u, x, degree)))
        assert np.array_equal(_bits(R), _bits(single_degree_residual(prob, u, x, degree)))
        want = single_degree_jacobian(prob, u[prob.elem_u], gx, degree)
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(block, want))
