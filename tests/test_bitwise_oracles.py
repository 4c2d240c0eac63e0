"""Bitwise identity of the compiled kernels with the plain ones they replaced.

Each kernel keeps the float operations of its oracle in `oracles.py` and
their order, so every comparison here is np.array_equal, never a tolerance.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprecond.blocklinalg import BlockCsrMatrix, block_to_scipy, dense_lu_factor
from kktprecond.conprec import CATALOG, build_at_preconditioner, point_ilu0_factor
from kktprecond.dgprecond import bilu0_factor, mdf_order
from kktprecond.kkt import KktOperator
from kktprecond.pmultigrid import build_transfer, full_prolongation
from kktprecond.stencil import generate_stencil_system
from oracles import (
    five_step_apply,
    ikj_bilu_blocks,
    ikj_point_ilu0_values,
    nine_product_matvec,
    recomputing_mdf_order,
    scipy_lu_factor,
    scipy_lu_solve,
)
from test_compiled_factors import dominant_block_matrices

SYSTEMS = ("sys8_k1", "sys16_k1", "sys8_zero_coupling")


def _sparse_equal(X, Y):
    return X.shape == Y.shape and X.nnz == Y.nnz and np.array_equal(X.toarray(), Y.toarray())


@pytest.mark.parametrize("name", SYSTEMS)
def test_kkt_product_matches_nine_products(name, request):
    sys = request.getfixturevalue(name)
    op = KktOperator(sys)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(op.dimension)
    v[::3] = 0.0
    for x in (v, rng.standard_normal(op.dimension), np.zeros(op.dimension)):
        assert np.array_equal(op.matvec(x), nine_product_matvec(sys, x))

    prolong = full_prolongation(build_transfer(sys.dims))
    block = scipy.sparse.random(op.dimension, 7, density=0.2, format="csr", random_state=1)
    for X in (prolong, block):
        assert _sparse_equal(op.matmat(X), nine_product_matvec(sys, X))


def scaled_stencil(seed):
    """A 6 x 6 grid 5-point stencil with 2 x 2 blocks, each block scaled by a
    random power of ten, so the fill terms of a weight differ in size and
    their summation order shows in the last bits."""
    A = generate_stencil_system(6, 2, seed)
    rng = np.random.default_rng(seed)
    return BlockCsrMatrix(A.pattern, [blk * 10.0 ** rng.uniform(-1.0, 1.0) for blk in A.blocks])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mdf_order_matches_recomputed_weights_on_stencils(seed):
    # A 2D stencil has up to twelve discarded fill terms per row, so the
    # order of the terms in each weight's sum is exercised.
    A = scaled_stencil(seed)
    got = mdf_order(A)
    order, weights = recomputing_mdf_order(A)
    assert np.array_equal(got.order, order)
    assert np.array_equal(got.weights_at_selection, weights)
    blocks = bilu0_factor(A, got).lu_blocks.blocks
    assert all(np.array_equal(g, w) for g, w in zip(blocks, ikj_bilu_blocks(A, order), strict=True))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dominant_block_matrices())
def test_block_and_point_ilu0_match_ikj_loops(A):
    ordering = mdf_order(A)
    order, weights = recomputing_mdf_order(A)
    assert np.array_equal(ordering.order, order)
    assert np.array_equal(ordering.weights_at_selection, weights)
    got = bilu0_factor(A, ordering).lu_blocks.blocks
    want = ikj_bilu_blocks(A, order)
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    B = block_to_scipy(A)
    assert np.array_equal(point_ilu0_factor(B).values, ikj_point_ilu0_values(B))


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


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1"])
def test_mdf_and_factor_builds_match_oracles_on_systems(name, request):
    sys = request.getfixturevalue(name)
    Ju = sys.factors.Ju
    ordering = mdf_order(Ju)
    order, weights = recomputing_mdf_order(Ju)
    assert np.array_equal(ordering.order, order)
    assert np.array_equal(ordering.weights_at_selection, weights)
    got = bilu0_factor(Ju, ordering).lu_blocks.blocks
    assert all(np.array_equal(g, w) for g, w in zip(got, ikj_bilu_blocks(Ju, order), strict=True))
    assert np.array_equal(point_ilu0_factor(sys.Byy).values, ikj_point_ilu0_values(sys.Byy))


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
        assert np.array_equal(P.multigrid.coarse.A0, A0)
