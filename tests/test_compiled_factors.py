"""Compiled factor solves: every Ju~ / Byy~ factor against its dense oracle."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprecond.blocklinalg import BlockCsrMatrix, BlockPattern, block_to_scipy, densify, permuted_lu
from kktprecond.conprec import CATALOG, build_at_preconditioner, point_ilu0_factor
from kktprecond.dgprecond import bilu0_factor, build_block_jacobi, mdf_order
from kktprecond.errors import DimensionMismatch
from oracles import bilu_matrix, ju_matrix, point_ilu0_matrix


@st.composite
def dominant_block_matrices(draw):
    """Square block-sparse matrices with mixed block sizes, every diagonal
    block stored, and a strictly dominant point diagonal. Rows are scaled
    over two decades, so partial pivoting in the diagonal blocks swaps rows."""
    nb = draw(st.integers(1, 6))
    sizes = np.array(draw(st.lists(st.integers(1, 4), min_size=nb, max_size=nb)))
    stored = np.array(draw(st.lists(st.booleans(), min_size=nb * nb, max_size=nb * nb))).reshape(nb, nb)
    stored |= np.eye(nb, dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense_blocks = {(i, j): rng.standard_normal((sizes[i], sizes[j])) for i, j in zip(*np.nonzero(stored))}
    row_sums = np.zeros(int(sizes.sum()))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for (i, _), blk in dense_blocks.items():
        row_sums[offsets[i] : offsets[i + 1]] += np.abs(blk).sum(axis=1)
    for i in range(nb):
        blk = dense_blocks[i, i]
        blk[np.diag_indices(sizes[i])] = np.sign(np.diag(blk) + 0.5) * (row_sums[offsets[i] : offsets[i + 1]] + 0.1)
    row_scale = 10.0 ** rng.uniform(-1.0, 1.0, len(row_sums))
    for (i, _), blk in dense_blocks.items():
        blk *= row_scale[offsets[i] : offsets[i + 1], None]
    row_ptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    col_idx = np.nonzero(stored)[1]
    pattern = BlockPattern(sizes, sizes, row_ptr, col_idx)
    return BlockCsrMatrix(pattern, [dense_blocks[i, j] for i, j in zip(*np.nonzero(stored))])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dominant_block_matrices(), st.sampled_from(["N", "T"]))
def test_compiled_solves_match_dense_oracles(A, trans):
    dense = densify(A)
    n = dense.shape[0]
    v = np.random.default_rng(n).standard_normal(n)
    ilu = point_ilu0_factor(block_to_scipy(A))
    factors = (
        (build_block_jacobi(A), lambda F: ju_matrix(F, dense)),
        (bilu0_factor(A, mdf_order(A)), bilu_matrix),
        (ilu, point_ilu0_matrix),
    )
    for factor, oracle in factors:
        M = oracle(factor)
        expect = np.linalg.solve(M if trans == "N" else M.T, v)
        np.testing.assert_allclose(factor.solve(v, trans=trans), expect, rtol=1e-10)


def test_catalog_never_calls_spsolve_triangular(sys8_k1, monkeypatch):
    # scipy's spsolve_triangular keeps memory across calls and costs 100-160 us
    # per call; every triangular sweep goes through a natural-order SuperLU.
    def forbidden(*args, **kwargs):
        raise AssertionError("spsolve_triangular called")

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve_triangular", forbidden)
    rng = np.random.default_rng(5)
    for variant in CATALOG:
        P = build_at_preconditioner(sys8_k1, variant)
        out = P.apply_inverse(rng.standard_normal(P.dimension))
        assert np.all(np.isfinite(out))


@pytest.mark.parametrize("variant", CATALOG)
def test_factor_solves_reject_wrong_length(variant, sys8_k1):
    P = build_at_preconditioner(sys8_k1, variant)
    for factor, n in ((P.ju, P.n_u), (P.byy, P.n_y)):
        for bad in (np.array([8.0]), np.ones(n + 1), np.ones((n, 1))):
            for trans in ("N", "T"):
                with pytest.raises(DimensionMismatch):
                    factor.solve(bad, trans=trans)


def test_permuted_lu_rejects_a_factor_superlu_would_pivot():
    swap = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    identity = scipy.sparse.identity(2, format="csr")
    with pytest.raises(RuntimeError, match="permuted"):
        permuted_lu(swap, identity, np.arange(2), np.arange(2))
