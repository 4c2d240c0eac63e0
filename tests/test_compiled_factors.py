"""Compiled factor solves: every Ju~ / Byy~ factor against its dense oracle."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprecond.blocklinalg import permuted_lu
from kktprecond.conprec import CATALOG, build_at_preconditioner, point_ilu0_factor
from kktprecond.dgprecond import bilu0_factor, build_block_jacobi, mdf_order
from kktprecond.errors import DimensionMismatch
from oracles import bilu_matrix, dense_lu_factor, ju_matrix, point_ilu0_matrix


@st.composite
def dominant_block_matrices(draw):
    """Square BSR matrices with one block size, drawn per example, every
    diagonal block stored, and a strictly dominant point diagonal. Rows are
    scaled over two decades, so partial pivoting in the diagonal blocks swaps
    rows."""
    nb = draw(st.integers(1, 6))
    s = draw(st.integers(1, 4))
    stored = np.array(draw(st.lists(st.booleans(), min_size=nb * nb, max_size=nb * nb))).reshape(nb, nb)
    stored |= np.eye(nb, dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    I, J = np.nonzero(stored)
    blocks = rng.standard_normal((len(I), s, s))
    row_sums = np.zeros((nb, s))
    np.add.at(row_sums, I, np.abs(blocks).sum(axis=2))
    diag = blocks[I == J]
    diag[:, np.arange(s), np.arange(s)] = np.sign(np.diagonal(diag, axis1=1, axis2=2) + 0.5) * (row_sums + 0.1)
    blocks[I == J] = diag
    blocks *= 10.0 ** rng.uniform(-1.0, 1.0, (nb, s))[I][:, :, None]
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    return scipy.sparse.bsr_matrix((blocks, J, indptr), shape=(nb * s, nb * s))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dominant_block_matrices(), st.sampled_from(["N", "T"]))
def test_compiled_solves_match_dense_oracles(A, trans):
    dense = A.toarray()
    n = dense.shape[0]
    v = np.random.default_rng(n).standard_normal(n)
    B = A.tocsr()
    factors = (
        (build_block_jacobi(A), lambda F: ju_matrix(F, A)),
        (bilu0_factor(A, mdf_order(A)), bilu_matrix),
        (point_ilu0_factor(B), lambda F: point_ilu0_matrix(B, F.values)),
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


FACTOR_TYPES = ("PermutedLu", "BlockJacobiPrec", "BiluPrec", "PointJacobiFactor", "PointIlu0Factor", "BlockLuFactor")


def _factor_of_type(kind, sys):
    """A factor of one solve-protocol type built on sys, with its order."""
    n_u, n_y = sys.factors.n_u, sys.factors.n_y
    if kind == "BlockLuFactor":
        return dense_lu_factor(np.array([[2.0, 1.0], [1.0, 3.0]])), 2
    variant, part, n = {
        "PermutedLu": ("A0", "ju", n_u),
        "BlockJacobiPrec": ("BJ", "ju", n_u),
        "BiluPrec": ("BILU", "ju", n_u),
        "PointJacobiFactor": ("BJ", "byy", n_y),
        "PointIlu0Factor": ("BJ-ilu", "byy", n_y),
    }[kind]
    return getattr(build_at_preconditioner(sys, variant), part), n


@pytest.mark.parametrize("kind", FACTOR_TYPES)
def test_factor_solves_reject_unknown_trans(kind, sys8_k1):
    factor, n = _factor_of_type(kind, sys8_k1)
    assert type(factor).__name__ == kind
    for bad in ("X", "t", "C", 1):
        with pytest.raises(ValueError, match=f"trans must be 'N' or 'T', got {bad!r}"):
            factor.solve(np.ones(n), trans=bad)
