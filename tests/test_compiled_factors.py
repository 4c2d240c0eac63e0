"""Compiled factor solves: every Ju~ / Byy~ factor against its dense oracle."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprecond.blocklinalg import Factor, triangular_sweep
from kktprecond.conprec import CATALOG, build_at_preconditioner, point_ilu0_factor, point_ilu0_values
from kktprecond.dgprecond import bilu0_factor, build_block_jacobi, mdf_order
from oracles import bilu_matrix, ju_matrix, point_ilu0_matrix


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
        (build_block_jacobi(A), ju_matrix("block_jacobi", A)),
        (bilu0_factor(A, mdf_order(A)), bilu_matrix(A)),
        (point_ilu0_factor(B), point_ilu0_matrix(B, point_ilu0_values(B))),
    )
    for factor, M in factors:
        expect = np.linalg.solve(M if trans == "N" else M.T, v)
        np.testing.assert_allclose((factor.apply if trans == "N" else factor.apply_T)(v), expect, rtol=1e-10)


def test_catalog_never_calls_spsolve_triangular(sys8_k1, monkeypatch):
    # scipy's spsolve_triangular keeps memory across calls and costs 100-160 us
    # per call; every triangular sweep goes through a natural-order SuperLU.
    def forbidden(*args, **kwargs):
        raise AssertionError("spsolve_triangular called")

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve_triangular", forbidden)
    rng = np.random.default_rng(5)
    for variant in CATALOG:
        P = build_at_preconditioner(sys8_k1, variant)
        out = P.apply(rng.standard_normal(P.dimension))
        assert np.all(np.isfinite(out))


def test_triangular_sweep_rejects_a_factor_superlu_would_pivot():
    swap = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(RuntimeError, match="permuted"):
        triangular_sweep(swap)


# SuperLU factorizations per build: the exact LU is factored once and solved
# with SuperLU's own solve, point ILU0 compiles its two triangular factors,
# block ILU0 compiles its block lower factor and factors its block upper one,
# and p-multigrid adds the coarse LU.
SPLU_CALLS = {"A0": 2, "BJ": 0, "BILU": 2, "BJ-ilu": 2, "BILU-ilu": 4, "A0-p0": 3, "BJ-p0": 1, "BILU-p0": 3}


def test_each_build_factors_as_often_as_its_parts_need(sys8_k1, monkeypatch):
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    counts = {}
    for variant in CATALOG:
        calls.clear()
        P = build_at_preconditioner(sys8_k1, variant)
        counts[variant] = len(calls)
        coarse = [P.multigrid[1].lu] if P.multigrid else []
        assert all(type(factor) is Factor for factor in [P.ju, P.byy, *coarse])
    assert counts == SPLU_CALLS
