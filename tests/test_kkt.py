"""KKT system assembly, matrix-free action, and sparsity accounting."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse

from conftest import singular_system
from kktprecond.blocklinalg import canonical_csr, canonical_pattern
from kktprecond.conprec import build_at_preconditioner
from kktprecond.errors import DimensionMismatch, PatternViolation, SingularSystem
from kktprecond.kkt import (
    KktSystem,
    SystemDims,
    assemble_Byy,
    kkt_matvec,
    reference_solution,
)
from kktprecond.krylov import GmresConfig, gmres_solve
from kktprecond.shocktrack import ShockTrackProblem1d, SqpConfig, build_kkt, run_sqp
from kktprecond.stencil import generate_stencil_system
from oracles import ata_pattern, count_block_sparsity, dense_kkt, state_at


def single_block(arr):
    arr = np.asarray(arr, dtype=float)
    return scipy.sparse.bsr_matrix((arr[None], [0], [0, 1]), shape=arr.shape)


def point(arr):
    return scipy.sparse.csr_matrix(np.asarray(arr, dtype=float))


def tiny_system(rng=None, kappa=0.5, gamma=0.25):
    """Dense random desk-scale factors, zero g and r: n_u=2, enriched 3,
    n_x=3, n_y=1."""
    rng = np.random.default_rng(0) if rng is None else rng
    return KktSystem(
        Ju=single_block(rng.standard_normal((2, 2)) + 2.0 * np.eye(2)),
        dRdu=single_block(rng.standard_normal((3, 2))),
        dRdx=point(rng.standard_normal((3, 3))),
        drdx=point(rng.standard_normal((2, 3))),
        dRmshdx=point(rng.standard_normal((1, 3))),
        dPhidy=point(np.array([[0.0], [1.0], [0.0]])),
        D=point(np.eye(3) + 0.1),
        kappa=kappa,
        gamma=gamma,
        g=np.zeros(3),
        r=np.zeros(2),
        dims=SystemDims(1, 1, 2),
    )


# Byy assembly ---------------------------------------------------------------


def test_byy_zero_when_all_terms_vanish():
    rng = np.random.default_rng(1)
    f = tiny_system(rng, kappa=0.0, gamma=0.0)
    f.dRdx = point(np.zeros((3, 3)))
    np.testing.assert_array_equal(assemble_Byy(f).toarray(), np.zeros((1, 1)))


def test_byy_reduces_to_elasticity():
    # Two elements of mesh degree 2: five mesh nodes, three of them interior.
    rng = np.random.default_rng(2)
    D = np.diag(np.full(5, 2.0)) - np.eye(5, k=1) - np.eye(5, k=-1)
    f = KktSystem(
        Ju=scipy.sparse.bsr_matrix(np.eye(2), blocksize=(1, 1)),
        dRdu=scipy.sparse.bsr_matrix(rng.standard_normal((4, 2)), blocksize=(2, 1)),
        dRdx=point(np.zeros((4, 5))),
        drdx=point(rng.standard_normal((2, 5))),
        dRmshdx=point(np.zeros((2, 5))),
        dPhidy=point(np.eye(5, 3, k=-1)),
        D=point(D),
        kappa=0.7,
        gamma=1.5,
        g=np.zeros(5),
        r=np.zeros(2),
        dims=SystemDims(2, 0, 2),
    )
    np.testing.assert_allclose(assemble_Byy(f).toarray(), 1.5 * D[1:4, 1:4], rtol=1e-14)


def test_byy_matches_dense_triple_product():
    rng = np.random.default_rng(3)
    f = tiny_system(rng, kappa=0.3, gamma=0.8)
    Ax = f.dRdx.toarray()
    Rm = f.dRmshdx.toarray()
    D = f.D.toarray()
    Phi = f.dPhidy.toarray()
    Bxx = Ax.T @ Ax + f.kappa**2 * (Rm.T @ Rm) + f.gamma * D
    expect = Phi.T @ Bxx @ Phi
    np.testing.assert_allclose(assemble_Byy(f).toarray(), expect, rtol=1e-12, atol=1e-14)


def test_byy_positive_semidefinite_on_generated_system(sys8_k1):
    B = sys8_k1.Byy.toarray()
    eigs = np.linalg.eigvalsh(B)
    assert eigs.min() >= -1e-10 * max(abs(eigs).max(), 1.0)


def test_byy_rayleigh_quotient_monotone_in_gamma(prob8, states8):
    rng = np.random.default_rng(4)
    lo = build_kkt(prob8, dataclasses.replace(states8[1], gamma=1e-5)).Byy.toarray()
    hi = build_kkt(prob8, dataclasses.replace(states8[1], gamma=1e-1)).Byy.toarray()
    for _ in range(10):
        v = rng.standard_normal(lo.shape[0])
        assert v @ hi @ v >= v @ lo @ v - 1e-12


# Matrix-free action ---------------------------------------------------------


def test_matvec_byy_only_identity():
    # Byy = dPhidy^T (gamma D) dPhidy = [[1]] is the only nonzero block.
    sys = KktSystem(
        Ju=single_block(np.zeros((2, 2))),
        dRdu=single_block(np.zeros((3, 2))),
        dRdx=point(np.zeros((3, 3))),
        drdx=point(np.zeros((2, 3))),
        dRmshdx=point(np.zeros((1, 3))),
        dPhidy=point(np.array([[0.0], [1.0], [0.0]])),
        D=point(np.eye(3)),
        kappa=0.0,
        gamma=1.0,
        g=np.zeros(3),
        r=np.zeros(2),
        dims=SystemDims(1, 1, 2),
    )
    np.testing.assert_array_equal(sys.Byy.toarray(), [[1.0]])
    v = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(kkt_matvec(sys, v), v)


def test_matvec_zero_vector():
    sys = tiny_system()
    np.testing.assert_array_equal(kkt_matvec(sys, np.zeros(5)), np.zeros(5))


def test_matvec_matches_dense_on_generated_system(sys8_k1):
    A = dense_kkt(sys8_k1)
    rng = np.random.default_rng(5)
    scale = np.linalg.norm(A)
    for _ in range(50):
        v = rng.standard_normal(sys8_k1.dimension)
        np.testing.assert_allclose(kkt_matvec(sys8_k1, v), A @ v, rtol=1e-12, atol=1e-12 * scale)


def test_matvec_rejects_wrong_length(sys8_k1):
    with pytest.raises(DimensionMismatch):
        kkt_matvec(sys8_k1, np.zeros(3))


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1"])
def test_matmat_matches_dense_on_prolongation(name, request):
    sys = request.getfixturevalue(name)
    X, _ = sys.transfers
    A = dense_kkt(sys)
    got = kkt_matvec(sys, X)
    assert scipy.sparse.issparse(got)
    np.testing.assert_allclose(got.toarray(), A @ X.toarray(), rtol=1e-12, atol=1e-12 * np.abs(A).max())


def test_matmat_columns_match_matvec(sys8_k1):
    X = scipy.sparse.random(sys8_k1.dimension, 4, density=0.3, format="csr", random_state=7)
    got = kkt_matvec(sys8_k1, X).toarray()
    for k in range(4):
        np.testing.assert_allclose(got[:, k], kkt_matvec(sys8_k1, X[:, [k]].toarray().ravel()), rtol=1e-13, atol=1e-13)


def test_matmat_rejects_wrong_row_count(sys8_k1):
    with pytest.raises(DimensionMismatch):
        kkt_matvec(sys8_k1, scipy.sparse.identity(sys8_k1.dimension - 1, format="csr"))


def test_matvec_rejects_dense_matrix(sys8_k1):
    with pytest.raises(DimensionMismatch):
        kkt_matvec(sys8_k1, np.zeros((sys8_k1.dimension, 2)))


def test_kkt_matrix_is_built_on_first_product_only(prob8, states8):
    sys = build_kkt(prob8, states8[1])
    assert "K" not in vars(sys)
    sys.apply(np.zeros(sys.dimension))
    K = sys.K
    sys.apply(np.ones(sys.dimension))
    assert sys.K is K
    assert isinstance(K, scipy.sparse.csr_matrix) and K.has_canonical_format
    assert K.shape == (sys.dimension, sys.dimension)


@pytest.mark.parametrize(
    "n_elem, p, q",
    [(8, 1, 1), (16, 2, 2), (64, 2, 2), (20, 0, 1), (64, 1, 1), (100, 2, 2), (100, 3, 1)],
    ids=["8", "16", "64", "20-p0-q1", "64-p1-q1", "100-p2-q2", "100-p3-q1"],
)
def test_kkt_matrix_is_exactly_symmetric(n_elem, p, q):
    """K equals its transpose in stored pattern and values, explicit zeros
    included, at the first SQP states. n_elem=100 puts the shock on an
    element boundary."""
    prob = ShockTrackProblem1d(n_elem=n_elem, p=p, q=q)
    states = run_sqp(prob, SqpConfig(max_iters=3))
    assert len(states) == 4
    for state in states:
        K = build_kkt(prob, state).K
        Kt = K.T.tocsr()
        Kt.sort_indices()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(K, name), getattr(Kt, name))


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1", "sys8_zero_coupling"])
def test_kkt_matrix_matches_dense_materialization(name, request):
    sys = request.getfixturevalue(name)
    A = dense_kkt(sys)
    np.testing.assert_allclose(sys.K.toarray(), A, rtol=0, atol=1e-14 * np.abs(A).max())


# Dense copy of K ------------------------------------------------------------


def test_dense_zero_factors_give_zero_matrix():
    sys = KktSystem(
        Ju=single_block(np.zeros((2, 2))),
        dRdu=single_block(np.zeros((3, 2))),
        dRdx=point(np.zeros((3, 3))),
        drdx=point(np.zeros((2, 3))),
        dRmshdx=point(np.zeros((1, 3))),
        dPhidy=point(np.array([[0.0], [1.0], [0.0]])),
        D=point(np.zeros((3, 3))),
        kappa=0.0,
        gamma=0.0,
        g=np.zeros(3),
        r=np.zeros(2),
        dims=SystemDims(1, 1, 2),
    )
    np.testing.assert_array_equal(sys.K.toarray(), np.zeros((5, 5)))


def test_dense_is_exactly_symmetric(sys8_k1, sys16_k1):
    for sys in (sys8_k1, sys16_k1):
        A = sys.K.toarray()
        assert np.linalg.norm(A - A.T) == 0.0


def test_rhs_sign_convention():
    g = np.array([1.0, -2.0, 3.0])
    r = np.array([4.0, -5.0])
    sys = dataclasses.replace(tiny_system(), g=g, r=r)
    np.testing.assert_array_equal(sys.rhs(), [-1.0, 2.0, -3.0, -4.0, 5.0])


# Sparsity accounting --------------------------------------------------------


def test_ata_pattern_matches_scipy_boolean_product():
    rng = np.random.default_rng(6)
    for seed in range(5):
        A = generate_stencil_system(3, 1, seed=seed)
        pat = ata_pattern(A)
        S = scipy.sparse.csr_matrix((np.ones(len(A.indices)), A.indices, A.indptr), shape=(9, 9))
        expect = ((S.T @ S) != 0).tocsr()
        expect.sort_indices()
        np.testing.assert_array_equal(pat.indptr, expect.indptr)
        np.testing.assert_array_equal(pat.indices, expect.indices)
        np.testing.assert_array_equal(pat.data, 1.0)


def test_interior_sparsity_ratio_is_five_thirds(sys8_k1):
    counts = count_block_sparsity(
        sys8_k1.Ju, ata_pattern(sys8_k1.dRdu)
    )
    assert counts.m1 == 3.0
    assert counts.m2 == 5.0
    assert counts.ratio == 5.0 / 3.0


def test_single_element_mesh_ratio_one():
    prob = ShockTrackProblem1d(n_elem=1, p=1, q=1)
    f = build_kkt(prob, state_at(prob, np.zeros(prob.dims.n_u), prob.reference_nodes[1:-1]))
    counts = count_block_sparsity(f.Ju, ata_pattern(f.dRdu))
    assert counts.m1 == 1.0
    assert counts.m2 == 1.0
    assert counts.ratio == 1.0


def test_stencil_sparsity_five_to_thirteen():
    A = generate_stencil_system(5, 1, seed=0)
    counts = count_block_sparsity(A, ata_pattern(A))
    assert counts.m1 == 5.0
    assert counts.m2 == 13.0
    np.testing.assert_allclose(counts.ratio, 2.6)


# Metadata and validation ----------------------------------------------------


def test_system_dims_properties():
    dims = SystemDims(8, 1, 1)
    assert dims.n_u == 16
    assert dims.n_u_enriched == 24
    assert dims.n_x == 9
    assert dims.n_y == 7
    dims2 = SystemDims(16, 2, 2)
    assert dims2.n_u == 48
    assert dims2.n_y == 31


@pytest.mark.parametrize(
    "n_elem, p, q, rule",
    [
        (0, 1, 1, "n_elem must be at least 1"),
        (-3, 1, 1, "n_elem must be at least 1"),
        (8, -1, 1, "p must be nonnegative"),
        (8, 1, 0, "q must be at least 1"),
    ],
)
def test_system_dims_range_rule(n_elem, p, q, rule):
    with pytest.raises(ValueError, match=rule):
        SystemDims(n_elem, p, q)


def test_factor_validation_rejects_inconsistent_shapes():
    f = tiny_system()
    with pytest.raises(DimensionMismatch):
        KktSystem(
            Ju=f.Ju,
            dRdu=single_block(np.zeros((3, 1))),
            dRdx=f.dRdx,
            drdx=f.drdx,
            dRmshdx=f.dRmshdx,
            dPhidy=f.dPhidy,
            D=f.D,
            kappa=0.0,
            gamma=0.0,
            g=f.g,
            r=f.r,
            dims=f.dims,
        )
    with pytest.raises(ValueError):
        KktSystem(
            Ju=f.Ju,
            dRdu=f.dRdu,
            dRdx=f.dRdx,
            drdx=f.drdx,
            dRmshdx=f.dRmshdx,
            dPhidy=f.dPhidy,
            D=f.D,
            kappa=-1.0,
            gamma=0.0,
            g=f.g,
            r=f.r,
            dims=f.dims,
        )


@pytest.mark.parametrize(
    "kappa, gamma",
    [(-1.0, 0.0), (0.0, -1.0), (np.nan, 0.0), (0.0, np.nan)],
    ids=["kappa-negative", "gamma-negative", "kappa-nan", "gamma-nan"],
)
def test_factor_validation_rejects_negative_and_nan_weights(kappa, gamma):
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(tiny_system(), kappa=kappa, gamma=gamma)


@pytest.mark.parametrize("name", ["kappa", "gamma"])
def test_system_rejects_an_infinite_weight_with_the_cli_wording(name):
    with pytest.raises(ValueError, match=f"^invalid {name} inf: must be finite and nonnegative$"):
        dataclasses.replace(tiny_system(), **{name: float("inf")})


@pytest.mark.parametrize("name", ["kappa", "gamma"])
def test_build_kkt_rejects_an_infinite_weight_before_any_gradient(prob8, states8, name):
    """No NaN gradient and no RuntimeWarning: the weight rule runs first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^invalid {name} inf: must be finite and nonnegative$"):
            build_kkt(prob8, dataclasses.replace(states8[1], **{name: float("inf")}))


def test_scalar_factors_are_made_canonical_csr():
    f = tiny_system()
    # Unsorted columns and a repeated entry in row 0.
    D = scipy.sparse.csr_matrix(([1.0, 2.0, 0.5, 4.0], [2, 0, 2, 1], [0, 3, 3, 4]), shape=(3, 3))
    assert not D.has_canonical_format
    sys = dataclasses.replace(f, D=D)
    assert isinstance(sys.D, scipy.sparse.csr_matrix) and sys.D.has_canonical_format
    np.testing.assert_array_equal(sys.D.toarray(), [[2.0, 0.0, 1.5], [0.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    assert D.indices.tolist() == [2, 0, 2, 1]  # the caller's matrix is left alone
    assert isinstance(sys.Byy, scipy.sparse.csr_matrix) and sys.Byy.has_canonical_format
    with pytest.raises(TypeError):
        dataclasses.replace(f, dRdx=f.Ju.toarray())


@pytest.mark.parametrize("n_elem, p, q", [(64, 2, 2), (32, 0, 1), (16, 1, 2), (100, 3, 1), (8, 1, 1)])
def test_system_keeps_assemble_byy_as_built(n_elem, p, q):
    """assemble_Byy's result is canonical, as read from its arrays, so the
    system keeps it as built: canonical_csr, which the system once applied
    to it, returns equal arrays, down to the signs of zeros. Up to six SQP states, each with its own
    weights and with kappa, gamma or both zero."""
    prob = ShockTrackProblem1d(n_elem=n_elem, p=p, q=q)
    states = run_sqp(prob, SqpConfig(max_iters=5))
    for state in states:
        for kappa, gamma in ((state.kappa, state.gamma), (0.0, state.gamma), (state.kappa, 0.0), (0.0, 0.0)):
            sys = build_kkt(prob, dataclasses.replace(state, kappa=kappa, gamma=gamma))
            Byy = assemble_Byy(sys)
            assert canonical_pattern(Byy, "Byy") and Byy.indices.dtype == np.int32
            for M, name in itertools.product((sys.Byy, canonical_csr(Byy, "Byy")), ("indptr", "indices", "data")):
                got, want = getattr(M, name), getattr(Byy, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def _int64_indexed(M):
    """A copy of the CSR or BSR matrix M on int64 index arrays, which its
    check_format accepts."""
    M = M.copy()
    M.indptr, M.indices = M.indptr.astype(np.int64), M.indices.astype(np.int64)
    M.check_format(full_check=True)
    return M


def test_int64_index_arrays_are_narrowed_at_the_record(sys8_k1):
    """Factors on int64 index arrays give the system the int32 ones give: the
    same factor, Byy, Jy and K arrays, and the same solves, bit for bit, not
    a TypeError of the kernel layer at the first Byy or K."""
    factors = {name: _int64_indexed(getattr(sys8_k1, name)) for name in sys8_k1.dims.shapes}
    wide = dataclasses.replace(sys8_k1, **factors)
    for name in (*factors, "Byy", "Jy", "K"):
        got, want = getattr(wide, name), getattr(sys8_k1, name)
        for arr in ("indptr", "indices", "data"):
            assert getattr(got, arr).dtype == getattr(want, arr).dtype, (name, arr)
            np.testing.assert_array_equal(getattr(got, arr), getattr(want, arr))
    for variant in ("A0", "BJ-p0", "BILU-ilu"):
        got, want = (
            gmres_solve(s, s.rhs(), build_at_preconditioner(s, variant), GmresConfig(reference=reference_solution(s)))
            for s in (wide, sys8_k1)
        )
        assert got.iterations == want.iterations and got.converged
        np.testing.assert_array_equal(got.solution, want.solution)


def test_block_factors_must_be_canonical_bsr():
    f = tiny_system()
    with pytest.raises(TypeError, match="Ju must be a scipy BSR matrix"):
        dataclasses.replace(f, Ju=f.Ju.tocsr())
    with pytest.raises(TypeError, match="dRdu must be a scipy BSR matrix"):
        dataclasses.replace(f, dRdu=f.dRdu.toarray())
    # Two block rows and columns of 1 x 1 blocks: unsorted, then repeated,
    # block column indices in block row 0.
    for indices in ([1, 0, 1], [0, 0, 1]):
        Ju = scipy.sparse.bsr_matrix((np.ones((3, 1, 1)), indices, [0, 2, 3]), shape=(2, 2))
        with pytest.raises(PatternViolation, match="Ju"):
            dataclasses.replace(f, Ju=Ju)
    with pytest.raises(DimensionMismatch, match=r"^Ju has \(1, 2\) blocks, expected \(2, 2\)$"):
        dataclasses.replace(f, Ju=scipy.sparse.bsr_matrix(np.eye(2), blocksize=(1, 2)))


def test_system_checks_every_factor_against_the_dims_table():
    # dims is required, and the one table of factor shapes also catches a
    # dRmshdx row count and a dRdu block shape that no other check sees.
    (dims,) = (f for f in dataclasses.fields(KktSystem) if f.name == "dims")
    assert dims.default is dataclasses.MISSING and dims.default_factory is dataclasses.MISSING
    f = tiny_system()
    assert f.dims.shapes == {name: getattr(f, name).shape for name in f.dims.shapes}
    with pytest.raises(DimensionMismatch, match="^dRmshdx is 2 x 3, expected 1 x 3$"):
        dataclasses.replace(f, dRmshdx=point(np.zeros((2, 3))))
    with pytest.raises(DimensionMismatch, match=r"^dRdu has \(1, 2\) blocks, expected \(3, 2\)$"):
        dataclasses.replace(f, dRdu=scipy.sparse.bsr_matrix(np.ones((3, 2)), blocksize=(1, 2)))


def test_system_validation_rejects_wrong_vector_lengths():
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(tiny_system(), g=np.zeros(2))


# Sparse direct reference ----------------------------------------------------


@pytest.mark.parametrize("fixture", ["sys8_k1", "sys16_k1", "sys8_zero_coupling"])
def test_reference_solution_matches_dense_solve(fixture, request):
    sys = request.getfixturevalue(fixture)
    expect = np.linalg.solve(dense_kkt(sys), sys.rhs())
    np.testing.assert_allclose(reference_solution(sys), expect, rtol=1e-10, atol=1e-10 * np.abs(expect).max())


def test_reference_solution_of_singular_system_raises(sys8_k1):
    with pytest.raises(SingularSystem):
        reference_solution(singular_system(sys8_k1))
