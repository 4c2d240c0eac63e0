"""Two-level p-multigrid transfers, Galerkin coarse matrix, and cycle."""

import numpy as np
import pytest

from conftest import count_iterations
from kktprecond.errors import SingularCoarseMatrix
from kktprecond.kkt import SystemDims
from kktprecond.pmultigrid import assemble_coarse, pmg_apply
from kktprecond.shocktrack import ShockTrackProblem1d, SqpConfig, build_kkt, run_sqp
from oracles import LinearOperator, dense_kkt, lu_preconditioner, tracked_state


@pytest.fixture(scope="module")
def p0_sys():
    prob = ShockTrackProblem1d(n_elem=8, p=0, q=1)
    return build_kkt(prob, tracked_state(prob))


# Transfer operators ---------------------------------------------------------


def field_transfers(dims):
    """Pu, Py and Qy, the diagonal blocks of P = diag(Pu, Py, Pu) and
    Q = diag(Pu^T, Qy, Pu^T), as dense arrays."""
    P, Q = (M.toarray() for M in dims.transfers())
    n_u, n_y, n_c = dims.n_u, dims.n_y, dims.n_elem
    Pu, Py = P[:n_u, :n_c], P[n_u : n_u + n_y, n_c : 2 * n_c - 1]
    Qy = Q[n_c : 2 * n_c - 1, n_u : n_u + n_y]
    np.testing.assert_array_equal(P[n_u + n_y :, 2 * n_c - 1 :], Pu)
    np.testing.assert_array_equal(Q[:n_c, :n_u], Pu.T)
    np.testing.assert_array_equal(Q[2 * n_c - 1 :, n_u + n_y :], Pu.T)
    assert np.count_nonzero(P) == 2 * np.count_nonzero(Pu) + np.count_nonzero(Py)
    assert np.count_nonzero(Q) == 2 * np.count_nonzero(Pu) + np.count_nonzero(Qy)
    return Pu, Py, Qy


def test_pu_embeds_element_constants():
    Pu, _, _ = field_transfers(SystemDims(2, 1, 1))
    np.testing.assert_array_equal(Pu, [[1, 0], [1, 0], [0, 1], [0, 1]])


def test_py_linear_interpolation_single_interior_vertex():
    _, Py, _ = field_transfers(SystemDims(2, 1, 2))
    np.testing.assert_array_equal(Py, [[0.5], [1.0], [0.5]])


def test_restriction_is_left_inverse_of_prolongation():
    for n_elem, p, q in [(2, 1, 1), (3, 1, 2), (4, 2, 2), (5, 3, 1), (8, 2, 3)]:
        _, Py, Qy = field_transfers(SystemDims(n_elem, p, q))
        np.testing.assert_array_equal(Qy @ Py, np.eye(n_elem - 1))


def test_lowest_order_transfers_are_identities():
    for n_elem in (2, 5, 8):
        dims = SystemDims(n_elem, 0, 1)
        Pu, Py, Qy = field_transfers(dims)
        np.testing.assert_array_equal(Pu, np.eye(n_elem))
        np.testing.assert_array_equal(Py, np.eye(n_elem - 1))
        np.testing.assert_array_equal(Qy, np.eye(n_elem - 1))
        dim = 3 * n_elem - 1
        P, Q = dims.transfers()
        np.testing.assert_array_equal(P.toarray(), np.eye(dim))
        np.testing.assert_array_equal(Q.toarray(), np.eye(dim))


# Galerkin coarse matrix -----------------------------------------------------


def test_coarse_of_lowest_order_system_is_the_system(p0_sys):
    coarse = assemble_coarse(p0_sys, *p0_sys.transfers)
    A = dense_kkt(p0_sys)
    np.testing.assert_allclose(coarse.A0.toarray(), A, rtol=1e-12, atol=1e-12 * np.abs(A).max())


def test_coarse_matches_dense_triple_product(sys16_k1):
    P, Q = sys16_k1.transfers
    coarse = assemble_coarse(sys16_k1, P, Q)
    A = dense_kkt(sys16_k1)
    expect = Q.toarray() @ A @ P.toarray()
    np.testing.assert_allclose(coarse.A0.toarray(), expect, rtol=1e-12, atol=1e-12 * np.abs(A).max())


def test_zero_operator_gives_singular_coarse_matrix():
    dims = SystemDims(4, 1, 1)
    zero = LinearOperator(2 * dims.n_u + dims.n_y, lambda X: 0 * X)
    with pytest.raises(SingularCoarseMatrix):
        assemble_coarse(zero, *dims.transfers())


def test_p0_variants_converge_above_the_old_dense_coarse_cap():
    # Coarse dimension 3 n_elem - 1 = 2102; the dense coarse LU refused any
    # above 2000.
    prob = ShockTrackProblem1d(n_elem=701, p=1, q=1)
    sys = build_kkt(prob, run_sqp(prob, SqpConfig(max_iters=1))[1])
    assert assemble_coarse(sys, *sys.transfers).A0.shape == (2102, 2102)
    for variant in ("A0-p0", "BJ-p0", "BILU-p0"):
        iters, converged = count_iterations(sys, variant)
        assert converged and iters <= 10, (variant, iters)


# Two-level cycle ------------------------------------------------------------


def test_cycle_is_exact_when_coarse_space_is_full(p0_sys):
    coarse = assemble_coarse(p0_sys, *p0_sys.transfers)
    rng = np.random.default_rng(30)
    b = rng.standard_normal(p0_sys.dimension)
    s = pmg_apply(p0_sys, coarse, np.copy, b)
    expect = np.linalg.solve(dense_kkt(p0_sys), b)
    np.testing.assert_allclose(s, expect, rtol=1e-8)


def test_cycle_maps_zero_to_zero(sys16_k1):
    coarse = assemble_coarse(sys16_k1, *sys16_k1.transfers)
    out = pmg_apply(sys16_k1, coarse, np.copy, np.zeros(sys16_k1.dimension))
    np.testing.assert_array_equal(out, np.zeros(sys16_k1.dimension))



def test_cycle_composition_matches_hand_built_steps(sys8_k1):
    coarse = assemble_coarse(sys8_k1, *sys8_k1.transfers)
    A = dense_kkt(sys8_k1)
    M = A + 3.0 * np.eye(sys8_k1.dimension)
    smoother = lu_preconditioner(M).apply
    P = coarse.P.toarray()
    Q = coarse.Q.toarray()

    rng = np.random.default_rng(31)
    for _ in range(3):
        b = rng.standard_normal(sys8_k1.dimension)
        s0 = P @ np.linalg.solve(coarse.A0.toarray(), Q @ b)
        expect = s0 + np.linalg.solve(M, b - A @ s0)
        np.testing.assert_allclose(pmg_apply(sys8_k1, coarse, smoother, b), expect, rtol=1e-10)
