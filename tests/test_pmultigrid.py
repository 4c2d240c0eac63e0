"""Two-level p-multigrid transfers, Galerkin coarse matrix, and cycle."""

import types

import numpy as np
import pytest

from conftest import count_iterations
from kktprecond.errors import SingularCoarseMatrix
from kktprecond.kkt import KktOperator
from kktprecond.krylov import Preconditioner
from kktprecond.pmultigrid import (
    assemble_coarse,
    build_transfer,
    full_prolongation,
    full_restriction,
    pmg_apply,
    transfer_ops,
)
from kktprecond.shocktrack import ShockTrackProblem1d, SqpConfig, build_kkt, run_sqp, tracked_state
from oracles import dense_kkt


@pytest.fixture(scope="module")
def p0_sys():
    prob = ShockTrackProblem1d(n_elem=8, p=0, q=1)
    return build_kkt(prob, tracked_state(prob))


# Transfer operators ---------------------------------------------------------


def test_pu_embeds_element_constants():
    Pu = transfer_ops(2, 1, 1).Pu.toarray()
    np.testing.assert_array_equal(Pu, [[1, 0], [1, 0], [0, 1], [0, 1]])


def test_py_linear_interpolation_single_interior_vertex():
    Py = transfer_ops(2, 1, 2).Py.toarray()
    np.testing.assert_array_equal(Py, [[0.5], [1.0], [0.5]])


def test_restriction_is_left_inverse_of_prolongation():
    for n_elem, p, q in [(2, 1, 1), (3, 1, 2), (4, 2, 2), (5, 3, 1), (8, 2, 3)]:
        T = transfer_ops(n_elem, p, q)
        np.testing.assert_array_equal((T.Qy @ T.Py).toarray(), np.eye(n_elem - 1))


def test_lowest_order_transfers_are_identities():
    for n_elem in (2, 5, 8):
        T = transfer_ops(n_elem, 0, 1)
        np.testing.assert_array_equal(T.Pu.toarray(), np.eye(n_elem))
        np.testing.assert_array_equal(T.Py.toarray(), np.eye(n_elem - 1))
        np.testing.assert_array_equal(T.Qy.toarray(), np.eye(n_elem - 1))
        dim = 3 * n_elem - 1
        np.testing.assert_array_equal(full_prolongation(T).toarray(), np.eye(dim))
        np.testing.assert_array_equal(full_restriction(T).toarray(), np.eye(dim))


def test_build_transfer_reads_discretization_record(sys16_k1):
    T1 = build_transfer(sys16_k1.dims)
    T2 = transfer_ops(16, 2, 2)
    np.testing.assert_array_equal(T1.Pu.toarray(), T2.Pu.toarray())
    np.testing.assert_array_equal(T1.Py.toarray(), T2.Py.toarray())
    np.testing.assert_array_equal(T1.Qy.toarray(), T2.Qy.toarray())


# Galerkin coarse matrix -----------------------------------------------------


def test_coarse_of_lowest_order_system_is_the_system(p0_sys):
    op = KktOperator(p0_sys)
    coarse = assemble_coarse(op, build_transfer(p0_sys.dims))
    A = dense_kkt(p0_sys)
    np.testing.assert_allclose(coarse.A0.toarray(), A, rtol=1e-12, atol=1e-12 * np.abs(A).max())


def test_coarse_matches_dense_triple_product(sys16_k1):
    op = KktOperator(sys16_k1)
    T = build_transfer(sys16_k1.dims)
    coarse = assemble_coarse(op, T)
    A = dense_kkt(sys16_k1)
    expect = full_restriction(T).toarray() @ A @ full_prolongation(T).toarray()
    np.testing.assert_allclose(coarse.A0.toarray(), expect, rtol=1e-12, atol=1e-12 * np.abs(A).max())


def test_zero_operator_gives_singular_coarse_matrix():
    op = types.SimpleNamespace(matvec=lambda v: np.zeros_like(v), matmat=lambda X: 0 * X)
    with pytest.raises(SingularCoarseMatrix):
        assemble_coarse(op, transfer_ops(4, 1, 1))


def test_p0_variants_converge_above_the_old_dense_coarse_cap():
    # Coarse dimension 3 n_elem - 1 = 2102; the dense coarse LU refused any
    # above 2000.
    prob = ShockTrackProblem1d(n_elem=701, p=1, q=1)
    sys = build_kkt(prob, run_sqp(prob, SqpConfig(max_iters=1))[1])
    assert assemble_coarse(KktOperator(sys), build_transfer(sys.dims)).A0.shape == (2102, 2102)
    for variant in ("A0-p0", "BJ-p0", "BILU-p0"):
        iters, converged = count_iterations(sys, variant)
        assert converged and iters <= 10, (variant, iters)


# Two-level cycle ------------------------------------------------------------


def test_cycle_is_exact_when_coarse_space_is_full(p0_sys):
    op = KktOperator(p0_sys)
    T = build_transfer(p0_sys.dims)
    coarse = assemble_coarse(op, T)
    rng = np.random.default_rng(30)
    b = rng.standard_normal(op.dimension)
    s = pmg_apply(op, coarse, Preconditioner.identity(op.dimension), b)
    expect = np.linalg.solve(dense_kkt(p0_sys), b)
    np.testing.assert_allclose(s, expect, rtol=1e-8)


def test_cycle_maps_zero_to_zero(sys16_k1):
    op = KktOperator(sys16_k1)
    T = build_transfer(sys16_k1.dims)
    coarse = assemble_coarse(op, T)
    out = pmg_apply(op, coarse, Preconditioner.identity(op.dimension), np.zeros(op.dimension))
    np.testing.assert_array_equal(out, np.zeros(op.dimension))


def test_cycle_composition_matches_hand_built_steps(sys8_k1):
    op = KktOperator(sys8_k1)
    T = build_transfer(sys8_k1.dims)
    coarse = assemble_coarse(op, T)
    A = dense_kkt(sys8_k1)
    M = A + 3.0 * np.eye(op.dimension)
    smoother = Preconditioner.from_matrix(M)
    P = full_prolongation(T).toarray()
    Q = full_restriction(T).toarray()

    rng = np.random.default_rng(31)
    for _ in range(3):
        b = rng.standard_normal(op.dimension)
        s0 = P @ np.linalg.solve(coarse.A0.toarray(), Q @ b)
        expect = s0 + np.linalg.solve(M, b - A @ s0)
        np.testing.assert_allclose(pmg_apply(op, coarse, smoother, b), expect, rtol=1e-10)
