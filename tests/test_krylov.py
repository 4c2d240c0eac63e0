"""GMRES solver and convergence criteria."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprecond.errors import DimensionMismatch, NonFinite, ZeroReference
from kktprecond.krylov import (
    BREAKDOWN,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    MAX_ITERS,
    TOLERANCE,
    GmresConfig,
    SolveReport,
    gmres_solve,
)
from oracles import (
    EXACT_SOLUTION,
    PRECONDITIONED_RESIDUAL,
    LinearOperator,
    evaluate_criterion,
    lu_preconditioner,
    mgs_gmres,
)


def run(A, b, M=None, **cfg_kwargs):
    A = np.asarray(A, dtype=float)
    op = LinearOperator(A.shape[0], lambda v: A @ v)
    if M is None:
        M = LinearOperator(A.shape[0], np.copy)
    return gmres_solve(op, np.asarray(b, dtype=float), M, GmresConfig(**cfg_kwargs))


def test_defaults():
    assert DEFAULT_TOL == 1e-3
    assert DEFAULT_MAX_ITERS == 1000
    cfg = GmresConfig()
    assert cfg.tol == 1e-3
    assert cfg.max_iters == 1000
    assert cfg.reference is None


def test_identity_converges_in_one_iteration():
    rep = run(np.eye(4), [1.0, 2.0, 3.0, 4.0])
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.solution, [1.0, 2.0, 3.0, 4.0], rtol=1e-12)


def test_exact_inverse_preconditioner_converges_in_one_iteration():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    b = rng.standard_normal(8)
    rep = run(A, b, M=lu_preconditioner(A))
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.solution, np.linalg.solve(A, b), rtol=1e-10)


def test_2x2_exact_solution_criterion():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    s_ex = np.linalg.solve(A, b)
    np.testing.assert_allclose(s_ex, [1 / 11, 7 / 11], rtol=1e-14)
    op = LinearOperator(2, lambda v: A @ v)
    cfg = GmresConfig(tol=1e-3, reference=s_ex)
    rep = gmres_solve(op, b, LinearOperator(2, np.copy), cfg)
    assert rep.converged
    assert rep.iterations <= 2
    assert np.linalg.norm(rep.solution - s_ex) / np.linalg.norm(s_ex) < 1e-3


def test_full_dimension_gives_exact_solution():
    # Without restarts GMRES is a direct method after n iterations.
    rng = np.random.default_rng(6)
    n = 25
    A = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    b = rng.standard_normal(n)
    rep = run(A, b, tol=1e-12)
    assert rep.converged
    assert rep.iterations <= n
    np.testing.assert_allclose(rep.solution, np.linalg.solve(A, b), rtol=1e-8)


def test_history_is_scaling_invariant():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((10, 10)) + 4.0 * np.eye(10)
    b = rng.standard_normal(10)
    rep1 = run(A, b, tol=1e-10)
    rep2 = run(A, 10.0 * b, tol=1e-10)
    assert rep1.iterations == rep2.iterations
    # Entries at machine-noise level need the absolute floor.
    np.testing.assert_allclose(rep1.history, rep2.history, rtol=1e-8, atol=1e-14)


def test_residual_history_is_monotone_nonincreasing():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((20, 20)) + 2.0 * np.eye(20)
    b = rng.standard_normal(20)
    rep = run(A, b, tol=1e-10)
    assert np.all(np.diff(rep.history) <= 1e-15)


def test_history_length_matches_iterations():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    rep = run(A, rng.standard_normal(6), tol=1e-9)
    assert len(rep.history) == rep.iterations
    assert rep.history[-1] < 1e-9


def test_lucky_breakdown_with_exact_solution():
    # b an eigenvector: the Krylov space closes after one step and the
    # iterate is already exact.
    A = np.diag([1.0, 2.0, 3.0])
    b = np.array([5.0, 0.0, 0.0])
    rep = run(A, b, tol=1e-10)
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.solution, [5.0, 0.0, 0.0], rtol=1e-12)


def test_max_iters_reached_reports_not_converged():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((30, 30)) + 2.0 * np.eye(30)
    rep = run(A, rng.standard_normal(30), tol=1e-14, max_iters=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_zero_rhs_returns_zero_without_iterating():
    rep = run(np.eye(3), np.zeros(3))
    assert rep.converged
    assert rep.iterations == 0
    np.testing.assert_array_equal(rep.solution, np.zeros(3))


def test_nonfinite_rhs_rejected():
    with pytest.raises(NonFinite):
        run(np.eye(2), [np.nan, 0.0])


def test_dimension_mismatch_rejected():
    op = LinearOperator(3, np.copy)
    with pytest.raises(DimensionMismatch):
        gmres_solve(op, np.zeros(2), LinearOperator(3, np.copy), GmresConfig())


def _never_applied(v):
    raise AssertionError("operator applied before the reference was checked")


@pytest.mark.parametrize(
    "reference", [np.ones(2), np.ones((3, 1)), np.ones((1, 3)), np.ones(())], ids=["short", "column", "row", "scalar"]
)
def test_reference_of_another_shape_rejected_before_any_apply(reference):
    op = LinearOperator(3, _never_applied)
    cfg = GmresConfig(reference=reference)
    with pytest.raises(DimensionMismatch, match="reference solution has shape"):
        gmres_solve(op, np.ones(3), op, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_reference_rejected_before_any_apply(bad):
    op = LinearOperator(3, _never_applied)
    cfg = GmresConfig(reference=np.array([1.0, bad, 0.0]))
    with pytest.raises(NonFinite, match="reference solution contains NaN or Inf"):
        gmres_solve(op, np.ones(3), op, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_arnoldi_vector_rejected(bad):
    op = LinearOperator(3, lambda v: np.array([1.0, bad, 0.0]) + v)
    with pytest.raises(NonFinite, match="^Arnoldi vector at iteration 1 contains NaN or Inf$"):
        gmres_solve(op, np.ones(3), LinearOperator(3, np.copy), GmresConfig())


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_finite_arnoldi_vector_with_an_overflowing_norm_is_not_rejected():
    # ||A e_1||^2 = 1e400 overflows, but every entry is finite: the solve
    # goes on, and the space closes at once with the exact solution.
    rep = run(np.diag([1e200, 1.0]), [1.0, 0.0], tol=1e-8)
    assert (rep.iterations, rep.converged) == (1, True)
    assert np.array_equal(rep.solution, [1e-200, 0.0])


def test_config_validation():
    with pytest.raises(ValueError):
        GmresConfig(tol=0.0)
    with pytest.raises(ValueError):
        GmresConfig(max_iters=0)


# evaluate_criterion ---------------------------------------------------------


def test_criterion_zero_at_exact_solution():
    A = LinearOperator(2, np.copy)
    M = LinearOperator(2, np.copy)
    s_ex = np.array([1.0, 2.0])
    assert evaluate_criterion(EXACT_SOLUTION, A, M, np.zeros(2), s_ex, s_ex=s_ex) == 0.0


def test_criterion_one_at_zero_iterate():
    A = LinearOperator(2, np.copy)
    M = LinearOperator(2, np.copy)
    s_ex = np.array([3.0, -4.0])
    val = evaluate_criterion(EXACT_SOLUTION, A, M, np.zeros(2), np.zeros(2), s_ex=s_ex)
    assert val == 1.0


def test_residual_criterion_hand_value():
    # A = I, M = I, b = (3,4), s = (3,0): ||(0,-4)|| / ||(3,4)|| = 0.8.
    A = LinearOperator(2, np.copy)
    M = LinearOperator(2, np.copy)
    val = evaluate_criterion(
        PRECONDITIONED_RESIDUAL, A, M, np.array([3.0, 4.0]), np.array([3.0, 0.0])
    )
    np.testing.assert_allclose(val, 0.8, rtol=1e-15)


def test_criterion_zero_reference_raises():
    A = LinearOperator(2, np.copy)
    M = LinearOperator(2, np.copy)
    with pytest.raises(ZeroReference):
        evaluate_criterion(PRECONDITIONED_RESIDUAL, A, M, np.zeros(2), np.ones(2))
    with pytest.raises(ZeroReference):
        evaluate_criterion(EXACT_SOLUTION, A, M, np.ones(2), np.ones(2), s_ex=np.zeros(2))


def test_solver_matches_criterion_evaluation():
    # The value the solver reports at convergence equals the normative
    # criterion evaluated at the returned iterate.
    rng = np.random.default_rng(12)
    A = rng.standard_normal((12, 12)) + 5.0 * np.eye(12)
    b = rng.standard_normal(12)
    op = LinearOperator(12, lambda v: A @ v)
    M = lu_preconditioner(A + rng.standard_normal((12, 12)) * 0.05)
    rep = gmres_solve(op, b, M, GmresConfig(tol=1e-8))
    value = evaluate_criterion(PRECONDITIONED_RESIDUAL, op, M, b, rep.solution)
    np.testing.assert_allclose(value, rep.history[-1], rtol=1e-6, atol=1e-12)


# Against the modified Gram-Schmidt loop ------------------------------------


def shifted_system(seed, n, shift):
    """Nonsymmetric A = shift I + N / sqrt(n), N standard normal: its spectrum
    fills a disk of radius about 1 around shift, so GMRES converges at least
    about as fast as shift^-k."""
    rng = np.random.default_rng(seed)
    return shift * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n), rng.standard_normal(n)


def assert_matches_oracle(A, b, M, cfg):
    op = LinearOperator(A.shape[0], lambda v: A @ v)
    rep = gmres_solve(op, b, M, cfg)
    solution, iterations, converged, _ = mgs_gmres(op, b, M, cfg)
    assert rep.iterations == iterations
    assert rep.converged == converged
    assert np.linalg.norm(rep.solution - solution) <= 1e-10 * np.linalg.norm(solution)
    return rep


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    shift=st.floats(1.5, 4.0),
    exact=st.booleans(),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
    max_iters=st.integers(1, 50),
    preconditioned=st.booleans(),
)
def test_gmres_matches_mgs_oracle(seed, n, shift, exact, tol, max_iters, preconditioned):
    A, b = shifted_system(seed, n, shift)
    M = LinearOperator(n, np.copy)
    if preconditioned:
        M = lu_preconditioner(shifted_system(seed + 1, n, shift)[0])
    if exact:
        cfg = GmresConfig(tol=tol, max_iters=max_iters, reference=np.linalg.solve(A, b))
    else:
        cfg = GmresConfig(tol=tol, max_iters=max_iters)
    assert_matches_oracle(A, b, M, cfg)


@pytest.mark.parametrize("exact", [False, True], ids=["residual", "exact-solution"])
def test_solve_over_several_storage_chunks_matches_oracle(exact):
    # Over 128 iterations: the Krylov storage grows from 64 rows twice.
    A, b = shifted_system(3, 300, 1.05)
    cfg = GmresConfig(tol=1e-10)
    if exact:
        cfg = GmresConfig(tol=1e-10, reference=np.linalg.solve(A, b))
    rep = assert_matches_oracle(A, b, LinearOperator(300, np.copy), cfg)
    assert rep.converged
    assert rep.iterations > 128


def test_storage_follows_the_iterations_taken_under_tracemalloc():
    # One array of max_iters doubles alone would be 8 MB; the basis, the
    # triangle and the rotations of a 50-row solve take tens of kB.
    A, b = shifted_system(4, 50, 3.0)
    tracemalloc.start()
    try:
        rep = run(A, b, tol=1e-8, max_iters=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak < 200_000


def test_huge_max_iters_allocates_only_what_is_used():
    # Storage for 10**6 iterations up front would be terabytes.
    A, b = shifted_system(4, 50, 3.0)
    rep = run(A, b, tol=1e-8, max_iters=10**6)
    assert rep.converged
    assert rep.iterations < 50


# Stop reasons -----------------------------------------------------------------


def test_stop_reason_tolerance_reports_criterion_and_true_residual():
    A, b = shifted_system(5, 20, 2.0)
    rep = run(A, b, tol=1e-6)
    assert rep.stop_reason == TOLERANCE
    assert rep.converged
    assert rep.criterion == rep.history[-1] < 1e-6
    np.testing.assert_allclose(rep.true_residual, np.linalg.norm(A @ rep.solution - b) / np.linalg.norm(b), rtol=1e-12)


def test_stop_reason_max_iters():
    A, b = shifted_system(6, 30, 2.0)
    rep = run(A, b, tol=1e-14, max_iters=3)
    assert rep.stop_reason == MAX_ITERS
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.criterion == rep.history[-1] > 1e-14


def test_stop_reason_breakdown_is_not_max_iters():
    # b is an eigenvector, so the Krylov space closes after one step with the
    # exact solution (5, 0, 0); measured against another vector it misses tol.
    A = np.diag([1.0, 2.0, 3.0])
    b = np.array([5.0, 0.0, 0.0])
    rep = run(A, b, tol=1e-6, max_iters=50, reference=np.ones(3))
    assert rep.stop_reason == BREAKDOWN
    assert not rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.criterion, np.linalg.norm([4.0, 1.0, 1.0]) / np.sqrt(3), rtol=1e-12)
    assert rep.true_residual < 1e-15


def test_breakdown_on_singular_operator_raises_nonfinite():
    # The down-shift maps e_4 to 0: the Krylov space of e_1 closes after four
    # steps with a zero pivot in the triangular factor, so there is no iterate.
    with pytest.raises(NonFinite):
        run(np.eye(4, k=-1), [1.0, 0.0, 0.0, 0.0])


def test_exact_solution_history_ends_with_the_explicit_error():
    A, b = shifted_system(7, 30, 2.0)
    s_ex = np.linalg.solve(A, b)
    rep = run(A, b, tol=1e-6, reference=s_ex)
    assert rep.converged
    explicit = np.linalg.norm(s_ex - rep.solution) / np.linalg.norm(s_ex)
    assert rep.criterion == rep.history[-1] == pytest.approx(explicit, rel=1e-12)
