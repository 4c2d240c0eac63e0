"""Anti-triangular constrained preconditioner and its scalar building blocks."""

import ast
import pathlib
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import kktprecond.conprec as conprec
import kktprecond.kkt as kkt
import kktprecond.pmultigrid as pmultigrid
from conftest import count_iterations
from kktprecond.blocklinalg import sparse_lu
from kktprecond.conprec import (
    CATALOG,
    AtPreconditioner,
    apply_at_inverse,
    build_at_preconditioner,
    point_ilu0_factor,
    point_ilu0_values,
    point_jacobi,
)
from kktprecond.errors import (
    DimensionMismatch,
    PatternViolation,
    SingularBlock,
    UnknownPreconditioner,
    ZeroPivot,
)
from kktprecond.kkt import KktSystem, SystemDims
from kktprecond.krylov import GmresConfig, gmres_solve
from kktprecond.dgprecond import bilu0_factor, mdf_order
from kktprecond.shocktrack import ShockTrackProblem1d, SqpConfig, build_kkt, run_sqp
from oracles import (
    LinearOperator,
    SingularSchurComplement,
    byy_matrix,
    dense_factor,
    densify_at_matrix,
    generic_constrained_inverse,
    ju_matrix,
    point_ilu0_matrix,
    system_ju_byy,
)


def single_block(arr):
    arr = np.asarray(arr, dtype=float)
    return scipy.sparse.bsr_matrix((arr[None], [0], [0, 1]), shape=arr.shape)


def point(arr):
    return scipy.sparse.csr_matrix(np.asarray(arr, dtype=float))


def manual_at(Ju, Byy, Jy):
    """Exact-solve AtPreconditioner assembled directly from dense pieces."""
    Ju = np.asarray(Ju, dtype=float)
    Byy = np.asarray(Byy, dtype=float)
    return AtPreconditioner(
        variant="A0",
        ju=dense_factor(Ju),
        byy=dense_factor(Byy),
        Jy=scipy.sparse.csr_matrix(np.asarray(Jy, dtype=float)),
    )


def tiny_system(rng):
    """Single-element system: every Ju approximation is exact on one block."""
    return KktSystem(
        Ju=single_block(rng.standard_normal((2, 2)) + 3.0 * np.eye(2)),
        dRdu=single_block(rng.standard_normal((3, 2))),
        dRdx=point(rng.standard_normal((3, 3))),
        drdx=point(rng.standard_normal((2, 3))),
        dRmshdx=point(rng.standard_normal((1, 3))),
        dPhidy=point(np.array([[0.0], [1.0], [0.0]])),
        D=point(np.eye(3)),
        kappa=0.5,
        gamma=0.5,
        g=rng.standard_normal(3),
        r=rng.standard_normal(2),
        dims=SystemDims(1, 1, 2),
    )


# Five-step inverse ----------------------------------------------------------


def test_scalar_five_step_example():
    P = manual_at([[2.0]], [[5.0]], [[3.0]])
    w = apply_at_inverse(P, np.array([2.0, 5.0, 4.0]))
    np.testing.assert_allclose(w, [1.4, 0.4, 1.0], atol=1e-14)
    At = densify_at_matrix(P, [[2.0]], [[5.0]])
    np.testing.assert_allclose(w, np.linalg.solve(At, [2.0, 5.0, 4.0]), atol=1e-14)


def test_inverse_matches_dense_solve():
    rng = np.random.default_rng(10)
    Ju = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    Byy = rng.standard_normal((3, 3))
    Byy = Byy @ Byy.T + np.eye(3)
    Jy = rng.standard_normal((4, 3))
    P = manual_at(Ju, Byy, Jy)
    At = densify_at_matrix(P, Ju, Byy)
    for _ in range(5):
        v = rng.standard_normal(11)
        np.testing.assert_allclose(apply_at_inverse(P, v), np.linalg.solve(At, v), rtol=1e-10)


def test_apply_then_multiply_round_trip():
    rng = np.random.default_rng(11)
    Ju = rng.standard_normal((5, 5)) + 4.0 * np.eye(5)
    Byy = rng.standard_normal((2, 2))
    Byy = Byy @ Byy.T + np.eye(2)
    P = manual_at(Ju, Byy, rng.standard_normal((5, 2)))
    At = densify_at_matrix(P, Ju, Byy)
    w = rng.standard_normal(12)
    np.testing.assert_allclose(apply_at_inverse(P, At @ w), w, rtol=1e-10)


def test_zero_state_block_gives_zero_multiplier():
    rng = np.random.default_rng(12)
    Ju = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    P = manual_at(Ju, np.eye(2), rng.standard_normal((3, 2)))
    v = np.concatenate([np.zeros(3), rng.standard_normal(5)])
    w = apply_at_inverse(P, v)
    np.testing.assert_array_equal(w[-3:], np.zeros(3))


def test_constraint_rows_reproduced_for_exact_jacobian(sys8_k1):
    P = build_at_preconditioner(sys8_k1, "A0")
    rng = np.random.default_rng(13)
    n_u, n_y = P.ju.n, P.byy.n
    v = rng.standard_normal(P.dimension)
    w = apply_at_inverse(P, v)
    lhs = sys8_k1.Ju @ w[:n_u] + sys8_k1.Jy @ w[n_u : n_u + n_y]
    np.testing.assert_allclose(lhs, v[n_u + n_y :], rtol=1e-10, atol=1e-12)


def test_apply_rejects_wrong_length(sys8_k1):
    P = manual_at([[2.0]], [[5.0]], [[3.0]])
    with pytest.raises(DimensionMismatch):
        apply_at_inverse(P, np.zeros(4))
    # A *-p0 variant checks the length in its cycle.
    with pytest.raises(DimensionMismatch):
        build_at_preconditioner(sys8_k1, "A0-p0").apply(np.zeros(4))


# Scalar point factors -------------------------------------------------------


def test_point_jacobi_identity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = point_jacobi(point(np.eye(4)))
    v = np.array([1.0, -2.0, 3.0, 4.0])
    np.testing.assert_array_equal(J.apply(v), v)


def test_point_jacobi_uses_only_diagonal():
    J = point_jacobi(point(np.array([[2.0, 7.0], [0.0, 4.0]])))
    np.testing.assert_array_equal(J.apply(np.array([2.0, 4.0])), [1.0, 1.0])
    np.testing.assert_array_equal(J.apply(np.array([1.0, 1.0])), [0.5, 0.25])


def test_point_jacobi_safeguards_zero_diagonal():
    B = point(np.array([[0.0, 1.0], [1.0, 3.0]]))
    with pytest.warns(RuntimeWarning):
        J = point_jacobi(B)
    np.testing.assert_array_equal(J.apply(np.array([1.0, 3.0])), [1.0, 1.0])


def test_point_jacobi_rejects_rectangular():
    with pytest.raises(DimensionMismatch):
        point_jacobi(point(np.ones((2, 3))))


def test_point_ilu0_exact_on_diagonal():
    A = np.diag([2.0, 5.0, 0.5])
    B = point(A)
    F = point_ilu0_factor(B)
    np.testing.assert_allclose(point_ilu0_matrix(B, point_ilu0_values(B)), A, rtol=1e-15)
    v = np.array([4.0, 10.0, 1.0])
    np.testing.assert_allclose(F.apply(v), [2.0, 2.0, 2.0], rtol=1e-15)
    np.testing.assert_allclose(F.apply_T(v), np.linalg.solve(A.T, v), rtol=1e-15)


def test_point_ilu0_exact_on_tridiagonal():
    rng = np.random.default_rng(14)
    n = 12
    A = np.diag(4.0 + rng.random(n)) + np.diag(rng.standard_normal(n - 1), 1)
    A += np.diag(rng.standard_normal(n - 1), -1)
    B = point(A)
    F = point_ilu0_factor(B)
    np.testing.assert_allclose(point_ilu0_matrix(B, point_ilu0_values(B)), A, rtol=1e-12, atol=1e-13)
    v = rng.standard_normal(n)
    np.testing.assert_allclose(F.apply(v), np.linalg.solve(A, v), rtol=1e-10)


def grid_laplacian(m):
    T = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.identity(m)
    A = (scipy.sparse.kron(eye, T) + scipy.sparse.kron(T, eye)).tocsr()
    # kron stores explicit zeros; drop them so the five-point pattern is real.
    A.eliminate_zeros()
    return A


def test_point_ilu0_drops_fill_yet_beats_jacobi():
    A = grid_laplacian(4)
    F = point_ilu0_factor(A)
    defect = np.linalg.norm(point_ilu0_matrix(A, point_ilu0_values(A)) - A.toarray())
    assert defect > 1e-8

    rng = np.random.default_rng(15)
    b = rng.standard_normal(16)
    dense = A.toarray()
    op = LinearOperator(16, lambda v: dense @ v)
    cfg = GmresConfig(tol=1e-8, max_iters=100)
    it_ilu = gmres_solve(op, b, LinearOperator(16, F.apply), cfg).iterations
    it_jac = gmres_solve(op, b, LinearOperator(16, point_jacobi(A).apply), cfg).iterations
    assert it_ilu < it_jac


def test_point_ilu0_missing_diagonal_raises():
    with pytest.raises(ZeroPivot):
        point_ilu0_factor(point(np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_point_ilu0_rejects_non_canonical_csr():
    # Row 0 lists column 1 before column 0, so the entries stored before the
    # diagonal would not be the strict lower part the elimination takes them for.
    B = scipy.sparse.csr_matrix(([1.0, 4.0, 1.0, 4.0], [1, 0, 0, 1], [0, 2, 4]), shape=(2, 2))
    with pytest.raises(PatternViolation):
        point_ilu0_factor(B)


def test_point_ilu0_rejects_misordered_columns_after_a_first_factor():
    # Swapping row 0's two entries, indices and data together, keeps the
    # matrix but not the order: after one factor, the next call is rejected
    # as a fresh matrix on those arrays is, whatever scipy cached as
    # has_canonical_format at the first call.
    B = scipy.sparse.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(point_ilu0_factor(B).apply(B @ x), x, rtol=1e-14)
    assert B.has_canonical_format
    for a in (B.indices, B.data):
        a[[0, 1]] = a[[1, 0]]
    for M in (B, scipy.sparse.csr_matrix((B.data, B.indices, B.indptr), shape=B.shape)):
        with pytest.raises(PatternViolation, match="sorted column indices without repeated entries"):
            point_ilu0_factor(M)


def test_point_ilu0_zero_stored_pivot_raises():
    B = scipy.sparse.csr_matrix(([0.0, 1.0, 1.0, 0.0], [0, 1, 0, 1], [0, 2, 4]), shape=(2, 2))
    with pytest.raises(ZeroPivot):
        point_ilu0_factor(B)


# Catalog construction -------------------------------------------------------


def test_a0_factors_ju_through_one_conversion(sys8_k1):
    # sparse_lu converts the BSR Ju to CSC as bsr_matrix.tocsc() does, by
    # way of CSR: SuperLU gets the arrays of Ju.tocsr(), and the exact Ju~
    # solves bit for bit as sparse_lu(Ju.tocsr()) does.
    Ju = sys8_k1.Ju
    got, want = scipy.sparse.csc_matrix(Ju), scipy.sparse.csc_matrix(Ju.tocsr())
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert got.indices.dtype == np.int32
    v = np.random.default_rng(3).standard_normal(Ju.shape[0])
    ju, exact = build_at_preconditioner(sys8_k1, "A0").ju, sparse_lu(Ju.tocsr())
    assert np.array_equal(ju.apply(v), exact.apply(v)) and np.array_equal(ju.apply_T(v), exact.apply_T(v))


def test_all_catalog_variants_build_and_apply(sys8_k1):
    rng = np.random.default_rng(16)
    v = rng.standard_normal(2 * sys8_k1.n_u + sys8_k1.n_y)
    for name in CATALOG:
        P = build_at_preconditioner(sys8_k1, name)
        assert P.variant == name
        assert P.dimension == v.size
        w = P.apply(v)
        assert np.all(np.isfinite(w))
        assert np.linalg.norm(w) > 0


# GMRES iterations (tol 1e-3 against the dense direct solution) of every
# catalog variant, in CATALOG order. A kernel rewrite that keeps the math must
# keep these counts.
PINNED_CATALOG_ITERATIONS = {
    "sys8_k1": [3, 22, 8, 20, 3, 13, 15, 14],
    "sys16_k1": [3, 48, 26, 33, 3, 5, 17, 17],
}


@pytest.mark.parametrize("name", sorted(PINNED_CATALOG_ITERATIONS))
def test_catalog_iteration_counts_are_pinned(name, request):
    sys = request.getfixturevalue(name)
    assert list(CATALOG) == ["A0", "BJ", "BILU", "BJ-ilu", "BILU-ilu", "A0-p0", "BJ-p0", "BILU-p0"]
    results = [count_iterations(sys, variant) for variant in CATALOG]
    assert all(converged for _, converged in results)
    assert [iters for iters, _ in results] == PINNED_CATALOG_ITERATIONS[name]


# The same counts on the catalog benchmark's systems: n_elem=64, p=q=2, SQP
# states 1-6, one list per variant in state order.
PINNED_CATALOG64_ITERATIONS = {
    "A0": [3, 3, 3, 3, 3, 3],
    "BJ": [208, 204, 192, 204, 212, 211],
    "BILU": [99, 102, 97, 111, 114, 113],
    "BJ-ilu": [99, 110, 116, 116, 117, 114],
    "BILU-ilu": [3, 3, 3, 3, 3, 3],
    "A0-p0": [4, 4, 4, 4, 4, 4],
    "BJ-p0": [11, 13, 17, 19, 19, 19],
    "BILU-p0": [13, 14, 15, 17, 17, 17],
}


@pytest.mark.parametrize("state", range(1, 7))
def test_catalog64_iteration_counts_are_pinned(state, prob64, states64):
    assert sorted(PINNED_CATALOG64_ITERATIONS) == sorted(CATALOG)
    sys = build_kkt(prob64, states64[state])
    results = {variant: count_iterations(sys, variant) for variant in CATALOG}
    assert all(converged for _, converged in results.values())
    assert {v: iters for v, (iters, _) in results.items()} == {
        v: counts[state - 1] for v, counts in PINNED_CATALOG64_ITERATIONS.items()
    }


def _first_step_system(n_elem, p, q):
    prob = ShockTrackProblem1d(n_elem=n_elem, p=p, q=q)
    return build_kkt(prob, run_sqp(prob, SqpConfig(max_iters=1))[1])


# The same counts on the 1x1-block path: state 1 of n_elem=32, p=0, q=1, in
# CATALOG order. The *-p0 variants restrict to degree 0, the whole space, so
# their coarse solve is exact. tier1.yml pins them again through the console
# script.
PINNED_P0_ITERATIONS = [3, 67, 15, 61, 3, 1, 1, 1]


def test_catalog_iteration_counts_are_pinned_at_p0():
    sys = _first_step_system(32, 0, 1)
    assert sys.Ju.blocksize == (1, 1)
    results = [count_iterations(sys, variant) for variant in CATALOG]
    assert all(converged for _, converged in results)
    assert [iters for iters, _ in results] == PINNED_P0_ITERATIONS


@pytest.mark.parametrize("name", ["sys8_k1", "sys16_k1", "n32_p0_q1", "n16_p3_q1"])
def test_block_ilu0_is_exact_in_1d(name, request):
    # A 1D DG Jacobian is block tridiagonal, so eliminating in MDF order
    # discards no fill: block ILU0 is the exact LU of Ju, and BILU's Ju~ is Ju.
    systems = {"n32_p0_q1": (32, 0, 1), "n16_p3_q1": (16, 3, 1)}
    sys = _first_step_system(*systems[name]) if name in systems else request.getfixturevalue(name)
    Ju = sys.Ju
    ordering = mdf_order(Ju)
    assert np.all(ordering.weights_at_selection == 0.0)
    P = bilu0_factor(Ju, ordering)
    lu = scipy.sparse.linalg.splu(Ju.tocsc())
    v = np.random.default_rng(9).standard_normal(Ju.shape[0])
    for apply, trans in ((P.apply, "N"), (P.apply_T, "T")):
        np.testing.assert_allclose(apply(v), lu.solve(v, trans=trans), rtol=1e-12)


@pytest.mark.parametrize("n_elem, p, q", [(64, 2, 2), (256, 1, 1), (100, 3, 1), (16, 2, 2)])
def test_point_ilu0_is_exact_in_1d(n_elem, p, q):
    # Byy couples the interior nodes that share an element, and natural order
    # eliminates them along the mesh: every update falls inside Byy's
    # pattern, so point ILU0 discards no fill and Byy~ is Byy's exact LU.
    Byy = _first_step_system(n_elem, p, q).Byy
    ones = scipy.sparse.csr_matrix((np.ones(Byy.nnz), Byy.indices, Byy.indptr), shape=Byy.shape)
    updates = scipy.sparse.tril(ones, -1) @ scipy.sparse.triu(ones)
    assert not np.any((updates.toarray() != 0.0) & (ones.toarray() == 0.0))
    F = point_ilu0_factor(Byy)
    lu = scipy.sparse.linalg.splu(Byy.tocsc())
    v = np.random.default_rng(11).standard_normal(Byy.shape[0])
    for apply, trans in ((F.apply, "N"), (F.apply_T, "T")):
        expect = lu.solve(v, trans=trans)
        assert np.linalg.norm(apply(v) - expect) <= 1e-10 * np.linalg.norm(expect)


@pytest.mark.parametrize("variant", CATALOG)
def test_factor_solves_match_dense_oracle(variant, sys16_k1):
    P = build_at_preconditioner(sys16_k1, variant)
    Ju, Byy = system_ju_byy(sys16_k1)
    ju_kind, byy_kind, _ = conprec._VARIANT_TABLE[variant]
    ju = ju_matrix(ju_kind, Ju)
    byy = byy_matrix(byy_kind, Byy)
    rng = np.random.default_rng(23)
    v = rng.standard_normal(P.ju.n)
    np.testing.assert_allclose(P.ju.apply(v), np.linalg.solve(ju, v), rtol=1e-10)
    np.testing.assert_allclose(P.ju.apply_T(v), np.linalg.solve(ju.T, v), rtol=1e-10)
    v = rng.standard_normal(P.byy.n)
    np.testing.assert_allclose(P.byy.apply(v), np.linalg.solve(byy, v), rtol=1e-10)


HOOKED_NAMES = (
    "mdf_order",
    "bilu0_factor",
    "point_ilu0_factor",
    "assemble_coarse",
    "pmg_apply",
    "apply_at_inverse",
)


def test_build_and_apply_call_through_module_globals(sys8_k1, monkeypatch):
    # Per-layer timing replaces these module attributes; building and applying
    # must look them up at call time, or the wrapped layers read as zero.
    calls = dict.fromkeys(HOOKED_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in HOOKED_NAMES:
        monkeypatch.setattr(conprec, name, counting(name, getattr(conprec, name)))
    v = np.ones(2 * sys8_k1.n_u + sys8_k1.n_y)
    for variant in ("BILU-ilu", "A0-p0"):
        build_at_preconditioner(sys8_k1, variant).apply(v)
    assert all(calls.values()), calls


def test_traced_layers_nest_once_per_coarse_assembly_and_cycle(sys8_k1, monkeypatch):
    # The benchmark counts these calls in their span tree: one coarse
    # assembly is one product K P, and one A0-p0 application one cycle, one
    # product for its residual and one bare five-step inverse.
    calls, stack = [], []

    def tracing(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, stack[-1] if stack else None))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    # A product bound before the replacement must call the replacement.
    apply = sys8_k1.apply
    monkeypatch.setattr(kkt, "kkt_matvec", tracing("kkt_matvec", kkt.kkt_matvec))
    for name in ("assemble_coarse", "pmg_apply", "apply_at_inverse"):
        monkeypatch.setattr(conprec, name, tracing(name, getattr(conprec, name)))
    P = build_at_preconditioner(sys8_k1, "A0-p0")
    assert calls == [("assemble_coarse", None), ("kkt_matvec", "assemble_coarse")]
    calls.clear()
    P.apply(np.ones(P.dimension))
    assert calls == [("pmg_apply", None), ("kkt_matvec", "pmg_apply"), ("apply_at_inverse", "pmg_apply")]
    calls.clear()
    v = np.ones(sys8_k1.dimension)
    assert np.array_equal(apply(v), sys8_k1.K @ v)
    assert calls == [("kkt_matvec", None)]


def test_unknown_variant_rejected(sys8_k1):
    with pytest.raises(UnknownPreconditioner):
        build_at_preconditioner(sys8_k1, "ILU(47)")


def test_approximations_coincide_on_single_element_system():
    rng = np.random.default_rng(17)
    sys = tiny_system(rng)
    precs = [build_at_preconditioner(sys, name) for name in ("A0", "BJ", "BILU")]
    for _ in range(5):
        v = rng.standard_normal(5)
        ref = precs[0].apply(v)
        for P in precs[1:]:
            np.testing.assert_allclose(P.apply(v), ref, rtol=1e-12, atol=1e-13)


def test_approximations_differ_on_coupled_system(sys8_k1):
    rng = np.random.default_rng(18)
    v = rng.standard_normal(2 * sys8_k1.n_u + sys8_k1.n_y)
    a0 = build_at_preconditioner(sys8_k1, "A0").apply(v)
    bj = build_at_preconditioner(sys8_k1, "BJ").apply(v)
    assert np.linalg.norm(a0 - bj) > 1e-8 * np.linalg.norm(a0)


# Names of the 1D discretization; the catalog reads a system's blocks, the
# system as the operator and its transfers, and none of these.
DISCRETIZATION_NAMES = {"dims", "n_elem", "SystemDims", "build_transfer"}


def discretization_names(source: str) -> set[str]:
    """The DISCRETIZATION_NAMES that source uses as a name, an attribute, an
    imported or defined name, or an argument."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names & DISCRETIZATION_NAMES


def test_discretization_name_checker_finds_each_kind_of_use():
    source = "from .kkt import SystemDims\ndef build_transfer(dims): pass\nsys.shape.n_elem\n"
    assert discretization_names(source) == DISCRETIZATION_NAMES
    assert discretization_names("sys.transfers\nP, Q = transfers\n# dims\n") == set()


@pytest.mark.parametrize("module", [conprec, pmultigrid], ids=lambda m: m.__name__)
def test_catalog_reads_no_discretization_name(module):
    assert discretization_names(pathlib.Path(module.__file__).read_text()) == set()


# Generic constrained inverse ------------------------------------------------


def test_generic_inverse_identity_blocks():
    rng = np.random.default_rng(20)
    v1 = rng.standard_normal(3)
    v2 = rng.standard_normal(3)
    out = generic_constrained_inverse(np.eye(3), np.eye(3), np.concatenate([v1, v2]))
    np.testing.assert_allclose(out, np.concatenate([v2, v1 - v2]), rtol=1e-14)


def test_generic_inverse_matches_dense_solve():
    rng = np.random.default_rng(21)
    G = rng.standard_normal((5, 5))
    G = G @ G.T + np.eye(5)
    Jt = rng.standard_normal((3, 5))
    K = np.block([[G, Jt.T], [Jt, np.zeros((3, 3))]])
    for _ in range(5):
        v = rng.standard_normal(8)
        np.testing.assert_allclose(
            generic_constrained_inverse(G, Jt, v), np.linalg.solve(K, v), rtol=1e-10
        )


def test_generic_inverse_round_trip():
    rng = np.random.default_rng(22)
    G = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    Jt = rng.standard_normal((2, 4))
    K = np.block([[G, Jt.T], [Jt, np.zeros((2, 2))]])
    v = rng.standard_normal(6)
    np.testing.assert_allclose(K @ generic_constrained_inverse(G, Jt, v), v, rtol=1e-10)


def test_generic_inverse_rank_deficient_constraints():
    with pytest.raises(SingularSchurComplement):
        generic_constrained_inverse(np.eye(3), np.zeros((2, 3)), np.zeros(5))


def test_generic_inverse_singular_g_raises():
    with pytest.raises(SingularBlock):
        generic_constrained_inverse(np.zeros((2, 2)), np.eye(2), np.ones(4))


def test_generic_inverse_shape_checks():
    with pytest.raises(DimensionMismatch):
        generic_constrained_inverse(np.eye(3), np.ones((2, 4)), np.zeros(5))
    with pytest.raises(DimensionMismatch):
        generic_constrained_inverse(np.eye(3), np.ones((2, 3)), np.zeros(4))
