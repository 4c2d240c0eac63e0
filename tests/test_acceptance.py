"""Acceptance suite: one test per contract criterion, one printed verdict each.

Each test states a mathematical or behavioral claim about the library as a
whole and prints a single [criterion N] PASS/FAIL line with the measured
quantities, so the pytest log doubles as the acceptance report.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import count_iterations, zero_coupling_system
from kktprecond.cli import CSV_COLUMNS, _csv_header
from kktprecond.conprec import (
    CATALOG,
    AtPreconditioner,
    _build_byy_approx,
    _build_ju_approx,
    apply_at_inverse,
    build_at_preconditioner,
)
from kktprecond.kkt import SystemDims
from kktprecond.krylov import DEFAULT_MAX_ITERS, DEFAULT_TOL, GmresConfig
from kktprecond.shocktrack import (
    ShockTrackProblem1d,
    SqpConfig,
    build_kkt,
    dg_residual,
    initial_state,
    phi_map,
    run_sqp,
)
from oracles import (
    ata_pattern,
    bilu_matrix,
    count_block_sparsity,
    dense_factor,
    dense_kkt,
    densify_at_matrix,
    distortion,
    objective_and_gradient,
    state_at,
    system_ju_byy,
    tracked_state,
)

GAMMA_TREND_VARIANTS = ("BJ", "BILU", "BJ-ilu", "BILU-ilu")


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"criterion {num} failed: {detail}"

    return _announce


def test_criterion_01_application_matches_dense_oracle(sys16_k1, announce):
    """Every catalog variant applied to random vectors equals the dense inverse
    of its assembled preconditioner matrix to relative 1e-10 on a 16-element
    p=2, q=2 system, within 30 seconds."""
    t0 = time.perf_counter()
    A = dense_kkt(sys16_k1)
    Pm, Qm = (M.toarray() for M in sys16_k1.transfers)
    A0c = Qm @ A @ Pm

    Ju, Byy = system_ju_byy(sys16_k1)

    rng = np.random.default_rng(2024)
    worst = 0.0
    for name in CATALOG:
        prec = build_at_preconditioner(sys16_k1, name)
        At = densify_at_matrix(prec, Ju, Byy)
        for _ in range(20):
            v = rng.standard_normal(sys16_k1.dimension)
            if prec.multigrid is None:
                want = np.linalg.solve(At, v)
            else:
                coarse = Pm @ np.linalg.solve(A0c, Qm @ v)
                want = coarse + np.linalg.solve(At, v - A @ coarse)
            got = prec.apply(v)
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    announce(1, ok, f"max relative error {worst:.3e} over 8 variants x 20 vectors, {elapsed:.2f}s")


def test_criterion_02_decoupled_system_single_iteration(sys8_zero_coupling, announce):
    """With the state-state and state-mesh Hessian couplings zeroed, the exact
    anti-triangular preconditioner reproduces the KKT matrix and GMRES with it
    converges in exactly one iteration, within 1 second."""
    t0 = time.perf_counter()
    iters, converged = count_iterations(sys8_zero_coupling, "A0")
    elapsed = time.perf_counter() - t0
    ok = iters == 1 and converged and elapsed < 1.0
    announce(2, ok, f"A0 iterations {iters} (converged={converged}), {elapsed:.2f}s")


def test_criterion_03_scalar_five_step_value(announce):
    """The five-step inverse applied to the scalar instance Ju=[2], Jy=[3],
    Byy=[5], v=(2,5,4) returns (1.4, 0.4, 1.0) to 1e-14."""
    prec = AtPreconditioner(
        variant="A0",
        ju=dense_factor([[2.0]]),
        byy=dense_factor([[5.0]]),
        Jy=scipy.sparse.csr_matrix(np.array([[3.0]])),
    )
    got = apply_at_inverse(prec, np.array([2.0, 5.0, 4.0]))
    err = np.abs(got - np.array([1.4, 0.4, 1.0])).max()
    announce(3, err <= 1e-14, f"result {got.tolist()}, max deviation {err:.2e}")


def test_criterion_04_bilu_exact_on_block_tridiagonal(sys8_k1, sys8_zero_coupling, announce):
    """Zero-fill block LU is exact on the block tridiagonal 1D Jacobian, and
    combined with the exact mesh block it solves the decoupled saddle-point
    system in at most 2 iterations, within 5 seconds."""
    t0 = time.perf_counter()
    Ju = sys8_k1.Ju
    defect = np.linalg.norm(bilu_matrix(Ju) - Ju.toarray()) / np.linalg.norm(Ju.toarray())

    sysz = sys8_zero_coupling
    prec = AtPreconditioner(
        variant="BILU+exact-Byy",
        ju=_build_ju_approx(sysz, "bilu"),
        byy=_build_byy_approx(sysz, "exact"),
        Jy=sysz.Jy,
    )
    iters, converged = count_iterations(sysz, prec)
    elapsed = time.perf_counter() - t0
    ok = defect <= 1e-12 and iters <= 2 and converged and elapsed < 5.0
    announce(4, ok, f"relative LU defect {defect:.3e}, iterations {iters}, {elapsed:.2f}s")


def test_criterion_05_derivatives_match_finite_differences(announce):
    """All analytic derivatives (both residual Jacobians, both mesh Jacobians,
    the distortion Jacobian, and the objective gradient) match central finite
    differences to relative 1e-6 at 5 random states, within 30 seconds."""
    t0 = time.perf_counter()
    prob = ShockTrackProblem1d(6, 1, 1)
    rng = np.random.default_rng(42)

    def fd(func, z0):
        z0 = np.asarray(z0, dtype=float)
        f0 = np.atleast_1d(func(z0))
        J = np.empty((f0.size, z0.size))
        for j in range(z0.size):
            h = 1e-6 * (1.0 + abs(z0[j]))
            zp = z0.copy()
            zp[j] += h
            zm = z0.copy()
            zm[j] -= h
            J[:, j] = (np.atleast_1d(func(zp)) - np.atleast_1d(func(zm))) / (2.0 * h)
        return J

    def rel(got, want):
        return np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))

    worst = 0.0
    for _ in range(5):
        st = initial_state(prob)
        u0 = st.u + 0.1 * rng.standard_normal(prob.dims.n_u)
        y0 = st.y + 0.02 * rng.standard_normal(prob.dims.n_y)
        x0 = phi_map(prob, y0)
        f = build_kkt(prob, state_at(prob, u0, y0))
        checks = [
            (fd(lambda u: dg_residual(prob, u, x0, prob.p), u0), f.Ju.toarray()),
            (fd(lambda u: dg_residual(prob, u, x0, prob.p + 1), u0), f.dRdu.toarray()),
            (fd(lambda x: dg_residual(prob, u0, x, prob.p + 1), x0), f.dRdx.toarray()),
            (fd(lambda x: dg_residual(prob, u0, x, prob.p), x0), f.drdx.toarray()),
            (fd(lambda x: distortion(prob, x), x0), f.dRmshdx.toarray()),
        ]
        z0 = np.concatenate([u0, y0])
        kappa = 1e-2
        checks.append(
            (
                fd(
                    lambda z: objective_and_gradient(prob, z[: prob.dims.n_u], z[prob.dims.n_u :], kappa)[0],
                    z0,
                ).ravel(),
                objective_and_gradient(prob, u0, y0, kappa)[1],
            )
        )
        worst = max(worst, max(rel(got, want) for got, want in checks))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    announce(5, ok, f"max relative derivative error {worst:.3e} over 5 states, {elapsed:.2f}s")


def test_criterion_06_sqp_tracks_the_shock(announce):
    """The 8-element p=1 SQP run places a mesh node at the shock to 1e-6 and
    drives the enriched-residual objective below 1e-10 within 100 iterations
    and 10 seconds."""
    t0 = time.perf_counter()
    prob = ShockTrackProblem1d(8, 1, 1)
    states = run_sqp(prob, SqpConfig(max_iters=100))
    elapsed = time.perf_counter() - t0
    final = states[-1]
    x = phi_map(prob, final.y)
    node_err = float(np.min(np.abs(x - 0.6)))
    R = dg_residual(prob, final.u, x, prob.p + 1)
    f_err = 0.5 * float(R @ R)
    ok = (
        len(states) - 1 <= 100
        and node_err <= 1e-6
        and f_err <= 1e-10
        and elapsed < 10.0
    )
    announce(
        6,
        ok,
        f"{len(states) - 1} iterations, node error {node_err:.3e}, "
        f"objective {f_err:.3e}, {elapsed:.2f}s",
    )


def test_criterion_07_interior_sparsity_ratio(sys8_k1, announce):
    """On interior rows the symbolic state-state Hessian pattern holds 5 blocks
    against 3 in the constraint Jacobian, a ratio of exactly 5/3 in 1D."""
    counts = count_block_sparsity(sys8_k1.Ju, ata_pattern(sys8_k1.dRdu))
    ok = counts.m1 == 3.0 and counts.m2 == 5.0 and counts.ratio == 5.0 / 3.0
    announce(7, ok, f"m1={counts.m1:g}, m2={counts.m2:g}, ratio={counts.ratio:.6f}")


def test_criterion_08_gamma_trend_and_exact_dominance(prob8, states8, announce):
    """On a fixed mid-optimization state, weakening the mesh regularization
    (gamma 1e-1 -> 1e-3 -> 1e-5) never decreases the iteration count of the
    inexact variants, and the exact variant needs the fewest iterations of all
    at every gamma, within 60 seconds."""
    t0 = time.perf_counter()
    gammas = (1e-1, 1e-3, 1e-5)
    iters = {}
    for gamma in gammas:
        sys_g = build_kkt(prob8, dataclasses.replace(states8[1], gamma=gamma))
        for name in CATALOG:
            iters[name, gamma] = count_iterations(sys_g, name)[0]
    elapsed = time.perf_counter() - t0

    monotone = all(
        iters[name, gammas[0]] <= iters[name, gammas[1]] <= iters[name, gammas[2]]
        for name in GAMMA_TREND_VARIANTS
    )
    dominant = all(
        iters["A0", gamma] <= iters[name, gamma] for gamma in gammas for name in CATALOG
    )
    table = "; ".join(
        f"{name}:" + "/".join(str(iters[name, g]) for g in gammas)
        for name in CATALOG
    )
    ok = monotone and dominant and elapsed < 60.0
    announce(8, ok, f"iterations per gamma (1e-1/1e-3/1e-5) {table}, {elapsed:.2f}s")


def test_criterion_09_kappa_insensitivity(prob8, states8, announce):
    """Varying the mesh quality weight kappa across {1e-7, 1e-5, 1e-3} changes
    each preconditioner's iteration count by at most 2."""
    kappas = (1e-7, 1e-5, 1e-3)
    spreads = {}
    for name in CATALOG:
        counts = [
            count_iterations(build_kkt(prob8, dataclasses.replace(states8[1], kappa=kappa)), name)[0]
            for kappa in kappas
        ]
        spreads[name] = max(counts) - min(counts)
    worst = max(spreads.values())
    table = "; ".join(f"{name}:{spread}" for name, spread in spreads.items())
    announce(9, worst <= 2, f"iteration spread over kappa {table}")


def test_criterion_10_multigrid_contract(announce):
    """On a p=0, q=1 system the coarse space is the full space, so every
    multigrid-wrapped variant converges in one iteration; mesh restriction is
    a left inverse of prolongation exactly on every generated mesh."""
    prob = ShockTrackProblem1d(8, 0, 1)
    sys0 = build_kkt(prob, tracked_state(prob))
    results = {name: count_iterations(sys0, name) for name in ("A0-p0", "BJ-p0", "BILU-p0")}
    one_iter = all(iters == 1 and conv for iters, conv in results.values())

    exact_inverse = True
    for n_elem, p, q in [(8, 1, 1), (16, 2, 2), (8, 0, 1), (2, 1, 1), (5, 3, 2), (12, 2, 1)]:
        P, Q = SystemDims(n_elem, p, q).transfers()
        # Q P is block diagonal; its mesh block is Qy Py.
        mesh = slice(n_elem, 2 * n_elem - 1)
        if not np.array_equal((Q @ P).toarray()[mesh, mesh], np.eye(n_elem - 1)):
            exact_inverse = False
    table = "; ".join(f"{name}:{iters}" for name, (iters, _) in results.items())
    ok = one_iter and exact_inverse
    announce(10, ok, f"iterations {table}, restriction o prolongation == identity: {exact_inverse}")


def test_criterion_11_shipped_defaults(announce):
    """The shipped GMRES defaults are tol 1e-3 and max_iters 1000, and both
    appear in the CSV header emitted by the harness."""
    cfg = GmresConfig()
    header = _csv_header(DEFAULT_TOL, DEFAULT_MAX_ITERS).splitlines()
    ok = (
        DEFAULT_TOL == 1e-3
        and DEFAULT_MAX_ITERS == 1000
        and cfg.tol == 1e-3
        and cfg.max_iters == 1000
        and header[0] == "# tol=0.001 max_iters=1000"
        and header[1] == CSV_COLUMNS
    )
    announce(11, ok, f"tol={DEFAULT_TOL:g}, max_iters={DEFAULT_MAX_ITERS}, header {header[0]!r}")
