"""Burgers shock-tracking discretization, derivatives, and SQP driver."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from kktprecond import shocktrack
from kktprecond.errors import InvertedElement, SingularSystem, SizeCapExceeded
from kktprecond.shocktrack import (
    SHOCK_POSITION,
    GenerateConfig,
    ShockTrackProblem1d,
    SqpConfig,
    build_kkt,
    dg_residual,
    initial_state,
    load_problem_config,
    make_problem,
    phi_map,
    run_sqp,
    sqp_step,
)
from oracles import dense_kkt, distortion, exact_solution, objective_and_gradient, state_at, tracked_state


def fd_jacobian(func, z0):
    """Central differences column by column with coefficient-scaled steps."""
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


def assert_rel_close(actual, expect, tol=1e-6):
    scale = max(1.0, np.linalg.norm(expect))
    assert np.linalg.norm(actual - expect) / scale <= tol


def random_nearby_state(prob, rng):
    """Perturbed smooth initial state with a still-monotone mesh."""
    st = initial_state(prob)
    u = st.u + 0.1 * rng.standard_normal(prob.dims.n_u)
    y = st.y + 0.02 * rng.standard_normal(prob.dims.n_y)
    assert np.all(np.diff(phi_map(prob, y)) > 0)
    return u, y


# Exact profile and mesh map -------------------------------------------------


def test_exact_profile_values():
    assert exact_solution(0.0) == 0.4
    assert exact_solution(SHOCK_POSITION) == 1.0
    np.testing.assert_allclose(exact_solution(1.0), -0.6, rtol=1e-15)
    np.testing.assert_allclose(exact_solution(0.7), -0.9, rtol=1e-15)
    np.testing.assert_allclose(exact_solution([0.0, 1.0]), [0.4, -0.6], rtol=1e-15)


def test_shock_is_stationary_for_burgers_flux():
    prob = ShockTrackProblem1d(2, 1, 1)
    left = exact_solution(SHOCK_POSITION)
    right = SHOCK_POSITION - 1.6
    assert prob.flux_value(left) == prob.flux_value(right) == 0.5
    assert left > right


def test_godunov_flux_cases():
    prob = ShockTrackProblem1d(2, 1, 1)
    np.testing.assert_allclose(prob.riemann(1.0, -1.0), 0.5)
    np.testing.assert_allclose(prob.riemann(-1.0, 1.0), 0.0)
    da, db = prob.riemann_derivs(np.array([1.0]), np.array([-1.0]))
    np.testing.assert_array_equal(da, [1.0])
    np.testing.assert_array_equal(db, [0.0])


def test_phi_map_pins_endpoints():
    prob = ShockTrackProblem1d(2, 1, 1)
    np.testing.assert_array_equal(phi_map(prob, np.array([0.5])), [0.0, 0.5, 1.0])


def test_dphi_dy_is_interior_selection():
    prob = ShockTrackProblem1d(4, 1, 1)
    Phi = prob.dPhidy.toarray()
    expect = np.zeros((5, 3))
    expect[1:-1] = np.eye(3)
    np.testing.assert_array_equal(Phi, expect)

    y = np.array([0.2, 0.5, 0.8])
    for i in range(3):
        bump = np.zeros(3)
        bump[i] = 0.125
        diff = phi_map(prob, y + bump) - phi_map(prob, y)
        np.testing.assert_array_equal(diff, 0.125 * Phi[:, i])


# Residuals ------------------------------------------------------------------


def test_residual_vanishes_without_forcing():
    prob = ShockTrackProblem1d(4, 1, 1, source_on=False, bc_left=0.0, bc_right=0.0)
    x = prob.reference_nodes
    r = dg_residual(prob, np.zeros(prob.dims.n_u), x, prob.p)
    np.testing.assert_array_equal(r, np.zeros(prob.dims.n_u))


@pytest.mark.parametrize("p,q", [(1, 1), (2, 2)])
def test_tracked_state_solves_both_test_spaces(p, q):
    prob = ShockTrackProblem1d(8, p, q)
    st = tracked_state(prob)
    x = phi_map(prob, st.y)
    assert np.any(x == SHOCK_POSITION)
    r = dg_residual(prob, st.u, x, prob.p)
    R = dg_residual(prob, st.u, x, prob.dims.test_degree)
    assert np.linalg.norm(r, np.inf) <= 1e-12
    assert np.linalg.norm(R, np.inf) <= 1e-12


def test_residual_pass_computes_the_geometry_once(prob8, states8, monkeypatch):
    """One line-search trial and one step assembly each compute the element
    geometry once for both test degrees and the mesh distortion."""
    calls = []
    geometry = shocktrack._element_geometry

    def counting(*args):
        calls.append(args)
        return geometry(*args)

    monkeypatch.setattr(shocktrack, "_element_geometry", counting)
    st = states8[1]
    shocktrack._merit_components(prob8, st.u, st.y, st.kappa)
    assert len(calls) == 1
    shocktrack.assemble_step(prob8, st)
    assert len(calls) == 2


def test_inverted_mesh_rejected():
    prob = ShockTrackProblem1d(3, 1, 1)
    with pytest.raises(InvertedElement):
        dg_residual(prob, np.zeros(prob.dims.n_u), np.array([0.0, 0.5, 0.2, 1.0]), prob.p)


@pytest.mark.parametrize("p, q", [(1, 1), (2, 2)])
def test_scalar_factors_are_canonical_csr_with_every_element_entry(p, q):
    prob = ShockTrackProblem1d(6, p, q, source_on=False)
    f = build_kkt(prob, tracked_state(prob))
    for M in (f.dRdx, f.drdx, f.dRmshdx, f.dPhidy, f.D, f.Byy):
        assert isinstance(M, scipy.sparse.csr_matrix) and M.has_canonical_format
    # Without the source term the mesh-column Jacobians vanish, yet every
    # entry of every element stays stored, as in the block layout they had.
    assert f.dRdx.nnz == prob.dims.n_u_enriched * (q + 1) and not f.dRdx.data.any()
    assert f.drdx.nnz == prob.dims.n_u * (q + 1) and not f.drdx.data.any()
    assert f.dRmshdx.nnz == prob.n_elem * (q + 1)


def test_jacobian_rows_are_block_tridiagonal(sys8_k1):
    Ju = sys8_k1.Ju
    assert Ju.blocksize == (2, 2)
    counts = np.diff(Ju.indptr)
    np.testing.assert_array_equal(counts, [2, 3, 3, 3, 3, 3, 3, 2])


# Derivative verification ----------------------------------------------------


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("p", range(7))
def test_gauss_rule_integrates_residuals_and_jacobians_exactly(p, q, monkeypatch):
    """Three more Gauss points move neither residual, of degree p or of the
    test degree t, nor any Jacobian block beyond rounding: the rule is exact
    through the degree of every integrand, the volume term f(U) phi' of
    degree 2p + t - 1 among them."""
    leggauss = np.polynomial.legendre.leggauss

    def problem(extra):
        with monkeypatch.context() as m:
            m.setattr(np.polynomial.legendre, "leggauss", lambda n: leggauss(n + extra))
            return ShockTrackProblem1d(6, p, q)

    prob, finer = problem(0), problem(3)
    st0 = initial_state(prob)
    u = st0.u + 0.3 * np.random.default_rng(0).standard_normal(prob.dims.n_u)
    x = phi_map(prob, st0.y)
    degrees = (p, prob.dims.test_degree)

    def parts(P):
        gx, residuals = shocktrack._residuals(P, u, x, degrees)
        blocks = shocktrack._jacobians(P, u[P.elem_u], gx, degrees)
        return residuals + [block for per_degree in blocks for block in per_degree]

    for got, want in zip(parts(prob), parts(finer), strict=True):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_jacobians_match_finite_differences():
    prob = ShockTrackProblem1d(6, 1, 1)
    rng = np.random.default_rng(42)
    for _ in range(5):
        u0, y0 = random_nearby_state(prob, rng)
        x0 = phi_map(prob, y0)

        f = build_kkt(prob, state_at(prob, u0, y0))
        assert_rel_close(
            fd_jacobian(lambda u: dg_residual(prob, u, x0, prob.p), u0), f.Ju.toarray()
        )
        assert_rel_close(
            fd_jacobian(lambda u: dg_residual(prob, u, x0, prob.dims.test_degree), u0), f.dRdu.toarray()
        )
        assert_rel_close(
            fd_jacobian(lambda x: dg_residual(prob, u0, x, prob.dims.test_degree), x0), f.dRdx.toarray()
        )
        assert_rel_close(
            fd_jacobian(lambda x: dg_residual(prob, u0, x, prob.p), x0), f.drdx.toarray()
        )
        assert_rel_close(fd_jacobian(lambda x: distortion(prob, x), x0), f.dRmshdx.toarray())


def test_objective_gradient_matches_finite_differences():
    prob = ShockTrackProblem1d(6, 1, 1)
    rng = np.random.default_rng(43)
    kappa = 1e-2
    for _ in range(5):
        u0, y0 = random_nearby_state(prob, rng)
        z0 = np.concatenate([u0, y0])

        def f_of(z):
            return objective_and_gradient(prob, z[: prob.dims.n_u], z[prob.dims.n_u :], kappa)[0]

        grad = objective_and_gradient(prob, u0, y0, kappa)[1]
        assert_rel_close(fd_jacobian(f_of, z0).ravel(), grad)


# Mesh quality and elasticity ------------------------------------------------


def test_distortion_zero_on_reference_mesh():
    prob = ShockTrackProblem1d(5, 1, 1)
    rmsh = distortion(prob, prob.reference_nodes)
    np.testing.assert_allclose(rmsh, np.zeros(5), atol=1e-14)


def test_distortion_values_on_stretched_mesh():
    prob = ShockTrackProblem1d(4, 1, 1)
    x = np.array([0.0, 0.5, 0.65, 0.8, 1.0])
    rmsh = distortion(prob, x)
    h = np.diff(x)
    expect = h / 0.25 + 0.25 / h - 2.0
    np.testing.assert_allclose(rmsh, expect, rtol=1e-13)
    assert rmsh[0] == pytest.approx(0.5)


def test_elasticity_stiffness_two_elements():
    prob = ShockTrackProblem1d(2, 1, 1)
    D = prob.D.toarray()
    np.testing.assert_allclose(D, [[4.0, -4.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -4.0, 4.0]], rtol=1e-13)


def test_elasticity_annihilates_constants_and_is_symmetric():
    for q in (1, 2):
        prob = ShockTrackProblem1d(5, 1, q)
        D = prob.D.toarray()
        np.testing.assert_array_equal(D, D.T)
        np.testing.assert_allclose(D @ np.ones(prob.dims.n_x), np.zeros(prob.dims.n_x), atol=1e-12)


# Objective at the optimum ---------------------------------------------------


def test_tracked_state_is_stationary(prob8):
    st = tracked_state(prob8)
    f, g = objective_and_gradient(prob8, st.u, st.y, kappa=0.0)
    assert f <= 1e-24
    assert np.linalg.norm(g, np.inf) <= 1e-10


def test_objective_without_mesh_penalty_is_enriched_residual_energy(prob8, states8):
    st = states8[1]
    f, _ = objective_and_gradient(prob8, st.u, st.y, kappa=0.0)
    R = dg_residual(prob8, st.u, phi_map(prob8, st.y), prob8.dims.test_degree)
    assert f == 0.5 * (R @ R)


def test_large_gamma_dominates_mesh_block(prob8, states8):
    gamma = 1e6
    sys = build_kkt(prob8, dataclasses.replace(states8[1], gamma=gamma))
    Phi = prob8.dPhidy.toarray()
    expect = gamma * Phi.T @ prob8.D.toarray() @ Phi
    rel = np.linalg.norm(sys.Byy.toarray() - expect) / np.linalg.norm(expect)
    assert rel <= 1e-4


# SQP driver -----------------------------------------------------------------


def test_sqp_stops_immediately_at_tracked_state(prob8):
    states = run_sqp(prob8, SqpConfig(), initial=tracked_state(prob8))
    assert len(states) == 1
    assert np.all(np.isfinite(states[0].lam))


def test_sqp_steps_from_an_initial_state_on_the_config_weights():
    # initial_state's default weights differ from cfg's; the run must not
    # take its first step on them.
    prob = ShockTrackProblem1d(n_elem=16, p=1, q=1)
    cfg = SqpConfig(kappa=1e-2, gamma=1e-1)
    given = run_sqp(prob, cfg, initial=initial_state(prob))
    default = run_sqp(prob, cfg)
    for g, d in zip(given, default, strict=True):
        assert (g.kappa, g.gamma) == (d.kappa, d.gamma) == (cfg.kappa, cfg.gamma)
        assert (g.alpha, g.k) == (d.alpha, d.k)
        for name in ("u", "y", "lam"):
            assert np.array_equal(getattr(g, name), getattr(d, name))


def test_sqp_converges_to_shock_aligned_solution(prob8, states8):
    # Away from the shock the objective is flat once the residual vanishes, so
    # only the shock node has a unique limit; the solution must interpolate the
    # exact profile on whatever mesh the iteration settles on.
    final = states8[-1]
    assert np.min(np.abs(final.y - 0.6)) <= 1e-6
    f, _ = objective_and_gradient(prob8, final.u, final.y, final.kappa)
    assert f <= 1e-10

    x = phi_map(prob8, final.y)
    xe = x[prob8.elem_x]
    mid = 0.5 * (xe[:, 0] + xe[:, -1])
    expect = np.where((mid < 0.6)[:, None], xe + 0.4, xe - 1.6).ravel()
    assert np.linalg.norm(final.u - expect, np.inf) <= 1e-6


def test_sqp_final_state_satisfies_stationarity(prob8, states8):
    final = states8[-1]
    sys = build_kkt(prob8, final)
    lhs_u = sys.Ju.T @ final.lam
    lhs_y = sys.Jy.T @ final.lam
    resid = sys.g - np.concatenate([lhs_u, lhs_y])
    assert np.linalg.norm(resid, np.inf) <= 1e-8


def test_line_search_activates_then_relaxes(prob8, states8):
    alphas = [st.alpha for st in states8[1:]]
    assert alphas[0] == 0.03125
    assert alphas[-1] == 1.0
    assert all(0.0 < a <= 1.0 for a in alphas)


def test_full_newton_step_would_invert_an_element(prob8, states8):
    dz = sqp_step(prob8, states8[0])[0]
    y_full = states8[0].y + dz[prob8.dims.n_u :]
    assert np.any(np.diff(phi_map(prob8, y_full)) <= 0.0)
    assert states8[1].alpha < 1.0


def test_accepted_iterates_keep_monotone_meshes(prob8, states8):
    for st in states8:
        assert np.all(np.diff(phi_map(prob8, st.y)) > 0.0)


def test_merit_function_decreases(prob8, states8):
    eta = sqp_step(prob8, states8[0])[1]
    mu = 10.0 * max(np.linalg.norm(eta, np.inf), 1e-12)

    def merit(st):
        f, _ = objective_and_gradient(prob8, st.u, st.y, st.kappa)
        r = dg_residual(prob8, st.u, phi_map(prob8, st.y), prob8.p)
        return f + mu * np.abs(r).sum()

    vals = [merit(st) for st in states8]
    assert all(later < earlier for earlier, later in zip(vals, vals[1:]))


@pytest.mark.parametrize("n_elem, p, q", [(64, 2, 2), (100, 3, 1)])
def test_sqp_step_matches_lu_solve_of_dense_products(n_elem, p, q):
    """The step (a band LU of the assembled K) agrees with a general LU
    solve of the dense-product oracle matrix at the first SQP states."""
    prob = ShockTrackProblem1d(n_elem=n_elem, p=p, q=q)
    for state in run_sqp(prob, SqpConfig(max_iters=3)):
        sys = build_kkt(prob, state)
        expect = scipy.linalg.solve(dense_kkt(sys), sys.rhs(), assume_a="gen")
        got = np.concatenate(sqp_step(prob, state)[:2])
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


def test_step_gradient_is_the_merit_objective_gradient(prob8, states8, monkeypatch):
    """The line search takes its slope from the step system's gradient, bit
    for bit the objective's gradient, without evaluating it again."""
    for state in states8:
        g = sqp_step(prob8, state)[2].g
        assert np.array_equal(g, objective_and_gradient(prob8, state.u, state.y, state.kappa)[1])

    def no_gradient(*args):
        raise AssertionError("run_sqp re-evaluated the gradient")

    monkeypatch.setattr(shocktrack, "_gradient", no_gradient)
    assert len(run_sqp(prob8, SqpConfig(max_iters=2))) == 3


@pytest.mark.parametrize(
    "n_elem, p, q, steps",
    [(64, 1, 1, 7), (64, 2, 2, 8), (256, 1, 1, 9), (256, 2, 2, 9)],
    ids=["1-1-7", "2-2-8", "256-1-1-9", "256-2-2-9"],
)
def test_default_sqp_step_counts(monkeypatch, n_elem, p, q, steps):
    """Default-config runs at n_elem=64 and 256, the benchmark's largest
    succeeding size, take 7, 8, 9 and 9 steps, the last one within step_tol:
    a step change that moves the trajectory shows here, not only in the
    benchmark's sqp_iters."""
    calls = []

    def counting_step(*args):
        calls.append(args)
        return sqp_step(*args)

    monkeypatch.setattr(shocktrack, "sqp_step", counting_step)
    states = run_sqp(ShockTrackProblem1d(n_elem=n_elem, p=p, q=q), SqpConfig())
    assert len(calls) == steps
    assert len(states) == steps


def test_step_cap_raises_before_build_kkt(monkeypatch):
    """n_elem=1024, p=q=1 gives a step system of dimension 5119, above
    STEP_CAP: sqp_step refuses it before assembling anything."""
    prob = ShockTrackProblem1d(n_elem=1024, p=1, q=1)
    assert 2 * prob.dims.n_u + prob.dims.n_y == 5119 > shocktrack.STEP_CAP

    def no_build(*args, **kwargs):
        raise AssertionError("a step system assembled above the step cap")

    monkeypatch.setattr(shocktrack, "build_kkt", no_build)
    monkeypatch.setattr(shocktrack, "assemble_step", no_build)
    with pytest.raises(SizeCapExceeded, match="5119"):
        sqp_step(prob, initial_state(prob))
    assert "step_pattern" not in vars(prob)


def test_singular_step_raises_singular_system():
    """Without the source term the n_elem=8 step matrix is exactly singular:
    the first step raises the typed error instead of solving it."""
    with pytest.raises(SingularSystem, match="dimension 39"):
        run_sqp(ShockTrackProblem1d(n_elem=8, source_on=False))


# Configuration parsing ------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    cfg_file = tmp_path / "case.cfg"
    cfg_file.write_text(
        "# sample configuration\n"
        "n_elem = 12\n"
        "p: 2\n"
        "q = 2\n"
        "gamma = 1e-3\n"
        "source = off   # disable forcing\n"
        "states = 0, 2 4\n"
        "case = demo\n"
    )
    cfg = load_problem_config(cfg_file)
    assert cfg.n_elem == 12
    assert cfg.p == 2
    assert cfg.q == 2
    assert cfg.gamma == 1e-3
    assert cfg.source is False
    assert cfg.states == (0, 2, 4)
    assert cfg.case_name == "demo"
    assert cfg.kappa == 1e-7


def test_config_defaults_and_case_name():
    cfg = GenerateConfig()
    assert cfg.case_name == "burgers1d-n8-p1-q1"
    assert cfg.states == (1,)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kappa": float("inf")}, "invalid kappa inf: must be finite and nonnegative"),
        ({"gamma": -1.0}, "invalid gamma -1.0: must be finite and nonnegative"),
        ({"max_iters": -3}, "invalid max_iters -3: must be nonnegative"),
    ],
    ids=["kappa-inf", "gamma-negative", "max-iters-negative"],
)
def test_sqp_and_generate_configs_enforce_the_cli_rules(kwargs, message):
    for config in (SqpConfig, GenerateConfig):
        with pytest.raises(ValueError, match=f"^{message}$"):
            config(**kwargs)


def test_generate_config_states_rule():
    with pytest.raises(ValueError, match="^invalid states: name at least one state to export$"):
        GenerateConfig(states=())
    with pytest.raises(ValueError, match=r"^state 7 not available: a run of at most 6 iterations produces states 0\.\.6$"):
        GenerateConfig(states=(7,), max_iters=6)
    with pytest.raises(ValueError, match="^state -1 not available"):
        GenerateConfig(states=(-1,))
    assert GenerateConfig(states=(0, 6), max_iters=6).sqp == SqpConfig(max_iters=6)


def test_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    for text in ("order = 3\n", "seed = 3\n"):
        bad.write_text(text)
        with pytest.raises(ValueError, match="unknown config key"):
            load_problem_config(bad)


def test_config_rejects_bad_boolean(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("source = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        load_problem_config(bad)


def test_config_rejects_missing_separator(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_elem 12\n")
    with pytest.raises(ValueError, match="key = value"):
        load_problem_config(bad)


def test_config_rejects_a_repeated_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_elem = 8\np = 1\nN_ELEM: 16\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:3: repeated config key 'n_elem'"):
        load_problem_config(bad)


def test_problem_allows_only_mesh_degrees_one_and_two():
    for q in (0, 3):
        with pytest.raises(ValueError, match="q must be 1 or 2"):
            ShockTrackProblem1d(n_elem=8, p=1, q=q)
    for n_elem, p, rule in ((0, 1, "n_elem must be at least 1"), (8, -1, "p must be nonnegative")):
        with pytest.raises(ValueError, match=rule):
            ShockTrackProblem1d(n_elem=n_elem, p=p, q=1)


def test_make_problem_maps_config_fields():
    cfg = GenerateConfig(n_elem=5, p=2, q=2, source=False, bc_left=0.1, bc_right=-0.2)
    prob = make_problem(cfg)
    assert prob.n_elem == 5
    assert prob.p == 2
    assert prob.q == 2
    assert prob.source_on is False
    assert prob.bc_left == 0.1
    assert prob.bc_right == -0.2
