"""The SQP step system summed from the element blocks (shocktrack.assemble_step)
against build_kkt, its oracle, bit for bit, the SQP runs it drives against
runs on the oracle step (oracles.kkt_sqp_step, build_kkt's K through the
same band solve), and the band solve against SuperLU's along those runs."""

from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse

from kktprecond import shocktrack
from kktprecond.blocklinalg import checked_splu
from kktprecond.errors import LineSearchFailure, SingularSystem
from kktprecond.kkt import SystemDims
from kktprecond.manifest import export_system, import_system
from kktprecond.shocktrack import (
    DgState,
    ShockTrackProblem1d,
    SqpConfig,
    assemble_step,
    build_kkt,
    dg_residual,
    initial_state,
    phi_map,
    run_sqp,
    sqp_step,
)
from oracles import kkt_sqp_step

# (n_elem, p, q) and the steps of its default SQP run: the generate cases
# below STEP_CAP, (100, 2, 2) failing its line search at iteration 12 and
# (100, 3, 1) using all 100 iterations, and two small runs that also use
# all 100.
TRAJECTORY_STEPS = {
    (64, 1, 1): 7,
    (256, 1, 1): 9,
    (64, 2, 2): 8,
    (256, 2, 2): 9,
    (100, 2, 2): 12,
    (100, 3, 1): 100,
    (16, 1, 2): 100,
    (20, 0, 1): 100,
}
TRAJECTORY_CASES = list(TRAJECTORY_STEPS)
TRAJECTORY_IDS = ["-".join(map(str, case)) for case in TRAJECTORY_CASES]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_step_system_is_build_kkts(prob, state):
    step = assemble_step(prob, state)
    sys = build_kkt(prob, state)
    assert step.K.format == "csc"
    assert np.array_equal(step.K.indptr, sys.K.indptr)
    assert np.array_equal(step.K.indices, sys.K.indices)
    assert same_bits(step.K.data, sys.K.data)
    assert same_bits(step.g, sys.g)
    assert same_bits(step.r, sys.r)


def run_with_step(prob, step, monkeypatch):
    """run_sqp's states, or its error, with sqp_step replaced by step, and
    every state a step was taken at."""
    visited = []

    def recording(problem, state):
        visited.append(state)
        return step(problem, state)

    monkeypatch.setattr(shocktrack, "sqp_step", recording)
    try:
        return run_sqp(prob, SqpConfig()), visited
    except LineSearchFailure as exc:
        return exc, visited
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("case", TRAJECTORY_CASES, ids=TRAJECTORY_IDS)
def test_step_system_is_build_kkts_along_the_sqp_run(case, monkeypatch):
    prob = ShockTrackProblem1d(*case)
    _, visited = run_with_step(prob, sqp_step, monkeypatch)
    assert len(visited) == TRAJECTORY_STEPS[case]
    for state in visited:
        assert_step_system_is_build_kkts(prob, state)


@pytest.mark.parametrize("n_elem", [1, 2, 3, 5, 17])
def test_step_system_is_build_kkts_at_random_states(n_elem):
    """Every p in 0..3 and q, the source on and off, and kappa and gamma
    swept, gamma = 0 among them, at states near the initial one."""
    rng = np.random.default_rng(n_elem)
    for p in range(4):
        for q in (1, 2):
            for source_on in (True, False):
                prob = ShockTrackProblem1d(n_elem=n_elem, p=p, q=q, source_on=source_on)
                for kappa, gamma in ((1e-7, 1e-2), (0.3, 0.0), (2.0, 1.5), (0.0, 1e-3)):
                    st0 = initial_state(prob)
                    u = st0.u + 0.1 * rng.standard_normal(prob.dims.n_u)
                    y = st0.y + (0.01 / n_elem) * rng.standard_normal(prob.dims.n_y)
                    assert np.all(np.diff(phi_map(prob, y)) > 0.0)
                    assert_step_system_is_build_kkts(prob, DgState(u, y, st0.lam, 0, 0.0, kappa, gamma))


@pytest.mark.parametrize("p, q", [(1, 1), (2, 2)])
@pytest.mark.parametrize("n_elem", [1024, 4096])
def test_step_system_is_build_kkts_at_large_patterns(n_elem, p, q):
    """Patterns past every SQP run (all above STEP_CAP, so sqp_step never
    assembles them), at the initial state."""
    prob = ShockTrackProblem1d(n_elem, p, q)
    assert 2 * prob.dims.n_u + prob.dims.n_y > shocktrack.STEP_CAP
    assert_step_system_is_build_kkts(prob, initial_state(prob))


@pytest.mark.parametrize("case", [(19, 1, 1), (64, 2, 2), (33, 3, 1), (16, 0, 1)], ids=lambda c: "-".join(map(str, c)))
def test_every_path_reads_the_test_degree_from_dims(case, monkeypatch, tmp_path):
    """With SystemDims.test_degree raised to p + 2 before any problem is
    built, the step, build_kkt, the merit, the residual and the manifest all
    follow it: the test degree has one home."""
    assert [f.name for f in fields(SystemDims)] == ["n_elem", "p", "q"]
    monkeypatch.setattr(SystemDims, "test_degree", property(lambda dims: dims.p + 2))
    prob = ShockTrackProblem1d(*case)
    n_elem, p, _ = case
    t = prob.dims.test_degree
    assert t == p + 2 and prob.dims.n_u_enriched == n_elem * (p + 3)
    st0 = initial_state(prob)
    state = replace(st0, u=st0.u + 0.1 * np.random.default_rng(n_elem).standard_normal(prob.dims.n_u))
    assert_step_system_is_build_kkts(prob, state)

    step = assemble_step(prob, state)
    assert same_bits(dg_residual(prob, state.u, phi_map(prob, state.y), t), step.R)
    merit, r = shocktrack._merit_components(prob, state.u, state.y, state.kappa)
    assert same_bits(merit, shocktrack._objective(step.R, step.rmsh, state.kappa)) and same_bits(r, step.r)
    sys = build_kkt(prob, state)
    assert sys.dRdu.blocksize == (p + 3, p + 1)
    assert sys.dRdu.shape == sys.dRdx.shape[:1] + (prob.dims.n_u,) == (prob.dims.n_u_enriched, prob.dims.n_u)

    loaded = import_system(export_system(sys, tmp_path))
    assert loaded.dims == sys.dims
    for name in ("Ju", "dRdu", "dRdx", "drdx", "dRmshdx", "dPhidy", "D", "Byy", "Jy"):
        got, want = getattr(loaded, name), getattr(sys, name)
        assert got.format == want.format and got.shape == want.shape
        assert getattr(got, "blocksize", None) == getattr(want, "blocksize", None)
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
        assert same_bits(got.data, want.data)
    assert same_bits(loaded.g, sys.g) and same_bits(loaded.r, sys.r)


@pytest.mark.parametrize("case", TRAJECTORY_CASES, ids=TRAJECTORY_IDS)
def test_sqp_run_is_the_oracle_steps_run(case, monkeypatch):
    """The same u, y, lambda and alpha at every state, or the same failure
    at the same iteration."""
    new, new_visited = run_with_step(ShockTrackProblem1d(*case), sqp_step, monkeypatch)
    old, old_visited = run_with_step(ShockTrackProblem1d(*case), kkt_sqp_step, monkeypatch)
    assert len(new_visited) == len(old_visited)
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old)
        new, old = new_visited, old_visited
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.k == b.k and same_bits(a.alpha, b.alpha)
        assert same_bits(a.u, b.u) and same_bits(a.y, b.y) and same_bits(a.lam, b.lam)


# The largest relative difference between the band step and SuperLU's
# solve of the same K over a case's run: measured 9.5e-9 on the late
# (100, 3, 1) states, whose smallest relative pivot is 2.8e-13, and at most
# 4.7e-13 on every other case.
SUPERLU_RTOL = {(100, 3, 1): 1e-7}


@pytest.mark.parametrize("case", TRAJECTORY_CASES, ids=TRAJECTORY_IDS)
def test_band_step_is_superlus_step_along_the_sqp_run(case, monkeypatch):
    """At every state of the run, the step's band LU solve agrees with a
    SuperLU solve (blocklinalg.checked_splu) of the same K, the solve the
    step made before, to SUPERLU_RTOL, 1e-11 where it names no case."""
    prob = ShockTrackProblem1d(*case)
    _, visited = run_with_step(prob, sqp_step, monkeypatch)
    for state in visited:
        step = assemble_step(prob, state)
        rhs = -np.concatenate([step.g, step.r])
        expect = checked_splu(step.K, SingularSystem, "step").solve(rhs)
        got = np.concatenate(sqp_step(prob, state)[:2])
        assert np.linalg.norm(got - expect) <= SUPERLU_RTOL.get(case, 1e-11) * np.linalg.norm(expect)


def test_sqp_iteration_builds_no_kkt_factors(prob8, states8, monkeypatch):
    """No KktSystem, factor Jacobian, sparse product or bmat: the
    run reaches the same states without any of them."""

    def forbidden(*args, **kwargs):
        raise AssertionError("KKT factor assembly in an SQP iteration")

    for name in ("build_kkt", "KktSystem", "_tridiag_bsr", "_mesh_column_csr"):
        monkeypatch.setattr(shocktrack, name, forbidden)
    monkeypatch.setattr(scipy.sparse, "bmat", forbidden)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "__matmul__", forbidden)
    monkeypatch.setattr(scipy.sparse.csc_matrix, "__matmul__", forbidden)
    states = run_sqp(ShockTrackProblem1d(n_elem=8, p=1, q=1), SqpConfig())
    assert len(states) == len(states8)
    assert all(same_bits(a.u, b.u) and same_bits(a.y, b.y) for a, b in zip(states, states8))


def test_line_search_evaluates_the_merit_only_at_trial_points(prob8, states8, monkeypatch):
    """The line search starts from the step's own R, rmsh and r: each
    iteration evaluates the merit once per trial step length, 1 + log2(1/alpha)
    times, and not at the current state."""
    calls = []
    merit = shocktrack._merit_components

    def counting(*args):
        calls.append(args)
        return merit(*args)

    monkeypatch.setattr(shocktrack, "_merit_components", counting)
    states = run_sqp(ShockTrackProblem1d(n_elem=8, p=1, q=1), SqpConfig())
    assert [s.alpha for s in states] == [s.alpha for s in states8]
    assert len(calls) == sum(1 + int(np.log2(1.0 / s.alpha)) for s in states[1:])
