"""The SQP step system summed from the element blocks (shocktrack.assemble_step)
against build_kkt, its oracle, bit for bit, and the SQP runs it drives
against runs on the oracle step (oracles.kkt_sqp_step)."""

import numpy as np
import pytest
import scipy.sparse

from kktprecond import shocktrack
from kktprecond.errors import LineSearchFailure
from kktprecond.shocktrack import (
    DgState,
    ShockTrackProblem1d,
    SqpConfig,
    assemble_step,
    build_kkt,
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
                    u = st0.u + 0.1 * rng.standard_normal(prob.n_u)
                    y = st0.y + (0.01 / n_elem) * rng.standard_normal(prob.n_y)
                    assert np.all(np.diff(phi_map(prob, y)) > 0.0)
                    assert_step_system_is_build_kkts(prob, DgState(u, y, st0.lam, 0, 0.0, kappa, gamma))


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


def test_sqp_iteration_builds_no_kkt_factors(prob8, states8, monkeypatch):
    """No KktFactors, KktSystem, factor Jacobian, sparse product or bmat: the
    run reaches the same states without any of them."""

    def forbidden(*args, **kwargs):
        raise AssertionError("KKT factor assembly in an SQP iteration")

    for name in ("build_kkt", "KktFactors", "KktSystem", "dg_jacobians", "mesh_distortion", "_mesh_column_csr"):
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
