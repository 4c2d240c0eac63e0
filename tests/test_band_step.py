"""The SQP step's band LU (shocktrack._StepPattern.band and .solve): the
element order, K's band storage and its bandwidths in that order, the solve
against a dense LU solve, and the relative pivot test of SingularSystem."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrf

from kktprecond.errors import SingularSystem
from kktprecond.shocktrack import DgState, ShockTrackProblem1d, assemble_step, initial_state, phi_map

# The weights (kappa, gamma) the random states draw from, gamma = 0 and
# kappa = 0 among them.
WEIGHTS = [(1e-7, 1e-2), (0.3, 0.0), (2.0, 1.5), (0.0, 1e-3)]


@st.composite
def step_systems(draw):
    """A problem of n_elem 1..17, p 0..3 and q 1..2, the source on or off,
    and its step system at a random state near the initial one."""
    n_elem, p, q = draw(st.integers(1, 17)), draw(st.integers(0, 3)), draw(st.sampled_from([1, 2]))
    prob = ShockTrackProblem1d(n_elem, p, q, source_on=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    st0 = initial_state(prob)
    u = st0.u + draw(st.floats(0.0, 0.5)) * rng.standard_normal(prob.dims.n_u)
    y = st0.y + (0.01 / n_elem) * rng.standard_normal(prob.dims.n_y)
    assert np.all(np.diff(phi_map(prob, y)) > 0.0)
    kappa, gamma = draw(st.sampled_from(WEIGHTS))
    return prob, assemble_step(prob, DgState(u, y, st0.lam, 0, 0.0, kappa, gamma))


def initial_step(n_elem, p, q):
    """A problem and its step system at the initial state."""
    prob = ShockTrackProblem1d(n_elem, p, q)
    return prob, assemble_step(prob, initial_state(prob))


def bandwidths(K, order: np.ndarray) -> tuple[int, int]:
    """The lower and upper bandwidths of K's stored entries, its stored
    zeros included, in the order order."""
    stored = scipy.sparse.csc_matrix((np.ones_like(K.data), K.indices, K.indptr), shape=K.shape)
    i, j = np.nonzero(stored.toarray()[np.ix_(order, order)])
    return int(np.max(i - j, initial=0)), int(np.max(j - i, initial=0))


def check_band(prob, step):
    pat = prob.step_pattern
    dim = 2 * prob.dims.n_u + prob.dims.n_y
    assert pat.dim == dim
    assert np.array_equal(np.sort(pat.order), np.arange(dim))
    assert np.array_equal(pat.pi[pat.order], np.arange(dim))

    ordered = step.K.toarray()[np.ix_(pat.order, pat.order)]
    band, kl, ku = pat.band(step.K)
    assert (kl, ku) == bandwidths(step.K, pat.order) and kl == ku
    assert band.shape == (2 * kl + ku + 1, dim) and band.flags.f_contiguous
    # Band row kl + ku + i - j of column j holds ordered[i, j]; the top kl
    # rows are dgbtrf's workspace and stay zero.
    rebuilt = np.zeros_like(ordered)
    for d in range(-ku, kl + 1):
        j = np.arange(max(0, -d), min(dim, dim - d))
        rebuilt[j + d, j] = band[kl + ku + d, j]
    assert np.array_equal(rebuilt, ordered)
    assert not band[:kl].any()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(step_systems())
@example(initial_step(1, 1, 1))
@example(initial_step(1, 0, 1))
def test_band_storage_is_k_in_element_order(case):
    """The element order is a permutation, and the band array holds K in it
    exactly, with kl and ku K's bandwidths in that order; n_elem = 1 with
    q = 1 has no interior mesh node (n_y = 0)."""
    check_band(*case)


@pytest.mark.parametrize(
    "case, kl",
    [((64, 1, 1), 8), ((64, 2, 2), 14), ((100, 3, 1), 17), ((256, 2, 2), 14)],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_initial_step_bandwidths(case, kl):
    """kl = ku at the initial state; at p = q = 2 the band array holds
    43 doubles per unknown."""
    prob, step = initial_step(*case)
    check_band(prob, step)
    band, got_kl, got_ku = prob.step_pattern.band(step.K)
    assert got_kl == got_ku == kl
    assert band.shape[0] == 3 * kl + 1


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(step_systems())
@example(initial_step(1, 1, 1))
def test_band_solve_is_a_dense_solve(case):
    """The band solve agrees with np.linalg.solve on the dense K to the
    rounding bound cond(K) eps (600 random states measured at most 0.11 of
    it). A matrix it refuses is numerically singular: cond(K) above 1e14
    (the refused states measured 1.8e16 and above, the solved ones at most
    5.7e10)."""
    prob, step = case
    rhs = -np.concatenate([step.g, step.r])
    A = step.K.toarray()
    cond = np.linalg.cond(A)
    try:
        x = prob.step_pattern.solve(step.K, rhs)
    except SingularSystem:
        assert cond > 1e14
        return
    expect = np.linalg.solve(A, rhs)
    assert np.linalg.norm(x - expect) <= cond * np.finfo(float).eps * np.linalg.norm(expect)


def test_exactly_zero_pivot_raises_the_pivot_text(prob8):
    """Without the source term the n_elem=8 initial step matrix meets an
    exactly zero band pivot (dgbtrf's info > 0); so does the zero matrix of
    the pattern, whose scale is 0. Both raise the relative test's text."""
    prob = ShockTrackProblem1d(n_elem=8, source_on=False)
    K = assemble_step(prob, initial_state(prob)).K
    band, kl, ku = prob.step_pattern.band(K)
    assert dgbtrf(band, kl, ku)[2] > 0
    rhs = np.ones(K.shape[0])
    with pytest.raises(SingularSystem) as exc:
        prob.step_pattern.solve(K, rhs)
    assert str(exc.value) == "KKT matrix of dimension 39: pivot below 1e-14 relative threshold (scale 1.28)"

    K = assemble_step(prob8, initial_state(prob8)).K
    zero = scipy.sparse.csc_matrix((np.zeros_like(K.data), K.indices, K.indptr), shape=K.shape)
    with pytest.raises(SingularSystem) as exc:
        prob8.step_pattern.solve(zero, rhs)
    assert str(exc.value) == "KKT matrix of dimension 39: pivot below 1e-14 relative threshold (scale 0)"


def test_small_pivot_raises_the_pivot_text(prob8):
    """Row and column 5 of a regular step matrix scaled by 1e-20 leave no
    exactly zero pivot, but one far below 1e-14 times max |K|."""
    K = assemble_step(prob8, initial_state(prob8)).K
    s = np.ones(K.shape[0])
    s[5] = 1e-20
    K = scipy.sparse.csc_matrix(scipy.sparse.diags(s) @ K @ scipy.sparse.diags(s))
    pat = prob8.step_pattern
    band, kl, ku = pat.band(K)
    lu, _, info = dgbtrf(band, kl, ku)
    scale = np.abs(K.data).max()
    assert info == 0 and 0.0 < np.abs(lu[kl + ku]).min() < 1e-14 * scale
    with pytest.raises(SingularSystem) as exc:
        pat.solve(K, np.ones(K.shape[0]))
    assert str(exc.value) == f"KKT matrix of dimension 39: pivot below 1e-14 relative threshold (scale {scale:g})"
