"""The SQP step's band storage and band LU (shocktrack._StepPattern and
.solve): the element order, the pattern's band, which holds every nonzero
of build_kkt's K, and its bandwidths in that order, the pruned product sums
against the sums of every term, the solve against a dense LU solve, and the
relative pivot test of SingularSystem."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrf

from kktprecond import shocktrack
from kktprecond.errors import SingularSystem
from kktprecond.kkt import SystemDims
from kktprecond.shocktrack import DgState, ShockTrackProblem1d, assemble_step, build_kkt, initial_state, phi_map
from oracles import padded_row_sum_terms, padded_row_sums, pattern_band, residual_row_columns

# The weights (kappa, gamma) the random states draw from, gamma = 0 and
# kappa = 0 among them.
WEIGHTS = [(1e-7, 1e-2), (0.3, 0.0), (2.0, 1.5), (0.0, 1e-3)]


def random_state(prob, seed: int, spread: float, weights) -> DgState:
    """A state near the initial one, with u moved by spread times a normal
    draw and the mesh by 0.01 / n_elem times one."""
    rng = np.random.default_rng(seed)
    st0 = initial_state(prob)
    u = st0.u + spread * rng.standard_normal(prob.dims.n_u)
    y = st0.y + (0.01 / prob.n_elem) * rng.standard_normal(prob.dims.n_y)
    assert np.all(np.diff(phi_map(prob, y)) > 0.0)
    return DgState(u, y, st0.lam, 0, 0.0, *weights)


@st.composite
def problems(draw):
    """The arguments of a problem of n_elem 1..17, p 0..3 and q 1..2, the
    source on or off."""
    return draw(st.integers(1, 17)), draw(st.integers(0, 3)), draw(st.sampled_from([1, 2])), draw(st.booleans())


@st.composite
def step_states(draw):
    """A problem (problems) and a random state of it, with weights from
    WEIGHTS."""
    n_elem, p, q, source_on = draw(problems())
    prob = ShockTrackProblem1d(n_elem, p, q, source_on=source_on)
    seed, spread = draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.0, 0.5))
    return prob, random_state(prob, seed, spread, draw(st.sampled_from(WEIGHTS)))


def initial_step(n_elem, p, q):
    """A problem and its initial state."""
    prob = ShockTrackProblem1d(n_elem, p, q)
    return prob, initial_state(prob)


def bandwidths(i: np.ndarray, j: np.ndarray) -> tuple[int, int]:
    """The lower and upper bandwidths of the entries (i, j)."""
    return int(np.max(i - j, initial=0)), int(np.max(j - i, initial=0))


def check_band(prob, state):
    """The element order is a permutation; kl = ku are the bandwidths of the
    pattern's entries in it, at least those of build_kkt's nonzeros; and the
    step's band array holds K in that order exactly, once +0.0 maps -0.0 to
    0.0."""
    pat = prob.step_pattern
    dim = 2 * prob.dims.n_u + prob.dims.n_y
    assert pat.dim == dim
    assert np.array_equal(np.sort(pat.order), np.arange(dim))
    assert np.array_equal(pat.pi[pat.order], np.arange(dim))

    col, row = np.divmod(pat.pos, pat.band_rows)
    assert np.all(np.diff(pat.pos) > 0)
    assert (pat.kl, pat.ku) == bandwidths(row - pat.kl - pat.ku + col, col) and pat.kl == pat.ku
    K = build_kkt(prob, state).K
    ordered = K.toarray()[np.ix_(pat.order, pat.order)]
    i, j = np.nonzero(ordered)
    kl, ku = bandwidths(i, j)
    assert kl <= pat.kl and ku <= pat.ku

    band = assemble_step(prob, state).band
    assert band.shape == (pat.band_rows, dim) == (2 * pat.kl + pat.ku + 1, dim) and band.flags.f_contiguous
    # Band row kl + ku + i - j of column j holds ordered[i, j]; the top kl
    # rows are dgbtrf's workspace and stay zero.
    rebuilt = np.zeros_like(ordered)
    for d in range(-pat.ku, pat.kl + 1):
        j = np.arange(max(0, -d), min(dim, dim - d))
        rebuilt[j + d, j] = band[pat.kl + pat.ku + d, j]
    assert np.array_equal((rebuilt + 0.0).view(np.int64), (ordered + 0.0).view(np.int64))
    assert not band[: pat.kl].any()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(step_states())
@example(initial_step(1, 1, 1))
@example(initial_step(1, 0, 1))
def test_band_storage_is_k_in_element_order(case):
    """n_elem = 1 with q = 1 has no interior mesh node (n_y = 0)."""
    check_band(*case)


@pytest.mark.parametrize(
    "case, kl",
    [((64, 1, 1), 8), ((64, 2, 2), 14), ((100, 3, 1), 18), ((256, 2, 2), 14)],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_initial_step_bandwidths(case, kl):
    """kl = ku, the pattern's, which at (100, 3, 1) holds an entry that is
    zero at the initial state and nonzero at later ones (p = 3's trace
    values are not exact zeros); at p = q = 2 the band array holds 43
    doubles per unknown."""
    prob, state = initial_step(*case)
    check_band(prob, state)
    pat = prob.step_pattern
    assert pat.kl == pat.ku == kl
    assert pat.band_rows == 3 * kl + 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(problems(), st.booleans(), st.integers(0, 2**32 - 1), st.floats(0.0, 0.5), st.sampled_from(WEIGHTS))
def test_pruned_terms_are_every_terms_sums(args, raised, seed, spread, weights):
    """With the test degree p + 1, or raised to p + 2 before the problem is
    built: the product sums over the live terms equal the sums of every term
    bit for bit, 0.0 for a pair with no live term; the live masks are the
    exact-zero pattern of the face blocks of _jacobians, wherever the face
    derivative is nonzero; and every nonzero of build_kkt's K lies in the
    pattern (pattern_band asserts it)."""
    n_elem, p, q, source_on = args
    with pytest.MonkeyPatch.context() as mp:
        if raised:
            mp.setattr(SystemDims, "test_degree", property(lambda dims: dims.p + 2))
        prob = ShockTrackProblem1d(n_elem, p, q, source_on=source_on)
        state = random_state(prob, seed, spread, weights)
        t = prob.dims.test_degree
        assert t == p + 1 + raised
        pat = prob.step_pattern
        _, R, jac, jac_t, _, _ = shocktrack._linearize(prob, state)
        pattern_band(pat, build_kkt(prob, state).K)

    # The face blocks of element e hold -dHa[e] and dHb[e + 1] times their
    # trace products.
    ue = state.u[prob.elem_u]
    dHa, dHb = prob.riemann_derivs(*shocktrack._face_states(prob, ue))
    for degree, (_, sub, sup, _) in ((p, jac), (t, jac_t)):
        live_sub, live_diag, live_sup = shocktrack._live_blocks(prob, degree)
        assert live_diag.all() and live_sub.shape == (degree + 1, p + 1)
        assert not (sub[~np.broadcast_to(live_sub, sub.shape)].any() or sup[~np.broadcast_to(live_sup, sup.shape)].any())
        for e in range(1, n_elem):
            if dHa[e] != 0.0:
                assert np.array_equal(sub[e] != 0.0, live_sub)
            if dHb[e] != 0.0:
                assert np.array_equal(sup[e - 1] != 0.0, live_sup)

    cols, nz = residual_row_columns(prob), prob.dims.n_u + prob.dims.n_y
    live = np.hstack(shocktrack._live_blocks(prob, t) + (np.ones((t + 1, q + 2), dtype=bool),))
    I, J, *terms = shocktrack._row_sum_terms(cols, live, nz)
    assert all(np.array_equal(a, b) for a, b in zip(terms, pat.r_terms[:3], strict=True)) and len(I) == pat.r_terms[3]
    diag_t, sub_t, sup_t, dx_t = jac_t
    A = np.concatenate([sub_t, diag_t, sup_t, dx_t, R.reshape(n_elem, -1, 1)], axis=2)
    pruned = shocktrack._row_sums(A, *pat.r_terms)
    all_I, all_J, left, right = padded_row_sum_terms(cols, t + 1, nz)
    every = padded_row_sums(A, left, right)
    at = np.searchsorted(all_I * (nz + 1) + all_J, I * (nz + 1) + J)
    assert np.array_equal(all_I[at], I) and np.array_equal(all_J[at], J)
    assert np.array_equal(pruned.view(np.int64), every[at].view(np.int64))
    assert not np.delete(every, at).view(np.int64).any()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(step_states())
@example(initial_step(1, 1, 1))
def test_band_solve_is_a_dense_solve(case):
    """The band solve agrees with np.linalg.solve on the dense K to the
    rounding bound cond(K) eps (600 random states measured at most 0.11 of
    it). A matrix it refuses is numerically singular: cond(K) above 1e14
    (the refused states measured 1.8e16 and above, the solved ones at most
    5.7e10)."""
    prob, state = case
    step = assemble_step(prob, state)
    rhs = -np.concatenate([step.g, step.r])
    A = build_kkt(prob, state).K.toarray()
    cond = np.linalg.cond(A)
    try:
        x = prob.step_pattern.solve(step.band, rhs)
    except SingularSystem:
        assert cond > 1e14
        return
    expect = np.linalg.solve(A, rhs)
    assert np.linalg.norm(x - expect) <= cond * np.finfo(float).eps * np.linalg.norm(expect)


def test_exactly_zero_pivot_raises_the_pivot_text(prob8):
    """Without the source term the n_elem=8 initial step matrix meets an
    exactly zero band pivot (dgbtrf's info > 0); so does the zero band of
    the pattern, whose scale is 0. Both raise the relative test's text."""
    prob = ShockTrackProblem1d(n_elem=8, source_on=False)
    pat = prob.step_pattern
    band = assemble_step(prob, initial_state(prob)).band
    assert dgbtrf(band, pat.kl, pat.ku)[2] > 0
    rhs = np.ones(pat.dim)
    with pytest.raises(SingularSystem) as exc:
        pat.solve(band, rhs)
    assert str(exc.value) == "KKT matrix of dimension 39: pivot below 1e-14 relative threshold (scale 1.28)"

    zero = np.zeros_like(assemble_step(prob8, initial_state(prob8)).band)
    with pytest.raises(SingularSystem) as exc:
        prob8.step_pattern.solve(zero, rhs)
    assert str(exc.value) == "KKT matrix of dimension 39: pivot below 1e-14 relative threshold (scale 0)"


def test_small_pivot_raises_the_pivot_text(prob8):
    """Row and column 5 of a regular step matrix scaled by 1e-20 leave no
    exactly zero pivot, but one far below 1e-14 times max |K|, which the
    solve reads from the band before factoring it."""
    K = build_kkt(prob8, initial_state(prob8)).K
    s = np.ones(K.shape[0])
    s[5] = 1e-20
    K = scipy.sparse.csc_matrix(scipy.sparse.diags(s) @ K @ scipy.sparse.diags(s))
    pat = prob8.step_pattern
    band = pattern_band(pat, K)
    lu, _, info = dgbtrf(band, pat.kl, pat.ku)
    scale = np.abs(K.data).max()
    assert info == 0 and 0.0 < np.abs(lu[pat.kl + pat.ku]).min() < 1e-14 * scale
    with pytest.raises(SingularSystem) as exc:
        pat.solve(band, np.ones(K.shape[0]))
    assert str(exc.value) == f"KKT matrix of dimension 39: pivot below 1e-14 relative threshold (scale {scale:g})"
