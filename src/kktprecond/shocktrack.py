"""1D implicit shock tracking testbed: DG Burgers with a movable mesh.

Discretizes the steady conservation law

    d/dx ( u^2 / 2 ) = u   on (0, 1)

with a nodal DG space of degree p per element, Godunov numerical fluxes, and a
degree-q parameterized mesh whose interior node coordinates y are unknowns.
The exact tracked solution has a stationary shock at x = 0.6 with flux
continuity f(1) = f(-1) = 1/2, so a mesh with a node at 0.6 represents it
without error.

In one dimension the transformed volume flux equals the physical flux; the
mesh coordinates enter the residual only through the source-term quadrature
weight g = dG/dX and the node positions themselves. The residual R tested
in the enriched space of degree t = dims.test_degree drives the tracking
objective

    f = 1/2 ||R||^2 + kappa^2/2 ||R_msh||^2,

and the SQP driver solves the saddle-point step system by one LAPACK band
LU factorization (dgbtrf) with the unknowns in element order, recording
every linearization state for the benchmark harness. Each step sums its
gradient g and its matrix K, straight into band storage, from the element
blocks over the terms that a pattern built once per problem finds not
structurally zero (assemble_step), each product entry's terms added in
scipy's order by one np.bincount: bit for bit the K and g of build_kkt,
which systems for export still use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .blocklinalg import _SMALL_PIVOT, PIVOT_THRESHOLD
from .errors import InvertedElement, LineSearchFailure, SingularSystem, SizeCapExceeded
from .kkt import KktSystem, SystemDims, check_case, check_weights

__all__ = [
    "SHOCK_POSITION",
    "ShockTrackProblem1d",
    "DgState",
    "SqpConfig",
    "GenerateConfig",
    "phi_map",
    "dg_residual",
    "build_kkt",
    "initial_state",
    "STEP_CAP",
    "StepSystem",
    "assemble_step",
    "sqp_step",
    "run_sqp",
    "load_problem_config",
    "CONFIG_CASTS",
    "make_problem",
]

SHOCK_POSITION = 0.6
SMOOTH_WIDTH = 0.05

# Largest step dimension 2 N_u + N_y that sqp_step solves. It guards no
# memory (the step's band LU holds 2 kl + ku + 1 doubles per unknown, 43 at
# p = q = 2); it only keeps the benchmark's generate outcomes, two n_elem=1024
# failures among them, until its counts are normalized.
STEP_CAP = 5000

# SQP line search factor, smallest step and Armijo constant; stop at |dz| <= STEP_TOL.
BACKTRACK = 0.5
MIN_STEP = 2.0**-20
ARMIJO = 1e-4
STEP_TOL = 1e-8


def _lagrange_tables(degree: int, pts: np.ndarray):
    """Values and derivatives of the equispaced Lagrange basis on [0,1] at pts."""
    nodes = np.linspace(0.0, 1.0, degree + 1) if degree > 0 else np.array([0.5])
    pts = np.asarray(pts, dtype=float)
    V = np.empty((len(pts), len(nodes)))
    D = np.empty_like(V)
    for i, xi in enumerate(nodes):
        others = np.delete(nodes, i)
        denom = np.prod(xi - others) if others.size else 1.0
        poly = np.poly1d(np.poly(others) / denom)
        V[:, i] = poly(pts)
        D[:, i] = poly.deriv()(pts)
    return V, D


@dataclass
class _Basis:
    V: np.ndarray
    D: np.ndarray
    t0: np.ndarray
    t1: np.ndarray


class ShockTrackProblem1d:
    """Problem description plus precomputed quadrature and basis tables.

    Its sizes are those of its discretization record dims (kkt.SystemDims),
    which checks n_elem and p; the problem allows only q in {1, 2}.
    """

    def __init__(
        self,
        n_elem: int = 8,
        p: int = 1,
        q: int = 1,
        source_on: bool = True,
        bc_left: float = 0.4,
        bc_right: float = -0.6,
    ):
        if q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        self.dims = SystemDims(n_elem, p, q)
        if not (np.isfinite(bc_left) and np.isfinite(bc_right)):
            raise ValueError(f"bc_left {bc_left!r} and bc_right {bc_right!r} must be finite")
        self.n_elem = n_elem
        self.p = p
        self.q = q
        self.source_on = source_on
        self.bc_left = bc_left
        self.bc_right = bc_right

        # Gauss rule exact through 2p + t - 1, the degree of f(U) phi_t', and
        # p + q + t + 1, two above the source terms; t is the test degree.
        t = self.dims.test_degree
        self.n_quad = max(p + q + t + 1, 2 * p + t - 1) // 2 + 1
        nodes, w = np.polynomial.legendre.leggauss(self.n_quad)
        self.quad_pts = 0.5 * (nodes + 1.0)
        self.quad_wts = 0.5 * w

        # One table per degree, at the quadrature points and the two element
        # ends; Horner's rule is elementwise, so each point's values are those
        # of a table of that point alone.
        self._basis: dict[int, _Basis] = {}
        for deg in {p, t, q}:
            V, D = _lagrange_tables(deg, np.concatenate([self.quad_pts, [0.0, 1.0]]))
            self._basis[deg] = _Basis(V[:-2], D[:-2], V[-2], V[-1])

        self.reference_nodes = np.linspace(0.0, 1.0, self.dims.n_x)
        self.h0 = 1.0 / n_elem
        self.elem_u = np.arange(self.dims.n_u).reshape(n_elem, p + 1)
        self.elem_x = (q * np.arange(n_elem))[:, None] + np.arange(q + 1)[None, :]

        pb = self._basis[p]
        self._mass_p = pb.V.T @ (self.quad_wts[:, None] * pb.V)

        # dphi/dy, which inserts the pinned endpoints and passes interior
        # nodes through, and the elasticity stiffness: the factors dPhidy
        # and D of every KKT system of this problem.
        self.dPhidy = scipy.sparse.eye(self.dims.n_x, self.dims.n_y, k=-1, format="csr")
        self.D = _assemble_elasticity(self)

    def basis(self, degree: int) -> _Basis:
        return self._basis[degree]

    @cached_property
    def step_pattern(self) -> _StepPattern:
        """The pattern and term lists of every SQP step system, built on the
        first step."""
        return _StepPattern(self)

    # Flux model -----------------------------------------------------------

    def flux_value(self, u):
        return 0.5 * u * u

    def flux_deriv(self, u):
        return np.asarray(u, dtype=float)

    def riemann(self, a, b):
        """Godunov flux between left state a and right state b."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        fa = 0.5 * np.maximum(a, 0.0) ** 2
        fb = 0.5 * np.minimum(b, 0.0) ** 2
        return np.maximum(fa, fb)

    def riemann_derivs(self, a, b):
        """Derivatives of the Godunov flux; the left branch wins ties."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        fa = 0.5 * np.maximum(a, 0.0) ** 2
        fb = 0.5 * np.minimum(b, 0.0) ** 2
        take_a = fa >= fb
        da = np.where(take_a, np.maximum(a, 0.0), 0.0)
        db = np.where(take_a, 0.0, np.minimum(b, 0.0))
        return da, db

    def source_value(self, u):
        u = np.asarray(u, dtype=float)
        return u if self.source_on else np.zeros_like(u)

    def source_deriv(self, u):
        u = np.asarray(u, dtype=float)
        return np.ones_like(u) if self.source_on else np.zeros_like(u)


def _assemble_elasticity(problem: ShockTrackProblem1d) -> scipy.sparse.csr_matrix:
    """Linear elasticity stiffness on the full mesh coefficient space.

    Element contribution (1/h0) * stiffness, with the modulus 1/h0 inversely
    proportional to the reference element size; the kernel before pinning is
    the constant vector.

    The element matrix is symmetrized explicitly: the matmul sums entries
    (a, b) and (b, a) in different orders, so it is symmetric only up to
    rounding. Floating-point addition is commutative, so the average is
    exactly symmetric, and assembly keeps it so because two distinct 1D
    nodes share at most one element.
    """
    qb = problem.basis(problem.q)
    k_loc = (qb.D.T @ (problem.quad_wts[:, None] * qb.D)) / problem.h0**2
    k_loc = 0.5 * (k_loc + k_loc.T)
    idx = problem.elem_x
    shape = (problem.n_elem,) + k_loc.shape
    rows = np.broadcast_to(idx[:, :, None], shape).ravel()
    cols = np.broadcast_to(idx[:, None, :], shape).ravel()
    vals = np.broadcast_to(k_loc, shape).ravel()
    # tocsr sums the entries of nodes shared by two elements.
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(problem.dims.n_x, problem.dims.n_x)).tocsr()


def phi_map(problem: ShockTrackProblem1d, y: np.ndarray) -> np.ndarray:
    """Full mesh coefficients with the domain endpoints pinned at 0 and 1."""
    y = np.asarray(y, dtype=float)
    return np.concatenate([[0.0], y, [1.0]])


def _element_geometry(problem: ShockTrackProblem1d, x: np.ndarray):
    """Mapping derivative dG/dxi at the quadrature points, per element."""
    gx = x[problem.elem_x] @ problem.basis(problem.q).D.T
    if np.any(gx <= 0.0):
        bad = int(np.argwhere(np.any(gx <= 0.0, axis=1))[0][0])
        raise InvertedElement(f"element {bad}: nonpositive mapping Jacobian")
    return gx


def _face_states(problem: ShockTrackProblem1d, ue: np.ndarray):
    """Left/right states at the n_elem+1 faces, boundary states from the BCs."""
    pb = problem.basis(problem.p)
    tr_left = ue @ pb.t0
    tr_right = ue @ pb.t1
    left = np.concatenate([[problem.bc_left], tr_right])
    right = np.concatenate([tr_left, [problem.bc_right]])
    return left, right


def _residuals(problem: ShockTrackProblem1d, u, x, degrees):
    """gx and the weighted DG residual tested at each degree in degrees.

    The geometry (and its InvertedElement check, first), U, the face fluxes
    H and the weighted volume and source terms w f(U) and w gx s(U) are
    computed once; each degree only projects them onto its test functions.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    gx = _element_geometry(problem, x)
    pb = problem.basis(problem.p)
    w = problem.quad_wts

    ue = u[problem.elem_u]
    U = ue @ pb.V.T
    left, right = _face_states(problem, ue)
    H = problem.riemann(left, right)
    flux = w * problem.flux_value(U)
    source = w * gx * problem.source_value(U)

    residuals = []
    for degree in degrees:
        tb = problem.basis(degree)
        face = np.outer(H[1:], tb.t1) - np.outer(H[:-1], tb.t0)
        residuals.append((face - flux @ tb.D - source @ tb.V).ravel())
    return gx, residuals


def dg_residual(problem: ShockTrackProblem1d, u, x, test_degree: int) -> np.ndarray:
    """Weighted DG residual tested against degree test_degree functions."""
    return _residuals(problem, u, x, (test_degree,))[1][0]


def _tridiag_bsr(diag, sub, sup) -> scipy.sparse.bsr_matrix:
    """Assemble a block tridiagonal BSR matrix from per-element block stacks,
    of shape (n, rows, columns) each; the sub block of the first row and the
    super block of the last are dropped."""
    n, row_size, col_size = diag.shape
    cols = np.arange(n)[:, None] + np.arange(-1, 2)
    keep = (cols >= 0) & (cols < n)
    blocks = np.stack([sub, diag, sup], axis=1)[keep]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return scipy.sparse.bsr_matrix((blocks, cols[keep], indptr), shape=(n * row_size, n * col_size))


def _mesh_column_csr(problem: ShockTrackProblem1d, vals: np.ndarray) -> scipy.sparse.csr_matrix:
    """Rows grouped by element, columns the mesh coefficients: vals[e, i, l]
    is the entry in row i of element e and column elem_x[e, l]."""
    n, rows_per_elem, width = vals.shape
    cols = np.broadcast_to(problem.elem_x[:, None, :], vals.shape).ravel()
    row_ptr = np.arange(0, vals.size + 1, width)
    return scipy.sparse.csr_matrix((vals.ravel(), cols, row_ptr), shape=(n * rows_per_elem, problem.dims.n_x))


def _jacobians(problem: ShockTrackProblem1d, ue, gx, degrees):
    """Per-element Jacobian blocks (diag, sub, sup, dx) of the residual tested
    at each degree in degrees; U, the Riemann flux derivatives and the
    weighted flux and source derivatives are computed once."""
    pb = problem.basis(problem.p)
    qb = problem.basis(problem.q)
    w = problem.quad_wts
    n = problem.n_elem

    U = ue @ pb.V.T
    left, right = _face_states(problem, ue)
    dHa, dHb = problem.riemann_derivs(left, right)
    dflux = w * problem.flux_deriv(U)
    dsource = (w * problem.source_deriv(U)) * gx
    source = w * problem.source_value(U)

    blocks = []
    for degree in degrees:
        tb = problem.basis(degree)
        diag = -np.einsum("gi,eg,gj->eij", tb.D, dflux, pb.V)
        diag -= np.einsum("gi,eg,gj->eij", tb.V, dsource, pb.V)
        diag += dHa[1:, None, None] * np.einsum("i,j->ij", tb.t1, pb.t1)[None, :, :]
        diag -= dHb[:-1, None, None] * np.einsum("i,j->ij", tb.t0, pb.t0)[None, :, :]

        sub = np.zeros((n, len(tb.t0), problem.p + 1))
        sup = np.zeros_like(sub)
        sub[1:] = -dHa[1:-1, None, None] * np.einsum("i,j->ij", tb.t0, pb.t1)[None, :, :]
        sup[:-1] = dHb[1:-1, None, None] * np.einsum("i,j->ij", tb.t1, pb.t0)[None, :, :]

        dx = -np.einsum("gi,eg,gj->eij", tb.V, source, qb.D)
        blocks.append((diag, sub, sup, dx))
    return blocks


def _distortion(problem: ShockTrackProblem1d, gx: np.ndarray):
    """Per-element distortion h/h0 + h0/h - 2 and the element sizes h."""
    h = (problem.quad_wts * np.abs(gx)).sum(axis=1)
    h0 = problem.h0
    return h / h0 + h0 / h - 2.0, h


def _distortion_derivs(problem: ShockTrackProblem1d, gx: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d rmsh_e / d x at the element's mesh nodes elem_x[e], shape (n_elem, q+1)."""
    h0 = problem.h0
    drmsh_dh = 1.0 / h0 - h0 / h**2
    dh_dx = np.einsum("g,eg,gl->el", problem.quad_wts, np.sign(gx), problem.basis(problem.q).D)
    return drmsh_dh[:, None] * dh_dx


def _linearize(problem: ShockTrackProblem1d, state):
    """r, R, the element Jacobian blocks (diag, sub, sup, dx) of the p and
    the test degree residual, rmsh and its derivatives (_distortion_derivs)
    at a state, from one geometry and one residual pass."""
    degrees = (problem.p, problem.dims.test_degree)
    gx, (r, R) = _residuals(problem, state.u, phi_map(problem, state.y), degrees)
    jac, jac_t = _jacobians(problem, np.asarray(state.u, dtype=float)[problem.elem_u], gx, degrees)
    rmsh, h = _distortion(problem, gx)
    return r, R, jac, jac_t, rmsh, _distortion_derivs(problem, gx, h)


def _gradient(problem: ShockTrackProblem1d, R, rmsh, dRdu, dRdx, dRmshdx, kappa: float) -> np.ndarray:
    """Gradient of f = 1/2 ||R||^2 + kappa^2/2 ||R_msh||^2 with respect to (u, y)."""
    gu = dRdu.T @ R
    gx_full = dRdx.T @ R + kappa**2 * (dRmshdx.T @ rmsh)
    return np.concatenate([gu, problem.dPhidy.T @ gx_full])


def _objective(R: np.ndarray, rmsh: np.ndarray, kappa: float) -> float:
    """f = 1/2 ||R||^2 + kappa^2/2 ||R_msh||^2."""
    return 0.5 * (R @ R) + kappa**2 * 0.5 * (rmsh @ rmsh)


@dataclass(frozen=True)
class DgState:
    """One SQP linearization state (immutable snapshot)."""

    u: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    k: int
    alpha: float
    kappa: float
    gamma: float


@dataclass(frozen=True)
class SqpConfig:
    """SQP settings; weights break kkt.check_weights or max_iters < 0: ValueError."""

    max_iters: int = 100
    kappa: float = 1e-7
    gamma: float = 1e-2

    def __post_init__(self):
        check_weights(self.kappa, self.gamma)
        if self.max_iters < 0:
            raise ValueError(f"invalid max_iters {self.max_iters}: must be nonnegative")


def build_kkt(problem: ShockTrackProblem1d, state: DgState, case: str = "case") -> KktSystem:
    """Assemble the saddle-point system at one state, with the state's
    weights kappa and gamma (a sweep replaces them in the state), from the
    element blocks of one _linearize call, as assemble_step sums its K."""
    kappa, gamma = state.kappa, state.gamma
    check_weights(kappa, gamma)
    r, R, (diag, sub, sup, dx), (diag_t, sub_t, sup_t, dx_t), rmsh, drmsh = _linearize(problem, state)

    dRdu = _tridiag_bsr(diag_t, sub_t, sup_t)
    dRdx = _mesh_column_csr(problem, dx_t)
    dRmshdx = _mesh_column_csr(problem, drmsh[:, None, :])
    g = _gradient(problem, R, rmsh, dRdu, dRdx, dRmshdx, kappa)

    return KktSystem(
        Ju=_tridiag_bsr(diag, sub, sup),
        dRdu=dRdu,
        dRdx=dRdx,
        drdx=_mesh_column_csr(problem, dx),
        dRmshdx=dRmshdx,
        dPhidy=problem.dPhidy,
        D=problem.D,
        kappa=kappa,
        gamma=gamma,
        g=g,
        r=r,
        dims=problem.dims,
        state_index=state.k,
        case=case,
    )


def initial_state(
    problem: ShockTrackProblem1d, kappa: float = SqpConfig.kappa, gamma: float = SqpConfig.gamma
) -> DgState:
    """Smoothed-profile initial guess on the uniform reference mesh.

    u0 is the elementwise L2 projection of the exact profile with the jump
    replaced by a sigmoid of width SMOOTH_WIDTH.
    """
    x = problem.reference_nodes
    xe = x[problem.elem_x]
    qb = problem.basis(problem.q)
    pb = problem.basis(problem.p)
    Xq = xe @ qb.V.T
    smooth = Xq + 0.4 - 2.0 / (1.0 + np.exp(-(Xq - SHOCK_POSITION) / SMOOTH_WIDTH))
    rhs = np.einsum("gi,eg->ei", pb.V, problem.quad_wts * smooth)
    coeff = scipy.linalg.solve(problem._mass_p, rhs.T, assume_a="pos").T
    return DgState(
        u=coeff.ravel(),
        y=x[1:-1].copy(),
        lam=np.zeros(problem.dims.n_u),
        k=0,
        alpha=0.0,
        kappa=kappa,
        gamma=gamma,
    )


def _row_sum_terms(cols: np.ndarray, live: np.ndarray, nz: int):
    """Pairs (I, J) and the live terms of the sums S_IJ = sum_r A[r, I] A[r, J].

    A's rows come in groups of n_rows, one per element; cols[e, c] is the
    global column of local column c in group e, or -1 for none, and
    live[r, c] is False where A[e, r, c] is an exact zero in every group.
    The terms are those of every I <= J < nz, and every (I, nz), sharing a
    group, whose factors are both live; the pairs, those with a term, are
    sorted by (I, J). Term t is A.flat[left[t]] * A.flat[right[t]] of pair
    pair[t], with A of shape (groups, n_rows, width); each pair's terms are
    contiguous, its shared groups in ascending order and then the rows of
    each. left and right are int32, pair intp. A dropped term is an exact
    +-0 product of finite factors, and a sum from 0.0 is never -0.0, so it
    would leave every sum's bits as they are.
    """
    n_rows, width = live.shape
    c = cols[:, None, :, None]
    ok = (c >= 0) & (c <= cols[:, None, None, :]) & (c < nz) & live[:, :, None] & live[:, None, :]
    g, r, c1, c2 = np.nonzero(ok)
    I, J = cols[g, c1], cols[g, c2]
    order = np.lexsort((r, g, J, I))
    I, J, g, r, c1, c2 = I[order], J[order], g[order], r[order], c1[order], c2[order]
    new = np.ones(len(I), dtype=bool)
    new[1:] = (I[1:] != I[:-1]) | (J[1:] != J[:-1])
    left, right = (((g * n_rows + r) * width + c).astype(np.int32) for c in (c1, c2))
    return I[new], J[new], left, right, np.cumsum(new, dtype=np.intp) - 1


def _row_sums(A: np.ndarray, left: np.ndarray, right: np.ndarray, pair: np.ndarray, n_pairs: int) -> np.ndarray:
    """The n_pairs sums of products that left, right and pair
    (_row_sum_terms) name over A: np.bincount adds each term to its pair's
    sum in term order, from 0.0, as scipy's sparse products sum them."""
    A = A.ravel()
    terms = A.take(left)
    terms *= A.take(right)
    return np.bincount(pair, weights=terms, minlength=n_pairs)


def _live_blocks(problem: ShockTrackProblem1d, degree: int):
    """Where _jacobians' blocks (sub, diag, sup) at degree can be nonzero:
    sub and sup are multiples of t0 (x) t1 and t1 (x) t0; diag is dense."""
    tb, pb = problem.basis(degree), problem.basis(problem.p)
    sub = np.outer(tb.t0 != 0.0, pb.t1 != 0.0)
    return sub, np.ones_like(sub), np.outer(tb.t1 != 0.0, pb.t0 != 0.0)


class _StepPattern:
    """What every step system of one problem shares: the term lists of its
    products, the band storage of K's live entries, and the element order
    in which K is banded, which its band LU (solve) uses.

    r_terms and m_terms are each the (left, right, pair, n_pairs) terms of
    _row_sum_terms, which _row_sums sums by pair.

    Unknowns are numbered as in K: u, then the interior mesh nodes y, then
    lambda from nz = N_u + N_y. A row of the enriched residual R in element
    e holds the unknowns of elements e-1, e and e+1, the element's interior
    mesh nodes and, as column nz, R itself; a row of the mesh distortion
    holds the mesh nodes and rmsh. So one term list gives B_uu, B_uy, the
    dRdx^T dRdx part of Byy and the gradient sums, and the other the
    dRmshdx^T dRmshdx part of Byy and of the gradient. The live blocks
    (_live_blocks) of the test degree prune the terms, and those of p Ju.

    K[i, j] goes to row kl + ku + pi[i] - pi[j] of column pi[j] of the
    Fortran array of band_rows = 2 kl + ku + 1 rows that dgbtrf factors:
    value src[k] of assemble_step's list to flat position pos[k], kl = ku
    the bandwidths of these live entries.
    """

    def __init__(self, problem: ShockTrackProblem1d):
        n, n_p, n_t, q = problem.n_elem, problem.p + 1, problem.dims.test_degree + 1, problem.q
        n_u, n_y = problem.dims.n_u, problem.dims.n_y
        nz = n_u + n_y
        self.dim = nz + n_u

        nbr = np.arange(n)[:, None] + np.arange(-1, 2)
        u_cols = np.where(((nbr >= 0) & (nbr < n))[:, :, None], nbr[:, :, None] * n_p + np.arange(n_p), -1)
        nodes = problem.elem_x
        interior = (nodes > 0) & (nodes < problem.dims.n_x - 1)
        y_cols = np.where(interior, n_u + nodes - 1, -1)
        r_col = np.full((n, 1), nz)
        live = np.hstack([*_live_blocks(problem, n_t - 1), np.ones((n_t, q + 2), dtype=bool)])
        I, J, *r_terms = _row_sum_terms(np.hstack([u_cols.reshape(n, -1), y_cols, r_col]), live, nz)
        I_m, J_m, *m_terms = _row_sum_terms(np.hstack([y_cols, r_col]), np.ones((1, q + 2), dtype=bool), nz)
        self.r_terms, self.m_terms = (*r_terms, len(I)), (*m_terms, len(I_m))
        # The mesh pairs are the R pairs with I in y, in the same order.
        self.mesh_pairs = np.searchsorted(I * (nz + 1) + J, I_m * (nz + 1) + J_m)
        self.yy = yy = J_m < nz
        self.byy_pairs = self.mesh_pairs[yy]
        self.D_yy = np.asarray(problem.D[I_m[yy] - n_u + 1, J_m[yy] - n_u + 1]).ravel()
        self.gu_pairs = np.flatnonzero((J == nz) & (I < n_u))

        # K's entries: each (u, y) pair and its mirror, then the live Ju,
        # Ju^T, Jy and Jy^T entries of the p residual's element blocks.
        n_r = len(I)
        sym = np.flatnonzero(J < nz)
        mirror = sym[I[sym] != J[sym]]
        b, k, i, a = np.indices((n, 3, n_p, n_p)).reshape(4, -1)
        ju = np.flatnonzero((b - 1 + k >= 0) & (b - 1 + k < n) & np.stack(_live_blocks(problem, problem.p))[k, i, a])
        lam_ju, u_ju = nz + b[ju] * n_p + i[ju], (b[ju] - 1 + k[ju]) * n_p + a[ju]
        b, i, l = np.indices((n, n_p, q + 1)).reshape(3, -1)
        jy = np.flatnonzero(interior[b, l])
        lam_jy, y_jy = nz + b[jy] * n_p + i[jy], n_u + q * b[jy] + l[jy] - 1
        n_ju = n * 3 * n_p * n_p
        rows = np.concatenate([I[sym], J[mirror], lam_ju, u_ju, lam_jy, y_jy])
        cols = np.concatenate([J[sym], I[mirror], u_ju, lam_ju, y_jy, lam_jy])
        src = np.concatenate([sym, mirror, n_r + ju, n_r + ju, n_r + n_ju + jy, n_r + n_ju + jy])

        # Element order: element e's u, its lambda, then its interior mesh
        # nodes q e + 1 ... q e + q. pi[i] is unknown i's place in it.
        elem = np.hstack([problem.elem_u, nz + problem.elem_u, y_cols[:, 1:]])
        self.order = elem[elem >= 0]
        self.pi = np.empty(self.dim, dtype=np.intp)
        self.pi[self.order] = np.arange(self.dim)

        offset = self.pi[rows] - self.pi[cols]
        self.kl, self.ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
        self.band_rows = 2 * self.kl + self.ku + 1
        pos = self.pi[cols] * self.band_rows + self.kl + self.ku + offset
        by_pos = np.argsort(pos)
        self.pos, self.src = pos[by_pos], src[by_pos]

    def solve(self, band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The solution of K x = rhs, for a step matrix K in this pattern's
        band storage, by one LAPACK band LU (dgbtrf, then dgbtrs) that
        overwrites band.

        Raises SingularSystem where a pivot, U's diagonal in row kl + ku of
        the factored array, is zero or below PIVOT_THRESHOLD times max |K|,
        max |band| before factoring: the relative test of checked_splu.
        """
        kl, ku = self.kl, self.ku
        scale = np.abs(band).max(initial=0.0)
        lu, piv, info = dgbtrf(band, kl, ku, overwrite_ab=True)
        if info > 0 or np.any(np.abs(lu[kl + ku]) < PIVOT_THRESHOLD * scale):
            raise SingularSystem(f"KKT matrix of dimension {self.dim}: {_SMALL_PIVOT.format(scale)}")
        return dgbtrs(lu, kl, ku, rhs[self.order], piv, overwrite_b=True)[0][self.pi]


@dataclass(frozen=True)
class StepSystem:
    """The SQP step system at one state, K in its pattern's band storage
    (_StepPattern), which sqp_step's solve overwrites with K's LU factors,
    and the residuals the line search reads."""

    band: np.ndarray
    g: np.ndarray
    r: np.ndarray
    R: np.ndarray
    rmsh: np.ndarray


def assemble_step(problem: ShockTrackProblem1d, state: DgState) -> StepSystem:
    """build_kkt(problem, state)'s K in band storage, g and r, bit for bit
    but for the sign of a zero of K, from the element blocks of both
    residuals and of the mesh distortion.

    Every product entry is summed as scipy sums it, over its live terms
    (_row_sums), Byy is (dRdx terms + kappa^2 dRmshdx terms) + gamma D, and
    each live entry of K is written once into a zeroed band array.
    """
    pat, n = problem.step_pattern, problem.n_elem
    r, R, (diag, sub, sup, dx), (diag_t, sub_t, sup_t, dx_t), rmsh, drmsh = _linearize(problem, state)

    sums = _row_sums(np.concatenate([sub_t, diag_t, sup_t, dx_t, R.reshape(n, -1, 1)], axis=2), *pat.r_terms)
    mesh = _row_sums(np.concatenate([drmsh, rmsh[:, None]], axis=1)[:, None, :], *pat.m_terms)
    mesh = sums[pat.mesh_pairs] + state.kappa**2 * mesh
    sums[pat.byy_pairs] = mesh[pat.yy] + state.gamma * pat.D_yy
    g = np.concatenate([sums[pat.gu_pairs], 0.0 + mesh[~pat.yy]])

    band = np.zeros(pat.band_rows * pat.dim)
    band[pat.pos] = np.concatenate([sums, np.stack([sub, diag, sup], axis=1).ravel(), dx.ravel()]).take(pat.src)
    return StepSystem(band.reshape(pat.dim, pat.band_rows).T, g, r, R, rmsh)


def sqp_step(problem: ShockTrackProblem1d, state: DgState) -> tuple[np.ndarray, np.ndarray, StepSystem]:
    """(dz, eta) from one band LU solve (_StepPattern.solve) of the step
    system (assemble_step), and that system, its band now K's LU factors,
    whose g and residuals start the line search; SingularSystem if K is
    singular, SizeCapExceeded before any assembly if it exceeds STEP_CAP."""
    nz = problem.dims.n_u + problem.dims.n_y
    dim = nz + problem.dims.n_u
    if dim > STEP_CAP:
        raise SizeCapExceeded(f"SQP step system of dimension {dim} exceeds cap {STEP_CAP}")
    sys = assemble_step(problem, state)
    sol = problem.step_pattern.solve(sys.band, -np.concatenate([sys.g, sys.r]))
    return sol[:nz], sol[nz:], sys


def _merit_components(problem: ShockTrackProblem1d, u, y, kappa: float):
    """Objective value and constraint residual without any Jacobian work."""
    gx, (R, r) = _residuals(problem, u, phi_map(problem, y), (problem.dims.test_degree, problem.p))
    rmsh, _ = _distortion(problem, gx)
    return _objective(R, rmsh, kappa), r


def run_sqp(
    problem: ShockTrackProblem1d,
    cfg: SqpConfig = SqpConfig(),
    initial: DgState | None = None,
) -> list[DgState]:
    """SQP iteration with an l1 merit line search; returns every state
    visited. Every returned state carries cfg's kappa and gamma: those of
    initial are replaced, so the first step uses the merit's own weights."""
    if initial is None:
        state = initial_state(problem, cfg.kappa, cfg.gamma)
    else:
        state = replace(initial, kappa=cfg.kappa, gamma=cfg.gamma)
    states = [state]
    mu = None
    n_u = problem.dims.n_u

    for _ in range(cfg.max_iters):
        dz, eta, step = sqp_step(problem, state)
        if np.linalg.norm(dz, np.inf) <= STEP_TOL:
            states[-1] = replace(state, lam=-eta)
            break
        if mu is None:
            mu = 10.0 * max(np.linalg.norm(eta, np.inf), 1e-12)

        f0, r0 = _objective(step.R, step.rmsh, cfg.kappa), step.r
        merit0 = f0 + mu * np.abs(r0).sum()
        descent = step.g @ dz - mu * np.abs(r0).sum()

        du = dz[:n_u]
        dy = dz[n_u:]
        alpha = 1.0
        while True:
            if alpha < MIN_STEP:
                raise LineSearchFailure(
                    f"iteration {state.k + 1}: no acceptable step above {MIN_STEP:g}"
                )
            try:
                f_t, r_t = _merit_components(
                    problem, state.u + alpha * du, state.y + alpha * dy, cfg.kappa
                )
            except InvertedElement:
                alpha *= BACKTRACK
                continue
            if f_t + mu * np.abs(r_t).sum() <= merit0 + ARMIJO * alpha * descent:
                break
            alpha *= BACKTRACK

        state = DgState(
            u=state.u + alpha * du,
            y=state.y + alpha * dy,
            lam=-eta,
            k=state.k + 1,
            alpha=alpha,
            kappa=cfg.kappa,
            gamma=cfg.gamma,
        )
        states.append(state)
    return states


@dataclass(frozen=True)
class GenerateConfig:
    """Problem generator settings read from a key-value config file. Its sqp
    checks kappa, gamma and max_iters, and kkt.check_case its case name;
    states must name at least one of the states 0..max_iters a run
    produces, else ValueError."""

    n_elem: int = 8
    p: int = 1
    q: int = 1
    gamma: float = SqpConfig.gamma
    kappa: float = SqpConfig.kappa
    source: bool = True
    bc_left: float = 0.4
    bc_right: float = -0.6
    states: tuple[int, ...] = (1,)
    max_iters: int = SqpConfig.max_iters
    case: str | None = None

    def __post_init__(self):
        check_case(self.case_name)
        n = self.sqp.max_iters
        if not self.states:
            raise ValueError("invalid states: name at least one state to export")
        for k in self.states:
            if not 0 <= k <= n:
                raise ValueError(f"state {k} not available: a run of at most {n} iterations produces states 0..{n}")

    @property
    def sqp(self) -> SqpConfig:
        return SqpConfig(max_iters=self.max_iters, kappa=self.kappa, gamma=self.gamma)

    @property
    def case_name(self) -> str:
        if self.case is not None:
            return self.case
        return f"burgers1d-n{self.n_elem}-p{self.p}-q{self.q}"


_TRUE_WORDS = {"1", "true", "on", "yes"}
_FALSE_WORDS = {"0", "false", "off", "no"}


def _parse_bool(word) -> bool:
    """A config word, or a JSON boolean or 0/1, as a bool."""
    lw = str(word).lower()
    if lw in _TRUE_WORDS:
        return True
    if lw in _FALSE_WORDS:
        return False
    raise ValueError(f"cannot parse boolean {word!r}")


# The cast of each GenerateConfig field, shared by the config file reader and
# the sweep's fixed parameters.
CONFIG_CASTS = {
    "n_elem": int,
    "p": int,
    "q": int,
    "gamma": float,
    "kappa": float,
    "source": _parse_bool,
    "bc_left": float,
    "bc_right": float,
    "states": lambda text: tuple(int(tok) for tok in str(text).replace(",", " ").split()),
    "max_iters": int,
    "case": str,
}


def load_problem_config(path) -> GenerateConfig:
    """Parse the key = value problem config file (hash comments allowed); a
    repeated key, an unknown key, or a value that its cast rejects, is named
    with its file and line."""
    raw: dict[str, tuple[int, str]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            sep = "=" if "=" in text else (":" if ":" in text else None)
            if sep is None:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = text.partition(sep)
            key = key.strip().lower()
            if key in raw:
                raise ValueError(f"{path}:{lineno}: repeated config key {key!r}")
            raw[key] = lineno, val.strip()

    kwargs = {}
    for key, (lineno, val) in raw.items():
        if key not in CONFIG_CASTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            kwargs[key] = CONFIG_CASTS[key](val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: invalid {key}: {exc}") from exc
    return GenerateConfig(**kwargs)


def make_problem(cfg: GenerateConfig) -> ShockTrackProblem1d:
    return ShockTrackProblem1d(
        n_elem=cfg.n_elem,
        p=cfg.p,
        q=cfg.q,
        source_on=cfg.source,
        bc_left=cfg.bc_left,
        bc_right=cfg.bc_right,
    )
