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
weight g = dG/dX and the node positions themselves. The enriched residual
(test degree p+1) drives the tracking objective

    f = 1/2 ||R||^2 + kappa^2/2 ||R_msh||^2,

and the SQP driver solves the saddle-point step system by one sparse direct
(SuperLU) factorization, recording every linearization state for the
benchmark harness. Each step sums its matrix K and gradient g from the
element blocks into a pattern built once per problem (assemble_step), bit
for bit the K and g of build_kkt, which systems for export still use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from .blocklinalg import checked_splu
from .errors import InvertedElement, LineSearchFailure, SingularSystem, SizeCapExceeded
from .kkt import KktFactors, KktSystem, SystemDims, assemble_Byy

__all__ = [
    "SHOCK_POSITION",
    "ShockTrackProblem1d",
    "DgState",
    "SqpConfig",
    "GenerateConfig",
    "exact_solution",
    "phi_map",
    "dg_residual",
    "dg_jacobians",
    "mesh_distortion",
    "objective_and_gradient",
    "build_kkt",
    "tracked_state",
    "initial_state",
    "STEP_CAP",
    "StepSystem",
    "assemble_step",
    "SqpStep",
    "sqp_step",
    "run_sqp",
    "load_problem_config",
    "CONFIG_CASTS",
    "make_problem",
]

SHOCK_POSITION = 0.6
SMOOTH_WIDTH = 0.05

# Largest step dimension 2 N_u + N_y that sqp_step solves. It guards no
# memory (the step is a sparse solve); it only keeps the benchmark's generate
# outcomes, two n_elem=1024 failures among them, until its counts are normalized.
STEP_CAP = 5000

# SQP line search factor, smallest step and Armijo constant; stop at |dz| <= STEP_TOL.
BACKTRACK = 0.5
MIN_STEP = 2.0**-20
ARMIJO = 1e-4
STEP_TOL = 1e-8


def exact_solution(x):
    """Tracked profile u* = x + 0.4 left of the shock, x - 1.6 right of it.

    Both branches satisfy (u^2/2)' = u; the shock at 0.6 is stationary because
    f(1) = f(-1) = 1/2 (Rankine-Hugoniot) and entropy-admissible since the
    left state exceeds the right. At exactly 0.6 the left value is returned.
    """
    x = np.asarray(x, dtype=float)
    return np.where(x <= SHOCK_POSITION, x + 0.4, x - 1.6)


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
    """Problem description plus precomputed quadrature and basis tables."""

    def __init__(
        self,
        n_elem: int = 8,
        p: int = 1,
        q: int = 1,
        source_on: bool = True,
        bc_left: float = 0.4,
        bc_right: float = -0.6,
    ):
        if n_elem < 1:
            raise ValueError("n_elem must be at least 1")
        if p < 0:
            raise ValueError("p must be nonnegative")
        if q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        self.n_elem = n_elem
        self.p = p
        self.q = q
        self.source_on = source_on
        self.bc_left = bc_left
        self.bc_right = bc_right

        # Gauss rule exact through polynomial degree 2p + q + 2.
        self.n_quad = (2 * p + q + 3 + 1) // 2
        t, w = np.polynomial.legendre.leggauss(self.n_quad)
        self.quad_pts = 0.5 * (t + 1.0)
        self.quad_wts = 0.5 * w

        self._basis: dict[int, _Basis] = {}
        for deg in {p, p + 1, q}:
            V, D = _lagrange_tables(deg, self.quad_pts)
            e0, _ = _lagrange_tables(deg, np.array([0.0]))
            e1, _ = _lagrange_tables(deg, np.array([1.0]))
            self._basis[deg] = _Basis(V, D, e0[0], e1[0])

        self.reference_nodes = np.linspace(0.0, 1.0, q * n_elem + 1)
        self.h0 = 1.0 / n_elem
        self.elem_u = np.arange(n_elem * (p + 1)).reshape(n_elem, p + 1)
        self.elem_x = (q * np.arange(n_elem))[:, None] + np.arange(q + 1)[None, :]

        # Mesh basis evaluated at the solution node master coordinates, used to
        # interpolate functions of position at the DG nodes.
        sol_nodes = np.linspace(0.0, 1.0, p + 1) if p > 0 else np.array([0.5])
        self._mesh_at_sol, _ = _lagrange_tables(q, sol_nodes)

        pb = self._basis[p]
        self._mass_p = pb.V.T @ (self.quad_wts[:, None] * pb.V)

        # dphi/dy and the elasticity stiffness, the factors dPhidy and D of
        # every KKT system of this problem.
        self.dPhidy = _selection_matrix(self.n_x)
        self.D = _assemble_elasticity(self)

    @property
    def n_u(self) -> int:
        return self.n_elem * (self.p + 1)

    @property
    def n_u_enriched(self) -> int:
        return self.n_elem * (self.p + 2)

    @property
    def n_x(self) -> int:
        return self.q * self.n_elem + 1

    @property
    def n_y(self) -> int:
        return self.n_x - 2

    @property
    def dims(self) -> SystemDims:
        return SystemDims(self.n_elem, self.p, self.q)

    def basis(self, degree: int) -> _Basis:
        return self._basis[degree]

    @cached_property
    def step_pattern(self) -> _StepPattern:
        """The pattern and term tables of every SQP step system, built on the
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


def _selection_matrix(n_x: int) -> scipy.sparse.csr_matrix:
    """dphi/dy: inserts the pinned endpoints, passes interior nodes through."""
    return scipy.sparse.eye(n_x, n_x - 2, k=-1, format="csr")


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
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(problem.n_x, problem.n_x)).tocsr()


def phi_map(problem: ShockTrackProblem1d, y: np.ndarray) -> np.ndarray:
    """Full mesh coefficients with the domain endpoints pinned at 0 and 1."""
    y = np.asarray(y, dtype=float)
    return np.concatenate([[0.0], y, [1.0]])


def _element_geometry(problem: ShockTrackProblem1d, x: np.ndarray):
    """Mapping derivative dG/dxi at the quadrature points, per element."""
    xe = x[problem.elem_x]
    gx = xe @ problem.basis(problem.q).D.T
    if np.any(gx <= 0.0):
        bad = int(np.argwhere(np.any(gx <= 0.0, axis=1))[0][0])
        raise InvertedElement(f"element {bad}: nonpositive mapping Jacobian")
    return xe, gx


def _face_states(problem: ShockTrackProblem1d, ue: np.ndarray):
    """Left/right states at the n_elem+1 faces, boundary states from the BCs."""
    pb = problem.basis(problem.p)
    tr_left = ue @ pb.t0
    tr_right = ue @ pb.t1
    left = np.concatenate([[problem.bc_left], tr_right])
    right = np.concatenate([tr_left, [problem.bc_right]])
    return left, right


def dg_residual(problem: ShockTrackProblem1d, u, x, test_degree: int) -> np.ndarray:
    """Weighted DG residual tested against degree test_degree functions."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    xe, gx = _element_geometry(problem, x)
    pb = problem.basis(problem.p)
    tb = problem.basis(test_degree)
    w = problem.quad_wts

    ue = u[problem.elem_u]
    U = ue @ pb.V.T
    left, right = _face_states(problem, ue)
    H = problem.riemann(left, right)

    face = np.outer(H[1:], tb.t1) - np.outer(H[:-1], tb.t0)
    vol = (w * problem.flux_value(U)) @ tb.D
    src = (w * gx * problem.source_value(U)) @ tb.V
    return (face - vol - src).ravel()


def _tridiag_bsr(n: int, row_size: int, col_size: int, diag, sub, sup) -> scipy.sparse.bsr_matrix:
    """Assemble a block tridiagonal BSR matrix from per-element block stacks;
    the sub block of the first row and the super block of the last are
    dropped."""
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
    return scipy.sparse.csr_matrix((vals.ravel(), cols, row_ptr), shape=(n * rows_per_elem, problem.n_x))


def _jacobian_for_degree(problem: ShockTrackProblem1d, ue, gx, test_degree: int):
    """Per-element Jacobian blocks of the residual tested at one degree."""
    pb = problem.basis(problem.p)
    tb = problem.basis(test_degree)
    w = problem.quad_wts
    n = problem.n_elem

    U = ue @ pb.V.T
    left, right = _face_states(problem, ue)
    dHa, dHb = problem.riemann_derivs(left, right)

    diag = -np.einsum("gi,eg,gj->eij", tb.D, w * problem.flux_deriv(U), pb.V)
    diag -= np.einsum("gi,eg,gj->eij", tb.V, (w * problem.source_deriv(U)) * gx, pb.V)
    diag += dHa[1:, None, None] * np.einsum("i,j->ij", tb.t1, pb.t1)[None, :, :]
    diag -= dHb[:-1, None, None] * np.einsum("i,j->ij", tb.t0, pb.t0)[None, :, :]

    sub = np.zeros((n, len(tb.t0), problem.p + 1))
    sup = np.zeros_like(sub)
    sub[1:] = -dHa[1:-1, None, None] * np.einsum("i,j->ij", tb.t0, pb.t1)[None, :, :]
    sup[:-1] = dHb[1:-1, None, None] * np.einsum("i,j->ij", tb.t1, pb.t0)[None, :, :]

    qb = problem.basis(problem.q)
    dx = -np.einsum("gi,eg,gj->eij", tb.V, w * problem.source_value(U), qb.D)
    return diag, sub, sup, dx


def dg_jacobians(problem: ShockTrackProblem1d, u, x):
    """Analytic derivatives (Ju, dRdu, dRdx, drdx) of both residual test spaces."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    xe, gx = _element_geometry(problem, x)
    ue = u[problem.elem_u]
    n = problem.n_elem
    n_p = problem.p + 1
    n_t = problem.p + 2

    diag, sub, sup, dx = _jacobian_for_degree(problem, ue, gx, problem.p)
    Ju = _tridiag_bsr(n, n_p, n_p, diag, sub, sup)
    drdx = _mesh_column_csr(problem, dx)

    diag, sub, sup, dx = _jacobian_for_degree(problem, ue, gx, problem.p + 1)
    dRdu = _tridiag_bsr(n, n_t, n_p, diag, sub, sup)
    dRdx = _mesh_column_csr(problem, dx)
    return Ju, dRdu, dRdx, drdx


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


def mesh_distortion(problem: ShockTrackProblem1d, x):
    """Per-element distortion h/h0 + h0/h - 2 and its mesh Jacobian."""
    _, gx = _element_geometry(problem, np.asarray(x, dtype=float))
    rmsh, h = _distortion(problem, gx)
    return rmsh, _mesh_column_csr(problem, _distortion_derivs(problem, gx, h)[:, None, :])


def _gradient(problem: ShockTrackProblem1d, R, rmsh, dRdu, dRdx, dRmshdx, kappa: float) -> np.ndarray:
    """Gradient of f = 1/2 ||R||^2 + kappa^2/2 ||R_msh||^2 with respect to (u, y)."""
    gu = dRdu.T @ R
    gx_full = dRdx.T @ R + kappa**2 * (dRmshdx.T @ rmsh)
    return np.concatenate([gu, problem.dPhidy.T @ gx_full])


def _objective(R: np.ndarray, rmsh: np.ndarray, kappa: float) -> float:
    """f = 1/2 ||R||^2 + kappa^2/2 ||R_msh||^2."""
    return 0.5 * (R @ R) + kappa**2 * 0.5 * (rmsh @ rmsh)


def objective_and_gradient(problem: ShockTrackProblem1d, u, y, kappa: float):
    """Tracking objective and its gradient with respect to (u, y)."""
    x = phi_map(problem, y)
    R = dg_residual(problem, u, x, problem.p + 1)
    rmsh, dRmshdx = mesh_distortion(problem, x)
    _, dRdu, dRdx, _ = dg_jacobians(problem, u, x)
    return _objective(R, rmsh, kappa), _gradient(problem, R, rmsh, dRdu, dRdx, dRmshdx, kappa)


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
    max_iters: int = 100
    kappa: float = 1e-7
    gamma: float = 1e-2


def build_kkt(
    problem: ShockTrackProblem1d,
    state: DgState,
    kappa: float | None = None,
    gamma: float | None = None,
    case: str = "case",
) -> KktSystem:
    """Assemble the saddle-point system at one state, optionally overriding the
    weights kappa and gamma (used by the parameter sweeps)."""
    kappa = state.kappa if kappa is None else kappa
    gamma = state.gamma if gamma is None else gamma
    x = phi_map(problem, state.y)
    r = dg_residual(problem, state.u, x, problem.p)
    R = dg_residual(problem, state.u, x, problem.p + 1)
    Ju, dRdu, dRdx, drdx = dg_jacobians(problem, state.u, x)
    rmsh, dRmshdx = mesh_distortion(problem, x)

    g = _gradient(problem, R, rmsh, dRdu, dRdx, dRmshdx, kappa)

    factors = KktFactors(
        Ju=Ju,
        dRdu=dRdu,
        dRdx=dRdx,
        drdx=drdx,
        dRmshdx=dRmshdx,
        dPhidy=problem.dPhidy,
        D=problem.D,
        kappa=kappa,
        gamma=gamma,
    )
    return KktSystem(
        factors,
        g,
        r,
        assemble_Byy(factors),
        dims=problem.dims,
        state_index=state.k,
        case=case,
    )


def tracked_state(problem: ShockTrackProblem1d, kappa: float = 1e-7, gamma: float = 1e-2) -> DgState:
    """Exact tracked optimum: the nearest interior vertex moved to the shock.

    Interior mesh nodes (q=2) sit at element midpoints so the mapping stays
    affine and the piecewise-linear exact profile is representable for p >= 1.
    """
    n = problem.n_elem
    x = problem.reference_nodes.copy()
    vertices = problem.q * np.arange(n + 1)
    interior = vertices[1:-1]
    if interior.size == 0:
        raise ValueError("tracked state needs at least 2 elements")
    j = int(interior[np.argmin(np.abs(x[interior] - SHOCK_POSITION))])
    x[j] = SHOCK_POSITION
    if problem.q == 2:
        x[1::2] = 0.5 * (x[:-1:2] + x[2::2])

    xe = x[problem.elem_x]
    sol_pos = xe @ problem._mesh_at_sol.T
    mid = 0.5 * (xe[:, 0] + xe[:, -1])
    u_elem = np.where(
        (mid < SHOCK_POSITION)[:, None], sol_pos + 0.4, sol_pos - 1.6
    )
    return DgState(
        u=u_elem.ravel(),
        y=x[1:-1].copy(),
        lam=np.zeros(problem.n_u),
        k=0,
        alpha=0.0,
        kappa=kappa,
        gamma=gamma,
    )


def initial_state(problem: ShockTrackProblem1d, kappa: float = 1e-7, gamma: float = 1e-2) -> DgState:
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
        lam=np.zeros(problem.n_u),
        k=0,
        alpha=0.0,
        kappa=kappa,
        gamma=gamma,
    )


def _row_sum_terms(cols: np.ndarray, n_rows: int, nz: int):
    """Pairs (I, J) and the term positions of the sums S_IJ = sum_r A[r, I] A[r, J].

    A's rows come in groups of n_rows, one per element; cols[e, c] is the
    global column of local column c in group e, or -1 for none. The pairs
    are every I <= J < nz, and every (I, nz), that share a group, sorted by
    (I, J). terms[t, k] is the position of term t of pair k in the flat
    outer-product array of _row_sums: shared groups in ascending order, then
    the rows of each, so ascending global row r; a pair with fewer shared
    groups is padded by the zero group that _row_sums appends.
    """
    n_groups, width = cols.shape
    ok = (cols[:, :, None] >= 0) & (cols[:, :, None] <= cols[:, None, :]) & (cols[:, :, None] < nz)
    g, c1, c2 = np.nonzero(ok)
    I, J = cols[g, c1], cols[g, c2]
    order = np.lexsort((g, J, I))
    I, J, g, c1, c2 = I[order], J[order], g[order], c1[order], c2[order]
    new = np.ones(len(I), dtype=bool)
    new[1:] = (I[1:] != I[:-1]) | (J[1:] != J[:-1])
    first = np.flatnonzero(new)
    pair = np.cumsum(new) - 1
    slot = np.arange(len(I)) - first[pair]
    n_slots = int(slot.max(initial=-1)) + 1
    base = np.full((n_slots, len(first)), n_groups * n_rows * width * width)
    base[slot, pair] = (g * n_rows * width + c1) * width + c2
    terms = base[:, None, :] + (np.arange(n_rows) * width * width)[:, None]
    return I[first], J[first], terms.reshape(n_slots * n_rows, len(first))


def _row_sums(A: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Each sum of products that a column of terms (_row_sum_terms) names,
    over A of shape (groups, rows, width): one multiply and one add per
    term, from 0.0 in term order, as scipy's sparse products sum them."""
    A = np.concatenate([A, np.zeros((1,) + A.shape[1:])])
    outer = (A[:, :, :, None] * A[:, :, None, :]).ravel()
    acc = np.zeros(terms.shape[1])
    for t in outer.take(terms):
        acc += t
    return acc


class _StepPattern:
    """What every step system of one problem shares: the term tables of its
    products and K's candidate entries, sorted by (row, column).

    Unknowns are numbered as in K: u, then the interior mesh nodes y, then
    lambda from nz = N_u + N_y. A row of the enriched residual R in element
    e holds the unknowns of elements e-1, e and e+1, the element's interior
    mesh nodes and, as column nz, R itself; a row of the mesh distortion
    holds the mesh nodes and rmsh. So one table gives B_uu, B_uy, the
    dRdx^T dRdx part of Byy and the gradient sums, and the other the
    dRmshdx^T dRmshdx part of Byy and of the gradient.
    """

    def __init__(self, problem: ShockTrackProblem1d):
        n, n_p, q = problem.n_elem, problem.p + 1, problem.q
        n_u, n_y = problem.n_u, problem.n_y
        nz = n_u + n_y
        self.dim = nz + n_u

        nbr = np.arange(n)[:, None] + np.arange(-1, 2)
        u_cols = np.where(((nbr >= 0) & (nbr < n))[:, :, None], nbr[:, :, None] * n_p + np.arange(n_p), -1)
        nodes = problem.elem_x
        interior = (nodes > 0) & (nodes < problem.n_x - 1)
        y_cols = np.where(interior, n_u + nodes - 1, -1)
        r_col = np.full((n, 1), nz)
        I, J, self.r_terms = _row_sum_terms(np.hstack([u_cols.reshape(n, -1), y_cols, r_col]), n_p + 1, nz)
        I_m, J_m, self.m_terms = _row_sum_terms(np.hstack([y_cols, r_col]), 1, nz)
        # The mesh pairs are the R pairs with I in y, in the same order.
        self.mesh_pairs = np.searchsorted(I * (nz + 1) + J, I_m * (nz + 1) + J_m)
        self.yy = yy = J_m < nz
        self.byy_pairs = self.mesh_pairs[yy]
        self.D_yy = np.asarray(problem.D[I_m[yy] - n_u + 1, J_m[yy] - n_u + 1]).ravel()
        self.gu_pairs = np.flatnonzero((J == nz) & (I < n_u))

        # Candidate entries: each (u, y) pair and its mirror, then Ju, Ju^T,
        # Jy and Jy^T from the element blocks of the p residual.
        n_r = len(I)
        sym = np.flatnonzero(J < nz)
        mirror = sym[I[sym] != J[sym]]
        b, k, i, a = np.indices((n, 3, n_p, n_p)).reshape(4, -1)
        ju = np.flatnonzero((b - 1 + k >= 0) & (b - 1 + k < n))
        lam_ju, u_ju = nz + b[ju] * n_p + i[ju], (b[ju] - 1 + k[ju]) * n_p + a[ju]
        b, i, l = np.indices((n, n_p, q + 1)).reshape(3, -1)
        jy = np.flatnonzero(interior[b, l])
        lam_jy, y_jy = nz + b[jy] * n_p + i[jy], n_u + q * b[jy] + l[jy] - 1
        n_ju = n * 3 * n_p * n_p
        rows = np.concatenate([I[sym], J[mirror], lam_ju, u_ju, lam_jy, y_jy])
        cols = np.concatenate([J[sym], I[mirror], u_ju, lam_ju, y_jy, lam_jy])
        src = np.concatenate([sym, mirror, n_r + ju, n_r + ju, n_r + n_ju + jy, n_r + n_ju + jy])
        always = np.repeat([False, True, False], [len(sym) + len(mirror), 2 * len(ju), 2 * len(jy)])
        order = np.argsort(rows * self.dim + cols)
        self.cols = cols[order].astype(np.int32)
        self.src = src[order]
        self.always = always[order]
        self.indptr = np.searchsorted(rows[order], np.arange(self.dim + 1))


@dataclass(frozen=True)
class StepSystem:
    """The SQP step system at one state, K as CSC arrays (K is exactly
    symmetric, so they are also its CSR arrays), and the residuals the line
    search reads."""

    K: scipy.sparse.csc_matrix
    g: np.ndarray
    r: np.ndarray
    R: np.ndarray
    rmsh: np.ndarray


def assemble_step(problem: ShockTrackProblem1d, state: DgState) -> StepSystem:
    """build_kkt(problem, state)'s K, g and r, bit for bit, from the element
    blocks of both residuals and of the mesh distortion.

    Every product entry is summed as scipy sums it (_row_sums), Byy is
    (dRdx terms + kappa^2 dRmshdx terms) + gamma D, exact zeros are
    dropped from every product and sum block, and Ju and Ju^T keep their
    stored zeros.
    """
    pat = problem.step_pattern
    n, n_t = problem.n_elem, problem.p + 2
    x = phi_map(problem, state.y)
    r = dg_residual(problem, state.u, x, problem.p)
    R = dg_residual(problem, state.u, x, problem.p + 1)
    _, gx = _element_geometry(problem, x)
    ue = state.u[problem.elem_u]
    diag, sub, sup, dx = _jacobian_for_degree(problem, ue, gx, problem.p)
    diag_t, sub_t, sup_t, dx_t = _jacobian_for_degree(problem, ue, gx, problem.p + 1)
    rmsh, h = _distortion(problem, gx)
    drmsh = _distortion_derivs(problem, gx, h)

    sums = _row_sums(np.concatenate([sub_t, diag_t, sup_t, dx_t, R.reshape(n, n_t, 1)], axis=2), pat.r_terms)
    mesh = _row_sums(np.concatenate([drmsh, rmsh[:, None]], axis=1)[:, None, :], pat.m_terms)
    mesh = sums[pat.mesh_pairs] + state.kappa**2 * mesh
    sums[pat.byy_pairs] = mesh[pat.yy] + state.gamma * pat.D_yy
    g = np.concatenate([sums[pat.gu_pairs], 0.0 + mesh[~pat.yy]])

    vals = np.concatenate([sums, np.stack([sub, diag, sup], axis=1).ravel(), dx.ravel()])[pat.src]
    kept = np.flatnonzero(pat.always | (vals != 0.0))
    indptr = np.searchsorted(kept, pat.indptr).astype(np.int32)
    K = scipy.sparse.csc_matrix((vals[kept], pat.cols[kept], indptr), shape=(pat.dim, pat.dim))
    return StepSystem(K, g, r, R, rmsh)


class SqpStep(NamedTuple):
    """One SQP step (dz, eta) and the state's gradient g and residuals R,
    rmsh and r, from which run_sqp takes the line search's start."""

    dz: np.ndarray
    eta: np.ndarray
    g: np.ndarray
    R: np.ndarray
    rmsh: np.ndarray
    r: np.ndarray


def sqp_step(problem: ShockTrackProblem1d, state: DgState) -> SqpStep:
    """(dz, eta) from one SuperLU solve of the step system (assemble_step),
    with its gradient and residuals; SingularSystem if K is singular,
    SizeCapExceeded before any assembly if it exceeds STEP_CAP."""
    dim = 2 * problem.n_u + problem.n_y
    if dim > STEP_CAP:
        raise SizeCapExceeded(f"SQP step system of dimension {dim} exceeds cap {STEP_CAP}")
    sys = assemble_step(problem, state)
    lu = checked_splu(sys.K, SingularSystem, f"KKT matrix of dimension {dim}")
    sol = lu.solve(-np.concatenate([sys.g, sys.r]))
    nz = problem.n_u + problem.n_y
    return SqpStep(sol[:nz], sol[nz:], sys.g, sys.R, sys.rmsh, sys.r)


def _merit_components(problem: ShockTrackProblem1d, u, y, kappa: float):
    """Objective value and constraint residual without any Jacobian work."""
    x = phi_map(problem, y)
    R = dg_residual(problem, u, x, problem.p + 1)
    _, gx = _element_geometry(problem, x)
    rmsh, _ = _distortion(problem, gx)
    r = dg_residual(problem, u, x, problem.p)
    return _objective(R, rmsh, kappa), r


def run_sqp(
    problem: ShockTrackProblem1d,
    cfg: SqpConfig = SqpConfig(),
    initial: DgState | None = None,
) -> list[DgState]:
    """SQP iteration with an l1 merit line search; returns every state visited."""
    state = initial_state(problem, cfg.kappa, cfg.gamma) if initial is None else initial
    states = [state]
    mu = None
    n_u = problem.n_u

    for _ in range(cfg.max_iters):
        # g0 is the merit objective's gradient while state.kappa is cfg.kappa.
        step = sqp_step(problem, state)
        dz, eta, g0 = step.dz, step.eta, step.g
        if np.linalg.norm(dz, np.inf) <= STEP_TOL:
            states[-1] = replace(state, lam=-eta)
            break
        if mu is None:
            mu = 10.0 * max(np.linalg.norm(eta, np.inf), 1e-12)

        f0, r0 = _objective(step.R, step.rmsh, cfg.kappa), step.r
        merit0 = f0 + mu * np.abs(r0).sum()
        descent = g0 @ dz - mu * np.abs(r0).sum()

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
    """Problem generator settings read from a key-value config file."""

    n_elem: int = 8
    p: int = 1
    q: int = 1
    gamma: float = 1e-2
    kappa: float = 1e-7
    source: bool = True
    bc_left: float = 0.4
    bc_right: float = -0.6
    states: tuple[int, ...] = (1,)
    max_iters: int = 100
    case: str | None = None

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
    """Parse the key = value problem config file (hash comments allowed)."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            sep = "=" if "=" in text else (":" if ":" in text else None)
            if sep is None:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = text.partition(sep)
            raw[key.strip().lower()] = val.strip()

    kwargs = {}
    for key, val in raw.items():
        if key not in CONFIG_CASTS:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = CONFIG_CASTS[key](val)
    return replace(GenerateConfig(), **kwargs)


def make_problem(cfg: GenerateConfig) -> ShockTrackProblem1d:
    return ShockTrackProblem1d(
        n_elem=cfg.n_elem,
        p=cfg.p,
        q=cfg.q,
        source_on=cfg.source,
        bc_left=cfg.bc_left,
        bc_right=cfg.bc_right,
    )
