"""Saddle-point system data model and matrix-free operator algebra.

The SQP step solves

    [ B    J^T ] [ dz  ]   [ g ]
    [ J    0   ] [ eta ] = -[ r ]

with unknown ordering (u, y, lambda). B is the Gauss-Newton Hessian of the
least-squares objective built from the enriched DG residual and the mesh
distortion residual, plus an elasticity regularization of the mesh block:

    B_uu = dRdu^T dRdu                       (assembled only for the reference solve)
    B_uy = dRdu^T dRdx dPhidy
    B_yy = dPhidy^T ( dRdx^T dRdx + kappa^2 dRmshdx^T dRmshdx + gamma D ) dPhidy

and the constraint Jacobian is J = [J_u, J_y] with J_y = drdx dPhidy.
B_uu and B_uy act matrix-free through their factors; B_yy is assembled because
it loses block structure. Ju and dRdu are scipy BSR matrices, whose blocks the
preconditioners use; every other factor, B_yy and J_y are scipy CSR.

The operator is two sparse products. Products that share an operand are
stacked row-wise into block-diagonal CSR matrices, formed on the first product
from the scalar CSR views of the factors and cached on the system:

    S1 = diag([dRdu; Ju], [G; B_yy; J_y], [Ju^T; J_y^T])   applied to (v_u, v_y, v_lambda)
    S2 = diag(dRdu^T, G^T)                                 applied to (a + b, a)

with G = dRdx dPhidy, a = dRdu v_u and b = G v_y. Each stacked matrix keeps
its parts' arrays in stored order, so every entry of the product is the same
float as that of the separate factor product. The reference solution that
GMRES is measured against is one sparse direct solve of the whole matrix,
assembled from the same CSR factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .blocklinalg import canonical_bsr, canonical_csr, stacked_diagonal
from .errors import DimensionMismatch, SingularSystem, SizeCapExceeded
from .krylov import LinearOperator

__all__ = [
    "SystemDims",
    "KktFactors",
    "KktSystem",
    "KktOperator",
    "CsrFactors",
    "assemble_Byy",
    "kkt_matvec",
    "materialize_dense",
    "reference_solution",
    "assembled_kkt",
    "ata_pattern",
    "count_block_sparsity",
    "SparsityCounts",
    "DENSE_CAP",
]

DENSE_CAP = 5000


@dataclass(frozen=True)
class SystemDims:
    """Discretization metadata carried alongside a generated system."""

    n_elem: int
    p: int
    q: int

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


@dataclass
class KktFactors:
    """Factor matrices of the KKT blocks at one state: Ju and dRdu must be
    canonical scipy BSR (one block row per element), the others are made
    canonical scipy CSR here."""

    Ju: scipy.sparse.bsr_matrix
    dRdu: scipy.sparse.bsr_matrix
    dRdx: scipy.sparse.csr_matrix
    drdx: scipy.sparse.csr_matrix
    dRmshdx: scipy.sparse.csr_matrix
    dPhidy: scipy.sparse.csr_matrix
    D: scipy.sparse.csr_matrix
    kappa: float
    gamma: float

    def __post_init__(self):
        for name in ("Ju", "dRdu"):
            setattr(self, name, canonical_bsr(getattr(self, name), name))
        for name in ("dRdx", "drdx", "dRmshdx", "dPhidy", "D"):
            setattr(self, name, canonical_csr(getattr(self, name), name))
        n_u = self.Ju.shape[1]
        n_x = self.dPhidy.shape[0]
        if self.Ju.shape != (n_u, n_u) or self.Ju.blocksize[0] != self.Ju.blocksize[1]:
            raise DimensionMismatch("Ju must be square with square blocks")
        if self.dRdu.shape[1] != n_u:
            raise DimensionMismatch("dRdu column count must match Ju")
        if self.dRdx.shape[0] != self.dRdu.shape[0] or self.dRdx.shape[1] != n_x:
            raise DimensionMismatch("dRdx must be (enriched rows) x (mesh coefficients)")
        if self.drdx.shape != (n_u, n_x):
            raise DimensionMismatch("drdx must be N_u x N_x")
        if self.dRmshdx.shape[1] != n_x:
            raise DimensionMismatch("dRmshdx column count must match mesh coefficients")
        if self.D.shape != (n_x, n_x):
            raise DimensionMismatch("D must be N_x x N_x")
        if self.kappa < 0 or self.gamma < 0:
            raise ValueError("kappa and gamma must be nonnegative")

    @property
    def n_u(self) -> int:
        return self.Ju.shape[1]

    @property
    def n_y(self) -> int:
        return self.dPhidy.shape[1]

    @property
    def n_x(self) -> int:
        return self.dPhidy.shape[0]


def assemble_Byy(factors: KktFactors) -> scipy.sparse.csr_matrix:
    """Explicit sparse assembly of the mesh-mesh Hessian block."""
    Ax, Rm, Phi = factors.dRdx, factors.dRmshdx, factors.dPhidy
    Bxx = (Ax.T @ Ax) + factors.kappa**2 * (Rm.T @ Rm) + factors.gamma * factors.D
    Byy = (Phi.T @ Bxx @ Phi).tocsr()
    return 0.5 * (Byy + Byy.T)


@dataclass(frozen=True)
class CsrFactors:
    """Scalar CSR copies of the operator's factors, each with its transpose,
    and the two stacked matrices the operator applies.

    G = dRdx dPhidy maps mesh DOFs to the enriched residual, so that
    B_uu = dRdu^T dRdu and B_uy = dRdu^T G are applied through their factors.
    S1 = diag([dRdu; Ju], [G; Byy; Jy], [Ju^T; Jy^T]) acts on the whole
    (v_u, v_y, v_lambda) and S2 = diag(dRdu^T, G^T) on (dRdu v_u + G v_y,
    dRdu v_u).
    """

    dRdu: scipy.sparse.csr_matrix
    dRdu_T: scipy.sparse.csr_matrix
    G: scipy.sparse.csr_matrix
    G_T: scipy.sparse.csr_matrix
    Ju: scipy.sparse.csr_matrix
    Ju_T: scipy.sparse.csr_matrix
    Jy_T: scipy.sparse.csr_matrix
    S1: scipy.sparse.csr_matrix
    S2: scipy.sparse.csr_matrix


@dataclass
class KktSystem:
    """Factors plus the right-hand-side data and the assembled Byy, made
    canonical CSR like the scalar factors."""

    factors: KktFactors
    g: np.ndarray
    r: np.ndarray
    Byy: scipy.sparse.csr_matrix
    dims: SystemDims | None = None
    state_index: int = 0
    case: str = "case"

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        f = self.factors
        if self.g.shape != (f.n_u + f.n_y,):
            raise DimensionMismatch("gradient length must be N_u + N_y")
        if self.r.shape != (f.n_u,):
            raise DimensionMismatch("residual length must be N_u")
        self.Byy = canonical_csr(self.Byy, "Byy")
        if self.Byy.shape != (f.n_y, f.n_y):
            raise DimensionMismatch("Byy must be N_y x N_y")
        # J_y is needed in transposed form by the preconditioners, so it is
        # stored as the explicit sparse product.
        self.Jy = (f.drdx @ f.dPhidy).tocsr()

    @property
    def dimension(self) -> int:
        n_u, n_y = self.Jy.shape
        return 2 * n_u + n_y

    @cached_property
    def csr(self) -> CsrFactors:
        """CSR factors for the operator, built on first use: SQP steps create a
        system per iteration and never apply it."""
        f = self.factors
        dRdu = f.dRdu.tocsr()
        G = (f.dRdx @ f.dPhidy).tocsr()
        Ju = f.Ju.tocsr()
        dRdu_T, G_T, Ju_T, Jy_T = (M.T.tocsr() for M in (dRdu, G, Ju, self.Jy))
        S1 = stacked_diagonal([[dRdu, Ju], [G, self.Byy, self.Jy], [Ju_T, Jy_T]])
        S2 = stacked_diagonal([[dRdu_T], [G_T]])
        return CsrFactors(dRdu, dRdu_T, G, G_T, Ju, Ju_T, Jy_T, S1, S2)

    def rhs(self) -> np.ndarray:
        """Right-hand side -(g, r) of the SQP step system."""
        return -np.concatenate([self.g, self.r])


@dataclass
class KktOperator:
    system: KktSystem

    @property
    def dimension(self) -> int:
        return self.system.dimension

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return kkt_matvec(self, v)

    def matmat(self, X):
        """Product with a sparse block of columns, returned as sparse CSR."""
        return kkt_matvec(self, X)

    def as_linear_operator(self) -> LinearOperator:
        return LinearOperator(self.dimension, self.matvec)


def kkt_matvec(op: KktOperator, v):
    """Action of the saddle-point matrix on (v_u, v_y, v_lambda).

    v is a 1-D vector or a sparse block of columns with one row per unknown.
    B_uu is applied as dRdu^T (a + b) with a = dRdu v_u and b = G v_y, and
    never formed. The factor products are two: S1 v gives a, Ju v_u, b,
    Byy v_y, Jy v_y, Ju^T v_lambda and Jy^T v_lambda, and S2 (a + b, a) gives
    dRdu^T (a + b) and G^T a; the sums that follow are those of the separate
    products, in the same order. For a sparse block the slicing, the sums
    and the stacking are themselves sparse products with 0/1 matrices whose
    rows list the summed rows in that order (see _row_sums).
    """
    sys = op.system
    n_u, n_y = sys.Jy.shape
    block = scipy.sparse.issparse(v)
    v = scipy.sparse.csr_matrix(v, dtype=float) if block else np.asarray(v, dtype=float)
    if v.shape[0] != op.dimension or (not block and v.ndim != 1):
        raise DimensionMismatch(f"operand shape {v.shape} incompatible with dimension {op.dimension}")

    c = sys.csr
    n_r = c.G.shape[0]
    ends = list(accumulate([n_r, n_u, n_r, n_y, n_u, n_u, n_y], initial=0))
    w = c.S1 @ v
    if block:
        o_a, o_ju, o_b, o_byy, o_jy, o_jut, o_jyt, n_w = ends
        n_t = n_u + n_y
        # w -> (a + b, a, w) -> (S2 (a + b, a), w) = (t, w) -> the three outputs.
        select = _row_sums(n_w, [(n_r, [o_a, o_b]), (n_r, [o_a]), (n_w, [0])])
        carry = stacked_diagonal([[c.S2], [scipy.sparse.identity(n_w, format="csr")]])
        out = [(n_u, [0, n_t + o_jut]), (n_y, [n_u, n_t + o_byy, n_t + o_jyt]), (n_u, [n_t + o_ju, n_t + o_jy])]
        return _row_sums(n_t + n_w, out) @ (carry @ (select @ w))
    a, ju_vu, b, byy_vy, jy_vy, jut_vl, jyt_vl = (w[lo:hi] for lo, hi in zip(ends[:-1], ends[1:]))
    t = c.S2 @ np.concatenate([a + b, a])
    out_u = t[:n_u] + jut_vl
    out_y = t[n_u:] + byy_vy + jyt_vl
    out_l = ju_vu + jy_vy
    return np.concatenate([out_u, out_y, out_l])


def _row_sums(n_cols: int, pieces) -> scipy.sparse.csr_matrix:
    """0/1 CSR matrix with `length` rows per piece (length, starts): row i
    of a piece holds columns start + i for its starts in the listed order.

    Its product with a sparse block X adds rows of X left to right starting
    from 0, and each term is 1.0 times an entry, so every entry is the float
    of the same sums taken with sparse additions; entries that come out zero
    are dropped by both.
    """
    cols = np.concatenate([np.add.outer(np.arange(length), starts).ravel() for length, starts in pieces])
    counts = np.concatenate([np.full(length, len(starts)) for length, starts in pieces])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return scipy.sparse.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(len(counts), n_cols))


def materialize_dense(op: KktOperator, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense symmetric KKT matrix, mirrored block by block so that A == A.T exactly."""
    sys = op.system
    f = sys.factors
    n_u, n_y = f.n_u, f.n_y
    dim = 2 * n_u + n_y
    if dim > cap:
        raise SizeCapExceeded(f"dense materialization of dimension {dim} exceeds cap {cap}")

    dRdu = f.dRdu.toarray()
    buu = dRdu.T @ dRdu
    buu = np.triu(buu) + np.triu(buu, 1).T
    buy = dRdu.T @ (f.dRdx.toarray() @ f.dPhidy.toarray())
    byy = sys.Byy.toarray()
    byy = np.triu(byy) + np.triu(byy, 1).T
    ju = f.Ju.toarray()
    jy = sys.Jy.toarray()

    A = np.zeros((dim, dim))
    su = slice(0, n_u)
    sy = slice(n_u, n_u + n_y)
    sl = slice(n_u + n_y, dim)
    A[su, su] = buu
    A[su, sy] = buy
    A[sy, su] = buy.T
    A[sy, sy] = byy
    A[sl, su] = ju
    A[su, sl] = ju.T
    A[sl, sy] = jy
    A[sy, sl] = jy.T
    return A


def reference_solution(sys: KktSystem) -> np.ndarray:
    """Solution of the KKT system by one sparse direct solve.

    The matrix is assembled from the cached CSR factors, B_uu = dRdu^T dRdu
    included, for this solve only; the operator keeps B_uu unassembled.
    Raises SingularSystem where SuperLU meets an exactly zero pivot.
    """
    try:
        lu = scipy.sparse.linalg.splu(assembled_kkt(sys))
    except RuntimeError as exc:
        raise SingularSystem(f"KKT matrix of dimension {sys.dimension}: {exc}") from exc
    return lu.solve(sys.rhs())


def assembled_kkt(sys: KktSystem) -> scipy.sparse.csc_matrix:
    """The whole KKT matrix as canonical CSC with every stored entry of its
    blocks, explicit zeros included. All blocks are CSR, so scipy stacks
    their arrays directly, without a COO copy, and one conversion sorts the
    rows of each column."""
    c = sys.csr
    buy = c.dRdu_T @ c.G
    zero = scipy.sparse.csr_matrix((sys.factors.n_u, sys.factors.n_u))
    blocks = [[c.dRdu_T @ c.dRdu, buy, c.Ju_T], [buy.T.tocsr(), sys.Byy, c.Jy_T], [c.Ju, sys.Jy, zero]]
    return scipy.sparse.bmat(blocks, format="csr").tocsc()


def ata_pattern(A) -> scipy.sparse.csr_matrix:
    """Symbolic block pattern of A^T A for a BSR matrix A: a 0/1 CSR matrix
    with one row and column per block column of A, indices sorted."""
    shape = (A.shape[0] // A.blocksize[0], A.shape[1] // A.blocksize[1])
    S = scipy.sparse.csr_matrix((np.ones(len(A.indices)), A.indices, A.indptr), shape=shape)
    P = (S.T @ S).tocsr()
    P.data[:] = 1.0
    P.sort_indices()
    return P


@dataclass(frozen=True)
class SparsityCounts:
    m1: float
    m2: float

    @property
    def ratio(self) -> float:
        return self.m2 / self.m1


def count_block_sparsity(Ju, Buu_pattern) -> SparsityCounts:
    """Nonzero blocks per interior row of Ju and of the symbolic B_uu pattern.

    Interior rows are those attaining the maximal block count of their
    pattern, which excludes boundary rows on any connected mesh.
    """
    counts1 = np.diff(Ju.indptr)
    counts2 = np.diff(Buu_pattern.indptr)
    m1 = counts1[counts1 == counts1.max()].mean()
    m2 = counts2[counts2 == counts2.max()].mean()
    return SparsityCounts(float(m1), float(m2))
