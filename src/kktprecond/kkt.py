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
it loses block structure. Ju and dRdu are block matrices, whose blocks the
preconditioners use; every other factor, B_yy and J_y are scipy CSR. The
operator applies the scalar CSR view of the block factors, formed on the first
product and cached on the system. The reference solution that GMRES is
measured against is one sparse direct solve of the whole matrix, assembled
from the same CSR factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .blocklinalg import BlockCsrMatrix, BlockPattern, block_to_scipy, canonical_csr
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
    """Factor matrices of the KKT blocks at one state: Ju and dRdu are block
    matrices, the others are made canonical scipy CSR here."""

    Ju: BlockCsrMatrix
    dRdu: BlockCsrMatrix
    dRdx: scipy.sparse.csr_matrix
    drdx: scipy.sparse.csr_matrix
    dRmshdx: scipy.sparse.csr_matrix
    dPhidy: scipy.sparse.csr_matrix
    D: scipy.sparse.csr_matrix
    kappa: float
    gamma: float

    def __post_init__(self):
        for name in ("dRdx", "drdx", "dRmshdx", "dPhidy", "D"):
            setattr(self, name, canonical_csr(getattr(self, name), name))
        n_u = self.Ju.shape[1]
        n_x = self.dPhidy.shape[0]
        if self.Ju.shape != (n_u, n_u):
            raise DimensionMismatch("Ju must be square")
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
    """Scalar CSR copies of the operator's factors, each with its transpose.

    G = dRdx dPhidy maps mesh DOFs to the enriched residual, so that
    B_uu = dRdu^T dRdu and B_uy = dRdu^T G are applied through their factors.
    """

    dRdu: scipy.sparse.csr_matrix
    dRdu_T: scipy.sparse.csr_matrix
    G: scipy.sparse.csr_matrix
    G_T: scipy.sparse.csr_matrix
    Ju: scipy.sparse.csr_matrix
    Ju_T: scipy.sparse.csr_matrix
    Jy_T: scipy.sparse.csr_matrix


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
        return 2 * self.factors.n_u + self.factors.n_y

    @cached_property
    def csr(self) -> CsrFactors:
        """CSR factors for the operator, built on first use: SQP steps create a
        system per iteration and never apply it."""
        f = self.factors
        dRdu = block_to_scipy(f.dRdu)
        G = (f.dRdx @ f.dPhidy).tocsr()
        Ju = block_to_scipy(f.Ju)
        return CsrFactors(dRdu, dRdu.T.tocsr(), G, G.T.tocsr(), Ju, Ju.T.tocsr(), self.Jy.T.tocsr())

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
    B_uu is applied as dRdu^T (dRdu v_u + G v_y) and never formed.
    """
    sys = op.system
    n_u, n_y = sys.factors.n_u, sys.factors.n_y
    block = scipy.sparse.issparse(v)
    v = scipy.sparse.csr_matrix(v, dtype=float) if block else np.asarray(v, dtype=float)
    if v.shape[0] != op.dimension or (not block and v.ndim != 1):
        raise DimensionMismatch(f"operand shape {v.shape} incompatible with dimension {op.dimension}")
    vu = v[:n_u]
    vy = v[n_u : n_u + n_y]
    vl = v[n_u + n_y :]

    c = sys.csr
    dRdu_vu = c.dRdu @ vu
    out_u = c.dRdu_T @ (dRdu_vu + c.G @ vy) + c.Ju_T @ vl
    out_y = c.G_T @ dRdu_vu + sys.Byy @ vy + c.Jy_T @ vl
    out_l = c.Ju @ vu + sys.Jy @ vy
    if block:
        return scipy.sparse.vstack([out_u, out_y, out_l], format="csr")
    return np.concatenate([out_u, out_y, out_l])


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
    c = sys.csr
    buy = c.dRdu_T @ c.G
    A = scipy.sparse.bmat(
        [
            [c.dRdu_T @ c.dRdu, buy, c.Ju_T],
            [buy.T, sys.Byy, c.Jy_T],
            [c.Ju, sys.Jy, None],
        ],
        format="csc",
    )
    try:
        lu = scipy.sparse.linalg.splu(A)
    except RuntimeError as exc:
        raise SingularSystem(f"KKT matrix of dimension {sys.dimension}: {exc}") from exc
    return lu.solve(sys.rhs())


def ata_pattern(pattern: BlockPattern) -> BlockPattern:
    """Symbolic block pattern of A^T A for a block matrix with pattern A."""
    n = pattern.n_block_cols
    cols_of_row = [
        set(pattern.col_idx[pattern.row_ptr[i] : pattern.row_ptr[i + 1]].tolist())
        for i in range(pattern.n_block_rows)
    ]
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for cols in cols_of_row:
        for i in cols:
            neighbors[i].update(cols)
    row_ptr = [0]
    col_idx: list[int] = []
    for i in range(n):
        js = sorted(neighbors[i])
        col_idx.extend(js)
        row_ptr.append(len(col_idx))
    sizes = pattern.col_block_sizes
    return BlockPattern(sizes, sizes, np.array(row_ptr), np.array(col_idx))


@dataclass(frozen=True)
class SparsityCounts:
    m1: float
    m2: float

    @property
    def ratio(self) -> float:
        return self.m2 / self.m1


def count_block_sparsity(Ju: BlockCsrMatrix, Buu_pattern: BlockPattern) -> SparsityCounts:
    """Nonzero blocks per interior row of Ju and of the symbolic B_uu pattern.

    Interior rows are those attaining the maximal block count of their
    pattern, which excludes boundary rows on any connected mesh.
    """
    counts1 = np.diff(Ju.pattern.row_ptr)
    counts2 = np.diff(Buu_pattern.row_ptr)
    m1 = counts1[counts1 == counts1.max()].mean()
    m2 = counts2[counts2 == counts2.max()].mean()
    return SparsityCounts(float(m1), float(m2))
