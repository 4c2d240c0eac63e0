"""Saddle-point system data model and its assembled matrix.

The SQP step solves

    [ B    J^T ] [ dz  ]   [ g ]
    [ J    0   ] [ eta ] = -[ r ]

with unknown ordering (u, y, lambda). B is the Gauss-Newton Hessian of the
least-squares objective built from the enriched DG residual and the mesh
distortion residual, plus an elasticity regularization of the mesh block:

    B_uu = dRdu^T dRdu
    B_uy = dRdu^T dRdx dPhidy
    B_yy = dPhidy^T ( dRdx^T dRdx + kappa^2 dRmshdx^T dRmshdx + gamma D ) dPhidy

and the constraint Jacobian is J = [J_u, J_y] with J_y = drdx dPhidy. Ju and
dRdu are scipy BSR matrices, whose blocks the preconditioners use; every
other factor, B_yy and J_y are scipy CSR.

Each system assembles the whole matrix K once, as canonical CSR, on first
use, and caches it. Every consumer reads that one matrix: the GMRES operator
is the product K v, the p-multigrid coarse matrix is Q K P, and one sparse
direct solve of K (reference_solution) is the reference solution that GMRES
is measured against. The SQP step (shocktrack.assemble_step) sums the same
K, bit for bit, from the element blocks, without a system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .blocklinalg import canonical_bsr, canonical_csr, checked_splu
from .errors import DimensionMismatch, SingularSystem
from .krylov import LinearOperator

__all__ = [
    "SystemDims",
    "KktFactors",
    "KktSystem",
    "KktOperator",
    "assemble_Byy",
    "kkt_matvec",
    "reference_solution",
]


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
        if not (self.kappa >= 0 and self.gamma >= 0):
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
    def K(self) -> scipy.sparse.csr_matrix:
        """The whole KKT matrix as canonical CSR, built on first use, not by
        build_kkt: a system's first consumer pays for it, the operator, the
        coarse product or the sparse direct solve.

        Every stored entry of its blocks is kept, explicit zeros included.
        All blocks are CSR, so scipy stacks their arrays directly, without a
        COO copy; no two blocks overlap, so sorting the rows makes it
        canonical.
        """
        f = self.factors
        dRdu = f.dRdu.tocsr()
        Ju = f.Ju.tocsr()
        dRdu_T = dRdu.T.tocsr()
        buy = dRdu_T @ (f.dRdx @ f.dPhidy).tocsr()
        zero = scipy.sparse.csr_matrix((f.n_u, f.n_u))
        blocks = [
            [dRdu_T @ dRdu, buy, Ju.T.tocsr()],
            [buy.T.tocsr(), self.Byy, self.Jy.T.tocsr()],
            [Ju, self.Jy, zero],
        ]
        K = scipy.sparse.bmat(blocks, format="csr")
        K.sort_indices()
        return K

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
    """Product K v of the assembled saddle-point matrix with (v_u, v_y,
    v_lambda): v is a 1-D vector, or a sparse block of columns with one row
    per unknown, whose product is returned as CSR."""
    block = scipy.sparse.issparse(v)
    v = scipy.sparse.csr_matrix(v, dtype=float) if block else np.asarray(v, dtype=float)
    if v.shape[0] != op.dimension or (not block and v.ndim != 1):
        raise DimensionMismatch(f"operand shape {v.shape} incompatible with dimension {op.dimension}")
    return op.system.K @ v


def reference_solution(sys: KktSystem) -> np.ndarray:
    """Solution of the KKT system by one sparse direct solve.

    SuperLU factors the CSC form of the system's cached matrix K, the one
    the operator applies, through blocklinalg.checked_splu. Raises
    SingularSystem where a pivot is zero or below its relative threshold.
    """
    lu = checked_splu(sys.K.tocsc(), SingularSystem, f"KKT matrix of dimension {sys.dimension}")
    return lu.solve(sys.rhs())
