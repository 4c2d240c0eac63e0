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

KktSystem is the one record of the system at a state: the seven factor
matrices, kappa and gamma, g and r, and, optionally, its discretization
record SystemDims (n_elem, p, q). SystemDims alone computes the sizes N_u,
N_y and N_x from n_elem, p and q, checks their ranges, and builds the
p-multigrid transfers (KktSystem.transfers). check_weights is the one rule
on kappa and gamma (finite and nonnegative), which KktSystem, SqpConfig and
the manifest apply. A system assembles B_yy and J_y from its factors when
it is built, and the whole matrix K, as canonical CSR, on first use, and
caches it. kkt_matvec is the one product with K: a system is the operator
A that GMRES and the p-multigrid cycle apply, and the coarse matrix is
Q (K P). One sparse direct solve of K (reference_solution) is the reference
solution that GMRES is measured against. The SQP step
(shocktrack.assemble_step) sums the same K, bit for bit, from the element
blocks, without a system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .blocklinalg import block_rows, canonical_bsr, canonical_csr, checked_splu
from .errors import DimensionMismatch, SingularSystem

__all__ = [
    "SystemDims",
    "KktSystem",
    "check_weights",
    "assemble_Byy",
    "kkt_matvec",
    "reference_solution",
]


@dataclass(frozen=True)
class SystemDims:
    """Discretization record of a system: an n_elem mesh with solution degree
    p and mesh degree q, and the sizes that follow from them."""

    n_elem: int
    p: int
    q: int

    def __post_init__(self):
        if self.n_elem < 1:
            raise ValueError("n_elem must be at least 1")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.q < 1:
            raise ValueError("q must be at least 1")

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

    def transfers(self) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """The p-multigrid prolongation P = diag(Pu, Py, Pu) and restriction
        Q = diag(Pu^T, Qy, Pu^T), as canonical CSR with int32 indices, onto
        element constants (p = 0) on the straight-sided mesh (q = 1); Qy
        selects the endpoint nodes.

        Both are built straight from their index arithmetic, the same arrays
        that scipy.sparse.block_diag of the three blocks gives."""
        n_elem, p, q, n_u, n_y = self.n_elem, self.p, self.q, self.n_u, self.n_y
        n_yc = n_elem - 1
        element = np.repeat(np.arange(n_elem), p + 1)

        # Mesh node g at local fraction l/q of element e is the linear blend of
        # the element endpoints e and e + 1 with weights 1 - l/q and l/q; pinned
        # domain endpoints and zero weights contribute nothing.
        e, l = np.divmod(np.arange(1, n_y + 1), q)
        vertex = np.stack([e, e + 1], axis=1).ravel()
        weight = np.stack([1.0 - l / q, l / q], axis=1).ravel()
        keep = (0 < vertex) & (vertex < n_elem) & (weight != 0.0)
        py_counts = np.count_nonzero(keep.reshape(n_y, 2), axis=1)

        # The rows of the three diagonal blocks in turn, each block's columns
        # offset by the widths of the blocks before it.
        P_counts = np.concatenate([np.ones(n_u, int), py_counts, np.ones(n_u, int)])
        P_indices = np.concatenate([element, vertex[keep] - 1 + n_elem, element + n_elem + n_yc])
        P_data = np.concatenate([np.ones(n_u), weight[keep], np.ones(n_u)])
        Q_counts = np.concatenate([np.full(n_elem, p + 1), np.ones(n_yc, int), np.full(n_elem, p + 1)])
        Q_indices = np.concatenate([np.arange(n_u), q * np.arange(1, n_elem) - 1 + n_u, np.arange(n_u) + n_u + n_y])
        Q_data = np.ones(len(Q_indices))
        shape = (2 * n_u + n_y, 2 * n_elem + n_yc)

        def csr(data, indices, counts, shape):
            indptr = np.concatenate([[0], np.cumsum(counts)])
            return scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)

        return csr(P_data, P_indices, P_counts, shape), csr(Q_data, Q_indices, Q_counts, shape[::-1])


def check_weights(kappa, gamma) -> None:
    """The weight rule: kappa and gamma must be finite and nonnegative, else
    ValueError."""
    for name, weight in (("kappa", kappa), ("gamma", gamma)):
        if not (weight >= 0 and math.isfinite(weight)):
            raise ValueError(f"invalid {name} {weight!r}: must be finite and nonnegative")


def assemble_Byy(sys: KktSystem) -> scipy.sparse.csr_matrix:
    """Explicit sparse assembly of the mesh-mesh Hessian block, symmetrized:
    Byy = 0.5 (B + B^T) with B = Phi^T (Ax^T Ax + kappa^2 Rm^T Rm + gamma D) Phi.

    The products and sums are those of the CSC form on transposed views,
    run on CSR operands that are already transposed: a CSC product is the
    CSR product of the transposes, so every intermediate holds the same
    arrays as its CSC counterpart, here as the CSR of its transpose, and the
    result is bit for bit the same. Scalings act on the data in place."""
    Ax, Rm, Phi = sys.dRdx, sys.dRmshdx, sys.dPhidy
    mesh = Rm.T.tocsr() @ Rm
    mesh.data *= sys.kappa**2
    elastic = sys.D.T.tocsr()
    elastic.data *= sys.gamma
    Bxx_T = Ax.T.tocsr() @ Ax + mesh + elastic
    B_T = Phi.T.tocsr() @ (Bxx_T @ Phi)
    B = B_T.T.tocsr()
    B_T.sort_indices()
    Byy = B + B_T
    Byy.data *= 0.5
    return Byy


@dataclass(kw_only=True)
class KktSystem:
    """The saddle-point system at one state: the factor matrices of its
    blocks, the weights kappa and gamma, and the right-hand-side data g and
    r. Ju and dRdu must be canonical scipy BSR (one block row per element);
    the other factors are made canonical scipy CSR here, and Byy is
    assemble_Byy of them, made canonical CSR alike."""

    Ju: scipy.sparse.bsr_matrix
    dRdu: scipy.sparse.bsr_matrix
    dRdx: scipy.sparse.csr_matrix
    drdx: scipy.sparse.csr_matrix
    dRmshdx: scipy.sparse.csr_matrix
    dPhidy: scipy.sparse.csr_matrix
    D: scipy.sparse.csr_matrix
    kappa: float
    gamma: float
    g: np.ndarray
    r: np.ndarray
    Byy: scipy.sparse.csr_matrix = field(init=False)
    dims: SystemDims | None = None
    state_index: int = 0
    case: str = "case"

    def __post_init__(self):
        for name in ("Ju", "dRdu"):
            setattr(self, name, canonical_bsr(getattr(self, name), name))
        for name in ("dRdx", "drdx", "dRmshdx", "dPhidy", "D"):
            setattr(self, name, canonical_csr(getattr(self, name), name))
        n_u, n_y = self.n_u, self.n_y
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
        check_weights(self.kappa, self.gamma)

        self.g = np.asarray(self.g, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if self.g.shape != (n_u + n_y,):
            raise DimensionMismatch("gradient length must be N_u + N_y")
        if self.r.shape != (n_u,):
            raise DimensionMismatch("residual length must be N_u")
        self.Byy = canonical_csr(assemble_Byy(self), "Byy")
        # J_y is needed in transposed form by the preconditioners, so it is
        # stored as the explicit sparse product.
        self.Jy = (self.drdx @ self.dPhidy).tocsr()

    @property
    def n_u(self) -> int:
        return self.Ju.shape[1]

    @property
    def n_y(self) -> int:
        return self.dPhidy.shape[1]

    @property
    def dimension(self) -> int:
        return 2 * self.n_u + self.n_y

    @cached_property
    def K(self) -> scipy.sparse.csr_matrix:
        """The whole KKT matrix as canonical CSR, built on first use, not by
        build_kkt: a system's first consumer pays for it, GMRES, the coarse
        product or the sparse direct solve.

        Every stored entry of its blocks is kept, explicit zeros included.
        B_uu = dRdu^T dRdu and B_uy = dRdu^T (dRdx dPhidy) are scipy CSR
        products; Byy, Ju and Jy are read from their stored arrays, and the
        transposed blocks B_uy^T, Ju^T and Jy^T are the entries of B_uy, Ju
        and Jy with row and column swapped, so scipy converts and transposes
        only dRdu. No two blocks overlap, so one sort of all entries by
        (row, column) gives the canonical arrays that stacking the blocks
        with bmat and sorting its rows gives.
        """
        n_u, n_y, dim = self.n_u, self.n_y, self.dimension
        dRdu = self.dRdu.tocsr()
        dRdu_T = dRdu.T.tocsr()
        parts = [
            _entries(dRdu_T @ dRdu, 0, 0),
            _entries(dRdu_T @ (self.dRdx @ self.dPhidy), 0, n_u),
            _entries(self.Ju, n_u + n_y, 0),
            _entries(self.Jy, n_u + n_y, n_u),
        ]
        parts += [(cols, rows, vals) for rows, cols, vals in parts[1:]]
        parts.append(_entries(self.Byy, n_u, n_u))
        rows, cols, vals = (np.concatenate(arrays) for arrays in zip(*parts))
        # The keys are distinct; a stable sort finds the sorted runs of the blocks.
        order = np.argsort(rows * dim + cols, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dim))])
        return scipy.sparse.csr_matrix((vals[order], cols[order], indptr), shape=(dim, dim))

    def rhs(self) -> np.ndarray:
        """Right-hand side -(g, r) of the SQP step system."""
        return -np.concatenate([self.g, self.r])

    @property
    def transfers(self) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix] | None:
        """dims.transfers(), built on every read, or None without dims."""
        return None if self.dims is None else self.dims.transfers()

    def apply(self, v):
        """K v: the system as the operator A that GMRES and the p-multigrid
        cycle apply; it looks kkt_matvec up on every product."""
        return kkt_matvec(self, v)


def _entries(A, row0: int, col0: int):
    """Row, column and value of every stored entry of a CSR or BSR matrix
    whose top left corner sits at (row0, col0), in storage order."""
    if A.format != "bsr":
        return block_rows(A.indptr) + row0, A.indices + col0, A.data
    (r, c), nb = A.blocksize, len(A.indices)
    rows = (block_rows(A.indptr)[:, None] * r + np.arange(row0, row0 + r)).repeat(c)
    cols = A.indices[:, None].astype(np.int64) * c + np.arange(col0, col0 + c)
    return rows, np.broadcast_to(cols[:, None, :], (nb, r, c)).ravel(), A.data.ravel()


def kkt_matvec(sys: KktSystem, v):
    """Product K v of the system's assembled saddle-point matrix with (v_u,
    v_y, v_lambda): v is a 1-D vector, or a sparse block of columns with one
    row per unknown, whose product is returned as CSR."""
    block = scipy.sparse.issparse(v)
    v = scipy.sparse.csr_matrix(v, dtype=float) if block else np.asarray(v, dtype=float)
    if v.shape[0] != sys.dimension or (not block and v.ndim != 1):
        raise DimensionMismatch(f"operand shape {v.shape} incompatible with dimension {sys.dimension}")
    return sys.K @ v


def reference_solution(sys: KktSystem) -> np.ndarray:
    """Solution of the KKT system by one sparse direct solve.

    SuperLU factors the system's cached matrix K, the one kkt_matvec
    multiplies by, through blocklinalg.checked_splu. K is exactly symmetric
    by construction (B_uu and Byy are symmetric products and sums, and K
    mirrors B_uy, Ju and Jy entry by entry), so its CSR arrays are its CSC
    arrays, and K.T, the CSC matrix on them, is K without a conversion.
    Raises SingularSystem where a pivot is zero or below its relative
    threshold.
    """
    lu = checked_splu(sys.K.T, SingularSystem, f"KKT matrix of dimension {sys.dimension}")
    return lu.solve(sys.rhs())
