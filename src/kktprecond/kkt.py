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
matrices, kappa and gamma, g and r, and its discretization record SystemDims
(n_elem, p, q). SystemDims alone computes the sizes N_u, N_y and N_x from
n_elem, p and q, checks their ranges, holds the enriched test degree and the
one table of factor shapes (SystemDims.shapes), which the record and the
manifest read, and builds the p-multigrid transfers (KktSystem.transfers).
check_weights is the one rule on kappa and gamma (finite and nonnegative),
and check_case the one rule on a case name, a CSV field; the record applies
both. A system assembles B_yy and J_y from its factors when it is built, and
the whole matrix K, as canonical CSR, on first use, and caches it with its
product K_product (blocklinalg.csr_product). kkt_matvec is the one product
with K: a system is the operator A that GMRES and the p-multigrid cycle
apply, and the coarse matrix is Q (K P). One sparse direct solve of K
(reference_solution) is the reference solution that GMRES is measured
against. The SQP step (shocktrack.assemble_step) sums the same K, bit for
bit, from the element blocks, without a system.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .blocklinalg import (
    CsrArrays,
    bsr_to_csr,
    canonical_bsr,
    canonical_csr,
    checked_splu,
    csr_arrays,
    csr_matmul,
    csr_plus,
    csr_product,
    csr_transpose,
    csr_vstack,
    sort_rows,
    sparse_product,
)
from .errors import DimensionMismatch, SingularSystem, shown

__all__ = [
    "SystemDims",
    "KktSystem",
    "check_case",
    "check_weights",
    "assemble_Byy",
    "kkt_matvec",
    "reference_solution",
]


@dataclass(frozen=True)
class SystemDims:
    """Discretization record of a system: an n_elem mesh with solution degree
    p and mesh degree q, and the sizes that follow from them. The tracking
    residual R is tested in the enriched space of degree test_degree, p + 1,
    whose n_u_enriched rows are the rows of dRdu and dRdx."""

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
    def test_degree(self) -> int:
        return self.p + 1

    @property
    def n_u_enriched(self) -> int:
        return self.n_elem * (self.test_degree + 1)

    @property
    def n_x(self) -> int:
        return self.q * self.n_elem + 1

    @property
    def n_y(self) -> int:
        return self.n_x - 2

    @property
    def shapes(self) -> dict[str, tuple[int, int]]:
        """(rows, cols) of each KktSystem factor, by field name. Each factor
        has one block row and one block column per element, so the block
        shape of the BSR factors Ju and dRdu is (rows // n_elem, cols //
        n_elem)."""
        n_u, n_ue, n_x, n_y = self.n_u, self.n_u_enriched, self.n_x, self.n_y
        return {
            "Ju": (n_u, n_u),
            "dRdu": (n_ue, n_u),
            "dRdx": (n_ue, n_x),
            "drdx": (n_u, n_x),
            "dRmshdx": (self.n_elem, n_x),
            "dPhidy": (n_x, n_y),
            "D": (n_x, n_x),
        }

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


def check_case(case: str) -> None:
    """The case name rule: no comma, double quote or line break, which would
    split its CSV row, else ValueError."""
    if any(ch in case for ch in ',"\r\n'):
        raise ValueError(f"invalid case {shown(case)}: must not contain a comma, a double quote or a line break")


def assemble_Byy(sys: KktSystem) -> scipy.sparse.csr_matrix:
    """Explicit sparse assembly of the mesh-mesh Hessian block, symmetrized:
    Byy = 0.5 (B + B^T) with B = Phi^T (Ax^T Ax + kappa^2 Rm^T Rm + gamma D) Phi.

    The products and sums are those of the CSC form on transposed views,
    run on CSR operands that are already transposed: a CSC product is the
    CSR product of the transposes, so every intermediate holds the same
    arrays as its CSC counterpart, here as the CSR of its transpose, and the
    result is bit for bit the same. Every transpose, product, sum and sort
    is a call of the blocklinalg kernel layer on bare arrays, the kernels
    scipy's operators reach; the scalings act on the data in place. The
    result, the sum of two canonical matrices, is one canonical CSR matrix."""
    Ax, Rm, D, Phi = map(csr_arrays, (sys.dRdx, sys.dRmshdx, sys.D, sys.dPhidy))
    mesh = csr_matmul(csr_transpose(Rm), Rm)
    mesh.data[...] *= sys.kappa**2
    elastic = csr_transpose(D)
    elastic.data[...] *= sys.gamma
    Bxx_T = csr_plus(csr_plus(csr_matmul(csr_transpose(Ax), Ax), mesh), elastic)
    B_T = csr_matmul(csr_transpose(Phi), csr_matmul(Bxx_T, Phi))
    B = csr_transpose(B_T)
    Byy = csr_plus(B, sort_rows(B_T))
    Byy.data[...] *= 0.5
    return Byy.tocsr()


@dataclass(kw_only=True)
class KktSystem:
    """The saddle-point system at one state: the factor matrices of its
    blocks, the weights kappa and gamma, the right-hand-side data g and r,
    and the discretization record dims. Every factor must have the shape
    dims.shapes gives it; Ju and dRdu must be canonical scipy BSR with one
    block row and one block column per element, and the other factors are
    made canonical scipy CSR here. A factor of another shape or block
    shape, or a g or r of another length, raises the DimensionMismatch
    of_field that names it. Byy is assemble_Byy(self), canonical as built."""

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
    dims: SystemDims
    Byy: scipy.sparse.csr_matrix = field(init=False)
    state_index: int = 0
    case: str = "case"

    def __post_init__(self):
        n_elem = self.dims.n_elem
        for name, shape in self.dims.shapes.items():
            blocked = name in ("Ju", "dRdu")
            A = (canonical_bsr if blocked else canonical_csr)(getattr(self, name), name)
            if A.shape != shape:
                raise DimensionMismatch.of_field(
                    name, f"is {A.shape[0]} x {A.shape[1]}, expected {shape[0]} x {shape[1]}"
                )
            if blocked and A.blocksize != (want := (shape[0] // n_elem, shape[1] // n_elem)):
                raise DimensionMismatch.of_field(name, f"has {A.blocksize} blocks, expected {want}")
            setattr(self, name, A)
        check_weights(self.kappa, self.gamma)
        check_case(self.case)

        n_u, n_y = self.n_u, self.n_y
        self.g = np.asarray(self.g, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        for name, want in (("g", (n_u + n_y,)), ("r", (n_u,))):
            shape = getattr(self, name).shape
            if shape != want:
                raise DimensionMismatch.of_field(name, f"has shape {shape}, expected {want}")
        self.Byy = assemble_Byy(self)
        # J_y is needed in transposed form by the preconditioners, so it is
        # stored as the explicit sparse product.
        self.Jy = sparse_product(self.drdx, self.dPhidy)

    @property
    def n_u(self) -> int:
        return self.dims.n_u

    @property
    def n_y(self) -> int:
        return self.dims.n_y

    @property
    def dimension(self) -> int:
        return 2 * self.n_u + self.n_y

    @cached_property
    def K(self) -> scipy.sparse.csr_matrix:
        """The whole KKT matrix as canonical CSR, built on first use, not by
        build_kkt: a system's first consumer pays for it, GMRES, the coarse
        product or the sparse direct solve.

        Every stored entry of its blocks is kept, explicit zeros included.
        Each step is a call of the blocklinalg kernel layer: B_uu = dRdu^T
        dRdu and B_uy = dRdu^T (dRdx dPhidy) are CSR products on dRdu's CSR
        arrays and their transpose, and Ju is its BSR-to-CSR conversion.
        Each block row of K is the transpose of its blocks' transposes
        stacked, and K the three block rows stacked (csr_vstack, the
        concatenation of scipy's vstack). A transpose comes out with every
        row sorted, so K has the canonical arrays that stacking the blocks
        with bmat and sorting its rows gives.
        """
        n_u = self.n_u
        dRdu, Ju = (bsr_to_csr(A.data, A.indices, A.indptr, A.shape) for A in (self.dRdu, self.Ju))
        dRdu_T = csr_transpose(dRdu)
        B_uu = csr_matmul(dRdu_T, dRdu)
        B_uy = csr_matmul(dRdu_T, csr_matmul(csr_arrays(self.dRdx), csr_arrays(self.dPhidy)))
        Byy, Jy, T = csr_arrays(self.Byy), csr_arrays(self.Jy), csr_transpose
        # The transposes of the block rows [B_uu B_uy Ju^T], [B_uy^T Byy Jy^T] and [Ju Jy 0].
        columns = [[T(B_uu), T(B_uy), Ju], [B_uy, T(Byy), Jy], [T(Ju), T(Jy), CsrArrays.zeros((n_u, n_u))]]
        return csr_vstack([T(csr_vstack(blocks)) for blocks in columns]).tocsr()

    @cached_property
    def K_product(self) -> Callable[[np.ndarray], np.ndarray]:
        """v -> K v for a vector v of length dimension: K's arrays bound once
        by blocklinalg.csr_product, the product of every GMRES iteration."""
        return csr_product(self.K)

    def rhs(self) -> np.ndarray:
        """Right-hand side -(g, r) of the SQP step system."""
        return -np.concatenate([self.g, self.r])

    @property
    def transfers(self) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """dims.transfers(), built on every read."""
        return self.dims.transfers()

    def apply(self, v):
        """K v: the system as the operator A that GMRES and the p-multigrid
        cycle apply; it looks kkt_matvec up on every product."""
        return kkt_matvec(self, v)


def kkt_matvec(sys: KktSystem, v):
    """Product K v of the system's assembled saddle-point matrix with (v_u,
    v_y, v_lambda): v is a 1-D vector, whose product is the system's cached
    K_product, scipy's compiled kernel on K's arrays, or a sparse block of
    columns with one row per unknown and int32 indices, whose product is the
    kernel layer's (blocklinalg.sparse_product), returned as CSR. Either
    product is K @ v, bit for bit."""
    block = scipy.sparse.issparse(v)
    v = scipy.sparse.csr_matrix(v, dtype=float) if block else np.asarray(v, dtype=float)
    if v.shape[0] != sys.dimension or (not block and v.ndim != 1):
        raise DimensionMismatch(f"operand shape {v.shape} incompatible with dimension {sys.dimension}")
    return sparse_product(sys.K, v) if block else sys.K_product(v)


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
