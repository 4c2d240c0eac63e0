"""Two-level p-multigrid wrapper for the saddle-point preconditioners.

The coarse space uses piecewise-constant solution coefficients (p=0) and a
straight-sided mesh (q=1). Prolongation embeds element constants into the
degree-p nodal basis and places high-order mesh nodes by linear interpolation
of the element endpoints; restriction uses the plain transpose for u and
lambda and a selection of the endpoint nodes for y. One application of the
wrapper is: restrict the right-hand side, solve the Galerkin coarse matrix
directly, prolongate, then apply the smoother once as a correction.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .blocklinalg import Factor, sparse_lu
from .errors import DimensionMismatch, SingularBlock, SingularCoarseMatrix
from .krylov import LinearOperator

__all__ = [
    "CoarseSystem",
    "build_transfer",
    "assemble_coarse",
    "pmg_apply",
]


def build_transfer(dims) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """Prolongation P = diag(Pu, Py, Pu) and restriction Q = diag(Pu^T, Qy,
    Pu^T), as CSR, for the discretization record dims (kkt.SystemDims): an
    n_elem mesh with solution degree p and mesh degree q."""
    n_elem, p, q, n_u, n_y = dims.n_elem, dims.p, dims.q, dims.n_u, dims.n_y
    element = np.repeat(np.arange(n_elem), p + 1)
    Pu = scipy.sparse.csr_matrix((np.ones(n_u), element, np.arange(n_u + 1)), shape=(n_u, n_elem))

    # Mesh node g at local fraction l/q of element e is the linear blend of
    # the element endpoints e and e + 1 with weights 1 - l/q and l/q; pinned
    # domain endpoints and zero weights contribute nothing.
    n_yc = n_elem - 1
    e, l = np.divmod(np.arange(1, n_y + 1), q)
    vertex = np.stack([e, e + 1], axis=1).ravel()
    weight = np.stack([1.0 - l / q, l / q], axis=1).ravel()
    keep = (0 < vertex) & (vertex < n_elem) & (weight != 0.0)
    rows = np.repeat(np.arange(n_y), 2)[keep]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_y))])
    Py = scipy.sparse.csr_matrix((weight[keep], vertex[keep] - 1, indptr), shape=(n_y, n_yc))
    Qy = scipy.sparse.csr_matrix((np.ones(n_yc), q * np.arange(1, n_elem) - 1, np.arange(n_elem)), shape=(n_yc, n_y))
    P = scipy.sparse.block_diag([Pu, Py, Pu], format="csr")
    Q = scipy.sparse.block_diag([Pu.T, Qy, Pu.T], format="csr")
    return P, Q


@dataclass
class CoarseSystem:
    A0: scipy.sparse.csr_matrix
    lu: Factor
    P: scipy.sparse.csr_matrix
    Q: scipy.sparse.csr_matrix


def assemble_coarse(A: LinearOperator, P, Q) -> CoarseSystem:
    """Galerkin coarse matrix A0 = Q (A P), with A P one application of A to
    the sparse block P, and its sparse LU."""
    A0 = Q @ A.apply(P)
    try:
        lu = sparse_lu(A0)
    except SingularBlock as exc:
        raise SingularCoarseMatrix("coarse matrix is singular to working precision") from exc
    return CoarseSystem(A0, lu, P, Q)


def pmg_apply(
    A: LinearOperator, coarse: CoarseSystem, smoother: Callable[[np.ndarray], np.ndarray], b: np.ndarray
) -> np.ndarray:
    """One two-level cycle: coarse correction followed by one smoothing step."""
    b = np.asarray(b, dtype=float)
    if b.shape != (A.dimension,):
        raise DimensionMismatch(f"vector length {b.shape} incompatible with dimension {A.dimension}")
    s = coarse.P @ coarse.lu.solve(coarse.Q @ b)
    s = s + smoother(b - A.apply(s))
    return s
