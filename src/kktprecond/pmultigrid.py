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

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .blocklinalg import PermutedLu, sparse_lu, stacked_diagonal
from .errors import SingularBlock, SingularCoarseMatrix
from .krylov import Preconditioner

__all__ = [
    "TransferOps",
    "CoarseSystem",
    "build_transfer",
    "full_prolongation",
    "full_restriction",
    "assemble_coarse",
    "pmg_apply",
]


@dataclass(frozen=True)
class TransferOps:
    """Per-field transfer matrices between the fine and coarse spaces."""

    Pu: scipy.sparse.csr_matrix
    Py: scipy.sparse.csr_matrix
    Qy: scipy.sparse.csr_matrix


def build_transfer(dims) -> TransferOps:
    """Transfers for the discretization record dims (kkt.SystemDims): an
    n_elem mesh with solution degree p and mesh degree q."""
    n_elem, p, q = dims.n_elem, dims.p, dims.q
    n_u = n_elem * (p + 1)
    element = np.repeat(np.arange(n_elem), p + 1)
    Pu = scipy.sparse.csr_matrix((np.ones(n_u), element, np.arange(n_u + 1)), shape=(n_u, n_elem))

    # Mesh node g at local fraction l/q of element e is the linear blend of
    # the element endpoints e and e + 1 with weights 1 - l/q and l/q; pinned
    # domain endpoints and zero weights contribute nothing.
    n_y = q * n_elem - 1
    n_yc = n_elem - 1
    e, l = np.divmod(np.arange(1, q * n_elem), q)
    vertex = np.stack([e, e + 1], axis=1).ravel()
    weight = np.stack([1.0 - l / q, l / q], axis=1).ravel()
    keep = (0 < vertex) & (vertex < n_elem) & (weight != 0.0)
    rows = np.repeat(np.arange(n_y), 2)[keep]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_y))])
    Py = scipy.sparse.csr_matrix((weight[keep], vertex[keep] - 1, indptr), shape=(n_y, n_yc))
    Qy = scipy.sparse.csr_matrix((np.ones(n_yc), q * np.arange(1, n_elem) - 1, np.arange(n_elem)), shape=(n_yc, n_y))
    return TransferOps(Pu, Py, Qy)


def full_prolongation(T: TransferOps) -> scipy.sparse.csr_matrix:
    return stacked_diagonal([[T.Pu], [T.Py], [T.Pu]])


def full_restriction(T: TransferOps) -> scipy.sparse.csr_matrix:
    Pu_T = T.Pu.T.tocsr()
    return stacked_diagonal([[Pu_T], [T.Qy], [Pu_T]])


@dataclass
class CoarseSystem:
    A0: scipy.sparse.csr_matrix
    lu: PermutedLu
    P: scipy.sparse.csr_matrix
    Q: scipy.sparse.csr_matrix


def assemble_coarse(opA, T: TransferOps) -> CoarseSystem:
    """Galerkin coarse matrix A0 = Q A P, formed as one sparse product, and its sparse LU."""
    P = full_prolongation(T)
    Q = full_restriction(T)
    A0 = Q @ opA.matmat(P)
    try:
        lu = sparse_lu(A0)
    except SingularBlock as exc:
        raise SingularCoarseMatrix("coarse matrix is singular to working precision") from exc
    return CoarseSystem(A0, lu, P, Q)


def pmg_apply(opA, coarse: CoarseSystem, smoother: Preconditioner, b: np.ndarray) -> np.ndarray:
    """One two-level cycle: coarse correction followed by one smoothing step."""
    b = np.asarray(b, dtype=float)
    s = coarse.P @ coarse.lu.solve(coarse.Q @ b)
    s = s + smoother.apply_inverse(b - opA.matvec(s))
    return s
