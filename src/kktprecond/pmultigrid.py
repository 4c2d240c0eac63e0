"""Two-level p-multigrid wrapper for the saddle-point preconditioners.

The coarse system is the Galerkin product Q (A P) of an operator A with the
prolongation P and restriction Q that its system provides
(KktSystem.transfers), and its sparse LU; this module reads nothing of the
discretization. A is anything with a dimension and apply(v), a KktSystem
in the catalog. One application of the wrapper is: restrict the right-hand
side, solve the Galerkin coarse matrix directly, prolongate, then apply the
smoother once as a correction. The restriction and prolongation of a cycle
are compiled products (blocklinalg.csr_product) on the arrays of Q and P,
bound when the coarse system is built; the assembly's sparse products, K P
(the operator's own apply) and Q (K P), run through the kernel layer
(blocklinalg.sparse_product).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .blocklinalg import Factor, csr_product, sparse_lu, sparse_product
from .errors import DimensionMismatch, SingularBlock, SingularCoarseMatrix

__all__ = [
    "CoarseSystem",
    "assemble_coarse",
    "pmg_apply",
]


@dataclass
class CoarseSystem:
    """The Galerkin coarse matrix A0, its sparse LU, and the CSR transfers P
    and Q with their products prolong and restrict (blocklinalg.csr_product)."""

    A0: scipy.sparse.csr_matrix
    lu: Factor
    P: scipy.sparse.csr_matrix
    Q: scipy.sparse.csr_matrix
    prolong: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)
    restrict: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.prolong, self.restrict = csr_product(self.P), csr_product(self.Q)


def assemble_coarse(A, P, Q) -> CoarseSystem:
    """Galerkin coarse matrix A0 = Q (A P), with A P one application of A to
    the sparse block P, and its sparse LU. A P must come back as float64
    CSR with int32 indices, as a KktSystem's does; the product with Q is
    blocklinalg.sparse_product, Q @ (A P) bit for bit."""
    A0 = sparse_product(Q, A.apply(P))
    try:
        lu = sparse_lu(A0)
    except SingularBlock as exc:
        raise SingularCoarseMatrix("coarse matrix is singular to working precision") from exc
    return CoarseSystem(A0, lu, P, Q)


def pmg_apply(A, coarse: CoarseSystem, smoother: Callable[[np.ndarray], np.ndarray], b: np.ndarray) -> np.ndarray:
    """One two-level cycle: coarse correction followed by one smoothing step."""
    b = np.asarray(b, dtype=float)
    if b.shape != (A.dimension,):
        raise DimensionMismatch(f"vector length {b.shape} incompatible with dimension {A.dimension}")
    s = coarse.prolong(coarse.lu.apply(coarse.restrict(b)))
    s = s + smoother(b - A.apply(s))
    return s
