"""Two-level p-multigrid wrapper for the saddle-point preconditioners.

The coarse system is the Galerkin product Q (A P) of an operator A with the
prolongation P and restriction Q that its system provides
(KktSystem.transfers), and its sparse LU; this module reads nothing of the
discretization. A is anything with a dimension and apply(v), a KktSystem
in the catalog. One application of the wrapper is: restrict the right-hand
side, solve the Galerkin coarse matrix directly, prolongate, then apply the
smoother once as a correction.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .blocklinalg import Factor, sparse_lu
from .errors import DimensionMismatch, SingularBlock, SingularCoarseMatrix

__all__ = [
    "CoarseSystem",
    "assemble_coarse",
    "pmg_apply",
]


@dataclass
class CoarseSystem:
    A0: scipy.sparse.csr_matrix
    lu: Factor
    P: scipy.sparse.csr_matrix
    Q: scipy.sparse.csr_matrix


def assemble_coarse(A, P, Q) -> CoarseSystem:
    """Galerkin coarse matrix A0 = Q (A P), with A P one application of A to
    the sparse block P, and its sparse LU."""
    A0 = Q @ A.apply(P)
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
    s = coarse.P @ coarse.lu.apply(coarse.Q @ b)
    s = s + smoother(b - A.apply(s))
    return s
