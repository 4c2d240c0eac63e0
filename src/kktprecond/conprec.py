"""Constrained preconditioners for the saddle-point system.

All eight catalog variants share the block anti-triangular layout

    At = [ 0      0      Ju~^T ]
         [ 0      Byy~   Jy^T  ]
         [ Ju~    Jy     0     ]

whose inverse applies in five steps (three solves, two products). The Hessian
approximation keeps only the mesh-mesh block; Ju~ is the exact Jacobian, its
block diagonal, or its block ILU0 factorization, and Byy~ is exact, diagonal,
or a point ILU0. Every approximation is a blocklinalg.Factor, with scipy's
SuperLU call, solve(rhs, trans="N"); trans="T" solves with the transpose.
The exact LU is SuperLU's own solve, block Jacobi one product with the
inverted diagonal blocks and point Jacobi one product with the reciprocal
diagonal. Block ILU0 is, when built, a natural-order sweep with its block
lower factor (blocklinalg.triangular_sweep) and SuperLU's LU of its block
upper factor, in the MDF order; point ILU0 is its two natural-order sweeps.
The *-p0 variants wrap the application in a two-level p-multigrid cycle with
this preconditioner as the smoother, on the system's transfers. A
preconditioner is GMRES's M: its apply(v) is M^-1 v.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse

from .blocklinalg import Factor, block_rows, sparse_lu, triangular_split, triangular_sweep
from .dgprecond import bilu0_factor, build_block_jacobi, mdf_order
from .errors import DimensionMismatch, PatternViolation, UnknownPreconditioner, ZeroPivot
from .kkt import KktSystem
from .pmultigrid import CoarseSystem, assemble_coarse, pmg_apply

__all__ = [
    "CATALOG",
    "point_jacobi",
    "point_ilu0_values",
    "point_ilu0_factor",
    "AtPreconditioner",
    "build_at_preconditioner",
    "apply_at_inverse",
]

CATALOG = ("A0", "BJ", "BILU", "BJ-ilu", "BILU-ilu", "A0-p0", "BJ-p0", "BILU-p0")


def point_jacobi(B: scipy.sparse.csr_matrix) -> Factor:
    """Division by diag(B), its entries below 1e-300 in magnitude replaced by 1."""
    if B.shape[0] != B.shape[1]:
        raise DimensionMismatch("point Jacobi needs a square matrix")
    diag = B.diagonal()
    tiny = np.abs(diag) < 1e-300
    if tiny.any():
        warnings.warn("point Jacobi: zero diagonal entries safeguarded to 1", RuntimeWarning)
        diag[tiny] = 1.0
    scale = partial(np.multiply, 1.0 / diag)
    return Factor(len(diag), scale, scale)


def point_ilu0_values(B: scipy.sparse.csr_matrix) -> np.ndarray:
    """Zero-fill scalar ILU of B in natural ordering, by IKJ elimination
    restricted to its pattern: the strict lower part of L (unit diagonal
    implied) and U, stored in B's pattern. B must be canonical CSR (sorted
    column indices, no repeated entries)."""
    n = B.shape[0]
    if B.shape[1] != n:
        raise DimensionMismatch("point ILU0 needs a square matrix")
    if not B.has_canonical_format:
        raise PatternViolation("point ILU0 needs sorted column indices without repeated entries")
    row_ptr = B.indptr.astype(np.int64)
    col_idx = B.indices.astype(np.int64)
    values = B.data.astype(float)
    rows = block_rows(row_ptr)
    diag_pos = np.full(n, -1, dtype=int)
    on_diag = np.flatnonzero(col_idx == rows)
    diag_pos[rows[on_diag]] = on_diag
    if np.any(diag_pos < 0):
        raise ZeroPivot(f"row {np.argmax(diag_pos < 0)}: diagonal entry missing from pattern")

    # The rows hold about four entries each, so the elimination runs on
    # Python floats (the same IEEE operations as numpy's float64 scalars,
    # without their per-operation overhead). where[j] is the position of
    # (i, j) in the row i being eliminated, or -1.
    ptr, cols, vals, diag = row_ptr.tolist(), col_idx.tolist(), values.tolist(), diag_pos.tolist()
    where = [-1] * n
    for i in range(n):
        for t in range(ptr[i], ptr[i + 1]):
            where[cols[t]] = t
        for k in range(ptr[i], diag[i]):
            c = cols[k]
            pivot = vals[diag[c]]
            if abs(pivot) < 1e-300:
                raise ZeroPivot(f"row {c}: zero pivot during elimination")
            vals[k] /= pivot
            lik = vals[k]
            for kk in range(diag[c] + 1, ptr[c + 1]):
                target = where[cols[kk]]
                if target >= 0:
                    vals[target] -= lik * vals[kk]
        for t in range(ptr[i], ptr[i + 1]):
            where[cols[t]] = -1
        if abs(vals[diag[i]]) < 1e-300:
            raise ZeroPivot(f"row {i}: zero pivot after elimination")
    return np.array(vals)


def point_ilu0_factor(B: scipy.sparse.csr_matrix) -> Factor:
    """point_ilu0_values of B, split into L and U by
    blocklinalg.triangular_split with blocks of size 1, compiled to its two
    natural-order triangular sweeps (blocklinalg.triangular_sweep): a solve
    is a forward then a backward sweep, or the transposed sweeps for
    trans="T"."""
    lower, upper = map(triangular_sweep, triangular_split(point_ilu0_values(B).reshape(-1, 1, 1), B.indices, B.indptr))
    return Factor(
        B.shape[0],
        lambda b: upper.solve(lower.solve(b)),
        lambda b: lower.solve(upper.solve(b, trans="T"), trans="T"),
    )


@dataclass
class AtPreconditioner:
    """Block anti-triangular constrained preconditioner, GMRES's M. A *-p0
    variant also holds multigrid, the system (the operator A) and its coarse
    system, and is the smoother of a two-level p-multigrid cycle."""

    variant: str
    ju: Factor
    byy: Factor
    Jy: scipy.sparse.csr_matrix
    multigrid: tuple[KktSystem, CoarseSystem] | None = None

    @property
    def dimension(self) -> int:
        return 2 * self.ju.n + self.byy.n

    @cached_property
    def Jy_T(self) -> scipy.sparse.csr_matrix:
        """Jy^T as CSR, built on the first apply; its product adds each row
        in ascending column order, as the transposed view of Jy would."""
        return self.Jy.T.tocsr()

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M^-1 v: apply_at_inverse of v, or with multigrid the whole cycle:
        coarse correction plus one smoothing with apply_at_inverse."""
        if self.multigrid is None:
            return apply_at_inverse(self, v)
        sys, coarse = self.multigrid
        return pmg_apply(sys, coarse, partial(apply_at_inverse, self), v)


def apply_at_inverse(P: AtPreconditioner, v: np.ndarray) -> np.ndarray:
    """Apply the anti-triangular inverse to v = (v1, v2, v3), the five-step
    sequence
      1. solve Ju~^T w1 = v1
      2. t2 = Jy^T w1
      3. solve Byy~ w2 = v2 - t2
      4. t3 = Jy w2
      5. solve Ju~ w3 = v3 - t3
    returning (w3, w2, w1).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (P.dimension,):
        raise DimensionMismatch(f"vector length {v.shape} incompatible with dimension {P.dimension}")
    n_u, n_y = P.ju.n, P.byy.n
    v1 = v[:n_u]
    v2 = v[n_u : n_u + n_y]
    v3 = v[n_u + n_y :]
    w1 = P.ju.apply_T(v1)
    t2 = P.Jy_T @ w1
    w2 = P.byy.apply(v2 - t2)
    t3 = P.Jy @ w2
    w3 = P.ju.apply(v3 - t3)
    return np.concatenate([w3, w2, w1])


def _build_ju_approx(sys: KktSystem, kind: str):
    Ju = sys.Ju
    if kind == "exact":
        return sparse_lu(Ju.tocsr())
    if kind == "block_jacobi":
        return build_block_jacobi(Ju)
    return bilu0_factor(Ju, mdf_order(Ju))


def _build_byy_approx(sys: KktSystem, kind: str):
    Byy = sys.Byy
    if kind == "exact":
        return sparse_lu(Byy)
    if kind == "point_jacobi":
        return point_jacobi(Byy)
    return point_ilu0_factor(Byy)


_VARIANT_TABLE = {
    "A0": ("exact", "exact", False),
    "BJ": ("block_jacobi", "point_jacobi", False),
    "BILU": ("bilu", "point_jacobi", False),
    "BJ-ilu": ("block_jacobi", "point_ilu0", False),
    "BILU-ilu": ("bilu", "point_ilu0", False),
    "A0-p0": ("exact", "exact", True),
    "BJ-p0": ("block_jacobi", "point_jacobi", True),
    "BILU-p0": ("bilu", "point_jacobi", True),
}


def build_at_preconditioner(sys: KktSystem, variant: str) -> AtPreconditioner:
    """Construct one of the eight catalog preconditioners for a system."""
    if variant not in _VARIANT_TABLE:
        raise UnknownPreconditioner(f"unknown preconditioner {variant!r}; catalog: {', '.join(CATALOG)}")
    ju_kind, byy_kind, with_pmg = _VARIANT_TABLE[variant]
    prec = AtPreconditioner(
        variant=variant,
        ju=_build_ju_approx(sys, ju_kind),
        byy=_build_byy_approx(sys, byy_kind),
        Jy=sys.Jy,
    )
    if with_pmg:
        transfers = sys.transfers
        if transfers is None:
            raise UnknownPreconditioner(f"{variant}: p-multigrid needs transfers on the system")
        prec.multigrid = (sys, assemble_coarse(sys, *transfers))
    return prec

