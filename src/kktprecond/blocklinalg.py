"""The pivot test of dense block LUs, the Factor type that every Ju~ / Byy~
approximation is (SuperLU's solve of a sparse LU, or triangular sweeps
compiled by triangular_sweep), and the canonical forms of the sparse
matrices.

Matrices whose block structure the preconditioners use (the DG Jacobians Ju
and dRdu) are scipy BSR matrices with one block row per element, kept
canonical by canonical_bsr; every other matrix is a scipy CSR matrix, kept
canonical by canonical_csr.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import DimensionMismatch, PatternViolation, SingularBlock

__all__ = [
    "Factor",
    "block_rows",
    "check_trans",
    "checked_splu",
    "first_singular",
    "sparse_lu",
    "triangular_split",
    "triangular_sweep",
    "canonical_bsr",
    "canonical_csr",
]


def check_trans(trans: str) -> None:
    """Reject a trans other than SuperLU's "N" (A x = b) and "T" (A^T x = b)."""
    if trans not in ("N", "T"):
        raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")


def first_singular(blocks: np.ndarray, lu_entries: np.ndarray | list[np.ndarray]) -> tuple[int, str] | None:
    """Position and description of the first near-singular block of a
    (count, s, s) stack, given the LU entries LAPACK getrf left for each
    (a stack of the same shape, or a list of s x s arrays), found by one
    vectorized test over all of them, or None.

    A pivot smaller than 1e-14 times the largest initial entry magnitude of
    its block is treated as singular so downstream solves fail loudly instead
    of emitting NaNs; an exactly zero pivot, which getrf reports, is one of
    these. The pivots are read through one strided view of the stacked
    entries.
    """
    scale = np.abs(blocks).max(axis=(1, 2))
    pivots = np.abs(np.diagonal(np.reshape(lu_entries, blocks.shape), axis1=1, axis2=2))
    bad = np.flatnonzero((scale == 0.0) | np.any(pivots < 1e-14 * scale[:, None], axis=1))
    if not len(bad):
        return None
    return int(bad[0]), f"pivot below 1e-14 relative threshold (scale {scale[bad[0]]:g})"


@dataclass(frozen=True)
class Factor:
    """Solves with an approximation M of a square matrix of order n: apply(b)
    returns M^-1 b and apply_T(b) returns M^-T b for a vector b of length n."""

    n: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_T: Callable[[np.ndarray], np.ndarray]

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve M x = b, or M^T x = b for trans="T" (SuperLU's convention)."""
        check_trans(trans)
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise DimensionMismatch(f"vector length {b.shape} incompatible with dimension {self.n}")
        return (self.apply if trans == "N" else self.apply_T)(b)


def block_rows(indptr) -> np.ndarray:
    """Block row of each stored block of a BSR matrix with index pointer
    indptr; of a CSR matrix, the row of each stored entry."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _column_major(blocks: np.ndarray, row_of: np.ndarray, block_cols: np.ndarray, picked: np.ndarray, nb: int):
    """data, indices and indptr of the CSC matrix of order nb * s holding
    the blocks at the storage positions picked, which list each block
    column's blocks in ascending block row: each block's s x s layout is
    spread over its s point columns."""
    s = blocks.shape[1]
    cols = block_cols[picked]
    per_col = np.bincount(cols, minlength=nb)
    col_start = np.cumsum(per_col) - per_col
    # Column c of the m-th block of block column C, picked[col_start[C] + m],
    # is the s entries of segment s * col_start[C] + c * per_col[C] + m.
    segment = (np.arange(len(cols)) + (s - 1) * col_start[cols])[:, None] + np.arange(s) * per_col[cols][:, None]
    code = np.empty(s * len(cols), dtype=np.intp)
    code[segment.ravel()] = (picked[:, None] * s + np.arange(s)).ravel()
    block_of, col_of = np.divmod(code, s)
    data = blocks[block_of, :, col_of].ravel()
    indices = (row_of[block_of, None] * s + np.arange(s)).ravel()
    indptr = np.append(s * (s * col_start[:, None] + np.arange(s) * per_col[:, None]).ravel(), s * len(code))
    return data, indices, indptr


def triangular_split(blocks, indices, indptr) -> tuple[scipy.sparse.csc_matrix, scipy.sparse.csc_matrix]:
    """The CSC factors L and U of the square block-CSR matrix with the
    (count, s, s) block stack blocks, sorted block column indices and
    indptr, split at the block level: L is its strict lower blocks plus the
    identity, their exact zeros dropped, and U its diagonal and upper
    blocks, stored zeros kept. For s = 1 these are tril(S, -1) + I and
    triu(S).

    The blocks are sorted by block column once, then each block's s x s
    layout is expanded. The arrays, dtypes included, are those scipy builds
    through COO or tril / triu and a sparse sum with the identity, so
    SuperLU factors them alike."""
    blocks = np.asarray(blocks, dtype=float)
    nb, s = len(indptr) - 1, blocks.shape[1]
    n = nb * s
    row_of = block_rows(indptr)
    # A stable sort keeps each block column's blocks in block row order.
    by_col = np.argsort(indices, kind="stable")
    below = row_of[by_col] > indices[by_col]
    U = scipy.sparse.csc_matrix(_column_major(blocks, row_of, indices, by_col[~below], nb), shape=(n, n))
    data, rows, ptr = _column_major(blocks, row_of, indices, by_col[below], nb)
    # As the sum with the identity: exact zeros dropped, and a unit entry
    # first in every column, above the strict lower blocks.
    kept = data != 0.0
    kept_before = np.append(0, np.cumsum(kept))
    l_ptr = np.append(0, np.cumsum(kept_before[ptr[1:]] - kept_before[ptr[:-1]] + 1))
    on_diag = np.zeros(l_ptr[-1], dtype=bool)
    on_diag[l_ptr[:-1]] = True
    l_data = np.ones(l_ptr[-1])
    l_data[~on_diag] = data[kept]
    l_rows = np.repeat(np.arange(n), np.diff(l_ptr))
    l_rows[~on_diag] = rows[kept]
    return scipy.sparse.csc_matrix((l_data, l_rows, l_ptr), shape=(n, n)), U


def triangular_sweep(T) -> scipy.sparse.linalg.SuperLU:
    """A square triangular sparse T compiled to a SuperLU object of a
    natural-order factorization that neither reorders nor pivots, so its
    solve is exactly the triangular sweep, and trans="T" the transposed one.

    Raises SingularBlock where SuperLU meets a zero on the diagonal, and
    RuntimeError if it reorders a column or picks an off-diagonal pivot,
    since its solve would then not be the sweep.
    """
    try:
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(T), permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularBlock(f"triangular factor: {exc}") from exc
    identity = np.arange(T.shape[0])
    if not (np.array_equal(lu.perm_r, identity) and np.array_equal(lu.perm_c, identity)):
        raise RuntimeError("SuperLU permuted a triangular factor")
    return lu


def checked_splu(A, error: type[Exception], context: str) -> scipy.sparse.linalg.SuperLU:
    """SuperLU factors of a square sparse matrix, with its default column
    ordering and partial pivoting.

    Raises error, its message prefixed by context, where SuperLU meets an
    exactly zero pivot or a pivot of U is below 1e-14 times the largest entry
    magnitude of A, the relative test of first_singular.
    """
    A = scipy.sparse.csc_matrix(A)
    try:
        lu = scipy.sparse.linalg.splu(A)
    except RuntimeError as exc:
        raise error(f"{context}: {exc}") from exc
    scale = np.abs(A.data).max(initial=0.0)
    if np.any(np.abs(lu.U.diagonal()) < 1e-14 * scale):
        raise error(f"{context}: pivot below 1e-14 relative threshold (scale {scale:g})")
    return lu


def sparse_lu(A) -> Factor:
    """Exact sparse LU of a square matrix (checked_splu) as a Factor that
    calls SuperLU's own solve; a singular A raises SingularBlock."""
    lu = checked_splu(A, SingularBlock, "sparse LU")
    return Factor(lu.shape[0], lu.solve, lambda b: lu.solve(b, trans="T"))


def canonical_bsr(M, name: str = "matrix") -> scipy.sparse.bsr_matrix:
    """M as a float BSR matrix; a float input keeps its arrays.

    Raises TypeError if M is not BSR and PatternViolation if its index
    arrays are malformed or a block row repeats or misorders its block
    column indices.
    """
    if getattr(M, "format", None) != "bsr":
        raise TypeError(f"{name} must be a scipy BSR matrix, got {type(M).__name__}")
    try:
        M.check_format(full_check=True)
    except ValueError as exc:
        raise PatternViolation(f"{name}: {exc}") from exc
    if not M.has_canonical_format:
        raise PatternViolation(f"{name}: block column indices must be strictly increasing in every block row")
    return M.astype(float, copy=False)


def canonical_csr(M, name: str = "matrix") -> scipy.sparse.csr_matrix:
    """M as a float CSR matrix with sorted column indices and no repeated
    entries (repeats are summed); a canonical float CSR input keeps its arrays."""
    if not scipy.sparse.issparse(M):
        raise TypeError(f"{name} must be a scipy sparse matrix, got {type(M).__name__}")
    M = scipy.sparse.csr_matrix(M, dtype=float)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    return M

