"""The block sparse container with the dense-block kernels used everywhere else.

Matrices whose block structure the preconditioners use (the DG Jacobians Ju
and dRdu) are partitioned into rectangular dense blocks, one group of rows per
element, and stored in block-CSR form: the usual CSR index arrays over block
rows/columns, with a dense array per stored block. Every other matrix is a
scipy CSR matrix, kept canonical by canonical_csr; block_to_scipy gives the
scalar CSR view of a block matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import DimensionMismatch, PatternViolation, SingularBlock

__all__ = [
    "BlockPattern",
    "BlockCsrMatrix",
    "BlockLuFactor",
    "dense_lu_factor",
    "PermutedLu",
    "permuted_lu",
    "sparse_lu",
    "block_transpose_matvec",
    "canonical_csr",
    "densify",
    "block_to_scipy",
]


@dataclass(frozen=True)
class BlockPattern:
    """Block-CSR sparsity pattern with per-group row and column sizes."""

    row_block_sizes: np.ndarray
    col_block_sizes: np.ndarray
    row_ptr: np.ndarray
    col_idx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_block_sizes", np.asarray(self.row_block_sizes, dtype=int))
        object.__setattr__(self, "col_block_sizes", np.asarray(self.col_block_sizes, dtype=int))
        object.__setattr__(self, "row_ptr", np.asarray(self.row_ptr, dtype=int))
        object.__setattr__(self, "col_idx", np.asarray(self.col_idx, dtype=int))
        nbr = len(self.row_block_sizes)
        nbc = len(self.col_block_sizes)
        if len(self.row_ptr) != nbr + 1 or self.row_ptr[0] != 0:
            raise PatternViolation("row_ptr must have one entry per block row plus a leading 0")
        if np.any(np.diff(self.row_ptr) < 0):
            raise PatternViolation("row_ptr must be nondecreasing")
        if self.row_ptr[-1] != len(self.col_idx):
            raise PatternViolation("row_ptr end must equal number of stored blocks")
        i = _first_bad_row(self.row_ptr, self.col_idx, nbc)
        if i is not None:
            raise PatternViolation(f"block row {i}: col_idx must be strictly increasing and in range")

    @property
    def n_block_rows(self) -> int:
        return len(self.row_block_sizes)

    @property
    def n_block_cols(self) -> int:
        return len(self.col_block_sizes)

    @property
    def n_rows(self) -> int:
        return int(self.row_block_sizes.sum())

    @property
    def n_cols(self) -> int:
        return int(self.col_block_sizes.sum())

    @property
    def row_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.row_block_sizes)])

    @property
    def col_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.col_block_sizes)])

    @property
    def block_rows(self) -> np.ndarray:
        """Block row of each stored block."""
        return np.repeat(np.arange(self.n_block_rows), np.diff(self.row_ptr))

    def block_index(self, i: int, j: int) -> int | None:
        """Position of block (i, j) in storage, or None if not stored."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        k = lo + np.searchsorted(self.col_idx[lo:hi], j)
        if k < hi and self.col_idx[k] == j:
            return int(k)
        return None


def _first_bad_row(row_ptr: np.ndarray, col_idx: np.ndarray, n_cols: int) -> int | None:
    """First row of a CSR structure (row_ptr already checked nondecreasing and
    ending at len(col_idx)) whose columns are not strictly increasing and in
    [0, n_cols), or None."""
    bad = (col_idx < 0) | (col_idx >= n_cols)
    row_start = np.zeros(len(col_idx), dtype=bool)
    row_start[row_ptr[:-1][row_ptr[:-1] < len(col_idx)]] = True
    bad[1:] |= (np.diff(col_idx) <= 0) & ~row_start[1:]
    if not bad.any():
        return None
    return int(np.searchsorted(row_ptr, np.argmax(bad), side="right") - 1)


@dataclass
class BlockCsrMatrix:
    """Pattern plus one dense array per stored block, aligned with col_idx."""

    pattern: BlockPattern
    blocks: list[np.ndarray]

    def __post_init__(self):
        pat = self.pattern
        if len(self.blocks) != len(pat.col_idx):
            raise PatternViolation("one dense block required per stored position")
        self.blocks = [np.asarray(blk, dtype=float) for blk in self.blocks]
        brow = pat.block_rows
        want = list(zip(pat.row_block_sizes[brow].tolist(), pat.col_block_sizes[pat.col_idx].tolist()))
        shapes = [blk.shape for blk in self.blocks]
        if shapes != want:
            k = next(k for k, (got, exp) in enumerate(zip(shapes, want)) if got != exp)
            raise DimensionMismatch(
                f"block ({brow[k]},{pat.col_idx[k]}) has shape {shapes[k]}, expected {want[k]}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.pattern.n_rows, self.pattern.n_cols)

    def toarray(self) -> np.ndarray:
        """Dense copy, written block by block."""
        pat = self.pattern
        roff, coff = pat.row_offsets, pat.col_offsets
        out = np.zeros(self.shape)
        for i, j, blk in zip(pat.block_rows, pat.col_idx, self.blocks):
            out[roff[i] : roff[i + 1], coff[j] : coff[j + 1]] = blk
        return out


@dataclass
class BlockLuFactor:
    """In-place LU with partial pivoting of one square dense block."""

    lu_entries: np.ndarray
    pivots: np.ndarray

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve A x = b, or A^T x = b for trans="T" (SuperLU's convention)."""
        return scipy.linalg.lu_solve((self.lu_entries, self.pivots), b, trans=("N", "T").index(trans))


def dense_lu_factor(block: np.ndarray) -> BlockLuFactor:
    """Factor one dense block as PA = LU, rejecting near-singular blocks.

    A pivot smaller than 1e-14 times the largest initial entry magnitude is
    treated as singular so downstream solves fail loudly instead of emitting
    NaNs.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise DimensionMismatch(f"LU needs a square block, got {block.shape}")
    scale = np.abs(block).max() if block.size else 0.0
    with warnings.catch_warnings():
        # The pivot check below turns exact singularity into a typed error, so
        # scipy's advisory warning would only duplicate it.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(block, check_finite=False)
    diag = np.abs(np.diag(lu))
    if block.size and (scale == 0.0 or np.any(diag < 1e-14 * scale)):
        raise SingularBlock(f"pivot below 1e-14 relative threshold (scale {scale:g})")
    return BlockLuFactor(lu, piv)


@dataclass
class PermutedLu:
    """Factors of a square A with A[rows][:, cols] = L U, L unit lower and U
    upper triangular in point order.

    L and U are each held as a SuperLU object of a natural-order
    factorization that neither reorders nor pivots, so its solve is exactly
    the triangular sweep: a solve is one gather, two compiled sweeps and one
    scatter, and trans="T" is SuperLU's own transposed solve.
    """

    rows: np.ndarray
    cols: np.ndarray
    lower: scipy.sparse.linalg.SuperLU
    upper: scipy.sparse.linalg.SuperLU

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve A x = b, or A^T x = b for trans="T" (SuperLU's convention)."""
        b = np.asarray(b, dtype=float)
        if b.shape != self.rows.shape:
            raise DimensionMismatch(f"vector length {b.shape} incompatible with dimension {len(self.rows)}")
        x = np.empty_like(b)
        if trans == "N":
            x[self.cols] = self.upper.solve(self.lower.solve(b[self.rows]))
        elif trans == "T":
            x[self.rows] = self.lower.solve(self.upper.solve(b[self.cols], trans="T"), trans="T")
        else:
            raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")
        return x


def permuted_lu(L, U, rows: np.ndarray, cols: np.ndarray) -> PermutedLu:
    """Compile sparse triangular factors L (unit lower) and U (upper) of
    A[rows][:, cols].

    Raises RuntimeError if SuperLU reorders a column or picks an
    off-diagonal pivot, since its solve would then not be the sweep.
    """
    identity = np.arange(len(rows))

    def sweep(T) -> scipy.sparse.linalg.SuperLU:
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(T), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        if not (np.array_equal(lu.perm_r, identity) and np.array_equal(lu.perm_c, identity)):
            raise RuntimeError("SuperLU permuted a triangular factor")
        return lu

    return PermutedLu(np.asarray(rows), np.asarray(cols), sweep(L), sweep(U))


def sparse_lu(A) -> PermutedLu:
    """Exact sparse LU of a square matrix (SuperLU with its default column
    ordering and partial pivoting), compiled to a PermutedLu.

    Raises SingularBlock where SuperLU meets an exactly zero pivot.
    """
    try:
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(A))
    except RuntimeError as exc:
        raise SingularBlock(f"sparse LU: {exc}") from exc
    # SuperLU factors Pr A Pc = L U with (Pr A)[perm_r[i]] = A[i] and
    # (A Pc)[:, j] = A[:, perm_c[j]].
    return permuted_lu(lu.L, lu.U, np.argsort(lu.perm_r), lu.perm_c)


def block_transpose_matvec(A: BlockCsrMatrix, v: np.ndarray) -> np.ndarray:
    """y = A^T v without materializing the transpose."""
    v = np.asarray(v, dtype=float)
    pat = A.pattern
    if v.shape != (pat.n_rows,):
        raise DimensionMismatch(f"vector length {v.shape} incompatible with {A.shape} transposed")
    roff, coff = pat.row_offsets, pat.col_offsets
    y = np.zeros(pat.n_cols)
    for i, j, blk in zip(pat.block_rows, pat.col_idx, A.blocks):
        y[coff[j] : coff[j + 1]] += blk.T @ v[roff[i] : roff[i + 1]]
    return y


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


def densify(A) -> np.ndarray:
    """Dense array of a BlockCsrMatrix or of a scipy sparse matrix."""
    return A.toarray()


def block_to_scipy(A: BlockCsrMatrix) -> scipy.sparse.csr_matrix:
    """Scalar CSR view of a block matrix (stored zeros kept in the pattern)."""
    pat = A.pattern
    shape = (pat.n_rows, pat.n_cols)
    if not A.blocks:
        return scipy.sparse.csr_matrix(shape)
    # Entry e of the concatenated row-major blocks lies in block k at local
    # offset t = a * n_cols_k + b.
    brow = pat.block_rows
    bcols = pat.col_block_sizes[pat.col_idx]
    sizes = pat.row_block_sizes[brow] * bcols
    starts = np.cumsum(sizes) - sizes
    k = np.repeat(np.arange(len(sizes)), sizes)
    t = np.arange(sizes.sum()) - starts[k]
    a, b = np.divmod(t, bcols[k])
    rows = pat.row_offsets[brow][k] + a
    cols = pat.col_offsets[pat.col_idx][k] + b
    vals = np.concatenate(A.blocks, axis=None)
    csr = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    csr.sort_indices()
    return csr
