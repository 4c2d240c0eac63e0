"""The block sparse container with the dense-block kernels used everywhere else.

Matrices whose block structure the preconditioners use (the DG Jacobians Ju
and dRdu) are partitioned into rectangular dense blocks, one group of rows per
element, and stored in block-CSR form: the usual CSR index arrays over block
rows/columns, with a dense array per stored block. Every other matrix is a
scipy CSR matrix, kept canonical by canonical_csr; block_to_scipy gives the
scalar CSR view of a block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .errors import DimensionMismatch, PatternViolation, SingularBlock

__all__ = [
    "BlockPattern",
    "BlockCsrMatrix",
    "BlockLuFactor",
    "check_trans",
    "dense_lu_factor",
    "first_singular",
    "getrf",
    "PermutedLu",
    "permuted_lu",
    "sparse_lu",
    "block_transpose_matvec",
    "canonical_csr",
    "stacked_diagonal",
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


def check_trans(trans: str) -> None:
    """Reject a trans other than SuperLU's "N" (A x = b) and "T" (A^T x = b)."""
    if trans not in ("N", "T"):
        raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")


@dataclass
class BlockLuFactor:
    """In-place LU with partial pivoting of one square dense block, as LAPACK
    getrf leaves it (0-based pivots)."""

    lu_entries: np.ndarray
    pivots: np.ndarray

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve A x = b, or A^T x = b for trans="T", for a vector or a matrix
        of right-hand sides, by LAPACK getrs."""
        check_trans(trans)
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != len(self.pivots):
            raise DimensionMismatch(f"right-hand side {b.shape} incompatible with block of order {len(self.pivots)}")
        if b.size == 0:
            return np.empty_like(b)
        x, info = scipy.linalg.lapack.dgetrs(self.lu_entries, self.pivots, b, trans=int(trans == "T"))
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x


def getrf(block: np.ndarray) -> BlockLuFactor:
    """LAPACK getrf of one square dense block, with no pivot test (see
    first_singular)."""
    lu, piv, info = scipy.linalg.lapack.dgetrf(block)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return BlockLuFactor(lu, piv)


def first_singular(blocks: list[np.ndarray], factors: list[BlockLuFactor]) -> tuple[int, str] | None:
    """Position and description of the first near-singular block, found by
    one vectorized test over all of them, or None.

    A pivot smaller than 1e-14 times the largest initial entry magnitude of
    its block is treated as singular so downstream solves fail loudly instead
    of emitting NaNs; an exactly zero pivot, which getrf reports, is one of
    these. Empty blocks pass.
    """
    sizes = np.array([len(f.pivots) for f in factors], dtype=int)
    keep = np.flatnonzero(sizes)
    sizes = sizes[keep]
    if not len(keep):
        return None
    entries = np.abs(np.concatenate([np.ravel(blocks[k]) for k in keep]))
    scale = np.maximum.reduceat(entries, np.cumsum(sizes**2) - sizes**2)
    pivots = np.abs(np.concatenate([np.diagonal(factors[k].lu_entries) for k in keep]))
    small = np.logical_or.reduceat(pivots < 1e-14 * np.repeat(scale, sizes), np.cumsum(sizes) - sizes)
    bad = np.flatnonzero((scale == 0.0) | small)
    if not len(bad):
        return None
    return int(keep[bad[0]]), f"pivot below 1e-14 relative threshold (scale {scale[bad[0]]:g})"


def dense_lu_factor(block: np.ndarray) -> BlockLuFactor:
    """Factor one dense block as PA = LU by LAPACK getrf, rejecting
    near-singular blocks as first_singular does."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise DimensionMismatch(f"LU needs a square block, got {block.shape}")
    if not block.size:
        return BlockLuFactor(np.empty_like(block), np.arange(0, dtype=np.int32))
    lu = getrf(block)
    bad = first_singular([block], [lu])
    if bad:
        raise SingularBlock(bad[1])
    return lu


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
        check_trans(trans)
        x = np.empty_like(b)
        if trans == "N":
            x[self.cols] = self.upper.solve(self.lower.solve(b[self.rows]))
        else:
            x[self.rows] = self.lower.solve(self.upper.solve(b[self.cols], trans="T"), trans="T")
        return x


def permuted_lu(L, U, rows: np.ndarray, cols: np.ndarray) -> PermutedLu:
    """Compile sparse triangular factors L (unit lower) and U (upper) of
    A[rows][:, cols].

    Raises SingularBlock where SuperLU meets a zero on the diagonal, and
    RuntimeError if it reorders a column or picks an off-diagonal pivot,
    since its solve would then not be the sweep.
    """
    identity = np.arange(len(rows))

    def sweep(T) -> scipy.sparse.linalg.SuperLU:
        try:
            lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(T), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        except RuntimeError as exc:
            raise SingularBlock(f"triangular factor: {exc}") from exc
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


def stacked_diagonal(groups) -> scipy.sparse.csr_matrix:
    """CSR matrix block_diag(vstack(g) for g in groups) of CSR matrices.

    The arrays of each matrix are concatenated as stored, never re-sorted:
    every row of the result holds the entries of one row of one matrix in
    their stored order, so its product with a vector or a sparse block
    accumulates the same float sequence as that matrix's own product.
    """
    indptr, indices, data = [np.zeros(1, dtype=np.int64)], [], []
    n_rows = n_cols = nnz = 0
    for group in groups:
        for M in group:
            indptr.append(M.indptr[1:] + nnz)
            indices.append(M.indices[: M.nnz] + n_cols)
            data.append(M.data[: M.nnz])
            n_rows += M.shape[0]
            nnz += M.nnz
        n_cols += group[0].shape[1]
    return scipy.sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)), shape=(n_rows, n_cols)
    )


def densify(A) -> np.ndarray:
    """Dense array of a BlockCsrMatrix or of a scipy sparse matrix."""
    return A.toarray()


def block_to_scipy(A: BlockCsrMatrix) -> scipy.sparse.csr_matrix:
    """Scalar CSR view of a block matrix (stored zeros kept in the pattern),
    with sorted column indices, placed directly from the block layout."""
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
    # The stored blocks of a block row lie side by side in each of its point
    # rows, block k starting `before[k]` entries into the row.
    first = np.cumsum(bcols) - bcols
    before = first - first[pat.row_ptr[brow]]
    row_width = np.bincount(brow, weights=bcols, minlength=pat.n_block_rows).astype(int)
    indptr = np.concatenate([[0], np.cumsum(np.repeat(row_width, pat.row_block_sizes))])
    dest = indptr[pat.row_offsets[brow][k] + a] + before[k] + b
    indices = np.empty(len(dest), dtype=int)
    indices[dest] = pat.col_offsets[pat.col_idx][k] + b
    data = np.empty(len(dest))
    data[dest] = np.concatenate(A.blocks, axis=None)
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)
