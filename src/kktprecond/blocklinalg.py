"""The pivot test of dense block LUs, the Factor type that every Ju~ / Byy~
approximation is (SuperLU's solve of a sparse LU, or triangular sweeps
compiled by triangular_sweep), the canonical forms of the sparse matrices,
and the one route to scipy's compiled sparse kernels: csr_product, the
product with a CSR matrix that every GMRES iteration makes, and the kernel
layer (CsrArrays and the csr_* helpers) that every sparse product, sum,
transpose and conversion of a solve's set-up runs through.

Matrices whose block structure the preconditioners use (the DG Jacobians Ju
and dRdu) are scipy BSR matrices with one block row per element, kept
canonical by canonical_bsr; every other matrix is a scipy CSR matrix, kept
canonical by canonical_csr.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse._sparsetools import (
    bsr_tocsr,
    csr_eliminate_zeros,
    csr_has_canonical_format,
    csr_has_sorted_indices,
    csr_matmat,
    csr_matmat_maxnnz,
    csr_matvec,
    csr_plus_csr,
    csr_sort_indices,
    csr_tocsc,
)

from .errors import DimensionMismatch, PatternViolation, SingularBlock

__all__ = [
    "Factor",
    "block_rows",
    "checked_splu",
    "first_singular",
    "sparse_lu",
    "triangular_split",
    "triangular_sweep",
    "canonical_pattern",
    "canonical_bsr",
    "canonical_csr",
    "csr_product",
    "CsrArrays",
    "csr_arrays",
    "bsr_to_csr",
    "csr_transpose",
    "csr_matmul",
    "csr_plus",
    "sort_rows",
    "drop_zeros",
    "csr_vstack",
    "sparse_product",
]

# The private scipy kernels this module binds, the ones a scipy release that
# moved scipy.sparse._sparsetools would take away.
SPARSETOOLS_KERNELS = (
    bsr_tocsr,
    csr_eliminate_zeros,
    csr_has_canonical_format,
    csr_has_sorted_indices,
    csr_matmat,
    csr_matmat_maxnnz,
    csr_matvec,
    csr_plus_csr,
    csr_sort_indices,
    csr_tocsc,
)

# The relative pivot test of first_singular, checked_splu and the SQP step's
# band LU (shocktrack), and its message.
PIVOT_THRESHOLD = 1e-14
_SMALL_PIVOT = f"pivot below {PIVOT_THRESHOLD:g} relative threshold (scale {{:g}})"


def first_singular(blocks: np.ndarray, lu_entries: np.ndarray | list[np.ndarray]) -> tuple[int, str] | None:
    """Position and description of the first near-singular block of a
    (count, s, s) stack, given the LU entries LAPACK getrf left for each
    (a stack of the same shape, or a list of s x s arrays), found by one
    vectorized test over all of them, or None.

    A pivot below PIVOT_THRESHOLD times the largest initial entry magnitude
    of its block is singular, so downstream solves fail loudly instead of
    emitting NaNs; an exactly zero pivot, which getrf reports, is one of
    these. The pivots are read through one strided view of the stacked
    entries.
    """
    scale = np.abs(blocks).max(axis=(1, 2))
    pivots = np.abs(np.diagonal(np.reshape(lu_entries, blocks.shape), axis1=1, axis2=2))
    bad = np.flatnonzero((scale == 0.0) | np.any(pivots < PIVOT_THRESHOLD * scale[:, None], axis=1))
    if not len(bad):
        return None
    return int(bad[0]), _SMALL_PIVOT.format(scale[bad[0]])


@dataclass(frozen=True)
class Factor:
    """Solves with an approximation M of a square matrix of order n: apply(b)
    returns M^-1 b and apply_T(b) returns M^-T b for a vector b of length n."""

    n: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_T: Callable[[np.ndarray], np.ndarray]


def block_rows(indptr) -> np.ndarray:
    """Block row of each stored block of a BSR matrix with index pointer
    indptr; of a CSR matrix, the row of each stored entry."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def triangular_split(blocks, indices, indptr) -> tuple[scipy.sparse.csc_matrix, scipy.sparse.csc_matrix]:
    """The CSC factors L and U of the square block-CSR matrix with the
    (count, s, s) block stack blocks, sorted block column indices and
    indptr, split at the block level: L is its strict lower blocks plus the
    identity, their exact zeros dropped, and U its diagonal and upper
    blocks, stored zeros kept. For s = 1 these are tril(S, -1) + I and
    triu(S). Every diagonal block must be stored, as bilu0_blocks and
    point_ilu0_values, whose results this splits, ensure.

    Both are scipy's BSR-to-CSC conversions (bsr_matrix.tocsc(), a BSR-to-CSR
    then a CSR-to-CSC conversion), replayed by the kernel layer on int32
    index arrays: U of the blocks on and above the diagonal, L of the whole
    pattern with I in each diagonal block and zeros in each upper one, then
    drop_zeros, which leaves the unit entry first in every column. The
    arrays, dtypes and signs of zeros included, are those scipy builds
    through COO or tril / triu and a sparse sum with the identity, so
    SuperLU factors them alike."""
    blocks = np.asarray(blocks, dtype=float)
    indices, indptr = np.asarray(indices, dtype=np.int32), np.asarray(indptr, dtype=np.int32)
    nb, s = len(indptr) - 1, blocks.shape[1]
    shape = (nb * s, nb * s)
    row_of = block_rows(indptr)
    upper = row_of <= indices
    u_ptr = np.append(0, np.cumsum(np.bincount(row_of[upper], minlength=nb))).astype(np.int32)
    lower = np.where(upper[:, None, None], 0.0, blocks)
    lower[row_of == indices] = np.eye(s)

    def csc(T: CsrArrays) -> scipy.sparse.csc_matrix:
        # T holds the CSC arrays, sorted as tocsc() marks them.
        M = scipy.sparse.csc_matrix((T.data, T.indices, T.indptr), shape=shape)
        M.has_sorted_indices = True
        return M

    U = csc(csr_transpose(bsr_to_csr(blocks[upper], indices[upper], u_ptr, shape)))
    L = csc(drop_zeros(csr_transpose(bsr_to_csr(lower, indices, indptr, shape))))
    return L, U


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
    exactly zero pivot or a pivot of U is below PIVOT_THRESHOLD times the
    largest entry magnitude of A, the relative test of first_singular.
    """
    A = scipy.sparse.csc_matrix(A)
    try:
        lu = scipy.sparse.linalg.splu(A)
    except RuntimeError as exc:
        raise error(f"{context}: {exc}") from exc
    scale = np.abs(A.data).max(initial=0.0)
    if np.any(np.abs(lu.U.diagonal()) < PIVOT_THRESHOLD * scale):
        raise error(f"{context}: {_SMALL_PIVOT.format(scale)}")
    return lu


def sparse_lu(A) -> Factor:
    """Exact sparse LU of a square matrix (checked_splu) as a Factor that
    calls SuperLU's own solve; a singular A raises SingularBlock."""
    lu = checked_splu(A, SingularBlock, "sparse LU")
    return Factor(lu.shape[0], lu.solve, lambda b: lu.solve(b, trans="T"))


def canonical_pattern(M, name: str) -> bool:
    """Whether the CSR or BSR matrix M has strictly increasing column (block
    column) indices in every row, read from its arrays on every call, never
    from scipy's cached has_canonical_format. Malformed index arrays raise
    PatternViolation prefixed by name. check_format's full check bounds them
    first, since the kernel reads them unchecked; it leaves the pointer of a
    matrix that stores nothing unbounded, so that pointer must be all zero."""
    try:
        M.check_format(full_check=True)
    except ValueError as exc:
        raise PatternViolation(f"{name}: {exc}") from exc
    if M.nnz == 0:
        return not M.indptr.any()
    return bool(csr_has_canonical_format(len(M.indptr) - 1, M.indptr, M.indices))


def _int32_indexed(M):
    """The CSR or BSR matrix M on int32 index arrays, the ones the kernel
    layer takes: wider arrays are narrowed where their values fit, as
    scipy's constructors narrow them; int32 arrays are kept."""
    if M.indptr.dtype == M.indices.dtype == np.int32:
        return M
    return type(M)((M.data, M.indices, M.indptr), shape=M.shape)


def canonical_bsr(M, name: str = "matrix") -> scipy.sparse.bsr_matrix:
    """M as a float BSR matrix on int32 index arrays (_int32_indexed); a
    float input on int32 arrays keeps its arrays. Raises TypeError if M is
    not BSR and PatternViolation unless canonical_pattern finds its block
    column indices well formed and strictly increasing."""
    if getattr(M, "format", None) != "bsr":
        raise TypeError(f"{name} must be a scipy BSR matrix, got {type(M).__name__}")
    if not canonical_pattern(M, name):
        raise PatternViolation(f"{name}: block column indices must be strictly increasing in every block row")
    return _int32_indexed(M).astype(float, copy=False)


def canonical_csr(M, name: str = "matrix") -> scipy.sparse.csr_matrix:
    """M as a float CSR matrix on int32 index arrays (_int32_indexed), with
    sorted column indices and no repeated entries (repeats are summed); a
    canonical float CSR input on int32 arrays keeps its arrays."""
    if not scipy.sparse.issparse(M):
        raise TypeError(f"{name} must be a scipy sparse matrix, got {type(M).__name__}")
    M = _int32_indexed(scipy.sparse.csr_matrix(M, dtype=float))
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    return M


def csr_product(A) -> Callable[[np.ndarray], np.ndarray]:
    """The product x -> A @ x of a float64 CSR matrix A with a vector x of
    length A.shape[1], bit for bit. A's own indptr, indices and data are
    bound once, and each call runs scipy's compiled csr_matvec into a zeroed
    float64 vector: the kernel and the arrays that A @ x reaches after its
    Python checks. The kernel reads x without bounds checks, so an x of any
    other shape raises DimensionMismatch before it runs.

    scipy.sparse._sparsetools is private; this module is the one place the
    package uses it (README, "Products at kernel speed"). Raises TypeError
    unless A is CSR with float64 data.
    """
    if getattr(A, "format", None) != "csr" or A.dtype != np.float64:
        raise TypeError(f"csr_product needs a float64 CSR matrix, got {type(A).__name__}")
    (M, N), indptr, indices, data = A.shape, A.indptr, A.indices, A.data
    shape = (N,)

    def product(x: np.ndarray) -> np.ndarray:
        if getattr(x, "shape", None) != shape:
            raise DimensionMismatch(f"operand shape {np.shape(x)} incompatible with a {M} x {N} matrix")
        y = np.zeros(M)
        csr_matvec(M, N, indptr, indices, data, x, y)
        return y

    return product


# The kernel layer ---------------------------------------------------------
#
# Each helper makes the kernel calls that scipy's operator on int32-indexed
# float64 matrices reaches after its Python checks, into arrays of the same
# dtypes and lengths, and trims them to nnz as scipy's prune does; no scipy
# object is built in between. A pipeline ends with one scipy matrix
# (CsrArrays.tocsr), so its arrays are those of scipy's operators, bit for
# bit. The scipy operator each helper replays is named in its docstring.


class CsrArrays(NamedTuple):
    """The arrays of an m x n CSR matrix, int32 indptr and indices and
    float64 data, as the kernel layer passes them from kernel to kernel.
    Read as CSC arrays, they are those of the n x m transpose."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def tocsr(self) -> scipy.sparse.csr_matrix:
        """The scipy CSR matrix on these arrays."""
        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> CsrArrays:
        """The arrays of an m x n matrix that stores nothing, those of
        scipy's csr_matrix((m, n))."""
        return cls(shape, np.zeros(shape[0] + 1, np.int32), np.zeros(0, np.int32), np.zeros(0))


def _checked(A: CsrArrays) -> CsrArrays:
    if A.indptr.dtype != np.int32 or A.indices.dtype != np.int32 or A.data.dtype != np.float64:
        raise TypeError(
            f"the kernel layer needs int32 indices and float64 data, got {A.indptr.dtype} indptr, "
            f"{A.indices.dtype} indices and {A.data.dtype} data"
        )
    return A


def _int32_room(count: int) -> None:
    """scipy switches to int64 indices past the int32 range; the layer stops."""
    if count > np.iinfo(np.int32).max:
        raise OverflowError(f"{count} entries need int64 indices")


def _pruned(shape, indptr, indices, data) -> CsrArrays:
    nnz = int(indptr[-1])
    return CsrArrays(shape, indptr, indices[:nnz], data[:nnz])


def csr_arrays(A) -> CsrArrays:
    """The arrays of the scipy CSR matrix A, shared, not copied. Raises
    TypeError unless A is CSR with int32 indices and float64 data."""
    if getattr(A, "format", None) != "csr":
        raise TypeError(f"csr_arrays needs a CSR matrix, got {type(A).__name__}")
    return _checked(CsrArrays(A.shape, A.indptr, A.indices, A.data))


def bsr_to_csr(blocks, indices, indptr, shape) -> CsrArrays:
    """The CSR arrays of the BSR matrix of the given shape with the (count,
    R, C) block stack blocks, block column indices and block row pointer
    indptr: bsr_matrix.tocsr(), whose kernel bsr_tocsr writes every entry of
    every stored block, stored zeros included."""
    blocks, (m, n) = np.asarray(blocks), shape
    if blocks.ndim != 3:
        raise TypeError(f"bsr_to_csr needs a (count, R, C) block stack, got shape {blocks.shape}")
    r, c = blocks.shape[1:]
    _checked(CsrArrays(shape, indptr, indices, blocks))
    nb = int(indptr[-1])
    # The kernel reads the arrays without bounds checks.
    if m % r or n % c or len(indptr) != m // r + 1 or not nb <= len(indices) == len(blocks):
        raise DimensionMismatch(f"{len(indices)} blocks of {r} x {c} in {len(indptr)} pointers do not make {m} x {n}")
    _int32_room(nb * r * c)
    out_ptr, out_indices, out_data = np.empty(m + 1, np.int32), np.empty(nb * r * c, np.int32), np.empty(nb * r * c)
    bsr_tocsr(m // r, n // c, r, c, indptr, indices, blocks, out_ptr, out_indices, out_data)
    return CsrArrays(shape, out_ptr, out_indices, out_data)


def csr_transpose(A: CsrArrays) -> CsrArrays:
    """The CSR arrays of A^T, which are A's CSC arrays: A.T.tocsr() and
    A.tocsc(), by the kernel csr_tocsc. Every column comes out sorted."""
    (m, n), nnz = _checked(A).shape, A.nnz
    indptr, indices, data = np.empty(n + 1, np.int32), np.empty(nnz, np.int32), np.empty(nnz)
    csr_tocsc(m, n, A.indptr, A.indices, A.data, indptr, indices, data)
    return CsrArrays((n, m), indptr, indices, data)


def csr_matmul(A: CsrArrays, B: CsrArrays) -> CsrArrays:
    """The product A @ B of two CSR matrices, by the kernels
    csr_matmat_maxnnz and csr_matmat, with scipy's empty result where no
    entry can be stored. Exact zeros of the sums are not stored, and the
    columns of a row come out in the kernel's order, not sorted."""
    (m, k), (k_B, n) = _checked(A).shape, _checked(B).shape
    if k != k_B:
        raise DimensionMismatch(f"cannot multiply a {m} x {k} matrix by a {k_B} x {n} one")
    nnz = csr_matmat_maxnnz(m, n, A.indptr, A.indices, B.indptr, B.indices)
    if nnz == 0:
        return CsrArrays.zeros((m, n))
    indptr, indices, data = np.empty(m + 1, np.int32), np.empty(nnz, np.int32), np.empty(nnz)
    csr_matmat(m, n, A.indptr, A.indices, A.data, B.indptr, B.indices, B.data, indptr, indices, data)
    return _pruned((m, n), indptr, indices, data)


def csr_plus(A: CsrArrays, B: CsrArrays) -> CsrArrays:
    """The sum A + B of two CSR matrices of one shape, by the kernel
    csr_plus_csr: sums that are exactly zero are not stored."""
    if _checked(A).shape != _checked(B).shape:
        raise DimensionMismatch(f"cannot add a {A.shape[0]} x {A.shape[1]} matrix to a {B.shape[0]} x {B.shape[1]} one")
    (m, n), most = A.shape, A.nnz + B.nnz
    _int32_room(most)
    indptr, indices, data = np.empty(m + 1, np.int32), np.empty(most, np.int32), np.empty(most)
    csr_plus_csr(m, n, A.indptr, A.indices, A.data, B.indptr, B.indices, B.data, indptr, indices, data)
    return _pruned((m, n), indptr, indices, data)


def sort_rows(A: CsrArrays) -> CsrArrays:
    """A with the columns of every row sorted in place, as sort_indices
    does: the kernel csr_sort_indices runs only where csr_has_sorted_indices
    finds a row out of order."""
    n_rows = len(_checked(A).indptr) - 1
    if not csr_has_sorted_indices(n_rows, A.indptr, A.indices):
        csr_sort_indices(n_rows, A.indptr, A.indices, A.data)
    return A


def drop_zeros(A: CsrArrays) -> CsrArrays:
    """A without its stored exact zeros (NaN stays), compacted in place by
    the kernel csr_eliminate_zeros, as eliminate_zeros does."""
    m, n = _checked(A).shape
    csr_eliminate_zeros(m, n, A.indptr, A.indices, A.data)
    return _pruned(A.shape, A.indptr, A.indices, A.data)


def csr_vstack(blocks) -> CsrArrays:
    """The CSR matrix of CSR blocks of one width stacked top to bottom:
    scipy.sparse.vstack(blocks, format="csr"), whose path for CSR blocks
    concatenates their arrays, each index pointer shifted by the entries
    above it."""
    widths = {_checked(A).shape[1] for A in blocks}
    if len(widths) != 1:
        raise DimensionMismatch(f"blocks of {sorted(widths)} columns cannot be stacked")
    starts = np.cumsum([0] + [A.nnz for A in blocks])
    _int32_room(int(starts[-1]))
    indptr = np.concatenate([A.indptr[:-1] + start for A, start in zip(blocks, starts)] + [starts[-1:]])
    indices, data = (np.concatenate([getattr(A, name) for A in blocks]) for name in ("indices", "data"))
    return CsrArrays((sum(A.shape[0] for A in blocks), widths.pop()), indptr.astype(np.int32), indices, data)


def sparse_product(A, B) -> scipy.sparse.csr_matrix:
    """A @ B of two scipy CSR matrices with int32 indices and float64 data,
    through csr_matmul, as one scipy CSR matrix."""
    return csr_matmul(csr_arrays(A), csr_arrays(B)).tocsr()
