"""Block Jacobi and block ILU0 with minimum-discarded-fill ordering.

Both preconditioners approximate a square block-sparse DG Jacobian. Block
Jacobi keeps only the diagonal blocks, inverted when built, so a solve is one
sparse product. Block ILU0 runs a block IKJ elimination restricted to the
original sparsity pattern (fill positions are skipped), after a greedy
reordering of the block rows that at each step eliminates the row whose
discarded fill has the smallest aggregate Frobenius norm; it compiles its
factors to a point row permutation and two point triangular factors when
built, so a solve is a pair of compiled sparse triangular sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .blocklinalg import BlockLuFactor, PermutedLu, canonical_bsr, check_trans, first_singular, getrf, permuted_lu
from .errors import DimensionMismatch, SingularBlock, SingularPivotBlock

__all__ = [
    "BlockJacobiPrec",
    "MdfOrdering",
    "BiluPrec",
    "build_block_jacobi",
    "mdf_order",
    "bilu0_factor",
]


@dataclass
class BlockJacobiPrec:
    """Inverses of the diagonal blocks as a block-diagonal CSR matrix, and
    its transpose as a second CSR matrix."""

    inverse: scipy.sparse.csr_matrix
    inverse_T: scipy.sparse.csr_matrix

    def solve(self, v: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve with the block diagonal, or its transpose for trans="T"."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.inverse.shape[0],):
            raise DimensionMismatch(f"vector length {v.shape} incompatible with dimension {self.inverse.shape[0]}")
        check_trans(trans)
        return (self.inverse if trans == "N" else self.inverse_T) @ v


@dataclass
class MdfOrdering:
    order: np.ndarray
    weights_at_selection: np.ndarray


@dataclass
class BiluPrec:
    """Block ILU0 of the permuted matrix.

    lu_blocks holds the block IKJ factors on the original pattern: strict
    lower blocks of L (unit block diagonal implied) and upper blocks of U,
    diagonal blocks included. factors is the same L U compiled to point
    triangular factors."""

    permutation: np.ndarray
    lu_blocks: scipy.sparse.bsr_matrix
    factors: PermutedLu

    @property
    def point_perm(self) -> np.ndarray:
        """point_perm[r] is the original point index of row r of the permuted matrix."""
        return self.factors.cols

    def solve(self, w: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve the factored approximation against w, or its transpose for trans="T"."""
        return self.factors.solve(w, trans)


def _nonzeros(vals: np.ndarray, I: np.ndarray, J: np.ndarray):
    """Point (rows, cols, values) of the nonzero entries of the s x s blocks
    vals[x] at block position (I[x], J[x])."""
    s = vals.shape[1]
    x, a, b = np.nonzero(vals)
    return I[x] * s + a, J[x] * s + b, vals[x, a, b]


def _csc(n: int, parts) -> scipy.sparse.csc_matrix:
    """Canonical n x n CSC matrix of (rows, cols, values) parts with no
    position repeated."""
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(cols * n + rows)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    return scipy.sparse.csc_matrix((vals[order], rows[order], indptr), shape=(n, n))


def _block_rows(A) -> np.ndarray:
    """Block row of each stored block of a BSR matrix."""
    return np.repeat(np.arange(len(A.indptr) - 1), np.diff(A.indptr))


def _block_lu_triangles(A, diag_lu: list[BlockLuFactor]):
    """Point factors L^, U~ and the row order prow of a block LU = L_blk U_blk.

    The strict lower blocks of the BSR matrix A are those of L_blk, whose
    diagonal blocks are identities; its strict upper blocks are those of
    U_blk, whose diagonal blocks D_m = P_m L_m U_m are given by their LAPACK
    factors (the diagonal blocks of A are not read). With Pd, Ld, Ud the
    block diagonals of the P_m, L_m, U_m and Pd^T x = x[prow],

        L_blk U_blk = Pd L^ U~,   L^ = Pd^T L_blk Pd Ld,   U~ = Ud + Ld^-1 Pd^T U_strict,

    and L^ (unit lower) and U~ (upper) are point triangular. Every block is
    formed in a (count, s, s) stack: a block of L^ below the diagonal is
    sum_c B[p_I][:, c] (Ld_J[p_J^-1])[c, :] over c in ascending order, and a
    block of U~ is a forward substitution with Ld_I; each entry adds the same
    nonzero products in the same order as the scipy sparse products of the
    plain formulas, and entries that come out zero are not stored.
    """
    n, s = A.shape[0], A.blocksize[0]
    nb = n // s
    block_rows, block_cols = _block_rows(A), A.indices

    # LAPACK swaps row t of each block with its pivot row, for t = 0, 1, ...
    # in turn; blocks do not interact.
    local = np.arange(n) % s
    starts = np.arange(n) - local
    piv = np.concatenate([lu.pivots for lu in diag_lu]) + starts
    prow = np.arange(n)
    for t in range(s):
        i = np.flatnonzero(local == t)
        prow[i], prow[piv[i]] = prow[piv[i]], prow[i]
    # perm[I] is the row order p_I within block I and inv[I] its inverse.
    perm = (prow - starts).reshape(nb, s)
    inv = np.empty_like(perm)
    inv[np.arange(nb)[:, None], perm] = np.arange(s)

    LU = np.array([lu.lu_entries for lu in diag_lu]).reshape(nb, s, s)
    strict_ld = np.tril(LU, -1)
    ld = strict_ld + np.eye(s)
    diag = np.arange(nb)
    lower = [_nonzeros(ld, diag, diag)]
    upper = [_nonzeros(np.triu(LU), diag, diag)]

    k = np.flatnonzero(block_cols < block_rows)
    I, J, x = block_rows[k], block_cols[k], np.arange(len(k))[:, None]
    B = A.data[k][x, perm[I]]
    M = ld[J][x, inv[J]]
    R = B[:, :, 0, None] * M[:, None, 0, :]
    for c in range(1, s):
        R = R + B[:, :, c, None] * M[:, None, c, :]
    lower.append(_nonzeros(R, I, J))

    k = np.flatnonzero(block_cols > block_rows)
    I, J, x = block_rows[k], block_cols[k], np.arange(len(k))[:, None]
    rhs = A.data[k][x, perm[I]]
    L = strict_ld[I]
    y = rhs.copy()
    for a in range(1, s):
        acc = L[:, a, 0, None] * y[:, 0, :]
        for b in range(1, a):
            acc = acc + L[:, a, b, None] * y[:, b, :]
        y[:, a, :] = rhs[:, a, :] - acc
    upper.append(_nonzeros(y, I, J))
    return _csc(n, lower), _csc(n, upper), prow


def _square_bsr(A) -> scipy.sparse.bsr_matrix:
    """A as a canonical BSR matrix, which must be square with square blocks."""
    A = canonical_bsr(A, "block matrix")
    if A.shape[0] != A.shape[1] or A.blocksize[0] != A.blocksize[1]:
        raise DimensionMismatch("preconditioner needs a square block matrix with square blocks")
    return A


def _diagonal_positions(A) -> tuple[np.ndarray, int]:
    """Storage positions of the diagonal blocks of the block rows before the
    first one without a stored diagonal block, and that row (or the number
    of block rows)."""
    block_rows = _block_rows(A)
    stored = np.flatnonzero(A.indices == block_rows)
    missing = np.flatnonzero(block_rows[stored] != np.arange(len(stored)))
    first_missing = int(missing[0]) if len(missing) else len(stored)
    return stored[:first_missing], first_missing


def _diag_lus(A) -> list[BlockLuFactor]:
    """LU factors of the diagonal blocks of A, one getrf call each and one
    pivot check for all; raises SingularBlock for the first block row whose
    diagonal block is missing or singular."""
    stored, first_missing = _diagonal_positions(A)
    blocks = A.data[stored]
    factors = [getrf(blk) for blk in blocks]
    bad = first_singular(blocks, factors)
    if bad:
        raise SingularBlock(f"block row {bad[0]}: {bad[1]}")
    if first_missing < len(A.indptr) - 1:
        raise SingularBlock(f"block row {first_missing}: diagonal block missing from pattern")
    return factors


def build_block_jacobi(A) -> BlockJacobiPrec:
    """Invert every diagonal block of the square BSR matrix A, after the
    pivot check of their LU factors."""
    A = _square_bsr(A)
    nb, s = len(_diag_lus(A)), A.blocksize[0]
    inv = np.linalg.inv(A.data[_diagonal_positions(A)[0]])
    # Row a of block m holds inv[m, a, :] at the point columns of block m.
    cols = np.broadcast_to(np.arange(nb * s).reshape(nb, 1, s), inv.shape).ravel()
    indptr = np.arange(0, nb * s * s + 1, s)

    def csr(blocks):
        return scipy.sparse.csr_matrix((blocks.ravel(), cols, indptr), shape=A.shape)

    return BlockJacobiPrec(csr(inv), csr(inv.transpose(0, 2, 1)))


def _adjacency(A):
    """Static out-neighbors (stored columns) and in-neighbors per block row."""
    ptr = A.indptr.tolist()
    cols = A.indices.tolist()
    out_nbrs = [cols[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]
    in_nbrs: list[list[int]] = [[] for _ in out_nbrs]
    for i, nbrs in enumerate(out_nbrs):
        for j in nbrs:
            in_nbrs[j].append(i)
    return out_nbrs, in_nbrs


def _fill_table(A, out_nbrs, in_nbrs) -> list[list[tuple[int, int, float]]]:
    """Per block row k, the discarded fill triples (i, j, ||A_ik A_kk^-1 A_kj||_F^2)
    over stored A_ik and A_kj with i, j, k distinct and A_ij not stored.

    The pattern is never augmented, so the table is static; triples are
    listed with i in in-neighbor order and j in column order.
    """
    n = len(out_nbrs)
    ptr = A.indptr.tolist()
    blocks = list(A.data)
    has_edge = {(i, j) for i in range(n) for j in out_nbrs[i]}
    # Position of the stored block (i, j), found once per block row.
    where = [dict(zip(out_nbrs[i], range(ptr[i], ptr[i + 1]))) for i in range(n)]
    diag_lus = _diag_lus(A)
    table = []
    for k in range(n):
        solved = {j: diag_lus[k].solve(blocks[where[k][j]]) for j in out_nbrs[k] if j != k}
        triples = []
        for i in in_nbrs[k]:
            if i == k:
                continue
            ik = blocks[where[i][k]]
            for j, akj in solved.items():
                if j != i and (i, j) not in has_edge:
                    fill = ik @ akj
                    triples.append((i, j, float(np.sum(fill * fill))))
        table.append(triples)
    return table


def mdf_order(A) -> MdfOrdering:
    """Greedy minimum-discarded-fill ordering of the block rows.

    The weight of an uneliminated row k is the Frobenius norm of the aggregate
    fill it would discard,

        w_k = sqrt( sum_{(i,j)} || A_ik A_kk^-1 A_kj ||_F^2 ),

    over pairs of uneliminated neighbors i != j with A_ik and A_kj stored but
    A_ij absent from the pattern. Ties select the lowest original index. The
    pattern itself is never augmented with fill, so every term is computed
    once; after eliminating a row, only its neighbors' weights are summed
    again over their remaining terms.
    """
    A = _square_bsr(A)
    out_nbrs, in_nbrs = _adjacency(A)
    n = len(out_nbrs)
    table = _fill_table(A, out_nbrs, in_nbrs)
    alive = np.ones(n, dtype=bool)

    def weight(k: int) -> float:
        total = 0.0
        for i, j, f in table[k]:
            if alive[i] and alive[j]:
                total += f
        return float(np.sqrt(total))

    weights = np.array([weight(k) for k in range(n)])
    order = np.empty(n, dtype=int)
    selected = np.empty(n)
    for step in range(n):
        candidates = np.flatnonzero(alive)
        k = int(candidates[np.argmin(weights[candidates])])
        order[step] = k
        selected[step] = weights[k]
        alive[k] = False
        touched = {m for m in out_nbrs[k] if alive[m]}
        touched.update(m for m in in_nbrs[k] if alive[m])
        for m in touched:
            weights[m] = weight(m)
    return MdfOrdering(order, selected)


def _permuted_copy(A, order: np.ndarray) -> scipy.sparse.bsr_matrix:
    """P A P^T for the block row order: row m of the copy is row order[m] of
    A, its columns renumbered the same way and sorted."""
    n = len(order)
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    new_cols = pos[A.indices]
    stored = np.lexsort((new_cols, pos[_block_rows(A)]))
    indptr = np.concatenate([[0], np.cumsum(np.diff(A.indptr)[order])])
    return scipy.sparse.bsr_matrix((A.data[stored], new_cols[stored], indptr), shape=A.shape)


def bilu0_factor(A, ordering: MdfOrdering) -> BiluPrec:
    """Zero-fill block LU of the symmetrically permuted square BSR matrix.

    Block IKJ elimination; updates touching positions outside the pattern are
    skipped, which is the only approximation.
    """
    A = _square_bsr(A)
    order = np.asarray(ordering.order, dtype=int)
    work = _permuted_copy(A, order)
    diag_pos, first_missing = _diagonal_positions(work)
    diag_pos = diag_pos.tolist()
    diag_lu: list[BlockLuFactor] = []
    row_ptr = work.indptr.tolist()
    col_idx = work.indices.tolist()
    blocks = list(work.data)
    # The pivots are checked once, after the elimination: what a singular
    # pivot does to the rows after it is discarded with the factors.
    with np.errstate(all="ignore"):
        for i in range(first_missing):
            lo, hi = row_ptr[i], row_ptr[i + 1]
            where = dict(zip(col_idx[lo:hi], range(lo, hi)))
            for t in range(lo, hi):
                k = col_idx[t]
                if k >= i:
                    break
                # L_ik = A_ik U_kk^-1, computed via the transposed pivot solve.
                lik = diag_lu[k].solve(blocks[t].T, trans="T").T
                blocks[t] = lik
                for koff in range(row_ptr[k], row_ptr[k + 1]):
                    j = col_idx[koff]
                    if j > k and j in where:
                        blocks[where[j]] = blocks[where[j]] - lik @ blocks[koff]
            diag_lu.append(getrf(blocks[diag_pos[i]]))
    work.data[:] = blocks
    bad = first_singular(work.data[diag_pos], diag_lu)
    if bad:
        raise SingularPivotBlock(f"step {bad[0]}: {bad[1]}")
    if first_missing < len(order):
        raise SingularPivotBlock(f"step {first_missing}: diagonal block missing from permuted pattern")
    s = A.blocksize[0]
    point_perm = (order[:, None] * s + np.arange(s)).ravel()
    lower, upper, prow = _block_lu_triangles(work, diag_lu)
    return BiluPrec(order, work, permuted_lu(lower, upper, point_perm[prow], point_perm))
