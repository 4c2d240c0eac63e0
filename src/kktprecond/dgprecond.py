"""Block Jacobi and block ILU0 with minimum-discarded-fill ordering.

Both preconditioners approximate a square block-sparse DG Jacobian. Block
Jacobi keeps only the diagonal blocks. Block ILU0 runs a block IKJ elimination
restricted to the original sparsity pattern (fill positions are skipped), after
a greedy reordering of the block rows that at each step eliminates the row
whose discarded fill has the smallest aggregate Frobenius norm. Both compile
their factors to a point row permutation and two point triangular factors
when built, so a solve is a pair of compiled sparse triangular sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .blocklinalg import (
    BlockCsrMatrix,
    BlockLuFactor,
    BlockPattern,
    PermutedLu,
    block_to_scipy,
    dense_lu_factor,
    permuted_lu,
)
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
    """LU factors of the diagonal blocks, compiled to point triangular factors."""

    block_sizes: np.ndarray
    factors: PermutedLu

    def solve(self, v: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve with the block diagonal, or its transpose for trans="T"."""
        return self.factors.solve(v, trans)


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
    lu_blocks: BlockCsrMatrix
    factors: PermutedLu

    @property
    def point_perm(self) -> np.ndarray:
        """point_perm[r] is the original point index of row r of the permuted matrix."""
        return self.factors.cols

    def solve(self, w: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve the factored approximation against w, or its transpose for trans="T"."""
        return self.factors.solve(w, trans)


def _compile_block_lu(F: BlockCsrMatrix, diag_lu: list[BlockLuFactor], point_perm: np.ndarray) -> PermutedLu:
    """Point triangular factors of a block LU = L_blk U_blk in permuted order.

    The strict lower blocks of F are those of L_blk, whose diagonal blocks
    are identities; its strict upper blocks are those of U_blk, whose
    diagonal blocks D_m = P_m L_m U_m are given by their LAPACK factors.
    With Pd, Ld, Ud the block diagonals of the P_m, L_m, U_m,

        L_blk U_blk = Pd L^ U~,   L^ = Pd^T L_blk Pd Ld,   U~ = Ud + Ld^-1 Pd^T U_strict,

    and L^ (unit lower) and U~ (upper) are point triangular.
    """
    pat = F.pattern
    sizes = pat.row_block_sizes
    n = int(sizes.sum())
    blocks = list(F.blocks)
    for m, k in enumerate(np.flatnonzero(pat.col_idx == pat.block_rows)):
        blocks[k] = diag_lu[m].lu_entries
    S = block_to_scipy(BlockCsrMatrix(pat, blocks)).tocoo()
    blk = np.repeat(np.arange(len(sizes)), sizes)
    same_block = blk[S.row] == blk[S.col]
    below = S.col < S.row

    def part(mask):
        return scipy.sparse.csr_matrix((S.data[mask], (S.row[mask], S.col[mask])), shape=(n, n))

    strict_ld = part(same_block & below)
    ld = strict_ld + scipy.sparse.identity(n, format="csr")

    # Pd^T x = x[prow]: LAPACK swaps row t of each block with its pivot row,
    # for t = 0, 1, ... in turn; blocks do not interact.
    starts = np.repeat(pat.row_offsets[:-1], sizes)
    local = np.arange(n) - starts
    piv = np.concatenate([lu.pivots for lu in diag_lu]) + starts
    prow = np.arange(n)
    for t in range(int(sizes.max())):
        i = np.flatnonzero(local == t)
        prow[i], prow[piv[i]] = prow[piv[i]], prow[i]

    lower = ld + part(~same_block & below)[prow][:, prow] @ ld
    # Ld^-1 X by the iteration X_k+1 = X_0 - (Ld - I) X_k, exact after
    # (largest block - 1) steps because Ld - I is nilpotent of that order.
    rhs = part(~same_block & ~below)[prow]
    y = rhs
    for _ in range(int(sizes.max()) - 1):
        y = rhs - strict_ld @ y
    upper = part(same_block & ~below) + y
    return permuted_lu(lower, upper, point_perm[prow], point_perm)


def _require_square_blocks(A: BlockCsrMatrix):
    pat = A.pattern
    if pat.n_block_rows != pat.n_block_cols or np.any(pat.row_block_sizes != pat.col_block_sizes):
        raise DimensionMismatch("preconditioner needs a square block matrix with matching block sizes")


def _diag_block(A: BlockCsrMatrix, i: int):
    k = A.pattern.block_index(i, i)
    return None if k is None else A.blocks[k]


def build_block_jacobi(A: BlockCsrMatrix) -> BlockJacobiPrec:
    """LU-factor every diagonal block of A."""
    _require_square_blocks(A)
    factors = []
    for i in range(A.pattern.n_block_rows):
        blk = _diag_block(A, i)
        if blk is None:
            raise SingularBlock(f"block row {i}: diagonal block missing from pattern")
        try:
            factors.append(dense_lu_factor(blk))
        except SingularBlock as exc:
            raise SingularBlock(f"block row {i}: {exc}") from exc
    sizes = A.pattern.row_block_sizes.copy()
    nb = len(sizes)
    diagonal = BlockCsrMatrix(
        BlockPattern(sizes, sizes, np.arange(nb + 1), np.arange(nb)), [lu.lu_entries for lu in factors]
    )
    return BlockJacobiPrec(sizes, _compile_block_lu(diagonal, factors, np.arange(int(sizes.sum()))))


def _adjacency(pat: BlockPattern):
    """Static out-neighbors (stored columns) and in-neighbors per block row."""
    n = pat.n_block_rows
    out_nbrs = [pat.col_idx[pat.row_ptr[i] : pat.row_ptr[i + 1]].tolist() for i in range(n)]
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in out_nbrs[i]:
            in_nbrs[j].append(i)
    return out_nbrs, in_nbrs


def _fill_table(A: BlockCsrMatrix, out_nbrs, in_nbrs) -> list[list[tuple[int, int, float]]]:
    """Per block row k, the discarded fill triples (i, j, ||A_ik A_kk^-1 A_kj||_F^2)
    over stored A_ik and A_kj with i, j, k distinct and A_ij not stored.

    The pattern is never augmented, so the table is static; triples are
    listed with i in in-neighbor order and j in column order.
    """
    pat = A.pattern
    n = pat.n_block_rows
    row_ptr = pat.row_ptr.tolist()
    has_edge = {(i, j) for i in range(n) for j in out_nbrs[i]}
    # Position of the stored block (i, j), found once per block row.
    where = [dict(zip(out_nbrs[i], range(row_ptr[i], row_ptr[i + 1]))) for i in range(n)]
    table = []
    for k in range(n):
        if k not in where[k]:
            raise SingularBlock(f"block row {k}: diagonal block missing from pattern")
        try:
            diag_lu = dense_lu_factor(A.blocks[where[k][k]])
        except SingularBlock as exc:
            raise SingularBlock(f"block row {k}: {exc}") from exc
        solved = {j: diag_lu.solve(A.blocks[where[k][j]]) for j in out_nbrs[k] if j != k}
        triples = []
        for i in in_nbrs[k]:
            if i == k:
                continue
            ik = A.blocks[where[i][k]]
            for j, akj in solved.items():
                if j != i and (i, j) not in has_edge:
                    fill = ik @ akj
                    triples.append((i, j, float(np.sum(fill * fill))))
        table.append(triples)
    return table


def mdf_order(A: BlockCsrMatrix) -> MdfOrdering:
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
    _require_square_blocks(A)
    n = A.pattern.n_block_rows
    out_nbrs, in_nbrs = _adjacency(A.pattern)
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


def _permuted_copy(A: BlockCsrMatrix, order: np.ndarray) -> BlockCsrMatrix:
    """P A P^T for the block row order: row m of the copy is row order[m] of
    A, its columns renumbered the same way and sorted."""
    pat = A.pattern
    n = pat.n_block_rows
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    new_cols = pos[pat.col_idx]
    stored = np.lexsort((new_cols, pos[pat.block_rows]))
    row_ptr = np.concatenate([[0], np.cumsum(np.diff(pat.row_ptr)[order])])
    sizes = pat.row_block_sizes[order]
    new_pat = BlockPattern(sizes, sizes, row_ptr, new_cols[stored])
    return BlockCsrMatrix(new_pat, [A.blocks[t].copy() for t in stored])


def bilu0_factor(A: BlockCsrMatrix, ordering: MdfOrdering) -> BiluPrec:
    """Zero-fill block LU of the symmetrically permuted matrix.

    Block IKJ elimination; updates touching positions outside the pattern are
    skipped, which is the only approximation.
    """
    _require_square_blocks(A)
    order = np.asarray(ordering.order, dtype=int)
    work = _permuted_copy(A, order)
    pat = work.pattern
    n = pat.n_block_rows
    diag_lu: list[BlockLuFactor | None] = [None] * n

    def pivot_lu(k: int) -> BlockLuFactor:
        if diag_lu[k] is None:
            idx = pat.block_index(k, k)
            if idx is None:
                raise SingularPivotBlock(f"step {k}: diagonal block missing from permuted pattern")
            try:
                diag_lu[k] = dense_lu_factor(work.blocks[idx])
            except SingularBlock as exc:
                raise SingularPivotBlock(f"step {k}: {exc}") from exc
        return diag_lu[k]

    row_ptr = pat.row_ptr.tolist()
    col_idx = pat.col_idx.tolist()
    for i in range(n):
        lo, hi = row_ptr[i], row_ptr[i + 1]
        where = dict(zip(col_idx[lo:hi], range(lo, hi)))
        for t in range(lo, hi):
            k = col_idx[t]
            if k >= i:
                break
            # L_ik = A_ik U_kk^-1, computed via the transposed pivot solve.
            lik = pivot_lu(k).solve(work.blocks[t].T, trans="T").T
            work.blocks[t] = lik
            for koff in range(row_ptr[k], row_ptr[k + 1]):
                j = col_idx[koff]
                if j > k and j in where:
                    work.blocks[where[j]] = work.blocks[where[j]] - lik @ work.blocks[koff]
        pivot_lu(i)
    offsets = A.pattern.row_offsets
    point_perm = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in order])
    return BiluPrec(order, work, _compile_block_lu(work, diag_lu, point_perm))
