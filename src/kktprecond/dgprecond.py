"""Block Jacobi and block ILU0 with minimum-discarded-fill ordering.

Both preconditioners approximate a square block-sparse DG Jacobian. Block
Jacobi keeps only the diagonal blocks. Block ILU0 runs a block IKJ elimination
restricted to the original sparsity pattern (fill positions are skipped), after
a greedy reordering of the block rows that at each step eliminates the row
whose discarded fill has the smallest aggregate Frobenius norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocklinalg import BlockCsrMatrix, BlockLuFactor, BlockPattern, dense_lu_factor
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
    inverse_blocks: list[BlockLuFactor]
    block_sizes: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.block_sizes.sum())

    def solve(self, v: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve with the block diagonal, or its transpose for trans="T"."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dimension,):
            raise DimensionMismatch(f"vector length {v.shape} incompatible with dimension {self.dimension}")
        out = np.empty_like(v)
        off = 0
        for size, lu in zip(self.block_sizes, self.inverse_blocks):
            out[off : off + size] = lu.solve(v[off : off + size], trans=trans)
            off += size
        return out


@dataclass
class MdfOrdering:
    order: np.ndarray
    weights_at_selection: np.ndarray


@dataclass
class BiluPrec:
    """In-place factors of the permuted matrix: strict lower L (unit diagonal
    implied) and upper U including the diagonal, on the original pattern.

    point_perm[r] is the original point index of row r of the permuted
    matrix."""

    permutation: np.ndarray
    lu_blocks: BlockCsrMatrix
    diag_lu: list[BlockLuFactor]
    point_perm: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.lu_blocks.pattern.row_block_sizes.sum())

    def solve(self, w: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve the factored approximation against w, or its transpose for trans="T"."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dimension,):
            raise DimensionMismatch(f"vector length {w.shape} incompatible with dimension {self.dimension}")
        pat = self.lu_blocks.pattern
        n = pat.n_block_rows
        roff = pat.row_offsets

        # Gather w into permuted block layout.
        w_perm = w[self.point_perm]
        wp = [w_perm[roff[m] : roff[m + 1]] for m in range(n)]

        if trans == "N":
            # Forward: L v = w (unit diagonal), then backward: U x = v.
            v = [None] * n
            for m in range(n):
                acc = wp[m].copy()
                for k in range(pat.row_ptr[m], pat.row_ptr[m + 1]):
                    j = int(pat.col_idx[k])
                    if j < m:
                        acc -= self.lu_blocks.blocks[k] @ v[j]
                v[m] = acc
            x = [None] * n
            for m in range(n - 1, -1, -1):
                acc = v[m].copy()
                for k in range(pat.row_ptr[m], pat.row_ptr[m + 1]):
                    j = int(pat.col_idx[k])
                    if j > m:
                        acc -= self.lu_blocks.blocks[k] @ x[j]
                x[m] = self.diag_lu[m].solve(acc)
        else:
            # U^T t = w (column sweep, transposed pivot solves), then L^T x = t.
            t = [wp[m].copy() for m in range(n)]
            for m in range(n):
                t[m] = self.diag_lu[m].solve(t[m], trans="T")
                for k in range(pat.row_ptr[m], pat.row_ptr[m + 1]):
                    j = int(pat.col_idx[k])
                    if j > m:
                        t[j] -= self.lu_blocks.blocks[k].T @ t[m]
            x = [None] * n
            for m in range(n - 1, -1, -1):
                x[m] = t[m]
                for k in range(pat.row_ptr[m], pat.row_ptr[m + 1]):
                    j = int(pat.col_idx[k])
                    if j < m:
                        t[j] -= self.lu_blocks.blocks[k].T @ x[m]

        out = np.empty_like(w)
        out[self.point_perm] = np.concatenate(x)
        return out


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
    return BlockJacobiPrec(factors, A.pattern.row_block_sizes.copy())


def _adjacency(pat: BlockPattern):
    """Static out-neighbors (stored columns) and in-neighbors per block row."""
    n = pat.n_block_rows
    out_nbrs = [pat.col_idx[pat.row_ptr[i] : pat.row_ptr[i + 1]].tolist() for i in range(n)]
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in out_nbrs[i]:
            in_nbrs[j].append(i)
    return out_nbrs, in_nbrs


def mdf_order(A: BlockCsrMatrix) -> MdfOrdering:
    """Greedy minimum-discarded-fill ordering of the block rows.

    The weight of an uneliminated row k is the Frobenius norm of the aggregate
    fill it would discard,

        w_k = sqrt( sum_{(i,j)} || A_ik A_kk^-1 A_kj ||_F^2 ),

    over pairs of uneliminated neighbors i != j with A_ik and A_kj stored but
    A_ij absent from the pattern. Ties select the lowest original index. After
    eliminating a row, only its neighbors' weights are recomputed; the pattern
    itself is never augmented with fill.
    """
    _require_square_blocks(A)
    pat = A.pattern
    n = pat.n_block_rows
    out_nbrs, in_nbrs = _adjacency(pat)
    has_edge = {(i, j) for i in range(n) for j in out_nbrs[i]}

    diag_lu: list[BlockLuFactor] = []
    for k in range(n):
        blk = _diag_block(A, k)
        if blk is None:
            raise SingularBlock(f"block row {k}: diagonal block missing from pattern")
        try:
            diag_lu.append(dense_lu_factor(blk))
        except SingularBlock as exc:
            raise SingularBlock(f"block row {k}: {exc}") from exc

    alive = np.ones(n, dtype=bool)

    def weight(k: int) -> float:
        solved: dict[int, np.ndarray] = {}
        for j in out_nbrs[k]:
            if j != k and alive[j]:
                kj = A.blocks[pat.block_index(k, j)]
                solved[j] = diag_lu[k].solve(kj)
        total = 0.0
        for i in in_nbrs[k]:
            if i == k or not alive[i]:
                continue
            ik = A.blocks[pat.block_index(i, k)]
            for j, akj in solved.items():
                if j != i and (i, j) not in has_edge:
                    fill = ik @ akj
                    total += float(np.sum(fill * fill))
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
    pat = A.pattern
    n = pat.n_block_rows
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    row_ptr = [0]
    col_idx: list[int] = []
    blocks: list[np.ndarray] = []
    for m in range(n):
        i = order[m]
        cols = pat.col_idx[pat.row_ptr[i] : pat.row_ptr[i + 1]]
        entries = sorted((int(pos[j]), A.blocks[pat.block_index(i, int(j))]) for j in cols)
        for c, blk in entries:
            col_idx.append(c)
            blocks.append(blk.copy())
        row_ptr.append(len(col_idx))
    sizes = pat.row_block_sizes[order]
    new_pat = BlockPattern(sizes, sizes, np.array(row_ptr), np.array(col_idx))
    return BlockCsrMatrix(new_pat, blocks)


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

    for i in range(n):
        lo, hi = pat.row_ptr[i], pat.row_ptr[i + 1]
        row_cols = pat.col_idx[lo:hi]
        for off, k in enumerate(row_cols):
            if k >= i:
                break
            # L_ik = A_ik U_kk^-1, computed via the transposed pivot solve.
            lik = pivot_lu(int(k)).solve(work.blocks[lo + off].T, trans="T").T
            work.blocks[lo + off] = lik
            klo, khi = pat.row_ptr[k], pat.row_ptr[k + 1]
            for koff in range(klo, khi):
                j = int(pat.col_idx[koff])
                if j <= k:
                    continue
                target = pat.block_index(i, j)
                if target is not None:
                    work.blocks[target] = work.blocks[target] - lik @ work.blocks[koff]
        pivot_lu(i)
    offsets = A.pattern.row_offsets
    point_perm = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in order])
    return BiluPrec(order, work, [lu for lu in diag_lu], point_perm)
