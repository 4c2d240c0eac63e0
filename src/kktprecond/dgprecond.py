"""Block Jacobi and block ILU0 with minimum-discarded-fill ordering.

Both approximate a square block-sparse DG Jacobian as a blocklinalg.Factor.
Block Jacobi keeps only the diagonal blocks, inverted when built, so a solve
is one sparse product. Block ILU0 runs a block IKJ elimination restricted to
the original sparsity pattern (fill positions are skipped), after a greedy
reordering of the block rows that at each step eliminates the row whose
discarded fill has the smallest aggregate Frobenius norm (bilu0_blocks).
bilu0_factor splits those blocks into L_blk and U_blk at the block level:
a solve is a gather into the permuted order, a compiled sweep with L_blk,
SuperLU's solve with its LU of U_blk and a scatter back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .blocklinalg import BlockLuFactor, Factor, canonical_bsr, first_singular, getrf, triangular_sweep
from .errors import DimensionMismatch, SingularBlock, SingularPivotBlock

__all__ = [
    "MdfOrdering",
    "build_block_jacobi",
    "mdf_order",
    "bilu0_blocks",
    "bilu0_factor",
]


@dataclass
class MdfOrdering:
    order: np.ndarray
    weights_at_selection: np.ndarray


def _block_rows(A) -> np.ndarray:
    """Block row of each stored block of a BSR matrix."""
    return np.repeat(np.arange(len(A.indptr) - 1), np.diff(A.indptr))


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


def build_block_jacobi(A) -> Factor:
    """Invert every diagonal block of the square BSR matrix A, after the
    pivot check of their LU factors; a solve is one sparse product."""
    A = _square_bsr(A)
    nb, s = len(_diag_lus(A)), A.blocksize[0]
    inv = np.linalg.inv(A.data[_diagonal_positions(A)[0]])
    # Row a of block m holds inv[m, a, :] at the point columns of block m.
    cols = np.broadcast_to(np.arange(nb * s).reshape(nb, 1, s), inv.shape).ravel()
    indptr = np.arange(0, nb * s * s + 1, s)

    def csr(blocks):
        return scipy.sparse.csr_matrix((blocks.ravel(), cols, indptr), shape=A.shape)

    return Factor(A.shape[0], csr(inv).dot, csr(inv.transpose(0, 2, 1)).dot)


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


def bilu0_blocks(A, order: np.ndarray) -> scipy.sparse.bsr_matrix:
    """Zero-fill block LU of the square BSR matrix A with its block rows and
    columns permuted by order: the factors on the permuted pattern, the
    strict lower blocks of L, whose diagonal blocks are identities, and the
    blocks of U, diagonal included.

    Block IKJ elimination; updates touching positions outside the pattern are
    skipped, which is the only approximation. Raises SingularPivotBlock for
    the first step whose pivot block is missing or near-singular.
    """
    A = _square_bsr(A)
    order = np.asarray(order, dtype=int)
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
    return work


def bilu0_factor(A, ordering: MdfOrdering) -> Factor:
    """bilu0_blocks of A in the ordering, split at the block level: L_blk,
    its strict lower blocks plus the identity, is compiled by
    triangular_sweep, and U_blk, its blocks on and above the diagonal, is
    factored by SuperLU in natural column order with partial pivoting.
    U_blk is block upper triangular, so every pivot stays in its diagonal
    block and SuperLU's solve is U_blk^-1; trans="T" is its own transposed
    solve."""
    order = np.asarray(ordering.order, dtype=int)
    work = bilu0_blocks(A, order)
    s = work.blocksize[0]
    # perm[r] is the original point index of row r of the permuted matrix.
    perm = (order[:, None] * s + np.arange(s)).ravel()
    C = work.tocoo()
    below = C.row // s > C.col // s

    def part(mask):
        return scipy.sparse.csc_matrix((C.data[mask], (C.row[mask], C.col[mask])), shape=C.shape)

    lower = triangular_sweep(part(below) + scipy.sparse.identity(C.shape[0]))
    upper = scipy.sparse.linalg.splu(part(~below), permc_spec="NATURAL")

    def apply(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[perm] = upper.solve(lower.solve(b[perm]))
        return x

    def apply_T(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[perm] = lower.solve(upper.solve(b[perm], trans="T"), trans="T")
        return x

    return Factor(len(perm), apply, apply_T)
