"""Block Jacobi and block ILU0 with minimum-discarded-fill ordering.

Both approximate a square block-sparse DG Jacobian as a blocklinalg.Factor.
Block Jacobi keeps only the diagonal blocks, inverted when built, so a solve
is one sparse product, through scipy's compiled kernel
(blocklinalg.csr_product). Block ILU0 runs a block IKJ elimination
restricted to the original sparsity pattern (fill positions are skipped),
after a greedy reordering of the block rows that at each step eliminates
the row whose discarded fill has the smallest aggregate Frobenius norm
(bilu0_blocks).
bilu0_factor splits those blocks into L_blk and U_blk at the block level:
a solve is a gather into the permuted order, a compiled sweep with L_blk,
SuperLU's solve with its LU of U_blk and a scatter back.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.lapack import dgetrf, dgetrs

from .blocklinalg import (
    Factor,
    block_rows,
    canonical_bsr,
    csr_product,
    first_singular,
    triangular_split,
    triangular_sweep,
)
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
    rows = block_rows(A.indptr)
    stored = np.flatnonzero(A.indices == rows)
    missing = np.flatnonzero(rows[stored] != np.arange(len(stored)))
    first_missing = int(missing[0]) if len(missing) else len(stored)
    return stored[:first_missing], first_missing


def _diag_lus(A) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The (nb, s, s) stack of the diagonal blocks of A and their LU factors
    (lu, piv), one LAPACK dgetrf call each and one pivot check for all;
    raises SingularBlock for the first block row whose diagonal block is
    missing or singular."""
    stored, first_missing = _diagonal_positions(A)
    blocks = A.data[stored]
    factors = [dgetrf(blk)[:2] for blk in blocks]
    bad = first_singular(blocks, [lu for lu, _ in factors])
    if bad:
        raise SingularBlock(f"block row {bad[0]}: {bad[1]}")
    if first_missing < len(A.indptr) - 1:
        raise SingularBlock(f"block row {first_missing}: diagonal block missing from pattern")
    return blocks, factors


def build_block_jacobi(A) -> Factor:
    """Invert every diagonal block of the square BSR matrix A, after the
    pivot check of their LU factors; a solve is one sparse product with
    the inverted blocks, or their transposes, by blocklinalg.csr_product."""
    A = _square_bsr(A)
    diag, _ = _diag_lus(A)
    (nb, s, _), inv = diag.shape, np.linalg.inv(diag)
    # Row a of block m holds inv[m, a, :] at the point columns of block m.
    cols = np.broadcast_to(np.arange(nb * s).reshape(nb, 1, s), inv.shape).ravel()
    indptr = np.arange(0, nb * s * s + 1, s)

    def csr(blocks):
        return scipy.sparse.csr_matrix((blocks.ravel(), cols, indptr), shape=A.shape)

    return Factor(A.shape[0], csr_product(csr(inv)), csr_product(csr(inv.transpose(0, 2, 1))))


def _fill_terms(A) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The discarded fill terms (k, i, j, ||A_ik A_kk^-1 A_kj||_F^2) of A as
    index arrays, over stored A_ik and A_kj with i, j, k distinct and A_ij
    not stored, listed by k, then i ascending, then j in column order.

    The pattern is never augmented, so the table is static. Each A_kk^-1 A_kj
    is its own dgetrs call, the products are one batched matmul and each
    squared norm is the pairwise np.sum over the flattened fill block, the
    floats of one product and one np.sum per term.
    """
    _, diag_lus = _diag_lus(A)
    n, s = len(A.indptr) - 1, A.blocksize[0]
    rows, cols = block_rows(A.indptr), A.indices.astype(np.int64)
    outs = np.flatnonzero(rows != cols)
    # The A_ik of each k, i ascending (storage order is row order), and
    # every A_kj of the row k in storage order for each of them.
    ins = outs[np.argsort(cols[outs], kind="stable")]
    n_out = np.bincount(rows[outs], minlength=n)
    out_start = np.cumsum(n_out) - n_out
    reps = n_out[cols[ins]]
    first = np.repeat(np.cumsum(reps) - reps, reps)
    ik = np.repeat(ins, reps)
    kj = outs[np.repeat(out_start[cols[ins]], reps) + np.arange(len(ik)) - first]
    i, j = rows[ik], cols[kj]
    # Canonical storage sorts the keys row * n + col of the stored blocks.
    stored_keys = rows * n + cols
    key = i * n + j
    at = np.minimum(np.searchsorted(stored_keys, key), len(stored_keys) - 1)
    keep = (i != j) & (stored_keys[at] != key)
    ik, kj, i, j = ik[keep], kj[keep], i[keep], j[keep]
    solved_at, which = np.unique(kj, return_inverse=True)
    # getrs returns Fortran-ordered blocks; the stack keeps that layout, so
    # each product is the same gemm call as ik @ akj on one block.
    solved = [dgetrs(*diag_lus[k], A.data[t])[0].T for k, t in zip(rows[solved_at].tolist(), solved_at.tolist())]
    solved = np.array(solved).reshape(len(solved_at), s, s).transpose(0, 2, 1)
    fill = np.matmul(A.data[ik], solved[which])
    norms = np.sum((fill * fill).reshape(len(fill), s * s), axis=1)
    return rows[kj], i, j, norms


def _heap_key(weight: float, k: int) -> tuple:
    """Heap key of row k that orders as np.argmin over the rows does: a NaN
    weight first, then the lowest weight, ties to the lowest index."""
    return (0, 0.0, k) if weight != weight else (1, weight, k)


def mdf_order(A) -> MdfOrdering:
    """Greedy minimum-discarded-fill ordering of the block rows.

    The weight of an uneliminated row k is the Frobenius norm of the aggregate
    fill it would discard,

        w_k = sqrt( sum_{(i,j)} || A_ik A_kk^-1 A_kj ||_F^2 ),

    over pairs of uneliminated neighbors i != j with A_ik and A_kj stored but
    A_ij absent from the pattern, summed one term after another in the order
    of _fill_terms. Ties select the lowest original index and a NaN weight is
    selected first, as np.argmin over the alive rows would. The pattern
    itself is never augmented with fill, so every term is computed once;
    after eliminating a row, only the rows with a term that names it are
    summed again over their remaining terms, and a heap with lazy deletion
    picks the next row.
    """
    A = _square_bsr(A)
    n = len(A.indptr) - 1
    k_of, i_of, j_of, norms = _fill_terms(A)
    # Every row's first weight, its terms added from 0.0 in table order.
    weights = np.sqrt(np.bincount(k_of, weights=norms, minlength=n)).tolist()
    # The rows whose weight drops a term when row r is eliminated.
    pairs = np.unique(np.concatenate([i_of, j_of]) * n + np.concatenate([k_of, k_of]))
    dep_ptr = np.searchsorted(pairs // n, np.arange(n + 1)).tolist()
    dependents = (pairs % n).tolist()
    bounds = np.searchsorted(k_of, np.arange(n + 1)).tolist()
    ti, tj, f = i_of.tolist(), j_of.tolist(), norms.tolist()
    alive = [True] * n

    def weight(k: int) -> float:
        total = 0.0
        for t in range(bounds[k], bounds[k + 1]):
            if alive[ti[t]] and alive[tj[t]]:
                total += f[t]
        return math.sqrt(total)

    keys = [_heap_key(w, k) for k, w in enumerate(weights)]
    heap = keys.copy()
    heapq.heapify(heap)
    order = np.empty(n, dtype=int)
    selected = np.empty(n)
    for step in range(n):
        entry = heapq.heappop(heap)
        while entry != keys[entry[2]] or not alive[entry[2]]:
            entry = heapq.heappop(heap)
        k = entry[2]
        order[step] = k
        selected[step] = weights[k]
        alive[k] = False
        for m in dependents[dep_ptr[k] : dep_ptr[k + 1]]:
            if alive[m]:
                weights[m] = weight(m)
                key = _heap_key(weights[m], m)
                if key != keys[m]:
                    keys[m] = key
                    heapq.heappush(heap, key)
    return MdfOrdering(order, selected)


def _permuted_copy(A, order: np.ndarray) -> scipy.sparse.bsr_matrix:
    """P A P^T for the block row order: row m of the copy is row order[m] of
    A, its columns renumbered the same way and sorted. Its index arrays are
    int32, which scipy's constructor takes without scanning them."""
    n = len(order)
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    new_cols = pos[A.indices]
    # The keys new_row * n + new_col are distinct.
    stored = np.argsort(pos[block_rows(A.indptr)].astype(np.int64) * n + new_cols)
    indptr = np.concatenate([[0], np.cumsum(np.diff(A.indptr)[order])]).astype(np.int32)
    return scipy.sparse.bsr_matrix((A.data[stored], new_cols[stored], indptr), shape=A.shape)


def bilu0_blocks(A, order: np.ndarray) -> scipy.sparse.bsr_matrix:
    """Zero-fill block LU of the square BSR matrix A with its block rows and
    columns permuted by order: the factors on the permuted pattern, the
    strict lower blocks of L, whose diagonal blocks are identities, and the
    blocks of U, diagonal included.

    Block IKJ elimination; updates touching positions outside the pattern are
    skipped, which is the only approximation. Raises ValueError, before
    any elimination, for an order that is not an integer permutation of the
    block rows, and SingularPivotBlock for the first step whose pivot block
    is missing or near-singular.
    """
    A = _square_bsr(A)
    order = np.asarray(order)
    n = len(A.indptr) - 1
    if not (
        order.shape == (n,) and np.issubdtype(order.dtype, np.integer) and np.array_equal(np.sort(order), np.arange(n))
    ):
        raise ValueError(f"order must be an integer permutation of the block rows 0..{n - 1}")
    work = _permuted_copy(A, order)
    diag_pos, first_missing = _diagonal_positions(work)
    diag_pos = diag_pos.tolist()
    row_ptr = work.indptr.tolist()
    col_idx = work.indices.tolist()
    # Views of the blocks: the elimination writes its results in place.
    blocks = list(work.data)
    lus, pivs = [], []
    # The pivots are checked once, after the elimination: what a singular
    # pivot does to the rows after it is discarded with the factors.
    with np.errstate(all="ignore"):
        for i in range(first_missing):
            lo, hi = row_ptr[i], row_ptr[i + 1]
            where = dict(zip(col_idx[lo:hi], range(lo, hi)))
            # Row i's blocks left of its diagonal; for each, row k's right of k's.
            for t in range(lo, diag_pos[i]):
                k = col_idx[t]
                # L_ik = A_ik U_kk^-1, computed via the transposed pivot solve.
                lik = dgetrs(lus[k], pivs[k], blocks[t].T, trans=1)[0].T
                blocks[t][...] = lik
                for koff in range(diag_pos[k] + 1, row_ptr[k + 1]):
                    w = where.get(col_idx[koff])
                    if w is not None:
                        blocks[w] -= lik @ blocks[koff]
            lu, piv, _ = dgetrf(blocks[diag_pos[i]])
            lus.append(lu)
            pivs.append(piv)
    bad = first_singular(work.data[diag_pos], lus)
    if bad:
        raise SingularPivotBlock(f"step {bad[0]}: {bad[1]}")
    if first_missing < len(order):
        raise SingularPivotBlock(f"step {first_missing}: diagonal block missing from permuted pattern")
    return work


def bilu0_factor(A, ordering: MdfOrdering) -> Factor:
    """bilu0_blocks of A in the ordering, split at the block level by
    triangular_split's BSR-to-CSC conversions: L_blk, its strict lower
    blocks plus the identity, is compiled by triangular_sweep, and U_blk,
    its blocks on and above the diagonal, is factored by SuperLU in
    natural column order with partial pivoting.
    U_blk is block upper triangular, so every pivot stays in its diagonal
    block and SuperLU's solve is U_blk^-1; trans="T" is its own transposed
    solve."""
    work = bilu0_blocks(A, ordering.order)
    s = work.blocksize[0]
    # perm[r] is the original point index of row r of the permuted matrix.
    perm = (np.asarray(ordering.order)[:, None] * s + np.arange(s)).ravel()
    lower, upper = triangular_split(work.data, work.indices, work.indptr)
    lower = triangular_sweep(lower)
    upper = scipy.sparse.linalg.splu(upper, permc_spec="NATURAL")

    def apply(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[perm] = upper.solve(lower.solve(b[perm]))
        return x

    def apply_T(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[perm] = lower.solve(upper.solve(b[perm], trans="T"), trans="T")
        return x

    return Factor(len(perm), apply, apply_T)
