"""Synthetic 2D block stencil systems for ordering and fill stress tests.

The 1D testbed's Jacobian is block tridiagonal and admits no fill under any
reasonable ordering, so incomplete-factorization behavior is exercised on a
5-point block stencil over an n x n grid instead.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

__all__ = ["generate_stencil_system"]


def generate_stencil_system(n: int, block: int, seed: int) -> scipy.sparse.bsr_matrix:
    """5-point block stencil on an n x n grid with reproducible random blocks,
    as a BSR matrix with block x block blocks.

    Diagonal blocks are drawn uniform in (-1, 1) and made strictly row
    dominant; neighbor blocks are scaled to Frobenius norm 0.25 so the
    assembled operator stays comfortably within GMRES territory. Blocks are
    drawn in CSR order, making the result byte-identical for a fixed seed.
    """
    if n < 1:
        raise ValueError("grid size must be at least 1")
    if block < 1:
        raise ValueError("block size must be at least 1")
    rng = np.random.default_rng(seed)
    nb = n * n
    indptr = [0]
    indices: list[int] = []
    blocks: list[np.ndarray] = []
    for i in range(n):
        for j in range(n):
            row = i * n + j
            cols = [row]
            if i > 0:
                cols.append(row - n)
            if i < n - 1:
                cols.append(row + n)
            if j > 0:
                cols.append(row - 1)
            if j < n - 1:
                cols.append(row + 1)
            for c in sorted(cols):
                if c == row:
                    blk = rng.uniform(-1.0, 1.0, (block, block))
                    off_sum = np.abs(blk).sum(axis=1) - np.abs(np.diag(blk))
                    blk[np.diag_indices(block)] = 2.0 + off_sum
                else:
                    blk = rng.uniform(-1.0, 1.0, (block, block))
                    norm = np.linalg.norm(blk)
                    if norm > 0:
                        blk *= 0.25 / norm
                indices.append(c)
                blocks.append(blk)
            indptr.append(len(indices))
    return scipy.sparse.bsr_matrix((np.array(blocks), indices, indptr), shape=(nb * block, nb * block))
