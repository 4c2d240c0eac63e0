"""Dense test oracles for the Ju~ / Byy~ factors and the assembled At matrix.

The exact, block Jacobi and point Jacobi approximations are rebuilt from the
true dense Ju and Byy, so an oracle check compares each factor's solve against
the matrices themselves. Only block ILU0 and point ILU0, whose factors discard
fill, are recomposed from the factor entries as L U.
"""

import numpy as np

from kktprecond.blocklinalg import densify
from kktprecond.conprec import PointIlu0Factor, PointJacobiFactor
from kktprecond.dgprecond import BiluPrec, BlockJacobiPrec


def bilu_factors(P: BiluPrec):
    """Dense L and U of the block ILU0, in permuted order. The split is at the
    block level: U owns the full diagonal blocks, L's diagonal is the identity."""
    pat = P.lu_blocks.pattern
    roff = pat.row_offsets
    L = np.eye(pat.n_rows)
    U = np.zeros((pat.n_rows, pat.n_cols))
    for i in range(pat.n_block_rows):
        for k in range(pat.row_ptr[i], pat.row_ptr[i + 1]):
            j = int(pat.col_idx[k])
            target = L if j < i else U
            target[roff[i] : roff[i + 1], roff[j] : roff[j + 1]] = P.lu_blocks.blocks[k]
    return L, U


def bilu_matrix(P: BiluPrec) -> np.ndarray:
    """The block ILU0 approximation L U mapped back to the original ordering."""
    L, U = bilu_factors(P)
    out = np.zeros_like(L)
    out[np.ix_(P.point_perm, P.point_perm)] = L @ U
    return out


def point_ilu0_matrix(F: PointIlu0Factor) -> np.ndarray:
    """The point ILU0 approximation L U."""
    L = np.eye(F.n)
    U = np.zeros((F.n, F.n))
    for i in range(F.n):
        for k in range(F.row_ptr[i], F.row_ptr[i + 1]):
            j = F.col_idx[k]
            if j < i:
                L[i, j] = F.values[k]
            else:
                U[i, j] = F.values[k]
    return L @ U


def ju_matrix(factor, Ju: np.ndarray) -> np.ndarray:
    """Dense Ju~ of a factor, given the true dense Ju."""
    if isinstance(factor, BiluPrec):
        return bilu_matrix(factor)
    if isinstance(factor, BlockJacobiPrec):
        out = np.zeros_like(Ju)
        off = np.concatenate([[0], np.cumsum(factor.block_sizes)])
        for lo, hi in zip(off[:-1], off[1:]):
            out[lo:hi, lo:hi] = Ju[lo:hi, lo:hi]
        return out
    return Ju


def byy_matrix(factor, Byy: np.ndarray) -> np.ndarray:
    """Dense Byy~ of a factor, given the true dense Byy."""
    if isinstance(factor, PointIlu0Factor):
        return point_ilu0_matrix(factor)
    if isinstance(factor, PointJacobiFactor):
        return np.diag(np.diag(Byy))
    return Byy


def system_ju_byy(sys):
    """The true dense Ju and Byy of a KKT system."""
    return densify(sys.factors.Ju), sys.Byy.toarray()


def densify_at_matrix(P, Ju, Byy) -> np.ndarray:
    """Assembled dense anti-triangular matrix At (without any multigrid wrap),
    given the true dense Ju and Byy."""
    n_u, n_y = P.n_u, P.n_y
    dim = 2 * n_u + n_y
    ju = ju_matrix(P.ju, np.asarray(Ju, dtype=float))
    byy = byy_matrix(P.byy, np.asarray(Byy, dtype=float))
    jy = P.Jy.toarray()
    A = np.zeros((dim, dim))
    su = slice(0, n_u)
    sy = slice(n_u, n_u + n_y)
    sl = slice(n_u + n_y, dim)
    A[su, sl] = ju.T
    A[sy, sy] = byy
    A[sy, sl] = jy.T
    A[sl, su] = ju
    A[sl, sy] = jy
    return A
