"""Test oracles: dense Ju~ / Byy~ factors and the assembled At matrix, and the
modified Gram-Schmidt GMRES loop that `krylov.gmres_solve` replaced.

The exact, block Jacobi and point Jacobi approximations are rebuilt from the
true dense Ju and Byy, so an oracle check compares each factor's solve against
the matrices themselves. Only block ILU0 and point ILU0, whose factors discard
fill, are recomposed from the factor entries as L U.
"""

import numpy as np
import scipy.linalg

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


def mgs_gmres(A, b, M, cfg):
    """The original GMRES loop: modified Gram-Schmidt over the basis vectors,
    storage for max_iters allocated up front and the iterate formed at every
    iteration. Returns (solution, iterations, converged, history)."""
    b = np.asarray(b, dtype=float)
    n = A.dimension
    b_prec = M.apply_inverse(b)
    beta = np.linalg.norm(b_prec)
    if beta < 1e-300:
        return np.zeros(n), 0, True, np.zeros(0)

    max_it = cfg.max_iters
    V = np.zeros((max_it + 1, n))
    H = np.zeros((max_it + 1, max_it))
    cs = np.zeros(max_it)
    sn = np.zeros(max_it)
    g = np.zeros(max_it + 1)
    V[0] = b_prec / beta
    g[0] = beta

    ref = cfg.reference
    history = []
    best = np.zeros(n)
    breakdown = False

    for j in range(max_it):
        w = M.apply_inverse(A.apply(V[j]))
        norm_w0 = np.linalg.norm(w)
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] > 1e-14 * max(norm_w0, 1e-300):
            V[j + 1] = w / H[j + 1, j]
        else:
            breakdown = True

        for i in range(j):
            hi, hj = H[i, j], H[i + 1, j]
            H[i, j] = cs[i] * hi + sn[i] * hj
            H[i + 1, j] = -sn[i] * hi + cs[i] * hj
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom < 1e-300:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
        H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        y = scipy.linalg.solve_triangular(H[: j + 1, : j + 1], g[: j + 1], lower=False)
        best = V[: j + 1].T @ y

        if ref is None:
            value = abs(g[j + 1]) / beta
        else:
            value = np.linalg.norm(ref - best) / np.linalg.norm(ref)
        history.append(value)

        if value < cfg.tol:
            return best, j + 1, True, np.array(history)
        if breakdown:
            return best, j + 1, False, np.array(history)

    return best, max_it, False, np.array(history)
