"""Test oracles: dense Ju~ / Byy~ factors and the assembled At matrix, the
modified Gram-Schmidt GMRES loop that `krylov.gmres_solve` replaced, and the
plain kernels that the operator, the dense LU and the factor builds replaced.

The exact, block Jacobi and point Jacobi approximations are rebuilt from the
true dense Ju and Byy, so an oracle check compares each factor's solve against
the matrices themselves. Only block ILU0 and point ILU0, whose factors discard
fill, are recomposed from the factor entries as L U.

The replaced kernels (nine separate KKT factor products, scipy's lu_factor /
lu_solve wrappers, MDF weights recomputed from the blocks, the block and point
IKJ loops with per-update lookups, the preconditioner apply through the
transposed view of Jy) do the same float operations in the same order as
their replacements, so tests compare the two with np.array_equal.
"""

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse

from kktprecond.blocklinalg import BlockCsrMatrix, BlockPattern, densify
from kktprecond.conprec import PointIlu0Factor, PointJacobiFactor
from kktprecond.dgprecond import BiluPrec, BlockJacobiPrec
from kktprecond.pmultigrid import full_prolongation, full_restriction


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


# Replaced kernels -----------------------------------------------------------


def nine_product_matvec(sys, v):
    """The KKT product as nine separate factor products; v is a 1-D vector or
    a sparse block of columns."""
    n_u, n_y = sys.factors.n_u, sys.factors.n_y
    block = scipy.sparse.issparse(v)
    v = scipy.sparse.csr_matrix(v, dtype=float) if block else np.asarray(v, dtype=float)
    vu = v[:n_u]
    vy = v[n_u : n_u + n_y]
    vl = v[n_u + n_y :]
    c = sys.csr
    dRdu_vu = c.dRdu @ vu
    out_u = c.dRdu_T @ (dRdu_vu + c.G @ vy) + c.Ju_T @ vl
    out_y = c.G_T @ dRdu_vu + sys.Byy @ vy + c.Jy_T @ vl
    out_l = c.Ju @ vu + sys.Jy @ vy
    if block:
        return scipy.sparse.vstack([out_u, out_y, out_l], format="csr")
    return np.concatenate([out_u, out_y, out_l])


def scipy_lu_factor(block):
    """(lu, piv) of a dense block through scipy.linalg.lu_factor."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(np.asarray(block, dtype=float), check_finite=False)


def scipy_lu_solve(lu_piv, b, trans="N"):
    """Solve with (lu, piv) through scipy.linalg.lu_solve."""
    return scipy.linalg.lu_solve(lu_piv, b, trans=("N", "T").index(trans))


def recomputing_mdf_order(A: BlockCsrMatrix):
    """Greedy minimum-discarded-fill order with every weight recomputed from
    the blocks on each call; returns (order, weights_at_selection)."""
    pat = A.pattern
    n = pat.n_block_rows
    out_nbrs = [pat.col_idx[pat.row_ptr[i] : pat.row_ptr[i + 1]].tolist() for i in range(n)]
    in_nbrs = [[] for _ in range(n)]
    for i in range(n):
        for j in out_nbrs[i]:
            in_nbrs[j].append(i)
    has_edge = {(i, j) for i in range(n) for j in out_nbrs[i]}
    diag_lu = [scipy_lu_factor(A.blocks[pat.block_index(k, k)]) for k in range(n)]
    alive = np.ones(n, dtype=bool)

    def weight(k):
        solved = {}
        for j in out_nbrs[k]:
            if j != k and alive[j]:
                solved[j] = scipy_lu_solve(diag_lu[k], A.blocks[pat.block_index(k, j)])
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
    return order, selected


def ikj_bilu_blocks(A: BlockCsrMatrix, order) -> list:
    """Blocks of the block ILU0 of the permuted matrix by the block IKJ loop
    with a pattern lookup per update and scipy's LU of the pivot blocks."""
    pat = A.pattern
    n = pat.n_block_rows
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    row_ptr, col_idx, blocks = [0], [], []
    for i in order:
        cols = pat.col_idx[pat.row_ptr[i] : pat.row_ptr[i + 1]]
        for c, blk in sorted((int(pos[j]), A.blocks[pat.block_index(i, int(j))]) for j in cols):
            col_idx.append(c)
            blocks.append(blk.copy())
        row_ptr.append(len(col_idx))
    sizes = pat.row_block_sizes[order]
    wpat = BlockPattern(sizes, sizes, np.array(row_ptr), np.array(col_idx))
    diag_lu = {}
    for i in range(n):
        lo, hi = wpat.row_ptr[i], wpat.row_ptr[i + 1]
        for off, k in enumerate(wpat.col_idx[lo:hi]):
            if k >= i:
                break
            k = int(k)
            if k not in diag_lu:
                diag_lu[k] = scipy_lu_factor(blocks[wpat.block_index(k, k)])
            lik = scipy_lu_solve(diag_lu[k], blocks[lo + off].T, trans="T").T
            blocks[lo + off] = lik
            for koff in range(wpat.row_ptr[k], wpat.row_ptr[k + 1]):
                j = int(wpat.col_idx[koff])
                target = wpat.block_index(i, j) if j > k else None
                if target is not None:
                    blocks[target] = blocks[target] - lik @ blocks[koff]
        if i not in diag_lu:
            diag_lu[i] = scipy_lu_factor(blocks[wpat.block_index(i, i)])
    return blocks


def ikj_point_ilu0_values(B) -> np.ndarray:
    """Values of the point ILU0 of a canonical CSR matrix by the scalar IKJ
    loop with a dictionary lookup per update."""
    n = B.shape[0]
    row_ptr, col_idx, values = B.indptr, B.indices, B.data.astype(float)
    pos = {(i, int(col_idx[k])): k for i in range(n) for k in range(row_ptr[i], row_ptr[i + 1])}
    for i in range(n):
        for k in range(row_ptr[i], pos[(i, i)]):
            c = int(col_idx[k])
            values[k] /= values[pos[(c, c)]]
            lik = values[k]
            for kk in range(pos[(c, c)] + 1, row_ptr[c + 1]):
                target = pos.get((i, int(col_idx[kk])))
                if target is not None:
                    values[target] -= lik * values[kk]
    return values


def five_step_apply(P, sys, v):
    """A catalog preconditioner's apply with Jy^T taken as the transposed view
    of Jy on every call and, for the *-p0 variants, the coarse matrix
    assembled from nine_product_matvec and factored by scipy; returns the
    result and the coarse matrix (None without multigrid)."""
    n_u, n_y = P.n_u, P.n_y

    def bare(b):
        w1 = P.ju.solve(b[:n_u], trans="T")
        w2 = P.byy.solve(b[n_u : n_u + n_y] - P.Jy.T @ w1)
        w3 = P.ju.solve(b[n_u + n_y :] - P.Jy @ w2)
        return np.concatenate([w3, w2, w1])

    if P.multigrid is None:
        return bare(v), None
    prolong = full_prolongation(P.multigrid.transfers)
    restrict = full_restriction(P.multigrid.transfers)
    A0 = (restrict @ nine_product_matvec(sys, prolong)).toarray()
    s = prolong @ scipy_lu_solve(scipy_lu_factor(A0), restrict @ v)
    return s + bare(v - nine_product_matvec(sys, s)), A0
