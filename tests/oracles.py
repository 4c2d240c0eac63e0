"""Test oracles: dense Ju~ / Byy~ factors and the assembled At matrix, the
modified Gram-Schmidt GMRES loop that `krylov.gmres_solve` replaced, and the
plain kernels that the operator, the dense LU, the factor builds, the Matrix
Market reader, the reference assembly and GMRES's Givens rotations replaced.

Every factor is one blocklinalg.Factor, so the dense oracles dispatch on
the Ju~ and Byy~ kinds that conprec._VARIANT_TABLE names for a variant, not
on the factor. The exact, block Jacobi and point Jacobi approximations are
rebuilt from the true Ju and Byy (block Jacobi keeps the diagonal blocks of
Ju's block size), so an oracle check compares each factor's solve against
the matrices themselves. Only block ILU0 and point ILU0, whose factors
discard fill, are recomposed as L U from the entries the production
functions compute: the blocks of dgprecond.bilu0_blocks in MDF order, and
the values of conprec.point_ilu0_values, read in the pattern of the Byy
they factor.

The replaced kernels (scipy's lu_factor / lu_solve wrappers, the getrf /
BlockLuFactor.solve wrappers of one block's LAPACK getrf / getrs with their
checks, MDF weights
recomputed from the blocks, the MDF order from a per-row fill table with an
argmin scan per step, the MDF first weights summed a term slot at a time,
the block ILU0 elimination through those wrappers,
the block and point ILU0 factors split into L and U
through COO, tril and triu and a sum with the identity, the block and point
IKJ loops with per-update lookups, the preconditioner apply through the
transposed view of Jy, the mesh transfer Py built by a loop and the
transfers stacked by block_diag, the
KKT matrix assembled by bmat's COO path and by bmat of blocks each
converted and transposed by scipy, Byy summed on CSC views, the set-up
products through scipy's operators (Byy, Jy, K by one argsort of its
entries, K P and the coarse matrix, and the triangular splits by scipy's
BSR-to-CSC conversions), the reader
with a second loadtxt and a reshape per block and the reader that sorted
every file and found its blocks by np.unique, the SQP
step solved on build_kkt's K scattered into band storage from its sparse
arrays, the point ILU0 solve through identity
permutations, the step's product sums from term tables padded to the
widest pair, every term included, and summed a table row at a time,
the residual and the
Jacobian blocks of one test degree at a time,
the basis tables of a degree built in three calls, the preconditioner
cycle written out factor by factor, the reference solve of
K.tocsc(), the Python loop that applied GMRES's earlier Givens rotations to
each new Hessenberg column)
do the same float operations in the same order as their
replacements, so tests compare the two with np.array_equal.

The KKT products of earlier operators, nine separate factor products and the
two stacked products of the sliced sparse-block form, apply B_uu and B_uy
through their factors, and the dense KKT matrix of the earlier SQP step is
built from dense products of the factors. They round differently from the
assembled matrix, so tests compare them with it to a tolerance.

References that no production path needs live here too: the normative
convergence measure of a candidate GMRES solution, evaluated from scratch;
the generic constrained preconditioner [[G, Jt^T], [Jt, 0]] applied in dense
product form, with the SingularSchurComplement it raises; the checked dense
LU of one block (dense_lu_factor) and the exact dense-inverse preconditioner
built on it (lu_preconditioner), a Factor on scipy's dense LU for
hand-built preconditioners (dense_factor), a LinearOperator, the tests' record of an
ad-hoc operator; the symbolic block sparsity accounting of acceptance
criterion 7 (ata_pattern, count_block_sparsity); and the
shock-tracking problem oracles: the exact profile, the tracked optimum,
the objective with its gradient (build_kkt's g), the mesh distortion as a
function of the mesh for finite differences, and the state build_kkt
linearizes at a point (u, y).
"""

import ctypes
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

from kktprecond import shocktrack
from kktprecond.blocklinalg import Factor, block_rows, checked_splu, first_singular, sparse_lu, triangular_sweep
from kktprecond.conprec import _VARIANT_TABLE, point_ilu0_values
from kktprecond.dgprecond import _diagonal_positions, _fill_terms, _permuted_copy, _square_bsr, bilu0_blocks, mdf_order
from kktprecond.errors import (
    DimensionMismatch,
    KktPrecondError,
    ManifestError,
    SingularBlock,
    SingularPivotBlock,
    SingularSystem,
    ZeroReference,
)
from kktprecond.mmio import (
    _BANNER,
    _BLOCK_TAG,
    _ENTRY,
    _VALUE,
    _check_banner,
    _check_end,
    _check_finite,
    _parse,
    _parse_block_tag,
    _size_line,
)
from kktprecond.shocktrack import SHOCK_POSITION, DgState, SqpConfig, StepSystem, build_kkt, phi_map


def block_index(A, i, j):
    """Position of block (i, j) in the storage of a BSR matrix, or None if
    not stored."""
    lo, hi = A.indptr[i], A.indptr[i + 1]
    k = lo + np.searchsorted(A.indices[lo:hi], j)
    if k < hi and A.indices[k] == j:
        return int(k)
    return None


def bilu_factors(F):
    """Dense L and U of the block ILU0 blocks F (bilu0_blocks), in permuted
    order. The split is at the block level: U owns the full diagonal blocks,
    L's diagonal is the identity."""
    s = F.blocksize[0]
    L = np.eye(F.shape[0])
    U = np.zeros(F.shape)
    for i in range(len(F.indptr) - 1):
        for k in range(F.indptr[i], F.indptr[i + 1]):
            j = int(F.indices[k])
            target = L if j < i else U
            target[i * s : (i + 1) * s, j * s : (j + 1) * s] = F.data[k]
    return L, U


def bilu_matrix(A) -> np.ndarray:
    """The block ILU0 approximation L U of the BSR matrix A in MDF order, as
    the BILU variants build it, mapped back to the original ordering."""
    order = mdf_order(A).order
    L, U = bilu_factors(bilu0_blocks(A, order))
    s = A.blocksize[0]
    point_perm = (order[:, None] * s + np.arange(s)).ravel()
    out = np.zeros_like(L)
    out[np.ix_(point_perm, point_perm)] = L @ U
    return out


def point_ilu0_matrix(B, values: np.ndarray) -> np.ndarray:
    """The point ILU0 approximation L U, given the canonical CSR matrix B that
    was factored and the factor's values, stored in B's pattern."""
    n = B.shape[0]
    L = np.eye(n)
    U = np.zeros((n, n))
    for i in range(n):
        for k in range(B.indptr[i], B.indptr[i + 1]):
            j = B.indices[k]
            if j < i:
                L[i, j] = values[k]
            else:
                U[i, j] = values[k]
    return L @ U


def _dense(M) -> np.ndarray:
    return M.toarray() if scipy.sparse.issparse(M) else np.asarray(M, dtype=float)


def ju_matrix(kind, Ju) -> np.ndarray:
    """Dense Ju~ of a Ju kind of conprec._VARIANT_TABLE, given the true Ju: a
    BSR matrix, or a dense one for the exact kind."""
    if kind == "bilu":
        return bilu_matrix(Ju)
    dense = _dense(Ju)
    if kind == "block_jacobi":
        s = Ju.blocksize[0]
        block = np.arange(dense.shape[0]) // s
        return np.where(block[:, None] == block[None, :], dense, 0.0)
    return dense


def byy_matrix(kind, Byy) -> np.ndarray:
    """Dense Byy~ of a Byy kind of conprec._VARIANT_TABLE, given the true Byy:
    the canonical CSR matrix for point ILU0, or a dense one for the others."""
    if kind == "point_ilu0":
        return point_ilu0_matrix(Byy, point_ilu0_values(Byy))
    dense = _dense(Byy)
    if kind == "point_jacobi":
        return np.diag(np.diag(dense))
    return dense


def system_ju_byy(sys):
    """The true Ju (BSR) and Byy (CSR) of a KKT system."""
    return sys.Ju, sys.Byy


def densify_at_matrix(P, Ju, Byy) -> np.ndarray:
    """Assembled dense anti-triangular matrix At (without any multigrid wrap)
    of the kinds of P.variant, given the true Ju and Byy as ju_matrix and
    byy_matrix take them."""
    n_u, n_y = P.ju.n, P.byy.n
    dim = 2 * n_u + n_y
    ju_kind, byy_kind, _ = _VARIANT_TABLE[P.variant]
    ju = ju_matrix(ju_kind, Ju)
    byy = byy_matrix(byy_kind, Byy)
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
    b_prec = M.apply(b)
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
        w = M.apply(A.apply(V[j]))
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


def givens_column(col, cs, sn) -> np.ndarray:
    """The Python loop that gmres_solve's dlasr call replaced: the rotations
    (cs[i], sn[i]), i = 0, 1, ..., applied in turn to the entries i and
    i + 1 of a Hessenberg column, in Python floats."""
    col = np.asarray(col, dtype=float).tolist()
    cs = np.asarray(cs, dtype=float).tolist()
    sn = np.asarray(sn, dtype=float).tolist()
    for i in range(len(cs)):
        hi, hj = col[i], col[i + 1]
        col[i] = cs[i] * hi + sn[i] * hj
        col[i + 1] = -sn[i] * hi + cs[i] * hj
    return np.array(col)


def _doubles(address: int, size: int) -> np.ndarray:
    """The size doubles at a raw address, as a writable array view."""
    return np.ctypeslib.as_array(ctypes.cast(address, ctypes.POINTER(ctypes.c_double)), (size,))


def looping_dlasr(side, pivot, direct, m, n, c, s, a, lda):
    """Stand-in for krylov._dlasr, with its arguments, that rotates the one
    column at address a by givens_column, so a solve with it patched in is a
    solve with the replaced loop."""
    assert (side, pivot, direct, n.value, lda.value) == (b"L", b"V", b"F", 1, m.value)
    rows = m.value
    column = _doubles(a, rows)
    column[:] = givens_column(column, _doubles(c, rows - 1), _doubles(s, rows - 1))


def stacked_diagonal(groups) -> scipy.sparse.csr_matrix:
    """CSR matrix block_diag(vstack(g) for g in groups) of CSR matrices.

    The arrays of each matrix are concatenated as stored, never re-sorted:
    every row of the result holds the entries of one row of one matrix in
    their stored order, so its product with a vector or a sparse block
    accumulates the same float sequence as that matrix's own product.
    """
    indptr, indices, data = [np.zeros(1, dtype=np.int64)], [], []
    n_rows = n_cols = nnz = 0
    for group in groups:
        for M in group:
            indptr.append(M.indptr[1:] + nnz)
            indices.append(M.indices[: M.nnz] + n_cols)
            data.append(M.data[: M.nnz])
            n_rows += M.shape[0]
            nnz += M.nnz
        n_cols += group[0].shape[1]
    return scipy.sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)), shape=(n_rows, n_cols)
    )


def csr_factors(sys):
    """Scalar CSR copies of a system's operator factors, each with its CSR
    transpose, and the two stacked matrices of the two-product operator:
    S1 = diag([dRdu; Ju], [G; Byy; Jy], [Ju^T; Jy^T]) and
    S2 = diag(dRdu^T, G^T), with G = dRdx dPhidy."""
    dRdu = sys.dRdu.tocsr()
    G = (sys.dRdx @ sys.dPhidy).tocsr()
    Ju = sys.Ju.tocsr()
    dRdu_T, G_T, Ju_T, Jy_T = (M.T.tocsr() for M in (dRdu, G, Ju, sys.Jy))
    S1 = stacked_diagonal([[dRdu, Ju], [G, sys.Byy, sys.Jy], [Ju_T, Jy_T]])
    S2 = stacked_diagonal([[dRdu_T], [G_T]])
    return SimpleNamespace(dRdu=dRdu, dRdu_T=dRdu_T, G=G, G_T=G_T, Ju=Ju, Ju_T=Ju_T, Jy_T=Jy_T, S1=S1, S2=S2)


def nine_product_matvec(sys, v):
    """The KKT product as nine separate factor products; v is a 1-D vector or
    a sparse block of columns."""
    n_u, n_y = sys.n_u, sys.n_y
    block = scipy.sparse.issparse(v)
    v = scipy.sparse.csr_matrix(v, dtype=float) if block else np.asarray(v, dtype=float)
    vu = v[:n_u]
    vy = v[n_u : n_u + n_y]
    vl = v[n_u + n_y :]
    c = csr_factors(sys)
    dRdu_vu = c.dRdu @ vu
    out_u = c.dRdu_T @ (dRdu_vu + c.G @ vy) + c.Ju_T @ vl
    out_y = c.G_T @ dRdu_vu + sys.Byy @ vy + c.Jy_T @ vl
    out_l = c.Ju @ vu + sys.Jy @ vy
    if block:
        return scipy.sparse.vstack([out_u, out_y, out_l], format="csr")
    return np.concatenate([out_u, out_y, out_l])


def dense_kkt(sys) -> np.ndarray:
    """The KKT matrix from dense products of the dense factors, mirrored block
    by block so that it equals its transpose exactly: an assembly
    independent of the sparse K that the tests compare K with."""
    n_u, n_y = sys.n_u, sys.n_y
    dim = 2 * n_u + n_y

    dRdu = sys.dRdu.toarray()
    buu = dRdu.T @ dRdu
    buu = np.triu(buu) + np.triu(buu, 1).T
    buy = dRdu.T @ (sys.dRdx.toarray() @ sys.dPhidy.toarray())
    byy = sys.Byy.toarray()
    byy = np.triu(byy) + np.triu(byy, 1).T
    ju = sys.Ju.toarray()
    jy = sys.Jy.toarray()

    A = np.zeros((dim, dim))
    su = slice(0, n_u)
    sy = slice(n_u, n_u + n_y)
    sl = slice(n_u + n_y, dim)
    A[su, su] = buu
    A[su, sy] = buy
    A[sy, su] = buy.T
    A[sy, sy] = byy
    A[sl, su] = ju
    A[su, sl] = ju.T
    A[sl, sy] = jy
    A[sy, sl] = jy.T
    return A


def scipy_lu_factor(block):
    """(lu, piv) of a dense block through scipy.linalg.lu_factor."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(np.asarray(block, dtype=float), check_finite=False)


def scipy_lu_solve(lu_piv, b, trans="N"):
    """Solve with (lu, piv) through scipy.linalg.lu_solve."""
    return scipy.linalg.lu_solve(lu_piv, b, trans=("N", "T").index(trans))


def recomputing_mdf_order(A):
    """Greedy minimum-discarded-fill order of a BSR matrix with every weight
    recomputed from the blocks on each call; returns (order,
    weights_at_selection)."""
    n = len(A.indptr) - 1
    out_nbrs = [A.indices[A.indptr[i] : A.indptr[i + 1]].tolist() for i in range(n)]
    in_nbrs = [[] for _ in range(n)]
    for i in range(n):
        for j in out_nbrs[i]:
            in_nbrs[j].append(i)
    has_edge = {(i, j) for i in range(n) for j in out_nbrs[i]}
    diag_lu = [scipy_lu_factor(A.data[block_index(A, k, k)]) for k in range(n)]
    alive = np.ones(n, dtype=bool)

    def weight(k):
        solved = {}
        for j in out_nbrs[k]:
            if j != k and alive[j]:
                solved[j] = scipy_lu_solve(diag_lu[k], A.data[block_index(A, k, j)])
        total = 0.0
        for i in in_nbrs[k]:
            if i == k or not alive[i]:
                continue
            ik = A.data[block_index(A, i, k)]
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


def fill_table_mdf_order(A):
    """Greedy minimum-discarded-fill order of a BSR matrix from a per-row
    table of its fill terms, built by dict and set loops with one getrs and
    one np.sum per term, and an argmin over the alive rows at every step;
    returns (order, weights_at_selection)."""
    n = len(A.indptr) - 1
    out_nbrs = [A.indices[A.indptr[i] : A.indptr[i + 1]].tolist() for i in range(n)]
    in_nbrs = [[] for _ in range(n)]
    for i in range(n):
        for j in out_nbrs[i]:
            in_nbrs[j].append(i)
    has_edge = {(i, j) for i in range(n) for j in out_nbrs[i]}
    diag_lus = [getrf(A.data[block_index(A, k, k)]) for k in range(n)]
    table = []
    for k in range(n):
        solved = {j: diag_lus[k].solve(A.data[block_index(A, k, j)]) for j in out_nbrs[k] if j != k}
        triples = []
        for i in in_nbrs[k]:
            if i == k:
                continue
            ik = A.data[block_index(A, i, k)]
            for j, akj in solved.items():
                if j != i and (i, j) not in has_edge:
                    fill = ik @ akj
                    triples.append((i, j, float(np.sum(fill * fill))))
        table.append(triples)
    alive = np.ones(n, dtype=bool)

    def weight(k):
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
    return order, selected


def per_slot_mdf_order(A):
    """mdf_order as it summed the first weights: the table of
    dgprecond._fill_terms, each row's first weight from 0.0 by a loop over
    term slots (term t of every row that has one, a slot at a time), each
    weight that loses a term recomputed over the alive rows' terms in table
    order, and an argmin over the alive rows at every step; returns (order,
    weights_at_selection)."""
    A = _square_bsr(A)
    n = len(A.indptr) - 1
    k_of, i_of, j_of, norms = _fill_terms(A)
    count = np.bincount(k_of, minlength=n)
    start = np.cumsum(count) - count
    totals = np.zeros(n)
    for t in range(count.max(initial=0)):
        has = np.flatnonzero(count > t)
        totals[has] += norms[start[has] + t]
    weights = np.sqrt(totals)
    alive = np.ones(n, dtype=bool)
    order = np.empty(n, dtype=int)
    selected = np.empty(n)
    for step in range(n):
        candidates = np.flatnonzero(alive)
        k = int(candidates[np.argmin(weights[candidates])])
        order[step] = k
        selected[step] = weights[k]
        alive[k] = False
        for m in np.unique(k_of[(i_of == k) | (j_of == k)]):
            total = 0.0
            for t in range(start[m], start[m] + count[m]):
                if alive[i_of[t]] and alive[j_of[t]]:
                    total += norms[t]
            weights[m] = np.sqrt(total)
    return order, selected


def per_block_bilu0_blocks(A, order):
    """dgprecond.bilu0_blocks with every pivot block factored by getrf and
    every L_ik solved through BlockLuFactor.solve, each row k's blocks
    scanned from its first, every updated block a new array, and the blocks
    reshaped back into the permuted copy."""
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
    diag_lu = []
    row_ptr = work.indptr.tolist()
    col_idx = work.indices.tolist()
    blocks = list(work.data)
    with np.errstate(all="ignore"):
        for i in range(first_missing):
            lo, hi = row_ptr[i], row_ptr[i + 1]
            where = dict(zip(col_idx[lo:hi], range(lo, hi)))
            for t in range(lo, hi):
                k = col_idx[t]
                if k >= i:
                    break
                lik = diag_lu[k].solve(blocks[t].T, trans="T").T
                blocks[t] = lik
                for koff in range(row_ptr[k], row_ptr[k + 1]):
                    j = col_idx[koff]
                    if j > k and j in where:
                        blocks[where[j]] = blocks[where[j]] - lik @ blocks[koff]
            diag_lu.append(getrf(blocks[diag_pos[i]]))
    work.data[:] = np.reshape(blocks, work.data.shape)
    bad = first_singular(work.data[diag_pos], [f.lu_entries for f in diag_lu])
    if bad:
        raise SingularPivotBlock(f"step {bad[0]}: {bad[1]}")
    if first_missing < len(order):
        raise SingularPivotBlock(f"step {first_missing}: diagonal block missing from permuted pattern")
    return work


def coo_block_split(F):
    """CSC L_blk (strict lower blocks plus the identity) and U_blk (blocks on
    and above the diagonal) of the block ILU0 blocks F, through F's COO
    form, a masked COO-to-CSC build of each part and a sparse sum with the
    identity."""
    s = F.blocksize[0]
    C = F.tocoo()
    below = C.row // s > C.col // s

    def part(mask):
        return scipy.sparse.csc_matrix((C.data[mask], (C.row[mask], C.col[mask])), shape=C.shape)

    return part(below) + scipy.sparse.identity(C.shape[0]), part(~below)


def tril_point_split(B, values):
    """CSC L = tril(S, -1) + I and U = triu(S) of S, the values in the
    pattern of the canonical CSR matrix B, as SuperLU receives them."""
    S = scipy.sparse.csr_matrix((values, B.indices, B.indptr), shape=B.shape)
    L = scipy.sparse.tril(S, -1) + scipy.sparse.identity(B.shape[0])
    return scipy.sparse.csc_matrix(L), scipy.sparse.csc_matrix(scipy.sparse.triu(S))


def ikj_bilu_blocks(A, order) -> list:
    """Blocks of the block ILU0 of the permuted BSR matrix by the block IKJ
    loop with a pattern lookup per update and scipy's LU of the pivot blocks."""
    n = len(A.indptr) - 1
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    row_ptr, col_idx, blocks = [0], [], []
    for i in order:
        cols = A.indices[A.indptr[i] : A.indptr[i + 1]]
        for c, k in sorted((int(pos[j]), block_index(A, i, int(j))) for j in cols):
            col_idx.append(c)
            blocks.append(A.data[k].copy())
        row_ptr.append(len(col_idx))
    wpat = scipy.sparse.bsr_matrix((np.array(blocks), col_idx, row_ptr), shape=A.shape)
    diag_lu = {}
    for i in range(n):
        lo, hi = wpat.indptr[i], wpat.indptr[i + 1]
        for off, k in enumerate(wpat.indices[lo:hi]):
            if k >= i:
                break
            k = int(k)
            if k not in diag_lu:
                diag_lu[k] = scipy_lu_factor(blocks[block_index(wpat, k, k)])
            lik = scipy_lu_solve(diag_lu[k], blocks[lo + off].T, trans="T").T
            blocks[lo + off] = lik
            for koff in range(wpat.indptr[k], wpat.indptr[k + 1]):
                j = int(wpat.indices[koff])
                target = block_index(wpat, i, j) if j > k else None
                if target is not None:
                    blocks[target] = blocks[target] - lik @ blocks[koff]
        if i not in diag_lu:
            diag_lu[i] = scipy_lu_factor(blocks[block_index(wpat, i, i)])
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


def permuted_point_ilu0_factor(B):
    """The point ILU0 factor of B compiled to its two natural-order sweeps
    behind an identity gather and scatter on each solve."""
    S = scipy.sparse.csr_matrix((point_ilu0_values(B), B.indices, B.indptr), shape=B.shape)
    natural = np.arange(B.shape[0])
    lower = triangular_sweep(scipy.sparse.tril(S, -1) + scipy.sparse.identity(B.shape[0]))
    upper = triangular_sweep(scipy.sparse.triu(S))

    def apply(b):
        x = np.empty_like(b)
        x[natural] = upper.solve(lower.solve(b[natural]))
        return x

    def apply_T(b):
        x = np.empty_like(b)
        x[natural] = lower.solve(upper.solve(b[natural], trans="T"), trans="T")
        return x

    return Factor(B.shape[0], apply, apply_T)


def five_step_apply(P, sys, v):
    """A catalog preconditioner's apply with Jy^T taken as the transposed view
    of Jy on every call and, for the *-p0 variants, the coarse matrix
    assembled from the bmat_kkt matrix and factored by sparse_lu; returns the
    result and the coarse matrix (None without multigrid)."""
    n_u, n_y = P.ju.n, P.byy.n

    def bare(b):
        w1 = P.ju.apply_T(b[:n_u])
        w2 = P.byy.apply(b[n_u : n_u + n_y] - P.Jy.T @ w1)
        w3 = P.ju.apply(b[n_u + n_y :] - P.Jy @ w2)
        return np.concatenate([w3, w2, w1])

    if P.multigrid is None:
        return bare(v), None
    K = bmat_kkt(sys)
    prolong, restrict = sys.dims.transfers()
    A0 = restrict @ (K @ prolong)
    s = prolong @ sparse_lu(A0).apply(restrict @ v)
    return s + bare(v - K @ s), A0


def factor_apply(P, v):
    """A catalog preconditioner's M^-1 v written out from the apply and
    apply_T of its factors, the coarse LU included, in the cycle's order."""
    v = np.asarray(v, dtype=float)
    n_u, n_y = P.ju.n, P.byy.n

    def bare(b):
        w1 = P.ju.apply_T(b[:n_u])
        w2 = P.byy.apply(b[n_u : n_u + n_y] - P.Jy.T.tocsr() @ w1)
        w3 = P.ju.apply(b[n_u + n_y :] - P.Jy @ w2)
        return np.concatenate([w3, w2, w1])

    if P.multigrid is None:
        return bare(v)
    sys, coarse = P.multigrid
    s = coarse.P @ coarse.lu.apply(coarse.Q @ v)
    return s + bare(v - sys.apply(s))


def per_block_pivot_check(blocks, factors):
    """Position of the first block that first_singular's per-block test
    rejects, or None."""
    for m, (block, lu) in enumerate(zip(blocks, factors)):
        if not block.size:
            continue
        scale = np.abs(block).max()
        if scale == 0.0 or np.any(np.abs(np.diag(lu.lu_entries)) < 1e-14 * scale):
            return m
    return None


def sliced_block_matvec(sys, X):
    """The KKT product with a sparse block of columns by row slices, sparse
    sums and scipy vstack of the two stacked products."""
    n_u, n_y = sys.n_u, sys.n_y
    c = csr_factors(sys)
    n_r = c.G.shape[0]
    ends = np.cumsum([0, n_r, n_u, n_r, n_y, n_u, n_u, n_y])
    w = c.S1 @ scipy.sparse.csr_matrix(X, dtype=float)
    a, ju_vu, b, byy_vy, jy_vy, jut_vl, jyt_vl = (w[lo:hi] for lo, hi in zip(ends[:-1], ends[1:]))
    t = c.S2 @ scipy.sparse.vstack([a + b, a], format="csr")
    out_u = t[:n_u] + jut_vl
    out_y = t[n_u:] + byy_vy + jyt_vl
    out_l = ju_vu + jy_vy
    return scipy.sparse.vstack([out_u, out_y, out_l], format="csr")


def looped_transfers(n_elem, p, q):
    """The prolongation P and restriction Q, with Py built node by node."""
    n_u = n_elem * (p + 1)
    Pu = scipy.sparse.csr_matrix(
        (np.ones(n_u), (np.arange(n_u), np.repeat(np.arange(n_elem), p + 1))), shape=(n_u, n_elem)
    )
    n_y, n_yc = q * n_elem - 1, n_elem - 1
    rows, cols, vals = [], [], []
    for g in range(1, q * n_elem):
        e, l = divmod(g, q)
        if l == 0:
            rows.append(g - 1)
            cols.append(e - 1)
            vals.append(1.0)
        else:
            for vertex, wgt in ((e, 1.0 - l / q), (e + 1, l / q)):
                if 0 < vertex < n_elem:
                    rows.append(g - 1)
                    cols.append(vertex - 1)
                    vals.append(wgt)
    Py = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n_y, n_yc))
    Qy = scipy.sparse.csr_matrix((np.ones(n_yc), (np.arange(n_yc), q * np.arange(1, n_elem) - 1)), shape=(n_yc, n_y))
    P = scipy.sparse.block_diag([Pu, Py, Pu], format="csr")
    Q = scipy.sparse.block_diag([Pu.T, Qy, Pu.T], format="csr")
    return P, Q


def sliced_coarse_matrix(sys):
    """The p-multigrid coarse matrix Q A P from the looped transfers and the
    bmat_kkt matrix."""
    P, Q = looped_transfers(sys.dims.n_elem, sys.dims.p, sys.dims.q)
    return (Q @ (bmat_kkt(sys) @ P)).toarray()


def bmat_kkt(sys):
    """The assembled KKT matrix through bmat's COO path."""
    c = csr_factors(sys)
    buy = c.dRdu_T @ c.G
    blocks = [[c.dRdu_T @ c.dRdu, buy, c.Ju_T], [buy.T, sys.Byy, c.Jy_T], [c.Ju, sys.Jy, None]]
    return scipy.sparse.bmat(blocks, format="csc")


def transposing_kkt(sys):
    """KktSystem.K as it was: each block converted to CSR and transposed on
    its own, stacked by bmat with an empty CSR zero block, rows sorted."""
    dRdu = sys.dRdu.tocsr()
    Ju = sys.Ju.tocsr()
    dRdu_T = dRdu.T.tocsr()
    buy = dRdu_T @ (sys.dRdx @ sys.dPhidy).tocsr()
    zero = scipy.sparse.csr_matrix((sys.n_u, sys.n_u))
    blocks = [
        [dRdu_T @ dRdu, buy, Ju.T.tocsr()],
        [buy.T.tocsr(), sys.Byy, sys.Jy.T.tocsr()],
        [Ju, sys.Jy, zero],
    ]
    K = scipy.sparse.bmat(blocks, format="csr")
    K.sort_indices()
    return K


def csc_view_assemble_Byy(sys):
    """kkt.assemble_Byy as it was: the products and sums on CSC views of the
    transposed factors."""
    Ax, Rm, Phi = sys.dRdx, sys.dRmshdx, sys.dPhidy
    Bxx = (Ax.T @ Ax) + sys.kappa**2 * (Rm.T @ Rm) + sys.gamma * sys.D
    Byy = (Phi.T @ Bxx @ Phi).tocsr()
    return 0.5 * (Byy + Byy.T)


def scipy_assemble_Byy(sys):
    """kkt.assemble_Byy through scipy's operators: the same transposes,
    products, sums and row sort on scipy CSR matrices, each a scipy object."""
    Ax, Rm, Phi = sys.dRdx, sys.dRmshdx, sys.dPhidy
    mesh = Rm.T.tocsr() @ Rm
    mesh.data *= sys.kappa**2
    elastic = sys.D.T.tocsr()
    elastic.data *= sys.gamma
    Bxx_T = Ax.T.tocsr() @ Ax + mesh + elastic
    B_T = Phi.T.tocsr() @ (Bxx_T @ Phi)
    B = B_T.T.tocsr()
    B_T.sort_indices()
    Byy = B + B_T
    Byy.data *= 0.5
    return Byy


def scipy_Jy(sys):
    """KktSystem.Jy through scipy's product."""
    return (sys.drdx @ sys.dPhidy).tocsr()


def _coo_entries(A, row0: int, col0: int):
    """Row, column and value of every stored entry of a CSR or BSR matrix
    whose top left corner sits at (row0, col0), in storage order."""
    if A.format != "bsr":
        return block_rows(A.indptr) + row0, A.indices + col0, A.data
    (r, c), nb = A.blocksize, len(A.indices)
    rows = (block_rows(A.indptr)[:, None] * r + np.arange(row0, row0 + r)).repeat(c)
    cols = A.indices[:, None].astype(np.int64) * c + np.arange(col0, col0 + c)
    return rows, np.broadcast_to(cols[:, None, :], (nb, r, c)).ravel(), A.data.ravel()


def argsort_kkt(sys):
    """KktSystem.K through scipy's products, B_uu and B_uy on scipy's
    conversion and transpose of dRdu, with every block's entries, the
    transposed blocks' by swapping row and column, put in order by one
    stable argsort of (row, column)."""
    n_u, n_y, dim = sys.n_u, sys.n_y, sys.dimension
    dRdu = sys.dRdu.tocsr()
    dRdu_T = dRdu.T.tocsr()
    parts = [
        _coo_entries(dRdu_T @ dRdu, 0, 0),
        _coo_entries(dRdu_T @ (sys.dRdx @ sys.dPhidy), 0, n_u),
        _coo_entries(sys.Ju, n_u + n_y, 0),
        _coo_entries(sys.Jy, n_u + n_y, n_u),
    ]
    parts += [(cols, rows, vals) for rows, cols, vals in parts[1:]]
    parts.append(_coo_entries(sys.Byy, n_u, n_u))
    rows, cols, vals = (np.concatenate(arrays) for arrays in zip(*parts))
    order = np.argsort(rows * dim + cols, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dim))])
    return scipy.sparse.csr_matrix((vals[order], cols[order], indptr), shape=(dim, dim))


def scipy_coarse_matrix(sys, P, Q):
    """The coarse matrix Q (K P) of pmultigrid.assemble_coarse, both products
    scipy's, returned with K P."""
    KP = sys.K @ scipy.sparse.csr_matrix(P, dtype=float)
    return Q @ KP, KP


def scipy_triangular_split(blocks, indices, indptr):
    """blocklinalg.triangular_split through scipy's BSR matrices, their
    tocsc() and eliminate_zeros()."""
    blocks = np.asarray(blocks, dtype=float)
    nb, s = len(indptr) - 1, blocks.shape[1]
    row_of = block_rows(indptr)
    upper = row_of <= indices
    u_ptr = np.append(0, np.cumsum(np.bincount(row_of[upper], minlength=nb)))
    U = scipy.sparse.bsr_matrix((blocks[upper], indices[upper], u_ptr), shape=(nb * s, nb * s)).tocsc()
    lower = np.where(upper[:, None, None], 0.0, blocks)
    lower[row_of == indices] = np.eye(s)
    L = scipy.sparse.bsr_matrix((lower, indices, indptr), shape=U.shape).tocsc()
    L.eliminate_zeros()
    return L, U


def tocsc_reference_solution(sys):
    """reference_solution with SuperLU given K.tocsc(), the transposition
    that K's exact symmetry makes an identity."""
    lu = checked_splu(sys.K.tocsc(), SingularSystem, f"KKT matrix of dimension {sys.dimension}")
    return lu.solve(sys.rhs())


def pattern_band(pattern, K) -> np.ndarray:
    """_StepPattern.band as it was, on the pattern's own kl and ku: the
    nonzeros of K, a step matrix, each K[i, j] scattered to row kl + ku +
    pi[i] - pi[j] of column pi[j] of the Fortran band array of 2 kl + ku + 1
    rows. Asserts that every one lies at an entry of the pattern, so inside
    its band."""
    C = scipy.sparse.coo_matrix(K)
    keep = C.data != 0.0
    i, j = pattern.pi[C.row[keep]], pattern.pi[C.col[keep]]
    assert np.all((i - j <= pattern.kl) & (j - i <= pattern.ku)), "a nonzero of K outside the pattern's band"
    pos = j * pattern.band_rows + pattern.kl + pattern.ku + i - j
    assert np.isin(pos, pattern.pos).all(), "a nonzero of K outside the pattern"
    band = np.zeros(pattern.band_rows * pattern.dim)
    band[pos] = C.data[keep]
    return band.reshape(pattern.dim, pattern.band_rows).T


def kkt_sqp_step(problem, state):
    """The SQP step on build_kkt's system, the step that shocktrack.sqp_step
    assembled before it summed K and g from the element blocks: (dz, eta),
    solved by the step's own band LU (problem.step_pattern.solve) on the
    nonzeros of K in the pattern's band storage (pattern_band), and the
    StepSystem of that band, the system's g and r and the residuals R and
    rmsh."""
    sys = build_kkt(problem, state)
    band = pattern_band(problem.step_pattern, sys.K)
    sol = problem.step_pattern.solve(band.copy(order="F"), sys.rhs())
    gx, (R,) = shocktrack._residuals(problem, state.u, phi_map(problem, state.y), (problem.dims.test_degree,))
    rmsh, _ = shocktrack._distortion(problem, gx)
    nz = problem.dims.n_u + problem.dims.n_y
    return sol[:nz], sol[nz:], StepSystem(band, sys.g, sys.r, R, rmsh)


def residual_row_columns(problem) -> np.ndarray:
    """The global column of each local column of the rows of the enriched
    residual R in element e, as _StepPattern numbers them for
    shocktrack._row_sum_terms: the u of elements e-1, e and e+1 (-1 past
    either end), the element's interior mesh nodes (-1 at a pinned end)
    and nz = N_u + N_y for R itself."""
    n, n_p, (n_u, n_y, n_x) = problem.n_elem, problem.p + 1, (problem.dims.n_u, problem.dims.n_y, problem.dims.n_x)
    nbr = np.arange(n)[:, None] + np.arange(-1, 2)
    u_cols = np.where(((nbr >= 0) & (nbr < n))[:, :, None], nbr[:, :, None] * n_p + np.arange(n_p), -1)
    nodes = problem.elem_x
    y_cols = np.where((nodes > 0) & (nodes < n_x - 1), n_u + nodes - 1, -1)
    return np.hstack([u_cols.reshape(n, -1), y_cols, np.full((n, 1), n_u + n_y)])


def three_table_basis(problem, degree: int):
    """The basis tables (V, D, t0, t1) of one degree as the problem built
    them before: one Lagrange table at the quadrature points and one more
    at each element end, every polynomial built again for each."""
    V, D = shocktrack._lagrange_tables(degree, problem.quad_pts)
    e0, _ = shocktrack._lagrange_tables(degree, np.array([0.0]))
    e1, _ = shocktrack._lagrange_tables(degree, np.array([1.0]))
    return V, D, e0[0], e1[0]


def single_degree_residual(problem, u, x, test_degree: int) -> np.ndarray:
    """shocktrack.dg_residual as it was, with the geometry, U, the face
    fluxes and the weighted terms computed again for every test degree."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    gx = shocktrack._element_geometry(problem, x)
    pb = problem.basis(problem.p)
    tb = problem.basis(test_degree)
    w = problem.quad_wts

    ue = u[problem.elem_u]
    U = ue @ pb.V.T
    left, right = shocktrack._face_states(problem, ue)
    H = problem.riemann(left, right)

    face = np.outer(H[1:], tb.t1) - np.outer(H[:-1], tb.t0)
    vol = (w * problem.flux_value(U)) @ tb.D
    src = (w * gx * problem.source_value(U)) @ tb.V
    return (face - vol - src).ravel()


def single_degree_jacobian(problem, ue, gx, test_degree: int):
    """The element Jacobian blocks (diag, sub, sup, dx) of one test degree as
    shocktrack computed them before it shared U, the Riemann derivatives and
    the weighted derivatives between the two degrees."""
    pb = problem.basis(problem.p)
    tb = problem.basis(test_degree)
    w = problem.quad_wts
    n = problem.n_elem

    U = ue @ pb.V.T
    left, right = shocktrack._face_states(problem, ue)
    dHa, dHb = problem.riemann_derivs(left, right)

    diag = -np.einsum("gi,eg,gj->eij", tb.D, w * problem.flux_deriv(U), pb.V)
    diag -= np.einsum("gi,eg,gj->eij", tb.V, (w * problem.source_deriv(U)) * gx, pb.V)
    diag += dHa[1:, None, None] * np.einsum("i,j->ij", tb.t1, pb.t1)[None, :, :]
    diag -= dHb[:-1, None, None] * np.einsum("i,j->ij", tb.t0, pb.t0)[None, :, :]

    sub = np.zeros((n, len(tb.t0), problem.p + 1))
    sup = np.zeros_like(sub)
    sub[1:] = -dHa[1:-1, None, None] * np.einsum("i,j->ij", tb.t0, pb.t1)[None, :, :]
    sup[:-1] = dHb[1:-1, None, None] * np.einsum("i,j->ij", tb.t1, pb.t0)[None, :, :]

    qb = problem.basis(problem.q)
    dx = -np.einsum("gi,eg,gj->eij", tb.V, w * problem.source_value(U), qb.D)
    return diag, sub, sup, dx


def padded_row_sum_terms(cols: np.ndarray, n_rows: int, nz: int):
    """shocktrack._row_sum_terms as it was: the pairs (I, J) and two int32
    tables left and right of shape (slots * n_rows, pairs). Term t of pair
    k is A.flat[left[t, k]] * A.flat[right[t, k]], with A of shape (groups,
    n_rows, width) padded by the zero group that padded_row_sums appends:
    shared groups in ascending order, then the rows of each; a pair with
    fewer shared groups than the widest is padded by terms in the zero
    group."""
    n_groups, width = cols.shape
    ok = (cols[:, :, None] >= 0) & (cols[:, :, None] <= cols[:, None, :]) & (cols[:, :, None] < nz)
    g, c1, c2 = np.nonzero(ok)
    I, J = cols[g, c1], cols[g, c2]
    order = np.lexsort((g, J, I))
    I, J, g, c1, c2 = I[order], J[order], g[order], c1[order], c2[order]
    new = np.ones(len(I), dtype=bool)
    new[1:] = (I[1:] != I[:-1]) | (J[1:] != J[:-1])
    first = np.flatnonzero(new)
    pair = np.cumsum(new) - 1
    slot = np.arange(len(I)) - first[pair]
    n_slots = int(slot.max(initial=-1)) + 1
    rows = (np.arange(n_rows) * width)[:, None]
    tables = []
    for c in (c1, c2):
        base = np.full((n_slots, len(first)), n_groups * n_rows * width)
        base[slot, pair] = g * n_rows * width + c
        tables.append((base[:, None, :] + rows).reshape(n_slots * n_rows, len(first)).astype(np.int32))
    return I[first], J[first], tables[0], tables[1]


def padded_row_sums(A, left, right) -> np.ndarray:
    """shocktrack._row_sums as it was: the sums of padded_row_sum_terms'
    tables over A of shape (groups, rows, width) and its zero group, one
    table row (term t of every pair) added at a time from 0.0."""
    A = np.concatenate([A, np.zeros((1,) + A.shape[1:])]).ravel()
    acc = np.zeros(left.shape[1])
    for l, r in zip(left, right):
        acc += A.take(l) * A.take(r)
    return acc


def two_pass_read_matrix(path):
    """The reader that parsed the size line with a second loadtxt, sorted by
    lexsort and reshaped each block on its own."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ManifestError(f"{path}: missing MatrixMarket banner")
    if "coordinate" not in lines[0]:
        raise ManifestError(f"{path}: expected coordinate format")
    block_sizes = None
    k = 1
    while k < len(lines) and lines[k].startswith("%"):
        if lines[k].startswith(_BLOCK_TAG):
            block_sizes = _parse_block_tag(path, lines[k])
        k += 1
    size = _parse(path, lines[k : k + 1], np.dtype([(f"f{i}", np.int64) for i in range(3)]), "size line")
    if len(size) != 1 or min(size[0].tolist()) < 0:
        raise ManifestError(f"{path}: missing or negative size line")
    n_rows, n_cols, nnz = size[0].tolist()
    entries = _parse(path, lines[k + 1 : k + 1 + nnz], _ENTRY, "entry")
    if len(entries) != nnz:
        raise ManifestError(f"{path}: header declares {nnz} entries, file holds {len(entries)}")
    rows, cols, vals = entries["row"] - 1, entries["col"] - 1, entries["val"]
    if nnz and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ManifestError(f"{path}: entry outside the declared {n_rows} x {n_cols} shape")
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    last = np.ones(len(rows), dtype=bool)
    last[:-1] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    rows, cols, vals = rows[last], cols[last], vals[last]
    if block_sizes is None:
        row_ptr = np.searchsorted(rows, np.arange(n_rows + 1))
        return scipy.sparse.csr_matrix((vals, cols, row_ptr), shape=(n_rows, n_cols))
    rbs, cbs = block_sizes
    if rbs.sum() != n_rows or cbs.sum() != n_cols:
        raise ManifestError(f"{path}: block sizes inconsistent with matrix dimensions")
    roff = np.concatenate([[0], np.cumsum(rbs)])
    coff = np.concatenate([[0], np.cumsum(cbs)])
    brow = np.searchsorted(roff, rows, side="right") - 1
    bcol = np.searchsorted(coff, cols, side="right") - 1
    keys, block_of = np.unique(brow * len(cbs) + bcol, return_inverse=True)
    bi, bj = np.divmod(keys, len(cbs))
    sizes = rbs[bi] * cbs[bj]
    starts = np.cumsum(sizes) - sizes
    flat = np.zeros(sizes.sum())
    flat[starts[block_of] + (rows - roff[brow]) * cbs[bcol] + (cols - coff[bcol])] = vals
    blocks = [flat[s : s + n].reshape(rbs[i], cbs[j]) for s, n, i, j in zip(starts, sizes, bi, bj)]
    row_ptr = np.searchsorted(bi, np.arange(len(rbs) + 1))
    data = np.array(blocks).reshape(len(blocks), rbs[0], cbs[0])
    return scipy.sparse.bsr_matrix((data, bj, row_ptr), shape=(n_rows, n_cols))


def argsort_read_matrix(path, shape=None):
    """mmio.read_matrix as it was: every file sorted by (row, col) with one
    stable argsort, its block-sizes line parsed word by word, and its BSR
    blocks found by np.unique and filled through three index arrays."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    _check_banner(path, lines, _BANNER)
    block_sizes = None
    k = 1
    while k < len(lines) and lines[k].startswith("%"):
        if lines[k].startswith(_BLOCK_TAG):
            block_sizes = word_by_word_block_tag(path, lines[k])
        k += 1
    n_rows, n_cols, nnz = _size_line(path, lines, k, 3)
    if shape is not None and (n_rows, n_cols) != tuple(shape):
        raise ManifestError(f"{path}: size line declares {n_rows} x {n_cols}, expected {shape[0]} x {shape[1]}")
    entries = _parse(path, lines[k + 1 : k + 1 + nnz], _ENTRY, "entry")
    if len(entries) != nnz:
        raise ManifestError(f"{path}: header declares {nnz} entries, file holds {len(entries)}")
    _check_end(path, lines[k + 1 + nnz :])
    _check_finite(path, entries["val"], "entry")
    rows, cols, vals = entries["row"] - 1, entries["col"] - 1, entries["val"]
    if nnz and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ManifestError(f"{path}: entry outside the declared {n_rows} x {n_cols} shape")
    key = rows * n_cols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.ones(len(key), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    order = order[last]
    rows, cols, vals = rows[order], cols[order], vals[order]
    if block_sizes is None:
        row_ptr = np.searchsorted(rows, np.arange(n_rows + 1))
        return scipy.sparse.csr_matrix((vals, cols, row_ptr), shape=(n_rows, n_cols))
    rbs, cbs = block_sizes
    r, c = int(rbs[0]), int(cbs[0])
    if len(rbs) * r != n_rows or len(cbs) * c != n_cols:
        raise ManifestError(f"{path}: block sizes inconsistent with matrix dimensions")
    keys, block_of = np.unique(rows // r * len(cbs) + cols // c, return_inverse=True)
    bi, bj = np.divmod(keys, len(cbs))
    blocks = np.zeros((len(keys), r, c))
    blocks[block_of, rows % r, cols % c] = vals
    indptr = np.searchsorted(bi, np.arange(len(rbs) + 1))
    return scipy.sparse.bsr_matrix((blocks, bj, indptr), shape=(n_rows, n_cols))


def word_by_word_block_tag(path, line: str):
    """mmio._parse_block_tag as it was: every size word checked and
    converted."""
    sizes = {}
    for field in line[len(_BLOCK_TAG) :].split():
        key, _, val = field.partition("=")
        words = val.split(",")
        if key not in ("rows", "cols") or not all(map(str.isdecimal, words)):
            raise ManifestError(f"{path}: malformed block-sizes field {field!r}")
        sizes[key] = np.array(list(map(int, words)))
        if not sizes[key].all():
            raise ManifestError(f"{path}: malformed block-sizes field {field!r}")
        if np.any(sizes[key] != sizes[key][0]):
            raise ManifestError(f"{path}: mixed block sizes in {key}=, one size per matrix is supported")
    if sizes.keys() != {"rows", "cols"}:
        raise ManifestError(f"{path}: malformed block-sizes line, rows= and cols= required: {line!r}")
    return sizes["rows"], sizes["cols"]


def two_pass_read_vector(path):
    """The vector reader that skipped every comment line, banner included."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("%")]
    size = _parse(path, lines[:1], np.dtype([("f0", np.int64), ("f1", np.int64)]), "size line")
    if len(size) != 1 or min(size[0].tolist()) < 0 or size[0][1] != 1:
        raise ManifestError(f"{path}: bad size line")
    n = int(size[0][0])
    vals = _parse(path, lines[1 : 1 + n], _VALUE, "value")["val"]
    if len(vals) != n:
        raise ManifestError(f"{path}: expected {n} entries, found {len(vals)}")
    return vals


def coo_block_to_scipy(A):
    """Scalar CSR view of a BSR matrix through a COO matrix and a sort."""
    shape = A.shape
    if not len(A.data):
        return scipy.sparse.csr_matrix(shape)
    (r, c), nnzb = A.blocksize, len(A.data)
    brow = np.repeat(np.arange(len(A.indptr) - 1), np.diff(A.indptr))
    bcols = np.full(nnzb, c)
    sizes = np.full(nnzb, r) * bcols
    starts = np.cumsum(sizes) - sizes
    k = np.repeat(np.arange(len(sizes)), sizes)
    a, b = np.divmod(np.arange(sizes.sum()) - starts[k], bcols[k])
    rows = (brow * r)[k] + a
    cols = (A.indices * c)[k] + b
    csr = scipy.sparse.coo_matrix((A.data.ravel(), (rows, cols)), shape=shape).tocsr()
    csr.sort_indices()
    return csr


PRECONDITIONED_RESIDUAL = "preconditioned_residual"
EXACT_SOLUTION = "exact_solution"


def evaluate_criterion(kind, A, M, b, s, s_ex=None) -> float:
    """Normative convergence measure for a candidate solution s."""
    b = np.asarray(b, dtype=float)
    s = np.asarray(s, dtype=float)
    if kind == PRECONDITIONED_RESIDUAL:
        ref = np.linalg.norm(M.apply(b))
        if ref < 1e-300:
            raise ZeroReference("preconditioned right-hand side has zero norm")
        return float(np.linalg.norm(M.apply(A.apply(s) - b)) / ref)
    if kind == EXACT_SOLUTION:
        if s_ex is None:
            raise ValueError("exact-solution criterion needs the reference vector")
        ref = np.linalg.norm(s_ex)
        if ref < 1e-300:
            raise ZeroReference("reference solution has zero norm")
        return float(np.linalg.norm(np.asarray(s_ex) - s) / ref)
    raise ValueError(f"unknown criterion {kind!r}")


class SingularSchurComplement(KktPrecondError):
    """The dense Schur complement in the generic constrained inverse is singular."""


def generic_constrained_inverse(G: np.ndarray, Jt: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the inverse of the generic constrained preconditioner [[G, Jt^T],[Jt, 0]].

    Three-factor product form: with S = Jt G^-1 Jt^T,

        [[I, -G^-1 Jt^T], [0, I]] [[G^-1, 0], [0, -S^-1]] [[I, 0], [-Jt G^-1, I]] v.

    A singular G raises SingularBlock.
    """
    G = np.asarray(G, dtype=float)
    Jt = np.asarray(Jt, dtype=float)
    v = np.asarray(v, dtype=float)
    n = G.shape[0]
    m = Jt.shape[0]
    if Jt.shape[1] != n or v.shape != (n + m,):
        raise DimensionMismatch("generic constrained inverse: shapes disagree")
    v1, v2 = v[:n], v[n:]
    g_lu = dense_lu_factor(G)
    ginv_v1 = g_lu.solve(v1)
    t = v2 - Jt @ ginv_v1
    S = Jt @ g_lu.solve(Jt.T)
    try:
        s_lu = dense_lu_factor(S)
    except SingularBlock as exc:
        raise SingularSchurComplement("Schur complement singular to working precision") from exc
    out2 = -s_lu.solve(t)
    out1 = ginv_v1 - g_lu.solve(Jt.T @ out2)
    return np.concatenate([out1, out2])


# Dense LU and sparsity accounting -------------------------------------------


@dataclass
class BlockLuFactor:
    """In-place LU with partial pivoting of one square dense block, as LAPACK
    getrf leaves it (0-based pivots): the wrapper through which the MDF and
    block ILU0 loops reached getrs before they called dgetrs directly."""

    lu_entries: np.ndarray
    pivots: np.ndarray

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve A x = b, or A^T x = b for trans="T", for a vector or a matrix
        of right-hand sides, by LAPACK getrs."""
        if trans not in ("N", "T"):
            raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != len(self.pivots):
            raise DimensionMismatch(f"right-hand side {b.shape} incompatible with block of order {len(self.pivots)}")
        if b.size == 0:
            return np.empty_like(b)
        x, info = scipy.linalg.lapack.dgetrs(self.lu_entries, self.pivots, b, trans=int(trans == "T"))
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x


def getrf(block: np.ndarray) -> BlockLuFactor:
    """LAPACK getrf of one square dense block, with no pivot test (see
    first_singular)."""
    lu, piv, info = scipy.linalg.lapack.dgetrf(block)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return BlockLuFactor(lu, piv)


def dense_lu_factor(block: np.ndarray) -> BlockLuFactor:
    """Factor one dense block as PA = LU by LAPACK getrf, rejecting
    near-singular blocks as first_singular does."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise DimensionMismatch(f"LU needs a square block, got {block.shape}")
    if not block.size:
        return BlockLuFactor(np.empty_like(block), np.arange(0, dtype=np.int32))
    lu = getrf(block)
    bad = first_singular(block[None], [lu.lu_entries])
    if bad:
        raise SingularBlock(bad[1])
    return lu


@dataclass(frozen=True)
class LinearOperator:
    """An ad-hoc operator: the action v -> A v on vectors of a fixed
    dimension, or as GMRES's M the action v -> M^-1 v. These are the two
    members that gmres_solve and the p-multigrid functions read, which a
    KktSystem and a catalog preconditioner have themselves."""

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]


def lu_preconditioner(M) -> LinearOperator:
    """Exact inverse of a dense matrix via dense_lu_factor; a near-singular M
    raises SingularBlock."""
    lu = dense_lu_factor(M)
    return LinearOperator(lu.lu_entries.shape[0], lu.solve)


def dense_factor(A) -> Factor:
    """A Factor solving with scipy's dense LU of A, for preconditioners
    assembled by hand from dense pieces."""
    lu = scipy.linalg.lu_factor(np.asarray(A, dtype=float))
    return Factor(len(A), partial(scipy.linalg.lu_solve, lu), partial(scipy.linalg.lu_solve, lu, trans=1))


def ata_pattern(A) -> scipy.sparse.csr_matrix:
    """Symbolic block pattern of A^T A for a BSR matrix A: a 0/1 CSR matrix
    with one row and column per block column of A, indices sorted."""
    shape = (A.shape[0] // A.blocksize[0], A.shape[1] // A.blocksize[1])
    S = scipy.sparse.csr_matrix((np.ones(len(A.indices)), A.indices, A.indptr), shape=shape)
    P = (S.T @ S).tocsr()
    P.data[:] = 1.0
    P.sort_indices()
    return P


@dataclass(frozen=True)
class SparsityCounts:
    m1: float
    m2: float

    @property
    def ratio(self) -> float:
        return self.m2 / self.m1


def count_block_sparsity(Ju, Buu_pattern) -> SparsityCounts:
    """Nonzero blocks per interior row of Ju and of the symbolic B_uu pattern.

    Interior rows are those attaining the maximal block count of their
    pattern, which excludes boundary rows on any connected mesh.
    """
    counts1 = np.diff(Ju.indptr)
    counts2 = np.diff(Buu_pattern.indptr)
    m1 = counts1[counts1 == counts1.max()].mean()
    m2 = counts2[counts2 == counts2.max()].mean()
    return SparsityCounts(float(m1), float(m2))


# Problem oracles ------------------------------------------------------------


def exact_solution(x):
    """Tracked profile u* = x + 0.4 left of the shock, x - 1.6 right of it.

    Both branches satisfy (u^2/2)' = u; the shock at 0.6 is stationary because
    f(1) = f(-1) = 1/2 (Rankine-Hugoniot) and entropy-admissible since the
    left state exceeds the right. At exactly 0.6 the left value is returned.
    """
    x = np.asarray(x, dtype=float)
    return np.where(x <= SHOCK_POSITION, x + 0.4, x - 1.6)


def tracked_state(problem, kappa: float = SqpConfig.kappa, gamma: float = SqpConfig.gamma) -> DgState:
    """Exact tracked optimum: the nearest interior vertex moved to the shock.

    Interior mesh nodes (q=2) sit at element midpoints so the mapping stays
    affine and the piecewise-linear exact profile is representable for p >= 1.
    """
    n = problem.n_elem
    x = problem.reference_nodes.copy()
    vertices = problem.q * np.arange(n + 1)
    interior = vertices[1:-1]
    if interior.size == 0:
        raise ValueError("tracked state needs at least 2 elements")
    j = int(interior[np.argmin(np.abs(x[interior] - SHOCK_POSITION))])
    x[j] = SHOCK_POSITION
    if problem.q == 2:
        x[1::2] = 0.5 * (x[:-1:2] + x[2::2])

    # The mesh basis at the solution nodes interpolates positions there.
    p = problem.p
    sol_nodes = np.linspace(0.0, 1.0, p + 1) if p > 0 else np.array([0.5])
    mesh_at_sol, _ = shocktrack._lagrange_tables(problem.q, sol_nodes)
    xe = x[problem.elem_x]
    sol_pos = xe @ mesh_at_sol.T
    mid = 0.5 * (xe[:, 0] + xe[:, -1])
    u_elem = np.where((mid < SHOCK_POSITION)[:, None], sol_pos + 0.4, sol_pos - 1.6)
    return state_at(problem, u_elem.ravel(), x[1:-1].copy(), kappa, gamma)


def state_at(problem, u, y, kappa: float = SqpConfig.kappa, gamma: float = SqpConfig.gamma) -> DgState:
    """State 0 at (u, y) with zero multipliers, for build_kkt."""
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    return DgState(u=u, y=y, lam=np.zeros(problem.dims.n_u), k=0, alpha=0.0, kappa=kappa, gamma=gamma)


def distortion(problem, x) -> np.ndarray:
    """The per-element mesh distortion h/h0 + h0/h - 2 on the mesh x."""
    return shocktrack._distortion(problem, shocktrack._element_geometry(problem, np.asarray(x, dtype=float)))[0]


def objective_and_gradient(problem, u, y, kappa: float):
    """Tracking objective f = 1/2 ||R||^2 + kappa^2/2 ||R_msh||^2 and its
    gradient with respect to (u, y), the g of build_kkt."""
    f, _ = shocktrack._merit_components(problem, u, y, kappa)
    return f, build_kkt(problem, state_at(problem, u, y, kappa)).g
