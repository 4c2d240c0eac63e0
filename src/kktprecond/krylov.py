"""GMRES without restart, left preconditioning, and the two convergence criteria.

The solver runs Arnoldi on the preconditioned operator M^-1 A and starts from
the zero initial guess so iteration counts are reproducible. Each new vector
is orthogonalized by classical Gram-Schmidt with one reorthogonalization
(CGS2): two BLAS-2 passes h = V w, w -= V^T h against the whole basis, which
keeps V orthonormal to working precision (Giraud, Langou & Rozloznik, Numer.
Math. 2005). The Hessenberg columns are triangularized with Givens rotations
into an upper triangle stored packed by columns and solved with BLAS dtpsv:
each new column is written into its packed place and the earlier rotations
are applied to it in place by one LAPACK dlasr call, reached through the
function pointer scipy.linalg.cython_lapack exports. dlasr does the float
operations of the Python loop it replaced (tests/oracles.py givens_column)
in the same order, so the bits are the same as long as scipy's LAPACK is
compiled without FMA contraction, as its OpenBLAS build is on x86-64. The
basis, the triangle and the rotations grow in chunks, so storage follows the
iterations actually taken, not max_iters.

Convergence is measured either by the preconditioned relative residual

    ||M^-1 A s - M^-1 b|| / ||M^-1 b||,

which the rotations give for free, or, when a reference solution s_ex is
supplied, by the relative error

    ||s_ex - s|| / ||s_ex||.

For the error, the solver keeps c_i = v_i . s_ex and, since V is orthonormal,
estimates ||s_ex - V y||^2 = ||s_ex||^2 - 2 c . y + y . y from the k small
coefficients y alone. The iterate V y and its explicit error are formed only
once the estimate falls below max(10 tol, 1e-5), at a breakdown or at
max_iters, and the stop decision is always taken on the explicit error.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.blas import dtpsv

from .errors import DimensionMismatch, NonFinite, ZeroReference

__all__ = [
    "GmresConfig",
    "SolveReport",
    "gmres_solve",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITERS",
]

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITERS = 1000

PRECONDITIONED_RESIDUAL = "preconditioned_residual"
EXACT_SOLUTION = "exact_solution"

TOLERANCE = "tolerance"
MAX_ITERS = "max_iters"
BREAKDOWN = "breakdown"

# Rows of Krylov storage allocated up front; the storage doubles when full.
_CHUNK = 64
# The error estimate cancels ||s_ex||^2 against terms of the same size, so at
# small errors it can be rounding noise; below this value the explicit error
# is formed whatever the tolerance.
_ESTIMATE_FLOOR = 1e-5


def _lapack_routine(name: str, *argtypes):
    """ctypes function of a LAPACK routine returning void, from the capsule
    scipy.linalg.cython_lapack exports for it. The capsule functions get
    their own prototypes, so the shared ctypes.pythonapi is left as it is."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_CHAR, _INT, _ADDRESS = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
# dlasr(side, pivot, direct, m, n, c, s, a, lda), with c, s and a passed as
# the addresses of float64 arrays.
_dlasr = _lapack_routine("dlasr", _CHAR, _CHAR, _CHAR, _INT, _INT, _ADDRESS, _ADDRESS, _ADDRESS, _INT)
_ONE = ctypes.c_int(1)


@dataclass(frozen=True)
class GmresConfig:
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    criterion: str = PRECONDITIONED_RESIDUAL
    reference: np.ndarray | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.criterion not in (PRECONDITIONED_RESIDUAL, EXACT_SOLUTION):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if (self.criterion == EXACT_SOLUTION) != (self.reference is not None):
            raise ValueError("reference vector required exactly for the exact-solution criterion")


@dataclass
class SolveReport:
    """Outcome of one GMRES solve.

    history holds the criterion value after each iteration. Under the
    exact-solution criterion an entry is the estimate from the small
    coefficients until the iterate is formed, and the explicit error from
    then on. stop_reason is TOLERANCE, MAX_ITERS or BREAKDOWN (the Krylov
    space closed before the tolerance was met); criterion is the last value
    of history, and true_residual is ||A s - b|| / ||b||, reported but never
    used to decide convergence.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    history: np.ndarray
    stop_reason: str
    criterion: float
    true_residual: float


def _true_residual(A, b: np.ndarray, s: np.ndarray) -> float:
    """||A s - b|| / ||b||, or the absolute residual when b = 0."""
    r = float(np.linalg.norm(A.apply(s) - b))
    b_norm = float(np.linalg.norm(b))
    return r / b_norm if b_norm > 0 else r


def _grow(a: np.ndarray, shape) -> np.ndarray:
    """Copy of a in a larger zero array."""
    out = np.zeros(shape)
    out[tuple(slice(0, m) for m in a.shape)] = a
    return out


def _coefficients(R: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """Coefficients y of the iterate y @ V[:k]: the solution of R[:k, :k] y =
    g[:k], R upper triangular and packed by columns."""
    return dtpsv(k, R, g[:k])


def gmres_solve(A, b: np.ndarray, M, cfg: GmresConfig | None = None) -> SolveReport:
    """Solve A s = b with left-preconditioned GMRES (no restart). A and M are
    read through dimension and apply(v), as a KktSystem and a preconditioner.

    Raises DimensionMismatch if b or the exact-solution reference is not a
    vector of the operator's dimension, NonFinite if either contains NaN or
    Inf, and NonFinite if an Arnoldi vector or the returned iterate is not
    finite, which a breakdown on a singular operator can give.
    """
    if cfg is None:
        cfg = GmresConfig()
    b = np.asarray(b, dtype=float)
    n = A.dimension
    if b.shape != (n,) or M.dimension != n:
        raise DimensionMismatch("operator, preconditioner, and rhs dimensions disagree")
    if not np.all(np.isfinite(b)):
        raise NonFinite("right-hand side contains NaN or Inf")
    exact = cfg.criterion == EXACT_SOLUTION
    if exact:
        ref = np.asarray(cfg.reference, dtype=float)
        if ref.shape != (n,):
            raise DimensionMismatch(f"reference solution has shape {ref.shape}, expected ({n},)")
        if not np.all(np.isfinite(ref)):
            raise NonFinite("reference solution contains NaN or Inf")

    b_prec = M.apply(b)
    beta = np.linalg.norm(b_prec)
    if beta < 1e-300:
        zero = np.zeros(n)
        return SolveReport(zero, 0, True, np.zeros(0), TOLERANCE, 0.0, _true_residual(A, b, zero))

    if exact:
        ref_norm = float(np.linalg.norm(ref))
        if ref_norm < 1e-300:
            raise ZeroReference("reference solution has zero norm")

    max_it = cfg.max_iters
    rows = min(_CHUNK, max_it + 1)
    V = np.zeros((rows, n))  # orthonormal basis, one vector per row
    R = np.zeros(rows * (rows + 1) // 2)  # rotated Hessenberg matrix, upper triangle packed by columns
    g = np.zeros(rows)  # rotated beta e_1
    c = np.zeros(rows)  # c_i = v_i . s_ex
    CS = np.zeros(rows)  # rotation j zeroes the subdiagonal entry of column j:
    SN = np.zeros(rows)  # (x_j, x_j+1) -> (CS x_j + SN x_j+1, CS x_j+1 - SN x_j)
    cs_at, sn_at, r_at = CS.ctypes.data, SN.ctypes.data, R.ctypes.data  # as dlasr reads them
    m = ctypes.c_int()
    V[0] = b_prec / beta
    g[0] = beta
    if exact:
        c[0] = V[0] @ ref

    history = []
    for j in range(max_it):
        if j + 1 == len(V):
            rows = min(2 * rows, max_it + 1)
            V, R, g, c = _grow(V, (rows, n)), _grow(R, rows * (rows + 1) // 2), _grow(g, rows), _grow(c, rows)
            CS, SN = _grow(CS, rows), _grow(SN, rows)
            cs_at, sn_at, r_at = CS.ctypes.data, SN.ctypes.data, R.ctypes.data

        w = M.apply(A.apply(V[j]))
        # A NaN or Inf entry makes the norm NaN or Inf, so a finite norm
        # needs no scan.
        norm_w0 = np.linalg.norm(w)
        if not math.isfinite(norm_w0) and not np.all(np.isfinite(w)):
            raise NonFinite(f"Arnoldi vector at iteration {j + 1} contains NaN or Inf")
        basis = V[: j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        h += h2
        h_next = float(np.linalg.norm(w))
        breakdown = not h_next > 1e-14 * max(norm_w0, 1e-300)
        if not breakdown:
            V[j + 1] = w / h_next
            if exact:
                c[j + 1] = V[j + 1] @ ref

        # Apply the accumulated rotations to the new column in its packed
        # place, then zero its subdiagonal entry h_next with one more.
        start = j * (j + 1) // 2
        R[start : start + j + 1] = h
        if j:
            m.value = j + 1
            _dlasr(b"L", b"V", b"F", m, _ONE, cs_at, sn_at, r_at + R.itemsize * start, m)
        r_jj = R.item(start + j)
        denom = math.hypot(r_jj, h_next)
        cs, sn = (1.0, 0.0) if denom < 1e-300 else (r_jj / denom, h_next / denom)
        CS[j], SN[j] = cs, sn
        R[start + j] = cs * r_jj + sn * h_next
        g[j + 1] = -sn * g[j]
        g[j] = cs * g[j]

        k = j + 1
        last = breakdown or k == max_it
        solution = None
        if exact:
            y = _coefficients(R, g, k)
            err2 = ref_norm**2 - 2.0 * (c[:k] @ y) + y @ y
            value = math.sqrt(max(err2, 0.0)) / ref_norm
            if last or value < max(10.0 * cfg.tol, _ESTIMATE_FLOOR):
                solution = y @ V[:k]
                value = float(np.linalg.norm(ref - solution) / ref_norm)
        else:
            value = float(abs(g[k]) / beta)
        history.append(value)

        if value < cfg.tol or last:
            break

    if solution is None:
        solution = _coefficients(R, g, k) @ V[:k]
    if not np.all(np.isfinite(solution)):
        raise NonFinite(f"GMRES iterate at iteration {k} contains NaN or Inf")
    converged = value < cfg.tol
    reason = TOLERANCE if converged else BREAKDOWN if breakdown else MAX_ITERS
    return SolveReport(solution, k, converged, np.array(history), reason, value, _true_residual(A, b, solution))
