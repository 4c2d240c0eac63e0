"""Shared fixtures: generated 1D systems reused across the test modules.

Running the SQP driver is the expensive part of most tests, so the two
standard discretizations (8 elements at p=1/q=1 and 16 elements at p=2/q=2)
are generated once per session. Tests must not mutate these objects.
"""

import dataclasses

import numpy as np
import pytest

from kktprecond import ShockTrackProblem1d, build_kkt, run_sqp
from kktprecond.blocklinalg import BlockCsrMatrix
from kktprecond.conprec import build_at_preconditioner
from kktprecond.kkt import KktOperator, KktSystem, assemble_Byy, reference_solution
from kktprecond.krylov import EXACT_SOLUTION, GmresConfig, gmres_solve
from kktprecond.shocktrack import SqpConfig


@pytest.fixture(scope="session")
def prob8():
    return ShockTrackProblem1d(n_elem=8, p=1, q=1)


@pytest.fixture(scope="session")
def states8(prob8):
    return run_sqp(prob8, SqpConfig())


@pytest.fixture(scope="session")
def sys8_k1(prob8, states8):
    return build_kkt(prob8, states8[1])


@pytest.fixture(scope="session")
def prob16():
    return ShockTrackProblem1d(n_elem=16, p=2, q=2)


@pytest.fixture(scope="session")
def states16(prob16):
    return run_sqp(prob16, SqpConfig())


@pytest.fixture(scope="session")
def sys16_k1(prob16, states16):
    return build_kkt(prob16, states16[1])


def zero_coupling_system(sys):
    """Copy of a system with dRdu zeroed, so B_uu = B_uy = 0 while Ju, Byy,
    and the right-hand side are unchanged."""
    zero = BlockCsrMatrix(
        sys.factors.dRdu.pattern, [np.zeros_like(b) for b in sys.factors.dRdu.blocks]
    )
    factors = dataclasses.replace(sys.factors, dRdu=zero)
    return KktSystem(factors, sys.g, sys.r, assemble_Byy(factors), dims=sys.dims)


def singular_system(sys):
    """Copy of the zero-coupling system with column 0 of dPhidy zeroed: Byy
    row and column 0 and Jy column 0 vanish, so the KKT matrix and the exact
    Byy are exactly singular."""
    phi = sys.factors.dPhidy.tolil()
    phi[:, 0] = 0.0
    factors = dataclasses.replace(zero_coupling_system(sys).factors, dPhidy=phi.tocsr())
    return KktSystem(factors, sys.g, sys.r, assemble_Byy(factors), dims=sys.dims)


@pytest.fixture(scope="session")
def sys8_zero_coupling(sys8_k1):
    return zero_coupling_system(sys8_k1)


def count_iterations(sys, precond, tol=1e-3, max_iters=1000):
    """GMRES iteration count against the sparse direct solution, the convergence
    measure of `kktprecond solve`. precond is a catalog name or an
    already-built preconditioner object."""
    if isinstance(precond, str):
        precond = build_at_preconditioner(sys, precond)
    op = KktOperator(sys)
    rhs = sys.rhs()
    cfg = GmresConfig(tol=tol, max_iters=max_iters, criterion=EXACT_SOLUTION, reference=reference_solution(sys))
    report = gmres_solve(op.as_linear_operator(), rhs, precond.as_preconditioner(), cfg)
    return report.iterations, report.converged
