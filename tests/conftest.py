"""Shared fixtures: generated 1D systems reused across the test modules.

Running the SQP driver is the expensive part of most tests, so the two
standard discretizations (8 elements at p=1/q=1 and 16 elements at p=2/q=2)
and the benchmark's catalog discretization (64 elements at p=2/q=2, six SQP
steps) are generated once per session. Tests must not mutate these objects.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse

from kktprecond import ShockTrackProblem1d, build_kkt, run_sqp
from kktprecond.conprec import build_at_preconditioner
from kktprecond.kkt import reference_solution
from kktprecond.krylov import GmresConfig, gmres_solve
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


@pytest.fixture(scope="session")
def prob64():
    return ShockTrackProblem1d(n_elem=64, p=2, q=2)


@pytest.fixture(scope="session")
def states64(prob64):
    return run_sqp(prob64, SqpConfig(max_iters=6))


def zero_coupling_system(sys):
    """Copy of a system with dRdu zeroed, so B_uu = B_uy = 0 while Ju, Byy,
    and the right-hand side are unchanged."""
    dRdu = sys.dRdu
    zero = scipy.sparse.bsr_matrix((np.zeros_like(dRdu.data), dRdu.indices, dRdu.indptr), shape=dRdu.shape)
    return dataclasses.replace(sys, dRdu=zero)


def singular_system(sys):
    """Copy of the zero-coupling system with column 0 of dPhidy zeroed: Byy
    row and column 0 and Jy column 0 vanish, so the KKT matrix and the exact
    Byy are exactly singular."""
    phi = sys.dPhidy.tolil()
    phi[:, 0] = 0.0
    return dataclasses.replace(zero_coupling_system(sys), dPhidy=phi.tocsr())


@pytest.fixture(scope="session")
def sys8_zero_coupling(sys8_k1):
    return zero_coupling_system(sys8_k1)


def count_iterations(sys, precond, tol=1e-3, max_iters=1000):
    """GMRES iteration count against the sparse direct solution, the convergence
    measure of `kktprecond solve`. precond is a catalog name or an
    already-built preconditioner object."""
    if isinstance(precond, str):
        precond = build_at_preconditioner(sys, precond)
    rhs = sys.rhs()
    cfg = GmresConfig(tol=tol, max_iters=max_iters, reference=reference_solution(sys))
    report = gmres_solve(sys, rhs, precond, cfg)
    return report.iterations, report.converged
