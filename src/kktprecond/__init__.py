"""Block-sparse constrained preconditioners for shock-tracking KKT systems.

The top level holds the names of the documented library API; every other
public name is imported from its own module.
"""

from .conprec import CATALOG, build_at_preconditioner
from .krylov import GmresConfig, gmres_solve
from .shocktrack import ShockTrackProblem1d, SqpConfig, build_kkt, run_sqp

__all__ = [
    "CATALOG",
    "GmresConfig",
    "ShockTrackProblem1d",
    "SqpConfig",
    "build_at_preconditioner",
    "build_kkt",
    "gmres_solve",
    "run_sqp",
]

__version__ = "0.1.0"
