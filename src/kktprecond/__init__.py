"""Block-sparse constrained preconditioners for shock-tracking KKT systems."""

from .blocklinalg import BlockLuFactor, dense_lu_factor
from .conprec import (
    CATALOG,
    AtPreconditioner,
    apply_at_inverse,
    build_at_preconditioner,
    point_ilu0_factor,
    point_jacobi,
)
from .dgprecond import bilu0_factor, build_block_jacobi, mdf_order
from .kkt import (
    KktFactors,
    KktOperator,
    KktSystem,
    SystemDims,
    assemble_Byy,
    count_block_sparsity,
    kkt_matvec,
    materialize_dense,
    reference_solution,
)
from .krylov import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    GmresConfig,
    LinearOperator,
    Preconditioner,
    SolveReport,
    gmres_solve,
)
from .manifest import export_system, import_system
from .pmultigrid import assemble_coarse, build_transfer, pmg_apply, transfer_ops
from .shocktrack import (
    DgState,
    ShockTrackProblem1d,
    SqpConfig,
    build_kkt,
    dg_jacobians,
    dg_residual,
    exact_solution,
    initial_state,
    mesh_distortion,
    objective_and_gradient,
    run_sqp,
    sqp_step,
    tracked_state,
)
from .stencil import generate_stencil_system

__all__ = [
    "BlockLuFactor",
    "dense_lu_factor",
    "CATALOG",
    "AtPreconditioner",
    "apply_at_inverse",
    "build_at_preconditioner",
    "point_ilu0_factor",
    "point_jacobi",
    "bilu0_factor",
    "build_block_jacobi",
    "mdf_order",
    "KktFactors",
    "KktOperator",
    "KktSystem",
    "SystemDims",
    "assemble_Byy",
    "count_block_sparsity",
    "kkt_matvec",
    "materialize_dense",
    "reference_solution",
    "DEFAULT_MAX_ITERS",
    "DEFAULT_TOL",
    "GmresConfig",
    "LinearOperator",
    "Preconditioner",
    "SolveReport",
    "gmres_solve",
    "export_system",
    "import_system",
    "assemble_coarse",
    "build_transfer",
    "pmg_apply",
    "transfer_ops",
    "DgState",
    "ShockTrackProblem1d",
    "SqpConfig",
    "build_kkt",
    "dg_jacobians",
    "dg_residual",
    "exact_solution",
    "initial_state",
    "mesh_distortion",
    "objective_and_gradient",
    "run_sqp",
    "sqp_step",
    "tracked_state",
    "generate_stencil_system",
]

__version__ = "0.1.0"
