"""Block-sparse constrained preconditioners for shock-tracking KKT systems."""

from .blocklinalg import (
    BlockCsrMatrix,
    BlockLuFactor,
    BlockPattern,
    PointCsrMatrix,
    assemble_point_csr,
    block_matvec,
    block_transpose,
    block_transpose_matvec,
    dense_lu_factor,
    densify,
)
from .conprec import (
    CATALOG,
    AtPreconditioner,
    apply_at_inverse,
    build_at_preconditioner,
    generic_constrained_inverse,
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
    evaluate_criterion,
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

__version__ = "0.1.0"
