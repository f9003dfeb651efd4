"""DoD-stabilized upwind DG for 2D linear advection on ramp cut-cell meshes."""

from .discretization import (
    DoDScheme,
    FaceIntegralTable,
    SchemeConfig,
    assemble_dod_matrix,
    beta_weighted_mean,
    bilinear_a_dod,
    bilinear_J,
    bilinear_upwind,
    build_face_table,
    cfl_dt,
    rhs_inflow,
)
from .field import (
    RampTestProblem,
    VelocityField,
    beta_inf_norm,
    make_ramp_problem,
    ramp_velocity,
)
from .geometry import (
    CutCellMesh,
    DegenerateGeometry,
    InvalidStabilization,
    RampDomain,
    StabilizedCells,
    build_mesh,
    clip_cell,
    identify_stabilized,
)
from .norms import (
    ErrorBreakdown,
    beta_seminorm,
    error_breakdown,
    l2_project,
    triple_norm,
    triple_star_norm,
)
from .quadrature import QuadratureConfig, SegmentRule, TriangleRule, integrate_cell, integrate_face

__all__ = [name for name in dir() if not name.startswith("_")]
