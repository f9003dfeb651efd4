"""DoD-stabilized upwind DG for 2D linear advection on ramp cut-cell meshes."""

from .discretization import (
    DoDScheme,
    FaceIntegralTable,
    SchemeConfig,
    assemble_dod_matrix,
    bilinear_a_dod,
    bilinear_J,
    build_face_table,
    build_inflow,
)
from .field import (
    RampTestProblem,
    Snapshot,
    VelocityField,
    make_ramp_problem,
    ramp_velocity,
)
from .geometry import (
    CutCellMesh,
    DegenerateGeometry,
    InvalidConfig,
    InvalidStabilization,
    RampDomain,
    StabilizedCells,
    build_mesh,
    identify_stabilized,
)
from .norms import (
    ErrorBreakdown,
    beta_seminorm,
    error_breakdown,
    l2_project,
    triple_star_norm,
)
from .quadrature import SegmentRule, TriangleRule

__all__ = [name for name in dir() if not name.startswith("_")]
