"""L2 projection, the beta-seminorm, and the combined (starred) norms.

The beta-seminorm collects |beta.n|-weighted squared jumps of face means,
with the in/outflow faces of stabilized cells weighted by their capacity
alpha and an extended jump (downwind-neighbor mean minus inflow-neighbor
mean) weighted by 1 - alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .discretization import DoDScheme, face_side_means, split_parts
from .quadrature import CellQuadratureTable, TriangleRule


@dataclass
class ErrorBreakdown:
    l2: float
    beta_semi: float
    triple: float
    triple_star: float
    components: dict = dc_field(default_factory=dict)


def l2_project(mesh, f, cellquad: CellQuadratureTable | None = None) -> np.ndarray:
    """Cell averages |E|^-1 int_E f, the L2 projection onto piecewise constants."""
    if cellquad is None:
        cellquad = CellQuadratureTable(mesh, TriangleRule.of_degree(6))
    return cellquad.integrate(f) / mesh.areas


def l2_norm_squared(scheme: DoDScheme, v) -> float:
    """||smooth + discrete||^2 over the mesh, by cell quadrature.

    The square of the sum is evaluated pointwise (not expanded), so exact
    cancellations between the parts survive floating point.
    """
    smooth, disc = split_parts(v)
    if smooth is None:
        if disc is None:
            return 0.0
        return float(np.dot(scheme.mesh.areas, np.square(disc)))
    cq = scheme.cellquad
    vals = np.asarray(smooth(cq.points), dtype=float)
    if disc is not None:
        vals = vals + disc[cq.cell_index]
    return float(np.dot(cq.weights, np.square(vals)))


def _seminorm_parts(scheme: DoDScheme, means: np.ndarray) -> tuple[float, float, float]:
    """(plain, capacity-weighted, extended-jump) parts from the face side means."""
    mesh, table, st = scheme.mesh, scheme.table, scheme.records
    # |beta.n|-weighted squared jump per face; one-sided on the boundary
    jump = means[:, 0].copy()
    has_r = mesh.f_right >= 0
    jump[has_r] -= means[has_r, 1]
    face_sq = table.abs_flux * np.square(jump)
    stab_faces = np.zeros(mesh.n_faces, dtype=bool)
    stab_faces[st.e_in] = True
    stab_faces[st.e_out] = True
    plain = float(face_sq[~stab_faces].sum())
    capacity = float((st.alpha * (face_sq[st.e_in] + face_sq[st.e_out])).sum())
    # extended jump: mean from the downwind neighbor on e_out minus the mean
    # from the inflow neighbor on e_in (both are upwind/downwind traces of
    # their faces)
    v_out = np.where(table.flux_in[st.e_out] > 0.0, means[st.e_out, 1], means[st.e_out, 0])
    v_in = np.where(table.flux_in[st.e_in] > 0.0, means[st.e_in, 0], means[st.e_in, 1])
    extended = float(((1.0 - st.alpha) * table.abs_flux[st.e_out] * np.square(v_out - v_in)).sum())
    return plain, capacity, extended


def _boundary_mass(scheme: DoDScheme, means: np.ndarray) -> float:
    """Sum over cells, capacity-weighted on stabilized ones, of the cell's
    int_e |beta.n| (own-trace mean)^2 over its faces."""
    mesh, st = scheme.mesh, scheme.records
    weights = np.ones(mesh.n_cells)
    weights[st.cells] = st.alpha
    has_r = mesh.f_right >= 0
    own = weights[mesh.f_left] * np.square(means[:, 0])
    own[has_r] += weights[mesh.f_right[has_r]] * np.square(means[has_r, 1])
    return float(np.dot(scheme.table.abs_flux, own))


def beta_seminorm_parts(scheme: DoDScheme, v) -> tuple[float, float, float]:
    """(plain, capacity-weighted, extended-jump) parts of the squared seminorm."""
    return _seminorm_parts(scheme, face_side_means(scheme.mesh, scheme.table, v))


def beta_seminorm(scheme: DoDScheme, v) -> float:
    plain, capacity, extended = beta_seminorm_parts(scheme, v)
    return math.sqrt(max(plain + capacity + extended, 0.0))


def _evaluate(scheme: DoDScheme, v) -> ErrorBreakdown:
    """Every norm of a V* element from one pass over the cell points and one
    over the face points (each part of v is evaluated once per point set)."""
    l2_sq = l2_norm_squared(scheme, v)
    # the cell-point values are gone before the face points are evaluated
    means = face_side_means(scheme.mesh, scheme.table, v)
    plain, capacity, extended = _seminorm_parts(scheme, means)
    semi_sq = max(plain + capacity + extended, 0.0)
    l2, semi = math.sqrt(l2_sq), math.sqrt(semi_sq)
    return ErrorBreakdown(
        l2=l2,
        beta_semi=semi,
        triple=math.sqrt(l2 * l2 + semi * semi),
        triple_star=math.sqrt(l2_sq + semi_sq + _boundary_mass(scheme, means)),
        components={"plain": plain, "capacity": capacity, "extended": extended},
    )


def triple_norm(scheme: DoDScheme, v) -> float:
    return _evaluate(scheme, v).triple


def triple_star_norm(scheme: DoDScheme, v) -> float:
    """Triple norm plus capacity-weighted cell-boundary |beta.n| mass."""
    return _evaluate(scheme, v).triple_star


def h1_norm(scheme: DoDScheme, f, grad=None, fd_step: float | None = None) -> float:
    """H1(Omega) norm by cell quadrature; central differences if no gradient."""
    if grad is None:
        step = fd_step if fd_step is not None else 1e-6 * scheme.h

        def grad(pts):
            p = np.asarray(pts, dtype=float)
            ex = np.array([step, 0.0])
            ey = np.array([0.0, step])
            gx = (np.asarray(f(p + ex)) - np.asarray(f(p - ex))) / (2 * step)
            gy = (np.asarray(f(p + ey)) - np.asarray(f(p - ey))) / (2 * step)
            return np.stack([gx, gy], axis=-1)

    def integrand(pts):
        g = np.asarray(grad(pts), dtype=float)
        return np.square(np.asarray(f(pts), dtype=float)) + (g * g).sum(axis=-1)

    return math.sqrt(scheme.cellquad.integrate_total(integrand))


def error_breakdown(scheme: DoDScheme, t: float, u_h: np.ndarray) -> ErrorBreakdown:
    """Norms of u(t, .) - u_h against the problem's exact solution."""
    return _evaluate(scheme, (lambda p: scheme.problem.exact(t, p), -np.asarray(u_h, dtype=float)))


def projection_error_norms(scheme: DoDScheme, t: float = 0.0) -> ErrorBreakdown:
    """Norms of u(t, .) - Pi_h u(t, .), used by the projection-error checks."""
    exact = lambda p: scheme.problem.exact(t, p)
    proj = l2_project(scheme.mesh, exact, scheme.cellquad)
    return error_breakdown(scheme, t, proj)
