"""L2 projection, the beta-seminorm, and the starred norm.

The beta-seminorm collects |beta.n|-weighted squared jumps of face means,
with the in/outflow faces of stabilized cells weighted by their capacity
alpha and an extended jump (downwind-neighbor mean minus inflow-neighbor
mean) weighted by 1 - alpha.  Every norm takes a block of discrete fields
as well as a single one and then returns one value per row.

The smooth part of a V* element is single-valued, so it cancels from every
interior jump: the seminorm takes those jumps from the discrete part alone
and needs the smooth part only on boundary faces and on the legs of
stabilized cells.  `beta_seminorm`, and so `error_breakdown`, evaluates it
on the scheme's `jump_faces` only, a few percent of the faces; the starred
norm needs its mean on every face anyway and gives those means to the same
formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import DoDScheme, face_side_means, per_field, smooth_face_means, split_parts
from .quadrature import CellQuadratureTable


@dataclass
class ErrorBreakdown:
    l2: float
    beta_semi: float


def l2_project(mesh, f, cellquad: CellQuadratureTable) -> np.ndarray:
    """Cell averages |E|^-1 int_E f, the L2 projection onto piecewise
    constants, by the cell quadrature of `cellquad` (a scheme's is
    `scheme.cellquad`)."""
    return cellquad.integrate(f) / mesh.areas


def l2_norm_squared(scheme: DoDScheme, v) -> float | np.ndarray:
    """||smooth + discrete||^2 over the mesh, by cell quadrature.

    The square of the sum is evaluated pointwise (not expanded), so exact
    cancellations between the parts survive floating point.  A block of
    discrete parts is summed one field at a time: its cell-point values
    would take more memory than the loop takes time.
    """
    smooth, disc = split_parts(v)
    if smooth is None:
        if disc is None:
            return 0.0
        return per_field(np.vecdot(np.square(disc), scheme.mesh.areas))
    cq = scheme.cellquad
    vals = np.asarray(smooth(cq.points), dtype=float)
    if disc is None:
        return float(np.dot(cq.weights, np.square(vals)))
    rows = disc.reshape(-1, disc.shape[-1])
    sq = [np.dot(cq.weights, np.square(vals + d[cq.cell_index])) for d in rows]
    return per_field(np.reshape(sq, disc.shape[:-1]))


def _seminorm_parts(
    scheme: DoDScheme, disc_means: np.ndarray, means: np.ndarray
) -> tuple[float, float, float]:
    """(plain, capacity-weighted, extended-jump) parts of the squared
    seminorm; one value per row for the (fields, faces, 2) means of a block.

    `disc_means` are the side means of the discrete part and `means` those
    of the whole element (`face_side_means`).  A smooth part is
    single-valued, so the interior jumps come from `disc_means`; `means` is
    read only on boundary faces and on the legs of stabilized cells.
    """
    mesh, table, st = scheme.mesh, scheme.table, scheme.records
    # |beta.n|-weighted squared jump per face; one-sided on the boundary
    jump = np.where(mesh.f_right >= 0, disc_means[..., 0] - disc_means[..., 1], means[..., 0])
    face_sq = table.abs_flux * np.square(jump)
    stab_faces = np.zeros(mesh.n_faces, dtype=bool)
    stab_faces[st.e_in] = True
    stab_faces[st.e_out] = True
    plain = np.compress(~stab_faces, face_sq, axis=-1).sum(axis=-1)
    capacity = (st.alpha * (np.take(face_sq, st.e_in, axis=-1)
                            + np.take(face_sq, st.e_out, axis=-1))).sum(axis=-1)
    # extended jump: mean from the downwind neighbor on e_out minus the mean
    # from the inflow neighbor on e_in (both are upwind/downwind traces of
    # their faces)
    m_out, m_in = np.take(means, st.e_out, axis=-2), np.take(means, st.e_in, axis=-2)
    v_out = np.where(table.flux_in[st.e_out] > 0.0, m_out[..., 1], m_out[..., 0])
    v_in = np.where(table.flux_in[st.e_in] > 0.0, m_in[..., 0], m_in[..., 1])
    extended = ((1.0 - st.alpha) * table.abs_flux[st.e_out] * np.square(v_out - v_in)).sum(axis=-1)
    return per_field(plain), per_field(capacity), per_field(extended)


def _boundary_mass(scheme: DoDScheme, means: np.ndarray) -> float | np.ndarray:
    """Sum over cells, capacity-weighted on stabilized ones, of the cell's
    int_e |beta.n| (own-trace mean)^2 over its faces; one value per row for
    the means of a block."""
    mesh, st = scheme.mesh, scheme.records
    weights = np.ones(mesh.n_cells)
    weights[st.cells] = st.alpha
    right = np.where(mesh.f_right >= 0, weights[mesh.f_right] * np.square(means[..., 1]), 0.0)
    own = weights[mesh.f_left] * np.square(means[..., 0]) + right
    return per_field(np.vecdot(own, scheme.table.abs_flux))


def beta_seminorm_parts(scheme: DoDScheme, v) -> tuple[float, float, float]:
    """(plain, capacity-weighted, extended-jump) parts of the squared
    seminorm; a smooth part of v is evaluated on `scheme.jump_faces` only."""
    smooth, disc = split_parts(v)
    disc_means = face_side_means(scheme.mesh, scheme.table, (None, disc))
    means = disc_means
    if smooth is not None:
        faces = scheme.jump_faces
        means = disc_means.copy()
        means[..., faces, :] += smooth_face_means(scheme.table, smooth, faces)[:, None]
    return _seminorm_parts(scheme, disc_means, means)


def beta_seminorm(scheme: DoDScheme, v) -> float | np.ndarray:
    plain, capacity, extended = beta_seminorm_parts(scheme, v)
    return per_field(np.sqrt(np.maximum(plain + capacity + extended, 0.0)))


def triple_star_norm(scheme: DoDScheme, v, means=None) -> float | np.ndarray:
    """(||v||^2 + |v|_beta^2 + capacity-weighted cell-boundary |beta.n|
    mass)^(1/2), from one pass over the cell points and one over the face
    points (each part of v is evaluated once per point set); one value per
    row for a block of discrete parts.  `means` is `face_side_means` of v
    when the caller already has it."""
    smooth, disc = split_parts(v)
    l2_sq = l2_norm_squared(scheme, v)
    # the cell-point values are gone before the face points are evaluated
    if means is None:
        means = face_side_means(scheme.mesh, scheme.table, v)
    disc_means = (means if smooth is None
                  else face_side_means(scheme.mesh, scheme.table, (None, disc)))
    plain, capacity, extended = _seminorm_parts(scheme, disc_means, means)
    semi_sq = np.maximum(plain + capacity + extended, 0.0)
    return per_field(np.sqrt(l2_sq + semi_sq + _boundary_mass(scheme, means)))


def h1_norm(scheme: DoDScheme, f, grad) -> float:
    """H1(Omega) norm of f, with gradient `grad`, by cell quadrature."""

    def integrand(pts):
        g = np.asarray(grad(pts), dtype=float)
        return np.square(np.asarray(f(pts), dtype=float)) + (g * g).sum(axis=-1)

    return math.sqrt(scheme.cellquad.integrate_total(integrand))


def error_breakdown(scheme: DoDScheme, t: float, u_h: np.ndarray) -> ErrorBreakdown:
    """L2 norm and beta-seminorm of u(t, .) - u_h against the problem's
    exact solution, which is evaluated on the cell points and on the
    scheme's `jump_faces`."""
    diff = (lambda p: scheme.problem.exact(t, p), -np.asarray(u_h, dtype=float))
    return ErrorBreakdown(math.sqrt(l2_norm_squared(scheme, diff)), beta_seminorm(scheme, diff))
