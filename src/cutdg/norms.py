"""L2 projection, the beta-seminorm, and the starred norm.

The beta-seminorm collects |beta.n|-weighted squared jumps of face means,
with the in/outflow faces of stabilized cells weighted by their capacity
alpha and an extended jump (downwind-neighbor mean minus inflow-neighbor
mean) weighted by 1 - alpha.  Every norm takes a block of discrete fields
as well as a single one and then returns one value per row.

The formula has one implementation, `scheme.seminorm` (a
`discretization.JumpSeminorm`, built once with the scheme): a few gathers
and sums over its fixed face index pairs and weights.  The smooth part of
a V* element is single-valued, so it cancels from every interior jump: the
seminorm takes those jumps from the discrete part alone and needs the
smooth part only on the scheme's `jump_faces`, the boundary faces with flux
and the legs of stabilized cells, a few percent of the faces.  `beta_seminorm`
evaluates a smooth part there only; `error_seminorm`, and so
`error_breakdown` and `converge --accumulate`, takes the exact solution
there from the scheme's cached characteristic coordinates of those points
(`jump_chars`); the starred norm needs a smooth part's mean on every face
anyway and gives the jump faces' means to the same formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import DoDScheme, face_side_means, per_field, split_parts
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
    sq = []
    for d in rows:
        x = d[cq.cell_index]  # one fresh array per field, squared in place
        x += vals
        sq.append(np.dot(cq.weights, np.square(x, out=x)))
    return per_field(np.reshape(sq, disc.shape[:-1]))


def _boundary_mass(scheme: DoDScheme, means: np.ndarray) -> float | np.ndarray:
    """Sum over cells, capacity-weighted on stabilized ones, of the cell's
    int_e |beta.n| (own-trace mean)^2 over its faces; one value per row for
    the means of a block."""
    own = scheme.seminorm.mass_left * np.square(means[..., 0])
    own += scheme.seminorm.mass_right * np.square(means[..., 1])
    return per_field(np.vecdot(own, scheme.table.abs_flux))


def beta_seminorm_parts(scheme: DoDScheme, v) -> tuple[float, float, float]:
    """(plain, capacity-weighted, extended-jump) parts of the squared
    seminorm; a smooth part of v is evaluated on `scheme.jump_faces` only."""
    means = face_side_means(scheme.mesh, scheme.table, v, scheme.jump_faces)
    parts = scheme.seminorm.parts(split_parts(v)[1], means)
    return tuple(per_field(p) for p in parts)


def _squared(parts):
    plain, capacity, extended = parts
    return np.maximum(plain + capacity + extended, 0.0)


def beta_seminorm(scheme: DoDScheme, v) -> float | np.ndarray:
    return per_field(np.sqrt(_squared(beta_seminorm_parts(scheme, v))))


def error_seminorm(scheme: DoDScheme, t: float, u_h) -> float | np.ndarray:
    """|u(t, .) - u_h|_beta against the problem's exact solution, which is
    evaluated from the scheme's characteristic coordinates of the jump
    faces' quadrature points; one value per row for a block of u_h."""
    disc = -np.asarray(u_h, dtype=float)
    s = scheme.seminorm.smooth_means(scheme.problem.exact_from(t, scheme.jump_chars))
    means = face_side_means(scheme.mesh, scheme.table, disc, scheme.jump_faces)
    means += np.stack([s, s], axis=-1)
    return per_field(np.sqrt(_squared(scheme.seminorm.parts(disc, means))))


def triple_star_norm(scheme: DoDScheme, v, means=None, l2_sq=None) -> float | np.ndarray:
    """(||v||^2 + |v|_beta^2 + capacity-weighted cell-boundary |beta.n|
    mass)^(1/2), from one pass over the cell points and one over the face
    points (each part of v is evaluated once per point set); one value per
    row for a block of discrete parts.  `means` is `face_side_means` of v
    and `l2_sq` is `l2_norm_squared` of v when the caller already has them."""
    if l2_sq is None:
        l2_sq = l2_norm_squared(scheme, v)
    # the cell-point values are gone before the face points are evaluated
    if means is None:
        means = face_side_means(scheme.mesh, scheme.table, v)
    parts = scheme.seminorm.parts(split_parts(v)[1], np.take(means, scheme.jump_faces, axis=-2))
    return per_field(np.sqrt(l2_sq + _squared(parts) + _boundary_mass(scheme, means)))


def h1_norm(scheme: DoDScheme, f, grad) -> float:
    """H1(Omega) norm of f, with gradient `grad`, by cell quadrature."""

    def integrand(pts):
        g = np.asarray(grad(pts), dtype=float)
        return np.square(np.asarray(f(pts), dtype=float)) + (g * g).sum(axis=-1)

    return math.sqrt(scheme.cellquad.integrate_total(integrand))


def error_breakdown(scheme: DoDScheme, t: float, u_h: np.ndarray) -> ErrorBreakdown:
    """L2 norm and beta-seminorm of u(t, .) - u_h against the problem's
    exact solution, which is evaluated once on the cell points and once on
    the jump faces' points (`error_seminorm`)."""
    diff = (lambda p: scheme.problem.exact(t, p), -np.asarray(u_h, dtype=float))
    return ErrorBreakdown(math.sqrt(l2_norm_squared(scheme, diff)), error_seminorm(scheme, t, u_h))
