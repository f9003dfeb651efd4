"""L2 projection, the L2 and H1 norms, the beta-seminorm, and the starred norm.

The smooth part of a V* element is a snapshot u(t, .) of the exact solution,
integrated in closed form over the uncut squares and by the scheme's cell
quadrature, whose points lie on the cut cells only, over the other cells.

The beta-seminorm collects |beta.n|-weighted squared jumps of face means,
with the in/outflow faces of stabilized cells weighted by their capacity
alpha and an extended jump (downwind-neighbor mean minus inflow-neighbor
mean) weighted by 1 - alpha.  Every norm takes a block of discrete fields
as well as a single one and then returns one value per row.

The formula has one implementation, `_seminorm_parts`, over the rows the
scheme builds once (`discretization.build_jump_rows`): every row is a
weighted x[left] - x[right] of one vector, the discrete part, a 0 and the
side means on the jump faces, so it takes two gathers, a subtract, a
square and a weight, then sums three row ranges.  `beta_seminorm` is its
one entry, for every element of V*, `error_breakdown` and
`converge --accumulate` included.  The smooth part of a V* element is
single-valued, so it cancels from every interior jump: the seminorm takes
those jumps from the discrete part alone and needs the smooth part only on
the scheme's `jump_faces`, the boundary faces with flux and the legs of
stabilized cells, a few percent of the faces.  There `face_side_means`
evaluates a snapshot from the scheme's cached characteristic coordinates
of their quadrature points (`jump_chars`).  The starred norm needs a smooth
part's mean on every face anyway, from the face table's `all_faces`
quadrature, built on its first use (only the `verify` checks ask for it),
and gives the jump faces' means to the same formula; its cell-boundary
mass weights each cell by `records.capacity`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import DoDScheme, face_side_means, per_field, split_parts
from .field import Snapshot
from .quadrature import CellQuadratureTable


@dataclass
class ErrorBreakdown:
    l2: float
    beta_semi: float


def _on_squares(scheme: DoDScheme, snap: Snapshot):
    """(int u^2, int |grad u|^2) of a snapshot on each uncut square."""
    cq = scheme.cellquad
    return snap.problem.square_quadratic_integrals(snap.t, scheme.mesh.n, *cq.square_ij)


def l2_project(mesh, snap: Snapshot, cellquad: CellQuadratureTable) -> np.ndarray:
    """Cell averages |E|^-1 int_E u of a snapshot u, the L2 projection onto
    piecewise constants, by `cellquad` (a scheme's is `scheme.cellquad`)."""
    total = cellquad.integrate(snap)
    total[cellquad.squares] = snap.problem.square_integral(snap.t, mesh.n, *cellquad.square_ij)
    return total / mesh.areas


def _snapshot_l2_squared(scheme: DoDScheme, snap: Snapshot, squares_u2) -> float:
    """||u||^2 of a snapshot, from its int u^2 on each uncut square."""
    cq = scheme.cellquad
    x = np.square(np.asarray(snap(cq.points), dtype=float))
    x *= cq.weights
    return float(x.sum() + squares_u2.sum())


def _gradient_squared(scheme: DoDScheme, snap: Snapshot, squares_grad2) -> float:
    """||grad u||^2 of a snapshot, from its int |grad u|^2 on each uncut square."""
    grad2 = scheme.cellquad.integrate_total(lambda p: np.square(snap.gradient(p)).sum(axis=-1))
    return grad2 + float(squares_grad2.sum())


def l2_norm_squared(scheme: DoDScheme, v) -> float | np.ndarray:
    """||smooth + discrete||^2 over the mesh, in numpy's summation order.

    On the cut cells the square of the sum is evaluated pointwise (not
    expanded); on an uncut square where the discrete part is c it is
    int u^2 + c (2 int u + c |E|).
    """
    smooth, disc = split_parts(v)
    if smooth is None:
        return 0.0 if disc is None else per_field((np.square(disc) * scheme.mesh.areas).sum(axis=-1))
    m2 = _on_squares(scheme, smooth)[0]
    if disc is None:
        return _snapshot_l2_squared(scheme, smooth, m2)
    cq = scheme.cellquad
    m1 = smooth.problem.square_integral(smooth.t, scheme.mesh.n, *cq.square_ij)
    x = np.square(np.take(disc, cq.cell_index, axis=-1) + np.asarray(smooth(cq.points), dtype=float))
    x *= cq.weights
    c = np.take(disc, cq.squares, axis=-1)
    y = m2 + c * (2.0 * m1 + c * scheme.mesh.areas[cq.squares])
    return per_field(x.sum(axis=-1) + y.sum(axis=-1))


def _boundary_mass(scheme: DoDScheme, means: np.ndarray) -> float | np.ndarray:
    """Sum over cells, capacity-weighted on stabilized ones, of the cell's
    int_e |beta.n| (own-trace mean)^2 over its faces; one value per row for
    the means of a block."""
    mesh = scheme.mesh
    capacity = scheme.records.capacity(mesh.n_cells)
    own = capacity[mesh.f_left] * np.square(means[..., 0])
    own += np.where(mesh.f_right >= 0, capacity[mesh.f_right], 0.0) * np.square(means[..., 1])
    return per_field((own * scheme.table.abs_flux).sum(axis=-1))


def _seminorm_parts(scheme: DoDScheme, disc, jump_means: np.ndarray):
    """(plain, capacity, extended) for the discrete part `disc` (None for
    none) and the side means `jump_means` of the whole element on the jump
    faces, from the scheme's rows; one value per row for a block."""
    lead = jump_means.shape[:-2]
    disc = np.zeros(scheme.mesh.n_cells) if disc is None else disc
    x = np.concatenate([disc, np.zeros(lead + (1,)), jump_means.reshape(lead + (-1,))], axis=-1)
    # in place: fresh block-sized temporaries cost more than the arithmetic
    sq = np.take(x, scheme.jump_left, axis=-1)
    sq -= np.take(x, scheme.jump_right, axis=-1)
    np.square(sq, out=sq)
    sq *= scheme.jump_weight
    alpha = scheme.records.alpha
    k = len(alpha)
    p = sq.shape[-1] - 3 * k  # the plain rows; then e_in, e_out, extended
    capacity = (alpha * (sq[..., p:p + k] + sq[..., p + k:p + 2 * k])).sum(axis=-1)
    return sq[..., :p].sum(axis=-1), capacity, sq[..., p + 2 * k:].sum(axis=-1)


def beta_seminorm_parts(scheme: DoDScheme, v) -> tuple[float, float, float]:
    """(plain, capacity-weighted, extended-jump) parts of the squared
    seminorm, from the side means of v on the jump faces only."""
    means = face_side_means(scheme, v, scheme.jump_faces)
    return tuple(map(per_field, _seminorm_parts(scheme, split_parts(v)[1], means)))


def _squared(parts):
    plain, capacity, extended = parts
    return np.maximum(plain + capacity + extended, 0.0)


def beta_seminorm(scheme: DoDScheme, v) -> float | np.ndarray:
    return per_field(np.sqrt(_squared(beta_seminorm_parts(scheme, v))))


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
        means = face_side_means(scheme, v)
    parts = _seminorm_parts(scheme, split_parts(v)[1], np.take(means, scheme.jump_faces, axis=-2))
    return per_field(np.sqrt(l2_sq + _squared(parts) + _boundary_mass(scheme, means)))


def gradient_norm_squared(scheme: DoDScheme, snap: Snapshot) -> float:
    """||grad u||^2 of a snapshot over the mesh."""
    return _gradient_squared(scheme, snap, _on_squares(scheme, snap)[1])


def h1_norm(scheme: DoDScheme, snap: Snapshot) -> float:
    """H1(Omega) norm of a snapshot, from one closed-form pass over the
    uncut squares."""
    u2, grad2 = _on_squares(scheme, snap)
    return math.sqrt(_snapshot_l2_squared(scheme, snap, u2) + _gradient_squared(scheme, snap, grad2))


def error_breakdown(scheme: DoDScheme, t: float, u_h: np.ndarray) -> ErrorBreakdown:
    """L2 norm and beta-seminorm of u(t, .) - u_h against the problem's
    exact solution, which is evaluated once on the cut cells' points, once
    in closed form on the uncut squares and once on the jump faces' points."""
    diff = (Snapshot(scheme.problem, t), -np.asarray(u_h, dtype=float))
    return ErrorBreakdown(math.sqrt(l2_norm_squared(scheme, diff)), beta_seminorm(scheme, diff))
