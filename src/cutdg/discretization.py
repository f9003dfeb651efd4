"""DoD-stabilized upwind operator for piecewise constants and time stepping.

Discrete fields are plain numpy arrays with one value per cell (the space of
piecewise constants).  Functions in the extended space V* are passed as
(snapshot u(t, .) of the exact solution, discrete) parts; all face couplings
reduce to the |beta.n|-weighted mean of the trace per face and side, so
assembly is a handful of vectorized gathers over the face arrays.

A block of discrete fields is a (fields, cells) array.  The face means, the
bilinear forms and the norms accept one in place of a single field and
return one value per row, equal to the value for that row alone: gathers
along the face axis use np.take, which keeps the rows contiguous, so every
row is summed in the same order as a single field, by numpy (no BLAS dot,
whose order depends on the BLAS thread count).
"""
from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import (F_RAMP, CutCellMesh, InvalidConfig, StabilizedCells, build_mesh,
                       identify_stabilized)
from .field import RampTestProblem, Snapshot, VelocityField
from .quadrature import CellQuadratureTable, SegmentRule, TriangleRule

#: one scalar per cell, indexed by cell id
PiecewiseConstantField = np.ndarray


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme parameters: capacity factor tau, CFL selection, quadrature sizes.

    `cfl_kappa`, when set, overrides the stability constant
    kappa = (1 - 2 eps) / ((1 + eps) C_tr).  `face_order` (1 to 16) is the
    number of Gauss points per face; `cell_degree` (1 to 20) is the total
    degree the rule on each fan triangle of a cut cell integrates exactly:
    (d + 2) // 2 squared points, 4 x 4 at the default 6.  Uncut squares
    take no rule: the exact solution is integrated over them in closed form.
    """

    tau: float = 1.0
    epsilon: float = 0.25
    cfl_kappa: float | None = None
    face_order: int = 4
    cell_degree: int = 6

    def __post_init__(self):
        sizes = (("face_order", 16, "at least 1 point per face", "at most 16 points per face"),
                 ("cell_degree", 20, "degree >= 1", "degree <= 20"))
        for name, top, low, high in sizes:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise InvalidConfig(name, f"need an integer {name}, got {value!r}")
            if not 1 <= value <= top:
                raise InvalidConfig(name, f"need {low if value < 1 else high}, got {value}")
        if not 0.0 < self.tau < math.inf:
            raise InvalidConfig("tau", f"tau must be finite and positive, got {self.tau}")
        if self.cfl_kappa is not None:
            if not 0.0 < self.cfl_kappa < math.inf:
                raise InvalidConfig("cfl_kappa",
                                    f"cfl_kappa must be finite and positive, got {self.cfl_kappa}")
        elif not 0.0 < self.epsilon < 0.5:
            raise InvalidConfig("epsilon", f"epsilon must lie in (0, 1/2), got {self.epsilon}")

    def c_tr(self, velocity) -> float:
        """The trace constant C_tr = max(4 |beta|_inf, 1/tau)."""
        return max(4.0 * velocity.inf_norm, 1.0 / self.tau)

    def kappa(self, velocity) -> float:
        """kappa of dt = kappa h: `cfl_kappa`, or the stability constant."""
        if self.cfl_kappa is not None:
            return self.cfl_kappa
        eps = self.epsilon
        return (1.0 - 2.0 * eps) / ((1.0 + eps) * self.c_tr(velocity))


#: faces per block of `build_face_table`'s sign check, to bound its temporaries
_SIGN_BLOCK = 4096
#: the two ends of a face, where an affine beta.n takes its extremes
_FACE_ENDS = SegmentRule(np.array([0.0, 1.0]), np.array([0.5, 0.5]))


def _face_points(mesh: CutCellMesh, velocity, rule: SegmentRule, faces):
    """(pts, bn) of the faces with the given ids (an index array or a
    slice): the (faces, points, 2) quadrature nodes of `rule`, and the
    (points, faces) values of beta.n there, w.r.t. the stored normal."""
    # (points, faces) arrays, one coordinate at a time: numpy is several
    # times slower over an inner axis of 2 (coordinates) or 4 (points)
    ends = mesh.f_endpoints[faces]
    a, b = ends[:, 0, :], ends[:, 1, :]
    t = rule.points[:, None]
    pts = np.empty((len(ends), len(rule), 2))
    for k in (0, 1):
        pts[:, :, k] = (a[:, k] + t * (b[:, k] - a[:, k])).T
    beta = velocity.evaluate(pts.reshape(-1, 2)).reshape(pts.shape)
    normal = mesh.f_normal[faces]
    bn = np.multiply(beta[..., 0].T, normal[:, 0], order="C")
    bn += np.multiply(beta[..., 1].T, normal[:, 1], order="C")
    bn += 0.0  # -0.0 -> 0.0, as a sum of products from zero gives
    return pts, bn


@dataclass(frozen=True, eq=False)
class FaceIntegralTable:
    """Per-face fluxes of beta, and face quadrature on request.

    flux_in  : int_e beta.n ds with n the stored face normal, exactly
               psi(b) - psi(a) for the face from a to b and the field's
               stream function psi
    abs_flux : int_e |beta.n| ds = |flux_in|, since beta.n keeps one sign
               along each face
    upwind   : cell id the upwind trace is taken from; -1 on inflow boundary
               faces (the upwind trace extension is zero there), -2 on
               no-flow faces (flux_in == 0)
    mesh, velocity, rule : what the quadrature points are built from

    The quadrature points are not stored: `quadrature(faces)` builds them
    for the faces a caller reads (a scheme reads its jump faces only), and
    `all_faces` holds them for every face, built on first request.

    Every face endpoint on the ramp line (`mesh.f_on_ramp_line`) takes psi
    at the ramp start, so ramp faces carry exactly zero flux and the fluxes
    of each cell sum to zero up to rounding, however small the cell (the
    sum telescopes around it).
    """

    flux_in: np.ndarray
    abs_flux: np.ndarray
    upwind: np.ndarray
    mesh: CutCellMesh
    velocity: VelocityField
    rule: SegmentRule

    def quadrature(self, faces) -> tuple[np.ndarray, np.ndarray]:
        """(qpoints, wbn) of the faces with the given ids (an index array or
        a slice): the (faces, points, 2) quadrature nodes, and their
        physical ds-weights times the beta.n values (w.r.t. the stored
        normal), rescaled so that the row of each face sums to its flux_in
        up to rounding.  A face's rows do not depend on which other faces
        are asked for."""
        pts, bn = _face_points(self.mesh, self.velocity, self.rule, faces)
        w = self.rule.weights[:, None] * self.mesh.f_length[faces]
        # a row sum, since numpy sums a row of 8 or more pairwise
        quad = np.ascontiguousarray((w * bn).T).sum(axis=1)
        flux = self.flux_in[faces]
        bn *= np.divide(flux, quad, out=np.zeros_like(flux), where=flux != 0.0)
        return pts, np.ascontiguousarray((w * bn).T)

    @functools.cached_property
    def all_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """`quadrature` of every face, built on first request."""
        return self.quadrature(slice(None))


def build_face_table(mesh: CutCellMesh, velocity, rule: SegmentRule) -> FaceIntegralTable:
    psi = velocity.stream(mesh.f_endpoints.reshape(-1, 2)).reshape(-1, 2)
    on_line = mesh.f_on_ramp_line
    if np.any(on_line):
        # the ramp is a streamline: every endpoint the mesh build put on the
        # ramp line takes psi at the ramp start, in every face it ends
        psi0 = velocity.stream(np.array([mesh.domain.x0, 0.0]))
        worst = float(np.abs(psi[on_line] - psi0).max())
        if worst > 1e-10 * mesh.h * velocity.inf_norm:
            raise ValueError(
                f"velocity is not tangent to the ramp: the stream function varies "
                f"by {worst:.3e} along it"
            )
        psi[on_line] = psi0
    flux = psi[:, 1] - psi[:, 0]

    # beta.n must not change sign along a face off the ramp: at both ends,
    # which is exact for an affine beta, a block of faces at a time
    lo, hi = np.empty(mesh.n_faces), np.empty(mesh.n_faces)
    for start in range(0, mesh.n_faces, _SIGN_BLOCK):
        block = slice(start, start + _SIGN_BLOCK)
        bn = _face_points(mesh, velocity, _FACE_ENDS, block)[1]
        lo[block], hi[block] = bn.min(axis=0), bn.max(axis=0)
    tol = 1e-12 * np.maximum(hi, -lo)
    mixed = (mesh.f_kind != F_RAMP) & (lo < -tol) & (hi > tol)
    if np.any(mixed):
        raise ValueError(
            f"beta.n changes sign on {int(mixed.sum())} face(s); refine or split faces"
        )

    left, right = mesh.f_left, mesh.f_right
    upwind = np.full(mesh.n_faces, -2, dtype=np.int64)
    pos = flux > 0.0
    neg = flux < 0.0
    upwind[pos] = left[pos]
    upwind[neg] = np.where(right[neg] >= 0, right[neg], -1)
    return FaceIntegralTable(flux, np.abs(flux), upwind, mesh, velocity, rule)


def per_field(x):
    """A result with one value per field: a float for a single field, the
    array for a block."""
    return x if getattr(x, "ndim", 0) else float(x)


def split_parts(v):
    """Normalize a V*-element into (Snapshot | None, cell array | None).

    Accepts a discrete array, a snapshot u(t, .) of the exact solution, or
    a (snapshot, discrete) pair understood additively.
    """
    if isinstance(v, tuple):
        smooth, disc = v
    elif isinstance(v, Snapshot):
        smooth, disc = v, None
    else:
        smooth, disc = None, v
    return smooth, None if disc is None else np.asarray(disc, dtype=float)


def face_side_means(mesh: CutCellMesh, table: FaceIntegralTable, v, faces=None) -> np.ndarray:
    """beta-weighted means of the traces of v, per face and side, on every
    face or on the faces with the given ids.

    Column 0 is the trace from f_left, column 1 from f_right (for the
    smooth part the trace is single-valued, so boundary faces carry it in
    both columns).  Zero-flux faces get mean 0; they never enter any form.
    A (fields, cells) discrete part gives (fields, faces, 2) means.  A
    face's means do not depend on which other faces are asked for.
    """
    smooth, disc = split_parts(v)
    left, right = mesh.f_left, mesh.f_right
    if faces is not None:
        left, right = left[faces], right[faces]
    if disc is None:
        m = np.zeros((len(left), 2))
    else:
        # f_right is -1 on boundary faces: take reads the last cell there
        m = np.take(disc, np.stack([left, right], axis=-1), axis=-1)
        m[..., right < 0, 1] = 0.0
    if smooth is not None:
        # one (faces, 2) addend: a stride-0 inner axis of length 2 is slow
        s = smooth_face_means(table, smooth, faces)
        m += np.stack([s, s], axis=-1)
    return m


def smooth_face_means(table: FaceIntegralTable, smooth, faces=None) -> np.ndarray:
    """|beta.n|-weighted mean of a smooth function on each face, or on the
    faces with the given ids, from one call of `smooth` on their quadrature
    points.  Zero-flux faces get mean 0.  A face's mean does not depend on
    which other faces are asked for."""
    if faces is None:
        (qpoints, wbn), abs_flux = table.all_faces, table.abs_flux
    else:
        (qpoints, wbn), abs_flux = table.quadrature(faces), table.abs_flux[faces]
    vals = np.asarray(smooth(qpoints.reshape(-1, 2)), dtype=float)
    return weighted_face_means(np.abs(wbn), vals, abs_flux)


def weighted_face_means(abs_wbn, vals, abs_flux) -> np.ndarray:
    """Per face, the |w beta.n|-weighted mean of the values at its quadrature
    points; zero on zero-flux faces.

    The products are added column by column, left to right: that is the
    order numpy sums rows shorter than 8 in, so up to 7 points per face the
    means have the bits of a row sum, at a fraction of its cost.
    """
    prod = abs_wbn * np.reshape(vals, abs_wbn.shape)
    num = prod[:, 0].copy()
    for j in range(1, prod.shape[1]):
        num += prod[:, j]
    return np.divide(num, abs_flux, out=np.zeros_like(num), where=abs_flux > 0.0)


def _upwind_values(table, means, faces=slice(None)) -> np.ndarray:
    """Upwind trace mean per face of `means` (every face, or the given
    ones); zero on inflow-boundary and no-flow faces."""
    up = np.where(table.flux_in[faces] > 0.0, means[..., 0], means[..., 1])
    # inflow boundary (-1): extension by 0; no-flow faces (-2)
    up[..., table.upwind[faces] < 0] = 0.0
    return up


def _test_jump(mesh, w_h, faces=slice(None)) -> np.ndarray:
    """[w] per face (every face, or the given ones), so that
    int_e beta.[w] = flux_in * jump; one-sided on the boundary."""
    w = np.asarray(w_h, dtype=float)
    left, right = mesh.f_left[faces], mesh.f_right[faces]
    return np.take(w, left, axis=-1) - np.where(right >= 0, np.take(w, right, axis=-1), 0.0)


def assemble_dod_matrix(
    mesh: CutCellMesh, table: FaceIntegralTable, st: StabilizedCells
) -> sp.csr_matrix:
    """Sparse operator A with |F| (A v)_F = a_dod(v, 1_F).

    Every non-ramp face contributes its upwind flux functional to both
    adjacent rows (antisymmetrically); on the outflow face of a stabilized
    cell the functional is alpha*v_E + (1-alpha)*v_{E_in} times the flux,
    applied to the stabilized cell and its downwind neighbor alike.
    """
    nf = mesh.n_faces
    eout_mask = np.zeros(nf, dtype=bool)
    eout_mask[st.e_out] = True

    rows, cols, vals = [], [], []

    def scatter(face_ids, col_ids, flux_vals):
        left = mesh.f_left[face_ids]
        rows.append(left)
        cols.append(col_ids)
        vals.append(flux_vals / mesh.areas[left])
        has_r = mesh.f_right[face_ids] >= 0
        r = mesh.f_right[face_ids][has_r]
        rows.append(r)
        cols.append(col_ids[has_r])
        vals.append(-flux_vals[has_r] / mesh.areas[r])

    plain = np.nonzero((table.upwind >= 0) & ~eout_mask)[0]
    scatter(plain, table.upwind[plain], table.flux_in[plain])
    scatter(st.e_out, st.cells, st.alpha * table.flux_in[st.e_out])
    scatter(st.e_out, st.E_in, (1.0 - st.alpha) * table.flux_in[st.e_out])

    n = mesh.n_cells
    # joined one list at a time, so that each list's pieces go as it is joined
    vals = np.concatenate(vals)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    del vals, rows, cols  # the matrix holds its own int32 copies of the indices
    return mat.tocsr()


def bilinear_a_dod(mesh, table, st: StabilizedCells, v, w_h, means=None) -> float | np.ndarray:
    """a_dod(v, w_h): upwind sum over non-stabilized-outflow faces plus the
    capacity-blended flux alpha*v_E + (1-alpha)*v_in on each e_out.  One
    value per row when v or w_h is a block of fields.  `means` is
    `face_side_means(mesh, table, v)` when the caller already has it."""
    if means is None:
        means = face_side_means(mesh, table, v)
    up = _upwind_values(table, means)
    v_e = np.take(up, st.e_out, axis=-1)  # trace from the stabilized cell (upwind on e_out)
    v_in = np.take(up, st.e_in, axis=-1)  # trace from the inflow neighbor (upwind on e_in)
    up[..., st.e_out] = st.alpha * v_e + (1.0 - st.alpha) * v_in
    return per_field((up * table.flux_in * _test_jump(mesh, w_h)).sum(axis=-1))


def bilinear_J(mesh, table, st: StabilizedCells, v, w_h) -> float | np.ndarray:
    """Stabilization sum_E (1-alpha) int_{e_out} (v_in - v_E) beta.[w].  One
    value per row when v or w_h is a block of fields.  Reads v and w_h on
    the legs e_in and e_out of the stabilized cells only."""
    legs = np.concatenate([st.e_in, st.e_out])
    up = _upwind_values(table, face_side_means(mesh, table, v, legs), legs)
    v_in, v_e = np.split(up, 2, axis=-1)
    wjump = _test_jump(mesh, w_h, st.e_out)
    eta = 1.0 - st.alpha
    return per_field((eta * (v_in - v_e) * (table.flux_in[st.e_out] * wjump)).sum(axis=-1))


@dataclass(frozen=True)
class JumpSeminorm:
    """The constant face structure of the beta-seminorm, built once per scheme.

    |v|_beta^2 is the sum of three parts: `plain`, the |beta.n|-weighted
    squared jumps on the faces that are no leg of a stabilized cell;
    `capacity`, those on the legs e_in and e_out weighted by alpha; and
    `extended`, (1 - alpha) |flux(e_out)| times the squared extended jump,
    the downwind-neighbor mean on e_out minus the inflow-neighbor mean on
    e_in.  A smooth part of v is single-valued, so it cancels from every
    interior jump and enters only through the side means on the jump faces
    (the boundary faces with flux and the legs).

    Every jump is x[left] - x[right] of the vector
    x = [discrete part, 0, whole-element mean on each boundary jump face]:
    an interior face pairs its two cells, a boundary jump face its slot
    with the 0, and a zero-flux boundary face its cell with the 0.  The
    extended jumps read the (jump faces, 2) side means at the flat indices
    `ext_out` and `ext_in`.  The jump faces' |w beta.n| and fluxes give
    the smooth means from values at their quadrature points.
    """

    n_cells: int
    boundary: np.ndarray  # positions of the boundary faces among the jump faces
    plain_left: np.ndarray
    plain_right: np.ndarray
    plain_weight: np.ndarray  # |flux| of each plain face
    leg_left: np.ndarray  # e_in of every stabilized cell, then e_out
    leg_right: np.ndarray
    leg_weight: np.ndarray
    alpha: np.ndarray
    ext_out: np.ndarray
    ext_in: np.ndarray
    ext_weight: np.ndarray  # (1 - alpha) |flux(e_out)|
    abs_wbn: np.ndarray  # (jump faces, points per face)
    abs_flux: np.ndarray  # |flux| of each jump face

    def parts(self, disc, jump_means: np.ndarray):
        """(plain, capacity, extended) for the discrete part `disc` (None
        for none) and the side means `jump_means` of the whole element on
        the jump faces; one value per row for a block."""
        lead = jump_means.shape[:-2]
        disc = np.zeros(self.n_cells) if disc is None else disc
        x = np.concatenate(
            [disc, np.zeros(lead + (1,)), jump_means[..., self.boundary, 0]], axis=-1
        )

        def squared_jumps(left, right, weight):
            # in place: fresh block-sized temporaries cost more than the arithmetic
            jump = np.take(x, left, axis=-1)
            jump -= np.take(x, right, axis=-1)
            np.square(jump, out=jump)
            jump *= weight
            return jump

        plain = squared_jumps(self.plain_left, self.plain_right, self.plain_weight).sum(axis=-1)
        legs = squared_jumps(self.leg_left, self.leg_right, self.leg_weight)
        k = len(self.alpha)
        capacity = (self.alpha * (legs[..., :k] + legs[..., k:])).sum(axis=-1)
        flat = jump_means.reshape(lead + (-1,))
        ext = np.take(flat, self.ext_out, axis=-1) - np.take(flat, self.ext_in, axis=-1)
        extended = (self.ext_weight * np.square(ext)).sum(axis=-1)
        return plain, capacity, extended

    def smooth_means(self, vals) -> np.ndarray:
        """Jump-face means of a smooth function from its values at the jump
        faces' quadrature points."""
        return weighted_face_means(self.abs_wbn, vals, self.abs_flux)


def build_jump_seminorm(
    mesh: CutCellMesh,
    table: FaceIntegralTable,
    st: StabilizedCells,
    jump_faces: np.ndarray,
    wbn: np.ndarray,
) -> JumpSeminorm:
    """The seminorm's face structure; `wbn` is the second part of
    `table.quadrature(jump_faces)`."""
    n = mesh.n_cells
    boundary = np.flatnonzero(mesh.f_right[jump_faces] < 0)
    left = mesh.f_left.copy()
    left[jump_faces[boundary]] = n + 1 + np.arange(len(boundary))
    right = np.where(mesh.f_right >= 0, mesh.f_right, n)
    legs = np.concatenate([st.e_in, st.e_out])
    plain = np.ones(mesh.n_faces, dtype=bool)
    plain[legs] = False
    plain = np.flatnonzero(plain)
    # the extended jump takes the trace from across e_out and from behind e_in
    at = np.searchsorted(jump_faces, legs)
    side = np.concatenate([table.flux_in[st.e_in] <= 0.0, table.flux_in[st.e_out] > 0.0])
    flat = 2 * at + side
    k = len(st)
    return JumpSeminorm(
        n_cells=n,
        boundary=boundary,
        plain_left=left[plain],
        plain_right=right[plain],
        plain_weight=table.abs_flux[plain],
        leg_left=left[legs],
        leg_right=right[legs],
        leg_weight=table.abs_flux[legs],
        alpha=st.alpha,
        ext_out=flat[k:],
        ext_in=flat[:k],
        ext_weight=(1.0 - st.alpha) * table.abs_flux[st.e_out],
        abs_wbn=np.abs(wbn),
        abs_flux=table.abs_flux[jump_faces],
    )


def build_inflow(mesh: CutCellMesh, table: FaceIntegralTable, faces, qpoints, wbn):
    """(cells, points, matrix) of the inflow-data contribution to the
    update, -|F|^-1 int min(beta.n, 0) g.

    Nonnegative for nonnegative g; the step adds dt times this, so constant
    data g = c exactly balances the boundary part of the operator.  Only the
    cells with an inflow face receive data: `cells` lists each of them once
    (a corner cell has two inflow faces), `points` holds the quadrature
    points of the inflow faces, and `matrix` maps data at those points to
    `cells` with the entries -w beta.n / |F|.

    `qpoints, wbn` is `table.quadrature(faces)` for ascending face ids
    `faces` that include every inflow face (a scheme's jump faces do).
    """
    rows = np.flatnonzero((mesh.f_right[faces] < 0) & (table.flux_in[faces] < 0.0))
    left = mesh.f_left[faces[rows]]
    cells, row = np.unique(left, return_inverse=True)
    nq = wbn.shape[1]
    weights = -wbn[rows] / mesh.areas[left, None]
    matrix = sp.csr_matrix(
        (weights.ravel(), (np.repeat(row, nq), np.arange(weights.size))),
        shape=(len(cells), weights.size),
    )
    return cells, qpoints[rows].reshape(-1, 2), matrix


def estimate_cb(mesh, st: StabilizedCells, velocity) -> float:
    """Min of |beta.n| over the in/outflow faces of stabilized cells.

    For the ramp velocity of `field.ramp_velocity`, beta.n is affine along
    a straight face and keeps one sign there (the field is a positive
    multiple of one direction inside the square), so |beta.n| is least at
    one of the face's two ends.
    """
    if not len(st):
        return math.inf
    legs = np.concatenate([st.e_in, st.e_out])
    return float(np.abs(_face_points(mesh, velocity, _FACE_ENDS, legs)[1]).min())


@dataclass
class SolveResult:
    u: PiecewiseConstantField
    steps: int
    t_final: float


class DoDScheme:
    """Assembled discretization for one problem/mesh pair.

    Bundles the mesh, face table, stabilized-cell table `records`, the
    beta-seminorm's `jump_faces` and face structure `seminorm`, operator
    matrix, cell quadrature table, the inflow cells and the matrix that
    maps inflow data to them (`inflow_cells`, `inflow_matrix`), and the
    characteristic coordinates of the inflow and jump-face quadrature
    points (`inflow_chars`, `jump_chars`), on which the inflow data of
    every step and the snapshot of every `norms.beta_seminorm` are
    evaluated.  The face quadrature points themselves are built once, on
    the jump faces only, and not kept.
    The time step `dt` = kappa h is fixed by the configuration, and
    `step_S` = I - dt A is built for it.  Everything is built once and
    treated as immutable, so a scheme can be shared by solves, norms, and
    verification checks.
    """

    def __init__(self, problem: RampTestProblem, config: SchemeConfig, n: int):
        self.problem = problem
        self.config = config
        face_rule = SegmentRule.gauss(config.face_order)
        cell_rule = TriangleRule.of_degree(config.cell_degree)
        self.mesh = build_mesh(problem.ramp, n)
        self.table = build_face_table(self.mesh, problem.velocity, face_rule)
        self.records = identify_stabilized(self.mesh, self.table, config.tau)
        # the faces on which a smooth part enters the beta-seminorm: it is
        # single-valued, so it cancels from every other face's jump
        jump = (self.mesh.f_right < 0) & (self.table.abs_flux > 0.0)
        jump[self.records.e_in] = jump[self.records.e_out] = True
        self.jump_faces = np.flatnonzero(jump)
        # the only face quadrature points a scheme reads: the inflow faces
        # are jump faces too
        qpoints, wbn = self.table.quadrature(self.jump_faces)
        self.seminorm = build_jump_seminorm(
            self.mesh, self.table, self.records, self.jump_faces, wbn)
        self.jump_chars = problem.characteristics(qpoints.reshape(-1, 2))
        self.matrix = assemble_dod_matrix(self.mesh, self.table, self.records)
        self.inflow_cells, points, self.inflow_matrix = build_inflow(
            self.mesh, self.table, self.jump_faces, qpoints, wbn)
        self.inflow_chars = problem.characteristics(points)
        self.dt = config.kappa(problem.velocity) * self.mesh.h
        self.step_S = self.step_matrix(self.dt)
        self.cellquad = CellQuadratureTable(self.mesh, cell_rule)
        self.c_b = estimate_cb(self.mesh, self.records, problem.velocity)
        if self.c_b < 1e-8:
            warnings.warn(
                f"|beta.n| drops to {self.c_b:.3e} on stabilized faces; "
                "the projection-error bound may not apply",
                stacklevel=2,
            )

    @property
    def velocity(self):
        return self.problem.velocity

    @property
    def h(self) -> float:
        return self.mesh.h

    @property
    def c_tr(self) -> float:
        return self.config.c_tr(self.velocity)

    def apply(self, v: PiecewiseConstantField) -> PiecewiseConstantField:
        """A v, for one field or row by row for a block of fields."""
        # row-major, so that each row is laid out as a single A v would be
        return np.ascontiguousarray((self.matrix @ np.asarray(v, dtype=float).T).T)

    def rhs(self, t: float) -> PiecewiseConstantField:
        """The inflow contribution on every cell; zero off the inflow boundary."""
        out = np.zeros(self.mesh.n_cells)
        out[self.inflow_cells] = self.inflow_matrix @ self.problem.g_from(t, self.inflow_chars)
        return out

    def step_matrix(self, dt: float) -> sp.csr_matrix:
        """S = I - dt A, the explicit Euler update without inflow data.

        Built on A's pattern, with the entries scipy's `identity - dt * A`
        gives: -dt a_ij off the diagonal, 1 - dt a_ii on it, and the exact
        zeros dropped.  `matrix` is canonical (sorted, no duplicates), so
        each row keeps its order and `S @ u` its bits.  S shares A's index
        arrays unless a zero is dropped or a diagonal slot added.
        """
        a = self.matrix
        n = a.shape[0]
        rows = np.repeat(np.arange(n, dtype=a.indices.dtype), np.diff(a.indptr))
        diag = a.indices == rows
        data = -dt * a.data
        data[diag] += 1.0
        s = sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)
        if np.count_nonzero(diag) < n:
            # a row without a diagonal slot takes 1 there; the sum drops zeros
            missing = np.setdiff1d(np.arange(n), rows[diag])
            s = s + sp.csr_matrix((np.ones(len(missing)), (missing, missing)), shape=a.shape)
        elif not data.all():
            s = s.copy()  # A's index arrays stay as they are
            s.eliminate_zeros()
        return s

    def step(self, u: PiecewiseConstantField, t: float, dt: float) -> PiecewiseConstantField:
        """Explicit Euler u - dt A u + dt rhs(t), as S u plus dt times the
        inflow data added on the inflow cells only.  S is `step_S` for the
        scheme's `dt`, and built afresh for any other step."""
        out = (self.step_S if dt == self.dt else self.step_matrix(dt)) @ u
        data = self.problem.g_from(t, self.inflow_chars)
        out[self.inflow_cells] += dt * (self.inflow_matrix @ data)
        return out

    def l2_norm(self, u: PiecewiseConstantField) -> float | np.ndarray:
        """||u||_L2, one value per row for a block of fields."""
        return per_field(np.sqrt((np.square(u) * self.mesh.areas).sum(axis=-1)))

    def project_initial(self) -> PiecewiseConstantField:
        from .norms import l2_project

        return l2_project(self.mesh, self.problem.u0, self.cellquad)

    def solve(self, observer=None) -> SolveResult:
        """March the fully discrete scheme from the projected initial data to
        the problem's t_final, T.

        Every step is `dt` except the final one, which is shortened to land
        on T exactly.  The observer, if given, is called as
        observer(k, t, u, dt) on every state k = 0..steps, with dt the step
        that leaves it (0.0 at T, where t is T exactly).
        """
        T = self.problem.t_final
        u = self.project_initial()
        n_steps = max(1, math.ceil(T / self.dt - 1e-12)) if T > 0.0 else 0
        t = 0.0
        for k in range(n_steps):
            dt_k = self.dt if k < n_steps - 1 else T - t
            if observer is not None:
                observer(k, t, u, dt_k)
            u = self.step(u, t, dt_k)
            t += dt_k
        if n_steps:
            t = T
        if observer is not None:
            observer(n_steps, t, u, 0.0)
        return SolveResult(u=u, steps=n_steps, t_final=t)
