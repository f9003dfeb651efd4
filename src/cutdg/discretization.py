"""DoD-stabilized upwind operator for piecewise constants and time stepping.

Discrete fields are plain numpy arrays with one value per cell (the space of
piecewise constants).  Functions in the extended space V* are passed as
(snapshot u(t, .) of the exact solution, discrete) parts; all face couplings
reduce to the |beta.n|-weighted mean of the trace per face and side, so
assembly is a handful of vectorized gathers over the face arrays.  The
builders take parts, as they run before a scheme exists; the V* forms take
the built scheme, and `face_side_means` alone evaluates a snapshot on faces.
The beta-seminorm is data here: `build_jump_rows` gives its rows as index
pairs and weights into one vector of the discrete part and the jump faces'
side means, and `norms` evaluates them.

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
from .field import Characteristics, RampTestProblem, Snapshot, VelocityField
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
        """kappa of dt = kappa h: `cfl_kappa`, or the stability constant.

        A `cfl_kappa` above 1/|beta|_inf is refused: the wave would travel
        more than a cell width per step, past the face neighbours an
        explicit step couples, so no such step is stable (the CFL
        condition), and a long enough solve overflows.
        """
        if self.cfl_kappa is not None:
            if self.cfl_kappa * velocity.inf_norm > 1.0:
                raise InvalidConfig("cfl_kappa", "cfl_kappa must be at most 1/|beta|_inf = "
                                    f"{1.0 / velocity.inf_norm:.6g}, got {self.cfl_kappa}")
            return self.cfl_kappa
        eps = self.epsilon
        return (1.0 - 2.0 * eps) / ((1.0 + eps) * self.c_tr(velocity))


#: faces per block of `build_face_table`'s sign check, to bound its temporaries
_SIGN_BLOCK = 4096
#: the two ends of a face, where an affine beta.n takes its extremes
_FACE_ENDS = SegmentRule(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
#: steps of `DoDScheme.solve` whose inflow data one `rhs` call evaluates
_STEP_BLOCK = 64


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

    The quadrature points are not stored: a scheme builds them with
    `quadrature(faces)` once for its jump faces, and once for every face on
    first request (`DoDScheme.all_faces`), and keeps their characteristics.

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

    # f_right is -1 on the boundary, the inflow code of `upwind`
    upwind = np.select([flux > 0.0, flux < 0.0], [mesh.f_left, mesh.f_right], -2)
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


def snapshot_problem(scheme: DoDScheme, snap: Snapshot) -> RampTestProblem:
    """The problem of `snap`; every form and norm checks here that it is on
    the scheme's ramp, whose points they read a snapshot on."""
    if snap.problem.ramp != scheme.problem.ramp:
        raise ValueError("the snapshot is not on the scheme's ramp")
    return snap.problem


def face_side_means(scheme: DoDScheme, v, faces=None) -> np.ndarray:
    """beta-weighted means of the traces of v, per face and side, on every
    face or on the faces with the given ids.

    Column 0 is the trace from f_left, column 1 from f_right (for the
    smooth part the trace is single-valued, so boundary faces carry it in
    both columns).  A (fields, cells) discrete part gives (fields, faces, 2)
    means.  A face's means do not depend on which other faces are asked for.
    A snapshot part, of a problem on the scheme's ramp, is read on the
    scheme's `all_faces`, or on `jump_chars` when `faces` are given, which
    must then be jump faces.  Its mean is 0 on a zero-flux face, where a
    discrete part keeps its cell values; no form reads them, as each
    weights a face by its flux or skips it (upwind -2).
    """
    smooth, disc = split_parts(v)
    left, right = scheme.mesh.f_left, scheme.mesh.f_right
    if faces is not None:
        left, right = left[faces], right[faces]
    if disc is None:
        m = np.zeros((len(left), 2))
    else:
        # f_right is -1 on boundary faces: take reads the last cell there
        m = np.take(disc, np.stack([left, right], axis=-1), axis=-1)
        m[..., right < 0, 1] = 0.0
    if smooth is not None:
        problem = snapshot_problem(scheme, smooth)
        if faces is None:
            (chars, abs_wbn), abs_flux, at = scheme.all_faces, scheme.table.abs_flux, slice(None)
        else:
            at = np.searchsorted(scheme.jump_faces, faces)
            if (scheme.jump_faces.take(at, mode="clip") != faces).any():
                raise ValueError("a snapshot's side means are read on the jump faces only")
            chars, abs_wbn = scheme.jump_chars, scheme.jump_abs_wbn
            abs_flux = scheme.table.abs_flux[scheme.jump_faces]
        s = weighted_face_means(abs_wbn, problem.exact_from(smooth.t, chars), abs_flux)[at]
        # one (faces, 2) addend: a stride-0 inner axis of length 2 is slow
        m += np.stack([s, s], axis=-1)
    return m


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

    One list of couplings (face, source cell, weight): every face with an
    upwind cell takes its upwind trace with weight 1, except the outflow
    face e_out of a stabilized cell, which takes alpha (its upwind cell is
    the stabilized cell); then one (e_out, E_in, 1 - alpha) per stabilized
    cell.  Each coupling adds weight * flux_in / |F| to the row of the
    face's left cell F and subtracts it from the row of its right cell.
    """
    weight = np.ones(mesh.n_faces)
    weight[st.e_out] = st.alpha
    faces = np.flatnonzero(table.upwind >= 0)
    cols = np.concatenate([table.upwind[faces], st.E_in])
    weight = np.concatenate([weight[faces], 1.0 - st.alpha])
    faces = np.concatenate([faces, st.e_out])
    flux = weight * table.flux_in[faces]
    del weight
    left, right = mesh.f_left[faces], mesh.f_right[faces]
    del faces
    inner = right >= 0
    right = right[inner]
    vals = np.concatenate([flux / mesh.areas[left], -flux[inner] / mesh.areas[right]])
    del flux
    rows = np.concatenate([left, right])
    del left, right
    cols = np.concatenate([cols, cols[inner]])
    del inner
    n = mesh.n_cells
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    del vals, rows, cols  # the matrix holds its own int32 copies of the indices
    return mat.tocsr()


def bilinear_a_dod(scheme: DoDScheme, v, w_h, means=None) -> float | np.ndarray:
    """a_dod(v, w_h): upwind sum over non-stabilized-outflow faces plus the
    capacity-blended flux alpha*v_E + (1-alpha)*v_in on each e_out.  One
    value per row when v or w_h is a block of fields.  `means` is
    `face_side_means(scheme, v)` when the caller already has it."""
    table, st = scheme.table, scheme.records
    if means is None:
        means = face_side_means(scheme, v)
    up = _upwind_values(table, means)
    v_e = np.take(up, st.e_out, axis=-1)  # trace from the stabilized cell (upwind on e_out)
    v_in = np.take(up, st.e_in, axis=-1)  # trace from the inflow neighbor (upwind on e_in)
    up[..., st.e_out] = st.alpha * v_e + (1.0 - st.alpha) * v_in
    return per_field((up * table.flux_in * _test_jump(scheme.mesh, w_h)).sum(axis=-1))


def bilinear_J(scheme: DoDScheme, v, w_h) -> float | np.ndarray:
    """Stabilization sum_E (1-alpha) int_{e_out} (v_in - v_E) beta.[w].  One
    value per row when v or w_h is a block of fields.  Reads v and w_h on
    the legs e_in and e_out of the stabilized cells only (jump faces)."""
    table, st = scheme.table, scheme.records
    legs = np.concatenate([st.e_in, st.e_out])
    up = _upwind_values(table, face_side_means(scheme, v, legs), legs)
    v_in, v_e = np.split(up, 2, axis=-1)
    wjump = _test_jump(scheme.mesh, w_h, st.e_out)
    eta = 1.0 - st.alpha
    return per_field((eta * (v_in - v_e) * (table.flux_in[st.e_out] * wjump)).sum(axis=-1))


def build_jump_rows(
    mesh: CutCellMesh, table: FaceIntegralTable, st: StabilizedCells, jump_faces: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, weight): the rows of the beta-seminorm, each the jump
    x[left] - x[right] of x = [discrete part, 0, side means of the whole
    element on the jump faces, 2 per face], weighted by `weight`.

    The rows are every face that is no leg of a stabilized cell, in face
    order, then e_in and e_out of every stabilized cell, weighted by
    |flux| (the evaluator adds alpha on the legs); an interior face pairs
    its two cells, a boundary jump face its column-0 mean with the 0, and
    a zero-flux boundary face its cell with the 0.  Then one extended row
    per stabilized cell, weighted by
    (1 - alpha) |flux(e_out)|: the mean from across e_out minus the mean
    from behind e_in.
    """
    n = mesh.n_cells
    boundary = np.flatnonzero(mesh.f_right[jump_faces] < 0)
    left = mesh.f_left.copy()
    left[jump_faces[boundary]] = n + 1 + 2 * boundary
    right = np.where(mesh.f_right >= 0, mesh.f_right, n)
    legs = np.concatenate([st.e_in, st.e_out])
    plain = np.ones(mesh.n_faces, dtype=bool)
    plain[legs] = False
    faces = np.concatenate([np.flatnonzero(plain), legs])
    # the extended jump takes the trace from across e_out and from behind e_in
    side = np.concatenate([table.flux_in[st.e_in] <= 0.0, table.flux_in[st.e_out] > 0.0])
    ext = n + 1 + 2 * np.searchsorted(jump_faces, legs) + side
    k = len(st)
    return (np.concatenate([left[faces], ext[k:]]),
            np.concatenate([right[faces], ext[:k]]),
            np.concatenate([table.abs_flux[faces], (1.0 - st.alpha) * table.abs_flux[st.e_out]]))


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


def _step_matrix(a: sp.csr_matrix, dt: float) -> sp.csr_matrix:
    """S = I - dt A: `-dt A` on A's own index arrays, and `setdiag` adds the
    identity.  A scheme's `matrix` is canonical and stores its whole
    diagonal, so S has the entries, order and `S @ u` bits of scipy's
    `identity - dt A`; it shares A's index arrays unless an exact zero is
    dropped, which goes on a copy, so A's arrays stay as they are."""
    s = sp.csr_matrix((-dt * a.data, a.indices, a.indptr), shape=a.shape)
    s.setdiag(s.diagonal() + 1.0)
    if not s.data.all():
        s = s.copy()
        s.eliminate_zeros()
    return s


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
    beta-seminorm's `jump_faces`, its rows (`jump_left`, `jump_right`,
    `jump_weight`, see `build_jump_rows`) and the jump faces' |w beta.n|
    (`jump_abs_wbn`), operator matrix, cell quadrature table, the inflow
    cells and the matrix that maps inflow data to them (`inflow_cells`,
    `inflow_matrix`), and the characteristics of every point set the exact
    solution is read on: `inflow_chars`, `jump_chars` and `cell_chars` of
    the inflow, jump-face and cut-cell quadrature points, and `all_faces`
    of every face's, built on first request.  The face quadrature points
    themselves are not kept.
    The time step `dt` = kappa h is fixed by the configuration, and
    `step_S` = I - dt A is built for it.  The explicit update is `step`:
    S u (u - dt' A u for another step dt') plus dt `rhs(t)`, the one
    implementation of the inflow term, on the inflow cells.  The inflow
    data do not depend on u, so `solve` evaluates them for a block of
    steps with one `rhs` call and hands each step its row.  Everything is
    built once and treated as immutable, so a scheme can be shared by
    solves, norms, and verification checks.
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
        self.jump_abs_wbn = np.abs(wbn)
        self.jump_left, self.jump_right, self.jump_weight = build_jump_rows(
            self.mesh, self.table, self.records, self.jump_faces)
        self.jump_chars = problem.characteristics(qpoints.reshape(-1, 2))
        self.matrix = assemble_dod_matrix(self.mesh, self.table, self.records)
        self.inflow_cells, points, self.inflow_matrix = build_inflow(
            self.mesh, self.table, self.jump_faces, qpoints, wbn)
        self.inflow_chars = problem.characteristics(points)
        self.dt = config.kappa(problem.velocity) * self.mesh.h
        self.step_S = _step_matrix(self.matrix, self.dt)
        self.cellquad = CellQuadratureTable(self.mesh, cell_rule)
        self.cell_chars = problem.characteristics(self.cellquad.points)
        self.c_b = estimate_cb(self.mesh, self.records, problem.velocity)
        if self.c_b < 1e-8:
            warnings.warn(
                f"|beta.n| drops to {self.c_b:.3e} on stabilized faces; "
                "the projection-error bound may not apply",
                stacklevel=2,
            )

    @functools.cached_property
    def all_faces(self) -> tuple[Characteristics, np.ndarray]:
        """(chars, abs_wbn): the characteristics and (faces, points)
        |w beta.n| of every face's quadrature points, built on first request."""
        qpoints, wbn = self.table.quadrature(slice(None))
        return self.problem.characteristics(qpoints.reshape(-1, 2)), np.abs(wbn)

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

    def rhs(self, t: float | np.ndarray) -> np.ndarray:
        """The inflow-data term at time t, one value per `inflow_cells`
        entry; it is zero on every other cell.

        A 1-D array of times gives one row per time from one `g_from` call
        over (times, points) and one sparse product, with row k the bits of
        `rhs(t[k])`: the product adds the same terms in the same order per
        column.
        """
        data = self.problem.g_from(np.asarray(t, dtype=float)[..., None], self.inflow_chars)
        return (self.inflow_matrix @ data.T).T

    def step(self, u: PiecewiseConstantField, t: float, dt: float,
             inflow: np.ndarray | None = None) -> PiecewiseConstantField:
        """Explicit Euler u - dt A u + dt rhs(t): `step_S @ u` for the
        scheme's `dt`, u - dt (A u) for any other (a solve's short last
        step), plus dt rhs(t) on the inflow cells.  `inflow`, when given, is
        dt rhs(t) already evaluated, as `solve` has it for a block of steps."""
        out = self.step_S @ u if dt == self.dt else u - dt * (self.matrix @ u)
        out[self.inflow_cells] += dt * self.rhs(t) if inflow is None else inflow
        return out

    def l2_norm(self, u: PiecewiseConstantField) -> float | np.ndarray:
        """||u||_L2, one value per row for a block of fields."""
        return per_field(np.sqrt((np.square(u) * self.mesh.areas).sum(axis=-1)))

    def project_initial(self) -> PiecewiseConstantField:
        from .norms import l2_project

        return l2_project(self, self.problem.u0)

    def solve(self, observer=None) -> SolveResult:
        """March the fully discrete scheme from the projected initial data to
        the problem's t_final, T.

        Every step is `dt` except the final one, which is shortened to land
        on T exactly.  The observer, if given, is called as
        observer(k, t, u, dt) on every state k = 0..steps, with dt the step
        that leaves it (0.0 at T, where t is T exactly), and t and dt
        Python floats; a state it is handed is never written afterwards.

        The steps go in blocks of `_STEP_BLOCK`: one `rhs` call gives the
        inflow data of a block's times, row k is scaled by its step, and
        `step` takes the row, so every state has the bits of
        u = step(u, t, dt) step by step.
        """
        T = float(self.problem.t_final)
        u = self.project_initial()
        n_steps = max(1, math.ceil(T / self.dt - 1e-12)) if T > 0.0 else 0
        t = 0.0
        for start in range(0, n_steps, _STEP_BLOCK):
            times, steps = [], []
            for k in range(start, min(start + _STEP_BLOCK, n_steps)):
                dt_k = self.dt if k < n_steps - 1 else T - t
                times.append(t)
                steps.append(dt_k)
                t += dt_k
            inflow = self.rhs(np.array(times)) * np.array(steps)[:, None]
            for k, t_k, dt_k, inflow_k in zip(range(start, n_steps), times, steps, inflow):
                if observer is not None:
                    observer(k, t_k, u, dt_k)
                u = self.step(u, t_k, dt_k, inflow=inflow_k)
        if n_steps:
            t = T
        if observer is not None:
            observer(n_steps, t, u, 0.0)
        return SolveResult(u=u, steps=n_steps, t_final=t)
