"""DoD-stabilized upwind operator for piecewise constants and time stepping.

Discrete fields are plain numpy arrays with one value per cell (the space of
piecewise constants).  Functions in the extended space (smooth + discrete)
are passed as (smooth, discrete) parts; all face couplings reduce to the
|beta.n|-weighted mean of the trace per face and side, so assembly is a
handful of vectorized gathers over the face arrays.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .geometry import F_RAMP, CutCellMesh, StabilizedCells, build_mesh, identify_stabilized
from .field import RampTestProblem
from .quadrature import CellQuadratureTable, QuadratureConfig, SegmentRule, TriangleRule

#: one scalar per cell, indexed by cell id
PiecewiseConstantField = np.ndarray


class InvalidConfig(ValueError):
    """Scheme configuration violates its admissible ranges."""


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme parameters: capacity factor tau, CFL selection, quadrature.

    `cfl_kappa`, when set, overrides the stability constant
    kappa = (1 - 2 eps) / ((1 + eps) max(4 |beta|_inf, 1/tau)).
    """

    tau: float = 1.0
    epsilon: float = 0.25
    cfl_kappa: float | None = None
    quad: QuadratureConfig = dc_field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise InvalidConfig(f"tau must be finite and positive, got {self.tau}")
        if self.cfl_kappa is not None:
            if not 0.0 < self.cfl_kappa < math.inf:
                raise InvalidConfig(f"cfl_kappa must be finite and positive, got {self.cfl_kappa}")
        elif not 0.0 < self.epsilon < 0.5:
            raise InvalidConfig(f"epsilon must lie in (0, 1/2), got {self.epsilon}")


@dataclass
class FaceIntegralTable:
    """Per-face integrals of beta.n plus cached face quadrature data.

    flux_in  : int_e beta.n ds with n the stored face normal
    abs_flux : int_e |beta.n| ds
    upwind   : cell id the upwind trace is taken from; -1 on inflow boundary
               faces (the upwind trace extension is zero there), -2 on
               no-flow faces
    qpoints/qweights/bn : quadrature nodes, physical ds-weights, and beta.n
               values (w.r.t. the stored normal) used for all face means

    Ramp faces are forced to exactly zero flux after asserting that the
    field is tangent there; on sliver cells even O(1e-17) spurious normal
    flux is fatal once divided by the cell area.
    """

    flux_in: np.ndarray
    abs_flux: np.ndarray
    upwind: np.ndarray
    qpoints: np.ndarray
    qweights: np.ndarray
    bn: np.ndarray


def build_face_table(mesh: CutCellMesh, velocity, rule: SegmentRule | None = None) -> FaceIntegralTable:
    if rule is None:
        rule = SegmentRule.gauss()
    a = mesh.f_endpoints[:, 0, :]
    b = mesh.f_endpoints[:, 1, :]
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    w = rule.weights[None, :] * mesh.f_length[:, None]
    beta = velocity.evaluate(pts.reshape(-1, 2)).reshape(pts.shape)
    bn = np.einsum("fqd,fd->fq", beta, mesh.f_normal)

    binf = max(velocity.inf_norm, 1e-300)
    ramp = mesh.f_kind == F_RAMP
    if np.any(ramp):
        worst = float(np.abs((w * bn)[ramp].sum(axis=1)).max())
        if worst > 1e-10 * mesh.h * binf:
            raise ValueError(
                f"velocity is not tangent to the ramp: max face flux {worst:.3e}"
            )
        bn[ramp] = 0.0

    # beta.n must not change sign along a face (no-flow faces are allowed)
    peak = np.abs(bn).max(axis=1)
    noflow = peak <= 1e-14 * binf
    bn[noflow] = 0.0
    mixed = ~noflow & (bn.min(axis=1) < -1e-12 * peak) & (bn.max(axis=1) > 1e-12 * peak)
    if np.any(mixed):
        raise ValueError(
            f"beta.n changes sign on {int(mixed.sum())} face(s); refine or split faces"
        )

    flux = (w * bn).sum(axis=1)
    absflux = (w * np.abs(bn)).sum(axis=1)
    flux[noflow | ramp] = 0.0
    absflux[noflow | ramp] = 0.0

    left, right = mesh.f_left, mesh.f_right
    upwind = np.full(mesh.n_faces, -2, dtype=np.int64)
    pos = flux > 0.0
    neg = flux < 0.0
    upwind[pos] = left[pos]
    upwind[neg] = np.where(right[neg] >= 0, right[neg], -1)
    return FaceIntegralTable(flux, absflux, upwind, pts, w, bn)


def split_parts(v):
    """Normalize a V*-element into (smooth callable | None, cell array | None).

    Accepts a discrete array, a smooth callable, or a (smooth, discrete)
    pair understood additively.
    """
    if isinstance(v, tuple):
        smooth, disc = v
    elif callable(v):
        smooth, disc = v, None
    else:
        smooth, disc = None, np.asarray(v, dtype=float)
    if disc is not None:
        disc = np.asarray(disc, dtype=float)
    return smooth, disc


def face_side_means(mesh: CutCellMesh, table: FaceIntegralTable, v) -> np.ndarray:
    """beta-weighted means of the traces of v, per face and side.

    Column 0 is the trace from f_left, column 1 from f_right (for the
    smooth part the trace is single-valued, so boundary faces carry it in
    both columns).  Zero-flux faces get mean 0; they never enter any form.
    """
    smooth, disc = split_parts(v)
    m = np.zeros((mesh.n_faces, 2))
    if smooth is not None:
        vals = np.asarray(smooth(table.qpoints.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(table.bn.shape)
        num = (table.qweights * np.abs(table.bn) * vals).sum(axis=1)
        means = np.divide(num, table.abs_flux, out=np.zeros_like(num), where=table.abs_flux > 0.0)
        m += means[:, None]
    if disc is not None:
        m[:, 0] += disc[mesh.f_left]
        has_r = mesh.f_right >= 0
        m[has_r, 1] += disc[mesh.f_right[has_r]]
    return m


def _upwind_values(mesh, table, means) -> np.ndarray:
    """Per-face upwind trace mean; zero on inflow-boundary and no-flow faces."""
    up = np.where(table.flux_in > 0.0, means[:, 0], means[:, 1])
    # inflow boundary (-1): extension by 0; no-flow faces (-2)
    up[table.upwind < 0] = 0.0
    return up


def _test_jump(mesh, w_h) -> np.ndarray:
    """int_e beta.[w] = flux_in * jump, with the one-sided boundary jump."""
    w = np.asarray(w_h, dtype=float)
    jump = w[mesh.f_left].copy()
    has_r = mesh.f_right >= 0
    jump[has_r] -= w[mesh.f_right[has_r]]
    return jump


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
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return mat.tocsr()


def bilinear_a_dod(mesh, table, st: StabilizedCells, v, w_h) -> float:
    """a_dod(v, w_h): upwind sum over non-stabilized-outflow faces plus the
    capacity-blended flux alpha*v_E + (1-alpha)*v_in on each e_out."""
    means = face_side_means(mesh, table, v)
    up = _upwind_values(mesh, table, means)
    v_e = up[st.e_out]  # trace from the stabilized cell (upwind on e_out)
    v_in = up[st.e_in]  # trace from the inflow neighbor (upwind on e_in)
    up[st.e_out] = st.alpha * v_e + (1.0 - st.alpha) * v_in
    return float(np.dot(up * table.flux_in, _test_jump(mesh, w_h)))


def bilinear_upwind(mesh, table, v, w_h) -> float:
    """Unstabilized upwind form in centered-plus-penalty shape.

    Interior faces: int {v} beta.[w] + 1/2 |beta.n| [v].[w]; boundary faces:
    int (beta.n)^+ v w.  Independent algebra from `bilinear_a_dod`, used to
    cross-check a_dod = upwind + J.
    """
    means = face_side_means(mesh, table, v)
    wjump = _test_jump(mesh, w_h)
    interior = mesh.f_right >= 0
    avg = 0.5 * (means[:, 0] + means[:, 1])
    vjump = means[:, 0] - means[:, 1]
    total = float(
        np.dot(
            (table.flux_in * avg + 0.5 * table.abs_flux * vjump)[interior],
            wjump[interior],
        )
    )
    bdy = ~interior
    pos_flux = np.maximum(table.flux_in[bdy], 0.0)
    w = np.asarray(w_h, dtype=float)
    total += float(np.dot(pos_flux * means[bdy, 0], w[mesh.f_left[bdy]]))
    return total


def bilinear_J(mesh, table, st: StabilizedCells, v, w_h) -> float:
    """Stabilization sum_E (1-alpha) int_{e_out} (v_in - v_E) beta.[w]."""
    if not len(st):
        return 0.0
    means = face_side_means(mesh, table, v)
    up = _upwind_values(mesh, table, means)
    wjump = _test_jump(mesh, w_h)
    eta = 1.0 - st.alpha
    return float(
        np.dot(eta * (up[st.e_in] - up[st.e_out]), table.flux_in[st.e_out] * wjump[st.e_out])
    )


def rhs_inflow(mesh, table, g, t: float) -> PiecewiseConstantField:
    """Inflow-data contribution to the update, -|F|^-1 int min(beta.n, 0) g.

    Nonnegative for nonnegative g; the step adds dt times this, so constant
    data g = c exactly balances the boundary part of the operator.
    """
    out = np.zeros(mesh.n_cells)
    inflow = np.nonzero((mesh.f_right < 0) & (table.flux_in < 0.0))[0]
    if len(inflow) == 0:
        return out
    pts = table.qpoints[inflow]
    gv = np.asarray(g(t, pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    contrib = -(table.qweights[inflow] * table.bn[inflow] * gv).sum(axis=1)
    np.add.at(out, mesh.f_left[inflow], contrib)
    return out / mesh.areas


def cfl_dt(mesh: CutCellMesh, velocity, config: SchemeConfig) -> float:
    """dt = kappa h, with kappa from the stability constant or an override."""
    if config.cfl_kappa is not None:
        return config.cfl_kappa * mesh.h
    eps = config.epsilon
    c_tr = max(4.0 * velocity.inf_norm, 1.0 / config.tau)
    kappa = (1.0 - 2.0 * eps) / ((1.0 + eps) * c_tr)
    return kappa * mesh.h


def estimate_cb(mesh, st: StabilizedCells, velocity) -> float:
    """Sampled min of |beta.n| over in/outflow faces of stabilized cells,
    1000 equispaced samples per face."""
    if not len(st):
        return math.inf
    fids = np.concatenate([st.e_in, st.e_out])
    a = mesh.f_endpoints[fids, 0, :]
    b = mesh.f_endpoints[fids, 1, :]
    s = np.linspace(0.0, 1.0, 1000)
    pts = a[:, None, :] + s[None, :, None] * (b - a)[:, None, :]
    beta = velocity.evaluate(pts.reshape(-1, 2)).reshape(pts.shape)
    bn = np.einsum("fqd,fd->fq", beta, mesh.f_normal[fids])
    return float(np.abs(bn).min())


@dataclass
class SolveResult:
    u: PiecewiseConstantField
    steps: int
    dt_nominal: float
    t_final: float


class DoDScheme:
    """Assembled discretization for one problem/mesh pair.

    Bundles the mesh, face table, stabilized-cell table `records`, operator
    matrix and quadrature caches; everything is built once and treated as
    immutable, so a scheme can be shared by solves, norms, and verification
    checks.
    """

    def __init__(self, problem: RampTestProblem, config: SchemeConfig, n: int):
        self.problem = problem
        self.config = config
        self.mesh = build_mesh(problem.ramp, n)
        self.n = n
        self.face_rule = SegmentRule.gauss(config.quad.face_order)
        self.cell_rule = TriangleRule.of_degree(config.quad.cell_degree)
        self.table = build_face_table(self.mesh, problem.velocity, self.face_rule)
        self.records = identify_stabilized(self.mesh, self.table, config.tau)
        self.matrix = assemble_dod_matrix(self.mesh, self.table, self.records)
        self.cellquad = CellQuadratureTable(self.mesh, self.cell_rule)
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
        return max(4.0 * self.velocity.inf_norm, 1.0 / self.config.tau)

    def apply(self, v: PiecewiseConstantField) -> PiecewiseConstantField:
        return self.matrix @ np.asarray(v, dtype=float)

    def rhs(self, t: float) -> PiecewiseConstantField:
        if self.problem.zero_inflow:
            return np.zeros(self.mesh.n_cells)
        return rhs_inflow(self.mesh, self.table, self.problem.g, t)

    def cfl_dt(self) -> float:
        return cfl_dt(self.mesh, self.velocity, self.config)

    def step(self, u: PiecewiseConstantField, t: float, dt: float) -> PiecewiseConstantField:
        """Explicit Euler: u - dt*(A u) + dt*(inflow contribution)."""
        return u - dt * self.apply(u) + dt * self.rhs(t)

    def l2_norm(self, u: PiecewiseConstantField) -> float:
        return math.sqrt(float(np.dot(self.mesh.areas, np.square(u))))

    def project_initial(self) -> PiecewiseConstantField:
        from .norms import l2_project

        return l2_project(self.mesh, self.problem.u0, self.cellquad)

    def solve(
        self,
        dt: float | None = None,
        t_final: float | None = None,
        observer=None,
    ) -> SolveResult:
        """March the fully discrete scheme from the projected initial data to T.

        Only the final step is shortened to land on T exactly; `dt_nominal`
        in the result is the unshortened step used by order studies.  The
        observer, if given, is called as observer(k, t, u, dt) on every state
        k = 0..steps, with dt the step that leaves it (0.0 at T, where t is
        T exactly).
        """
        T = self.problem.t_final if t_final is None else t_final
        dt_nom = self.cfl_dt() if dt is None else dt
        if dt_nom > self.cfl_dt() * (1.0 + 1e-12):
            warnings.warn(f"dt={dt_nom:.3e} exceeds the configured bound {self.cfl_dt():.3e}",
                          stacklevel=2)
        u = self.project_initial()
        n_steps = max(1, math.ceil(T / dt_nom - 1e-12)) if T > 0.0 else 0
        t = 0.0
        for k in range(n_steps):
            dt_k = dt_nom if k < n_steps - 1 else T - t
            if observer is not None:
                observer(k, t, u, dt_k)
            u = self.step(u, t, dt_k)
            t += dt_k
        if n_steps:
            t = T
        if observer is not None:
            observer(n_steps, t, u, 0.0)
        return SolveResult(u=u, steps=n_steps, dt_nominal=dt_nom, t_final=t)

