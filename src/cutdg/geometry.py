"""Ramp cut-cell meshes: clip a Cartesian grid against a ramp half-plane.

The domain is the unit square with the region strictly below the ramp
line y = slope*(x - x0) removed for x > x0.  Every background cell is clipped
exactly; all positive-area cells are kept (no merging, arbitrarily small cut
cells survive), and each face is a grid edge or a piece of the ramp line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CELL_KINDS = ("cartesian", "cut3", "cut4", "cut5")

K_CARTESIAN, K_CUT3, K_CUT4, K_CUT5 = range(4)
F_INTERIOR, F_SQUARE, F_RAMP = range(3)


class InvalidConfig(ValueError):
    """A parameter violates its admissible range; `field` names the parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class DegenerateGeometry(InvalidConfig):
    """The ramp exits the square through an unsupported side; `field` is "gamma"."""


class InvalidStabilization(ValueError):
    """A stabilization candidate violates the flow assumptions."""


@dataclass(frozen=True)
class RampDomain:
    """Unit square with a ramp of angle `gamma` cut out, starting at (x0, 0).

    `slope` defaults to tan(gamma); tests may pin it exactly (tan(pi/4) != 1
    in floating point) since all geometry is built from the slope.  The ramp
    leaves through the right edge (up to 1e-12), or construction raises
    DegenerateGeometry, so `area` subtracts the exact removed triangle.
    """

    gamma: float
    x0: float
    slope: float | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5 * math.pi:
            degrees = float(f"{math.degrees(self.gamma):.15g}")  # no round-trip noise
            raise InvalidConfig("gamma", f"ramp angle must lie in (0, 90) degrees, got {degrees}")
        if not (0.0 <= self.x0 <= 1.0):
            raise InvalidConfig("x0", f"ramp start x0={self.x0} not on the bottom edge")
        if self.slope is None:
            object.__setattr__(self, "slope", math.tan(self.gamma))
        exit_y = self.slope * (1.0 - self.x0)
        if exit_y > 1.0 + 1e-12:
            raise DegenerateGeometry("gamma", f"ramp exits through the top (y={exit_y:.6g} at "
                                     "x=1.0); only bottom-to-right ramps are supported")

    def signed_distance(self, pts) -> np.ndarray:
        """Distance to the ramp line, positive on the retained side.

        Equals cos(g)*y - sin(g)*(x - x0) up to the normalization of slope.
        """
        p = np.asarray(pts, dtype=float)
        c = 1.0 / math.hypot(1.0, self.slope)
        return c * (p[..., 1] - self.slope * (p[..., 0] - self.x0))

    def area(self) -> float:
        """|Omega| = 1 - area of the removed triangle."""
        w = 1.0 - self.x0
        return 1.0 - 0.5 * self.slope * w * w


def _clip_squares(corners: np.ndarray, eta: np.ndarray, ramp: RampDomain):
    """Sutherland-Hodgman clip of m square cells against eta >= 0 at once.

    `corners` (m, 4, 2) run counter-clockwise and `eta` (m, 4) holds their
    snapped distances to the ramp line.  Edge k offers two slots: its
    crossing of the line, kept on a strict sign change, then its end corner,
    kept where eta >= 0.  Crossings are computed canonically from the line
    equation so adjacent cells produce bit-identical shared vertices.
    Returns (poly (m, 5, 2), on_line (m, 5), nv (m,), areas (m,)): the first
    nv[c] rows of poly[c] are the CCW polygon, on_line flags its vertices on
    the ramp line, and nv is 0 where no polygon of positive area remains.
    """
    q, eq = np.roll(corners, -1, axis=1), np.roll(eta, -1, axis=1)
    px, py = corners[..., 0], corners[..., 1]
    vertical = px == q[..., 0]
    crossing = np.stack([np.where(vertical, px, ramp.x0 + py / ramp.slope),
                         np.where(vertical, ramp.slope * (px - ramp.x0), py)], axis=-1)
    slots = np.stack([crossing, q], axis=2).reshape(-1, 8, 2)
    strict = (np.minimum(eta, eq) < 0.0) & (np.maximum(eta, eq) > 0.0)
    kept = np.stack([strict, eq >= 0.0], axis=2).reshape(-1, 8)
    flags = np.stack([np.ones_like(strict), eq == 0.0], axis=2).reshape(-1, 8)
    nv = np.count_nonzero(kept, axis=1)
    if np.any(nv > 5):
        raise AssertionError(f"half-plane clip of a square produced {nv.max()} vertices")
    order = np.argsort(~kept, axis=1, kind="stable")[:, :5]
    poly = np.take_along_axis(slots, order[..., None], axis=1)
    on_line = np.take_along_axis(flags, order, axis=1)
    # shoelace relative to vertex 0 (cancellation-safe for 1e-10 slivers), per
    # vertex count so each dot product sums the same terms as one cell's would
    areas = np.zeros(len(nv))
    for k in (3, 4, 5):
        rows = np.flatnonzero(nv == k)
        x = poly[rows, :k, 0] - poly[rows, :1, 0]
        y = poly[rows, :k, 1] - poly[rows, :1, 1]
        areas[rows] = 0.5 * (np.vecdot(x, np.roll(y, -1, axis=1))
                             - np.vecdot(y, np.roll(x, -1, axis=1)))
    nv[areas <= 0.0] = 0
    return poly, on_line, nv, areas


@dataclass(frozen=True, eq=False)
class CutCellMesh:
    """Immutable cut-cell mesh stored as flat arrays.

    Cells are numbered in background order (row j, then column i).  Cell c
    owns rows `cell_ptr[c]:cell_ptr[c + 1]` of `vertices`: 3 to 5 corners of
    a convex polygon, counter-clockwise.  `areas`, `kind_codes` (K_*) and
    `background` (the (i, j) grid index) hold one row per cell: K_CARTESIAN
    marks the grid squares the clip left whole, K_CUT3 to K_CUT5 the
    clipped cells by vertex count.

    Faces carry `f_endpoints` (F, 2, 2), `f_length`, `f_normal` (unit,
    outward for `f_left`), `f_left`, `f_right` (-1 on the boundary) and
    `f_kind` (F_*).  The cell-to-face map is a CSR on the same offsets as
    the vertices: the edge from vertex k to vertex k + 1 (cyclically) of a
    cell is face `edge_face[k]`, and `edge_sign[k]` is +1 when the face
    normal points out of that cell, -1 otherwise.  `f_on_ramp_line` (F, 2)
    flags the endpoints on the ramp line: the snapped grid corners and the
    line's crossings of the grid.

    A face is either a grid edge, shared by the cells on its two sides, or
    the piece of the ramp line inside one cut cell.  `build_mesh` asserts
    3 to 5 vertices per cell, edges longer than 1e-12 h, convex CCW polygons,
    at most two cells per face with matching endpoints, no interior face on
    the ramp, and that the cell areas partition the domain.  The mesh is
    never mutated and may be shared across threads.
    """

    domain: RampDomain
    n: int
    vertices: np.ndarray
    cell_ptr: np.ndarray
    areas: np.ndarray
    kind_codes: np.ndarray
    background: np.ndarray
    edge_face: np.ndarray
    edge_sign: np.ndarray
    f_endpoints: np.ndarray
    f_length: np.ndarray
    f_normal: np.ndarray
    f_left: np.ndarray
    f_right: np.ndarray
    f_kind: np.ndarray
    f_on_ramp_line: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def n_cells(self) -> int:
        return len(self.areas)

    @property
    def n_faces(self) -> int:
        return len(self.f_length)

    def total_area(self) -> float:
        return float(self.areas.sum())


def build_mesh(ramp: RampDomain, n: int) -> CutCellMesh:
    """Clip an n x n background grid against the ramp and assemble faces.

    Cells above the ramp line are copied from the grid; the O(n) cells that
    straddle it are clipped together in one array pass.  Raises ValueError
    for n < 4.
    """
    if n < 4:
        raise ValueError(f"need at least 4 cells per side, got n={n}")
    h = 1.0 / n
    eps = 1e-12 * h
    xs = ys = np.arange(n + 1) / n

    # corner distances to the ramp line, snapped to zero within eps; eta[j, i]
    # belongs to the grid node (xs[i], ys[j])
    nodes = np.empty((n + 1, n + 1, 2))
    nodes[..., 0], nodes[..., 1] = xs, ys[:, None]
    eta = ramp.signed_distance(nodes)
    eta[np.abs(eta) <= eps] = 0.0
    del nodes

    # background cell (i, j), numbered j n + i, has corners (i, j), (i+1, j),
    # (i+1, j+1), (i, j+1); one array per corner, one entry per cell
    corner_eta = [e.ravel() for e in (eta[:-1, :-1], eta[:-1, 1:], eta[1:, 1:], eta[1:, :-1])]
    del eta
    live = np.flatnonzero(np.logical_or.reduce([e > 0.0 for e in corner_eta]))
    corner_eta = [e[live] for e in corner_eta]
    bj, bi = np.divmod(live, n)
    nv = np.full(len(live), 4)
    areas = np.diff(xs)[bi] * np.diff(ys)[bj]
    # the O(n) cells that straddle the ramp line are clipped in one array pass
    cut = np.flatnonzero(np.logical_or.reduce([e < 0.0 for e in corner_eta]))
    corners = np.stack([xs[bi[cut, None] + [0, 1, 1, 0]], ys[bj[cut, None] + [0, 0, 1, 1]]], axis=-1)
    poly, cut_on_line, nv[cut], areas[cut] = _clip_squares(
        corners, np.stack([e[cut] for e in corner_eta], axis=1), ramp)
    keep = nv > 0
    bi, bj, nv, areas = bi[keep], bj[keep], nv[keep], areas[keep]
    clipped = nv[cut] > 0
    poly, cut_on_line = poly[clipped], cut_on_line[clipped]
    cut = np.cumsum(keep)[cut[clipped]] - 1  # the clipped cells' new ids
    square = np.ones(len(nv), dtype=bool)
    square[cut] = False
    cell_ptr = np.concatenate([[0], np.cumsum(nv)])
    kind_codes = np.select([square, nv == 3, nv == 4], [K_CARTESIAN, K_CUT3, K_CUT4],
                           K_CUT5).astype(np.int8)

    # Vertices, one column per coordinate.  Edge e runs from vertex e to the
    # next vertex of its cell and is keyed by its grid edge: vertical edge
    # (p, j) on x = xs[p] gets p n + j, horizontal edge (q, i) on y = ys[q]
    # gets n (n+1) + q n + i, and each ramp edge a key of its own.  A square
    # has edges bottom, right, top, left, so its vertices and keys follow
    # from (i, j); only the clipped cells' edges are compared with the grid
    # lines (shared vertices are canonical, so exact comparison is safe).
    # Each per-edge array is dropped after its last read: at n = 256 every
    # one is about 1.8 MB, and together they set the build's peak memory.
    n_edges = cell_ptr[-1]
    vx, vy = np.empty(n_edges), np.empty(n_edges)
    on_line = np.empty(n_edges, dtype=bool)
    key = np.empty(n_edges, dtype=np.int64)
    i, j = bi[square], bj[square]
    at = cell_ptr[:-1][square]
    square_keys = (n * (n + 1) + j * n + i, (i + 1) * n + j, n * (n + 1) + (j + 1) * n + i, i * n + j)
    for k, (di, dj) in enumerate(((0, 0), (1, 0), (1, 1), (0, 1))):
        vx[at + k] = xs[i + di]
        vy[at + k] = ys[j + dj]
        on_line[at + k] = corner_eta[k][keep][square] == 0.0
        key[at + k] = square_keys[k]
    del i, j, at, square_keys, corner_eta, square
    slot = np.arange(5) < nv[cut, None]
    clipped_edges = (cell_ptr[cut, None] + np.arange(5))[slot]
    vx[clipped_edges], vy[clipped_edges] = poly[slot, 0], poly[slot, 1]
    on_line[clipped_edges] = cut_on_line[slot]
    del poly, cut_on_line

    cell = np.repeat(np.arange(len(nv)), nv)
    nxt = np.arange(1, n_edges + 1)
    nxt[cell_ptr[1:] - 1] = cell_ptr[:-1]
    wx, wy = vx[nxt], vy[nxt]
    dx, dy = wx - vx, wy - vy
    short = (np.abs(dx) <= eps) & (np.abs(dy) <= eps)
    if np.any(short):
        c = cell[np.argmax(short)]
        raise AssertionError(f"cell ({bi[c]},{bj[c]}) has an edge no longer than {eps:.3e}")
    del short
    cross = dx * dy[nxt] - dy * dx[nxt]
    if np.any(cross < -eps * h):
        c = cell[np.argmax(cross < -eps * h)]
        raise AssertionError(f"cell ({bi[c]},{bj[c]}) polygon is not convex CCW")
    del cross
    next_on_line = on_line[nxt]
    on_ramp = on_line & next_on_line
    del nxt

    e = clipped_edges
    i, j = bi[cell[e]], bj[cell[e]]
    clipped_keys = np.full(len(e), -1)
    for k in (0, 1):
        x, y = xs[i + k], ys[j + k]
        clipped_keys = np.where((vx[e] == x) & (wx[e] == x), (i + k) * n + j, clipped_keys)
        clipped_keys = np.where((vy[e] == y) & (wy[e] == y), n * (n + 1) + (j + k) * n + i, clipped_keys)
    key[e] = clipped_keys
    loose = e[clipped_keys < 0]
    if not np.all(on_ramp[loose]):
        raise AssertionError("a cell edge lies neither on a grid line nor on the ramp")
    key[loose] = 2 * n * (n + 1) + np.arange(len(loose))

    # faces are numbered by first appearance; that edge owns the face and its
    # orientation sets the normal, so f_left is the lower cell id.  The first
    # edge of each key is a minimum, found without a sort.
    edges = np.arange(n_edges)
    first = np.full(2 * n * (n + 1) + len(loose), n_edges)
    np.minimum.at(first, key, edges)
    first = first[key]
    del key
    owns = first == edges
    del edges
    edge_face = (np.cumsum(owns) - 1)[first]
    del first
    owner = np.flatnonzero(owns)
    edge_sign = np.where(owns, np.int8(1), np.int8(-1))
    if np.bincount(edge_face).max() > 2:
        raise AssertionError("face shared by more than two cells")
    other = np.full(len(owner), -1)
    other[edge_face[~owns]] = np.flatnonzero(~owns)
    del owns
    shared = other >= 0
    o, p = owner[shared], other[shared]
    if np.any(on_ramp[o] | on_ramp[p]):
        raise AssertionError("interior face tagged as ramp")
    if (np.any(vx[p] != wx[o]) or np.any(vy[p] != wy[o])
            or np.any(wx[p] != vx[o]) or np.any(wy[p] != vy[o])):
        raise AssertionError("the two cells of a face disagree on its endpoints")
    del o, p
    f_left, f_right = cell[owner], np.where(shared, cell[other], -1)
    f_kind = np.select([shared, on_ramp[owner]], [F_INTERIOR, F_RAMP], F_SQUARE).astype(np.int8)
    del cell, on_ramp, other, shared

    fdx, fdy = dx[owner], dy[owner]
    del dx, dy
    f_endpoints = np.column_stack([vx[owner], vy[owner], wx[owner], wy[owner]]).reshape(-1, 2, 2)
    del wx, wy
    f_on_ramp_line = np.column_stack([on_line[owner], next_on_line[owner]])
    del on_line, next_on_line
    f_length = np.hypot(fdx, fdy)
    mesh = CutCellMesh(
        domain=ramp,
        n=n,
        vertices=np.column_stack([vx, vy]),
        cell_ptr=cell_ptr,
        areas=areas,
        kind_codes=kind_codes,
        background=np.column_stack([bi, bj]),
        edge_face=edge_face,
        edge_sign=edge_sign,
        f_endpoints=f_endpoints,
        f_length=f_length,
        f_normal=np.column_stack([fdy / f_length, -fdx / f_length]),
        f_left=f_left,
        f_right=f_right,
        f_kind=f_kind,
        f_on_ramp_line=f_on_ramp_line,
    )
    rel_gap = abs(mesh.total_area() - ramp.area()) / ramp.area()
    if rel_gap > 1e-12:
        raise AssertionError(f"mesh does not partition the domain (relative gap {rel_gap:.3e})")
    return mesh


@dataclass(frozen=True, eq=False)
class StabilizedCells:
    """The DoD-stabilized triangular cut cells, one row per cell.

    `cells` are ascending cell ids; for each, `e_in`/`e_out` are its inflow
    and outflow legs (interior faces), `E_in`/`E_out` the cells across them,
    and `alpha` its capacity in (0, 1].
    """

    cells: np.ndarray
    e_in: np.ndarray
    e_out: np.ndarray
    E_in: np.ndarray
    E_out: np.ndarray
    alpha: np.ndarray

    def __len__(self) -> int:
        return len(self.cells)


def identify_stabilized(mesh: CutCellMesh, table, tau: float) -> StabilizedCells:
    """Select triangular cut cells with max(|e_in|, |e_out|) strictly < h/2.

    `table` provides per-face integrals flux_in (w.r.t. the stored normal)
    and abs_flux; the capacity is alpha = min(|E| / (tau h int_{e_in}|b.n|), 1).
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"capacity parameter tau must be finite and positive, got {tau}")
    cut3 = np.nonzero(mesh.kind_codes == K_CUT3)[0]
    edges = mesh.cell_ptr[cut3][:, None] + np.arange(3)
    fids, signs = mesh.edge_face[edges], mesh.edge_sign[edges]
    on_ramp = mesh.f_kind[fids] == F_RAMP
    bad = np.count_nonzero(on_ramp, axis=1) != 1
    if np.any(bad):
        raise AssertionError(
            f"cut3 cell {cut3[np.argmax(bad)]} does not have two legs and a ramp face"
        )
    # the two legs of each triangle, in edge order
    fids, signs = fids[~on_ramp].reshape(-1, 2), signs[~on_ramp].reshape(-1, 2)
    small = mesh.f_length[fids].max(axis=1) < 0.5 * mesh.h
    cells, fids, signs = cut3[small], fids[small], signs[small]

    signed = table.flux_in[fids] * signs
    ins, outs = signed < 0.0, signed > 0.0
    bad = (np.count_nonzero(ins, axis=1) != 1) | (np.count_nonzero(outs, axis=1) != 1)
    if np.any(bad):
        raise InvalidStabilization(
            f"cell {cells[np.argmax(bad)]}: legs are not one inflow / one outflow face"
        )
    e_in, e_out = fids[ins], fids[outs]
    bad = (mesh.f_right[e_in] < 0) | (mesh.f_right[e_out] < 0)
    if np.any(bad):
        raise InvalidStabilization(
            f"cell {cells[np.argmax(bad)]}: stabilized in/out face touches the physical boundary"
        )
    bad = table.abs_flux[e_in] <= 0.0
    if np.any(bad):
        raise InvalidStabilization(
            f"cell {cells[np.argmax(bad)]}: velocity flux vanishes on the inflow face"
        )
    alpha = np.minimum(mesh.areas[cells] / (tau * mesh.h * table.abs_flux[e_in]), 1.0)
    across = lambda f: np.where(mesh.f_right[f] == cells, mesh.f_left[f], mesh.f_right[f])
    st = StabilizedCells(cells, e_in, e_out, across(e_in), across(e_out), alpha)

    bad = np.isin(st.E_in, cells) | np.isin(st.E_out, cells)
    if np.any(bad):
        raise InvalidStabilization(
            f"cell {cells[np.argmax(bad)]}: in/out neighbor is itself stabilized"
        )
    faces = np.stack([e_in, e_out], axis=1).ravel()
    repeat = np.ones(len(faces), dtype=bool)
    repeat[np.unique(faces, return_index=True)[1]] = False
    if np.any(repeat):
        raise InvalidStabilization(
            f"face {faces[np.argmax(repeat)]} shared by two stabilized records"
        )
    return st
