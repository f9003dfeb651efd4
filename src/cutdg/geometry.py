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


class DegenerateGeometry(ValueError):
    """The ramp exits the square through an unsupported side."""


class InvalidStabilization(ValueError):
    """A stabilization candidate violates the flow assumptions."""


@dataclass(frozen=True)
class RampDomain:
    """Unit square with a ramp of angle `gamma` cut out, starting at (x0, 0).

    `slope` defaults to tan(gamma); tests may pin it exactly (tan(pi/4) != 1
    in floating point) since all geometry is built from the slope.
    """

    gamma: float
    x0: float
    slope: float | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5 * math.pi:
            raise ValueError(f"ramp angle must lie in (0, pi/2), got {self.gamma}")
        if not (0.0 <= self.x0 <= 1.0):
            raise ValueError(f"ramp start x0={self.x0} not on the bottom edge")
        if self.slope is None:
            object.__setattr__(self, "slope", math.tan(self.gamma))

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
    `background` (the (i, j) grid index) hold one row per cell.

    Faces carry `f_endpoints` (F, 2, 2), `f_length`, `f_normal` (unit,
    outward for `f_left`), `f_left`, `f_right` (-1 on the boundary) and
    `f_kind` (F_*).  The cell-to-face map is a CSR on the same offsets as
    the vertices: the edge from vertex k to vertex k + 1 (cyclically) of a
    cell is face `edge_face[k]`, and `edge_sign[k]` is +1 when the face
    normal points out of that cell, -1 otherwise.

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

    def cell_vertices(self, c: int) -> np.ndarray:
        """The (k, 2) counter-clockwise corners of cell c."""
        return self.vertices[self.cell_ptr[c]:self.cell_ptr[c + 1]]


def build_mesh(ramp: RampDomain, n: int) -> CutCellMesh:
    """Clip an n x n background grid against the ramp and assemble faces.

    Cells above the ramp line are copied from the grid; the O(n) cells that
    straddle it are clipped together in one array pass.  Raises
    DegenerateGeometry if the ramp does not exit through the right edge of
    the square, and ValueError for n < 4.
    """
    if n < 4:
        raise ValueError(f"need at least 4 cells per side, got n={n}")
    exit_y = ramp.slope * (1.0 - ramp.x0)
    if exit_y > 1.0 + 1e-12:
        raise DegenerateGeometry(
            f"ramp exits through the top (y={exit_y:.6g} at x=1.0); "
            "only bottom-to-right ramps are supported"
        )
    h = 1.0 / n
    eps = 1e-12 * h
    xs = ys = np.arange(n + 1) / n

    # corner distances to the ramp line, snapped to zero within eps
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    eta = ramp.signed_distance(np.stack([gx, gy], axis=-1))
    eta[np.abs(eta) <= eps] = 0.0

    # background cell (i, j) has corners (i, j), (i+1, j), (i+1, j+1), (i, j+1)
    bj, bi = np.divmod(np.arange(n * n), n)
    corner_eta = eta[bi[:, None] + [0, 1, 1, 0], bj[:, None] + [0, 0, 1, 1]]
    live = corner_eta.max(axis=1) > 0.0
    bi, bj, corner_eta = bi[live], bj[live], corner_eta[live]
    # up to five corners per cell: the square, or its clip for the O(n)
    # cells that straddle the ramp line
    poly = np.zeros((len(bi), 5, 2))
    poly[:, :4, 0] = xs[bi[:, None] + [0, 1, 1, 0]]
    poly[:, :4, 1] = ys[bj[:, None] + [0, 0, 1, 1]]
    on_line = np.zeros((len(bi), 5), dtype=bool)
    on_line[:, :4] = corner_eta == 0.0
    nv = np.full(len(bi), 4)
    areas = np.diff(xs)[bi] * np.diff(ys)[bj]
    cut = np.flatnonzero(corner_eta.min(axis=1) < 0.0)
    poly[cut], on_line[cut], nv[cut], areas[cut] = _clip_squares(poly[cut, :4], corner_eta[cut], ramp)
    keep = nv > 0
    bi, bj, nv, areas = bi[keep], bj[keep], nv[keep], areas[keep]
    slot = np.arange(5) < nv[:, None]
    vertices, on_line = poly[keep][slot], on_line[keep][slot]
    cell_ptr = np.concatenate([[0], np.cumsum(nv)])
    kind_codes = np.select(
        [nv == 3, nv == 5, np.abs(areas - h * h) <= 1e-12 * h * h],
        [K_CUT3, K_CUT5, K_CARTESIAN],
        K_CUT4,
    ).astype(np.int8)

    # edge e runs from vertex e to the next vertex of its cell
    cell = np.repeat(np.arange(len(nv)), nv)
    nxt = np.arange(1, len(cell) + 1)
    nxt[cell_ptr[1:] - 1] = cell_ptr[:-1]
    a, b = vertices, vertices[nxt]
    d = b - a
    short = np.abs(d).max(axis=1) <= eps
    if np.any(short):
        c = cell[np.argmax(short)]
        raise AssertionError(f"cell ({bi[c]},{bj[c]}) has an edge no longer than {eps:.3e}")
    cross = d[:, 0] * d[nxt, 1] - d[:, 1] * d[nxt, 0]
    if np.any(cross < -eps * h):
        c = cell[np.argmax(cross < -eps * h)]
        raise AssertionError(f"cell ({bi[c]},{bj[c]}) polygon is not convex CCW")
    on_ramp = on_line & on_line[nxt]

    # Face identity.  An edge on a grid line is keyed by that grid edge: shared
    # vertices are canonical, so exact comparison with xs/ys is safe.  Vertical
    # edge (p, j) on x = xs[p] gets p*n + j, horizontal edge (q, i) on y = ys[q]
    # gets n*(n+1) + q*n + i, and each ramp edge a key of its own.
    i, j = bi[cell], bj[cell]
    key = np.full(len(cell), -1)
    for k in (0, 1):
        x, y = xs[i + k], ys[j + k]
        key = np.where((a[:, 0] == x) & (b[:, 0] == x), (i + k) * n + j, key)
        key = np.where((a[:, 1] == y) & (b[:, 1] == y), n * (n + 1) + (j + k) * n + i, key)
    loose = np.nonzero(key < 0)[0]
    if not np.all(on_ramp[loose]):
        raise AssertionError("a cell edge lies neither on a grid line nor on the ramp")
    key[loose] = 2 * n * (n + 1) + loose

    # faces are numbered by first appearance; that edge owns the face and its
    # orientation sets the normal, so f_left is the lower cell id
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    edge_face = np.argsort(np.argsort(first))[group]
    owner = np.sort(first)
    edge_sign = np.where(owner[edge_face] == np.arange(len(cell)), 1, -1).astype(np.int8)
    if np.bincount(edge_face).max() > 2:
        raise AssertionError("face shared by more than two cells")
    other = np.full(len(owner), -1)
    other[edge_face[edge_sign < 0]] = np.nonzero(edge_sign < 0)[0]
    shared = other >= 0
    o, p = owner[shared], other[shared]
    if np.any(on_ramp[o] | on_ramp[p]):
        raise AssertionError("interior face tagged as ramp")
    if np.any(a[p] != b[o]) or np.any(b[p] != a[o]):
        raise AssertionError("the two cells of a face disagree on its endpoints")

    f_d = d[owner]
    f_length = np.hypot(f_d[:, 0], f_d[:, 1])
    mesh = CutCellMesh(
        domain=ramp,
        n=n,
        vertices=vertices,
        cell_ptr=cell_ptr,
        areas=areas,
        kind_codes=kind_codes,
        background=np.stack([bi, bj], axis=1),
        edge_face=edge_face,
        edge_sign=edge_sign,
        f_endpoints=np.stack([a[owner], b[owner]], axis=1),
        f_length=f_length,
        f_normal=np.stack([f_d[:, 1], -f_d[:, 0]], axis=1) / f_length[:, None],
        f_left=cell[owner],
        f_right=np.where(shared, cell[other], -1),
        f_kind=np.select([shared, on_ramp[owner]], [F_INTERIOR, F_RAMP], F_SQUARE).astype(np.int8),
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
