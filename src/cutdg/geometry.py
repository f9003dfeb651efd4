"""Ramp cut-cell meshes: clip a Cartesian grid against a ramp half-plane.

The domain is an axis-aligned square with the region strictly below the ramp
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
    """Square domain with a ramp of angle `gamma` cut out, starting at (x0, 0).

    `slope` defaults to tan(gamma); tests may pin it exactly (tan(pi/4) != 1
    in floating point) since all geometry is built from the slope.
    """

    gamma: float
    x0: float
    square: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (1.0, 1.0))
    slope: float | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5 * math.pi:
            raise ValueError(f"ramp angle must lie in (0, pi/2), got {self.gamma}")
        (xlo, ylo), (xhi, yhi) = self.square
        if not (xlo <= self.x0 <= xhi):
            raise ValueError(f"ramp start x0={self.x0} not on the bottom edge")
        if self.slope is None:
            object.__setattr__(self, "slope", math.tan(self.gamma))

    @property
    def side(self) -> float:
        return self.square[1][0] - self.square[0][0]

    def line_y(self, x):
        """Height of the ramp line at abscissa x."""
        return self.slope * (np.asarray(x) - self.x0)

    def signed_distance(self, pts) -> np.ndarray:
        """Distance to the ramp line, positive on the retained side.

        Equals cos(g)*y - sin(g)*(x - x0) up to the normalization of slope.
        """
        p = np.asarray(pts, dtype=float)
        c = 1.0 / math.hypot(1.0, self.slope)
        return c * (p[..., 1] - self.slope * (p[..., 0] - self.x0))

    def area(self) -> float:
        """|Omega| = |square| - area of the removed triangle."""
        (xlo, ylo), (xhi, yhi) = self.square
        w = xhi - self.x0
        return (xhi - xlo) * (yhi - ylo) - 0.5 * self.slope * w * w

    def tangent(self) -> np.ndarray:
        t = np.array([1.0, self.slope])
        return t / np.linalg.norm(t)

    def ramp_normal(self) -> np.ndarray:
        """Unit normal of the ramp line pointing into the retained domain."""
        n = np.array([-self.slope, 1.0])
        return n / np.linalg.norm(n)


def _polygon_area(vertices: np.ndarray) -> float:
    # shoelace in coordinates relative to the first vertex (cancellation-safe
    # for sliver cells whose extent is ~1e-10 of the coordinate magnitude)
    v = np.asarray(vertices, dtype=float)
    x = v[:, 0] - v[0, 0]
    y = v[:, 1] - v[0, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _clip_marked(corners, etas, ramp: RampDomain, eps: float):
    """Sutherland-Hodgman clip of one square cell against eta >= 0.

    Intersections with grid lines are computed canonically from the line
    equation so adjacent cells produce bit-identical shared vertices.
    Returns (vertices, on_line_flags); flags mark vertices on the ramp line.
    Both lists are empty when no polygon of positive area remains.
    """
    out: list[tuple[float, float]] = []
    flags: list[bool] = []
    k = len(corners)
    for i in range(k):
        px, py = corners[i]
        qx, qy = corners[(i + 1) % k]
        ep, eq = etas[i], etas[(i + 1) % k]
        if ep < 0.0 < eq or eq < 0.0 < ep:
            if px == qx:  # vertical grid edge
                ix, iy = px, ramp.slope * (px - ramp.x0)
            else:  # horizontal grid edge
                ix, iy = ramp.x0 + py / ramp.slope, py
            out.append((ix, iy))
            flags.append(True)
        if eq >= 0.0:
            out.append((qx, qy))
            flags.append(eq == 0.0)
    # drop duplicate and collinear vertices
    changed = True
    while changed and len(out) >= 3:
        changed = False
        m = len(out)
        for i in range(m):
            ax, ay = out[i - 1]
            bx, by = out[i]
            if max(abs(bx - ax), abs(by - ay)) <= eps:
                flags[i - 1] = flags[i - 1] or flags[i]
                del out[i], flags[i]
                changed = True
                break
            cx, cy = out[(i + 1) % m]
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            span = max(abs(bx - ax), abs(by - ay), abs(cx - bx), abs(cy - by))
            if abs(cross) <= eps * span:
                del out[i], flags[i]
                changed = True
                break
    if len(out) < 3 or _polygon_area(out) <= 0.0:
        return [], []
    return out, flags


def clip_cell(square_cell, ramp: RampDomain) -> np.ndarray:
    """Clip an axis-aligned square cell against the retained half-plane.

    Returns the counter-clockwise intersection polygon (collinear duplicates
    removed), or an empty (0, 2) array if the cell lies below the ramp.
    """
    corners = [tuple(map(float, p)) for p in np.asarray(square_cell, dtype=float)]
    h = max(abs(corners[1][0] - corners[0][0]), abs(corners[1][1] - corners[0][1]))
    eps = 1e-12 * h
    etas = [float(ramp.signed_distance(p)) for p in corners]
    etas = [0.0 if abs(e) <= eps else e for e in etas]
    if min(etas) >= 0.0:
        return np.asarray(corners)
    out, _ = _clip_marked(corners, etas, ramp, eps)
    return np.asarray(out, dtype=float).reshape(-1, 2)


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
    3 to 5 vertices per cell, convex CCW polygons, at most two cells per
    face with matching endpoints, no interior face on the ramp, and that the
    cell areas partition the domain.  The mesh is never mutated and may be
    shared across threads.
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
        return self.domain.side / self.n

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

    Cells above the ramp line are copied from the grid; only the O(n) cells
    that straddle it are clipped.  Raises DegenerateGeometry if the ramp does
    not exit through the right edge of the square, and ValueError for n < 4.
    """
    if n < 4:
        raise ValueError(f"need at least 4 cells per side, got n={n}")
    (xlo, ylo), (xhi, yhi) = ramp.square
    exit_y = ramp.slope * (xhi - ramp.x0)
    if exit_y > (yhi - ylo) * (1.0 + 1e-12):
        raise DegenerateGeometry(
            f"ramp exits through the top (y={exit_y:.6g} at x={xhi}); "
            "only bottom-to-right ramps are supported"
        )
    h = (xhi - xlo) / n
    eps = 1e-12 * h
    xs = xlo + np.arange(n + 1) * (xhi - xlo) / n
    ys = ylo + np.arange(n + 1) * (yhi - ylo) / n

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
    for c in np.nonzero(corner_eta.min(axis=1) < 0.0)[0]:
        out, flags = _clip_marked(poly[c, :4].tolist(), corner_eta[c].tolist(), ramp, eps)
        if len(out) > 5:
            raise AssertionError(f"half-plane clip of a square produced {len(out)} vertices")
        nv[c] = len(out)
        if out:
            poly[c, :nv[c]], on_line[c, :nv[c]] = out, flags
            areas[c] = _polygon_area(out)
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
