"""Per-polygon oracles: cell quadrature, the oracle the vectorized cell
table is checked against (one convex polygon at a time, fan-triangulated from
its vertex 0 with a `TriangleRule` on each triangle), exact monomial moments
of a polygon, and the clip of one square cell against the ramp with its
per-cell reference.

It also keeps the whole-mesh formulas the mesh and tables were first built
with, which the package must match bit for bit: the face numbering by sort
(`face_numbering_reference`) and the quadrature points of the cell and face
tables as broadcasts over (..., 2) coordinate axes (`cell_table_reference`,
`face_table_reference`), and reads the corners of one cell
(`cell_vertices`)."""
import numpy as np

from cutdg.geometry import RampDomain, _clip_squares
from cutdg.quadrature import SegmentRule, TriangleRule


def triangulate_fan(vertices: np.ndarray):
    """Fan triangles (v0, vk, vk+1) of a convex CCW polygon.

    Returns (origins, edge1, edge2, areas); all sub-triangle areas are
    positive for a valid convex CCW input.
    """
    v = np.asarray(vertices, dtype=float)
    p0 = np.repeat(v[0][None, :], len(v) - 2, axis=0)
    e1 = v[1:-1] - p0
    e2 = v[2:] - p0
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return p0, e1, e2, areas


def polygon_quadrature(vertices: np.ndarray, rule: TriangleRule):
    """Physical points/weights for a convex CCW polygon; weights sum to its area."""
    p0, e1, e2, areas = triangulate_fan(vertices)
    if np.any(areas <= 0.0):
        raise ValueError("polygon is not convex CCW: fan produced a non-positive triangle")
    r = rule.points[:, 0]
    s = rule.points[:, 1]
    # (ntri, m, 2)
    pts = p0[:, None, :] + r[None, :, None] * e1[:, None, :] + s[None, :, None] * e2[:, None, :]
    wts = rule.weights[None, :] * (2.0 * areas)[:, None]
    return pts.reshape(-1, 2), wts.ravel()


def cell_vertices(mesh, c: int) -> np.ndarray:
    """The (k, 2) counter-clockwise corners of cell c."""
    return mesh.vertices[mesh.cell_ptr[c]:mesh.cell_ptr[c + 1]]


def integrate_cell(vertices, integrand, rule: TriangleRule | None = None) -> float:
    """Integrate a scalar function over a convex CCW polygon, such as
    `cell_vertices(mesh, c)`."""
    if rule is None:
        rule = TriangleRule.of_degree(6)
    pts, wts = polygon_quadrature(vertices, rule)
    vals = np.asarray(integrand(pts), dtype=float)
    return float(np.dot(wts, vals))


def _snapped_corners(square_cell, ramp: RampDomain):
    corners = np.asarray(square_cell, dtype=float)
    h = max(abs(corners[1, 0] - corners[0, 0]), abs(corners[1, 1] - corners[0, 1]))
    etas = ramp.signed_distance(corners)
    etas[np.abs(etas) <= 1e-12 * h] = 0.0
    return corners, etas


def clip_cell(square_cell, ramp: RampDomain) -> np.ndarray:
    """Clip an axis-aligned square cell against the retained half-plane.

    The corners run counter-clockwise.  Returns the counter-clockwise
    intersection polygon from the mesh builder's array clip, or an empty
    (0, 2) array if the cell lies below the ramp.
    """
    corners, etas = _snapped_corners(square_cell, ramp)
    if etas.min() >= 0.0:
        return corners
    poly, _, nv, _ = _clip_squares(corners[None], etas[None], ramp)
    return poly[0, :nv[0]]


def clip_cell_reference(square_cell, ramp: RampDomain) -> np.ndarray:
    """Per-cell Sutherland-Hodgman reference for `clip_cell` on a cell the
    ramp line crosses: edge k in turn appends its strict crossing of the
    line, then its end corner if that is retained.  Empty (0, 2) when no
    polygon of positive area remains."""
    corners, etas = _snapped_corners(square_cell, ramp)
    out = []
    for k in range(4):
        (px, py), (qx, qy) = corners[k], corners[(k + 1) % 4]
        ep, eq = etas[k], etas[(k + 1) % 4]
        if ep < 0.0 < eq or eq < 0.0 < ep:
            if px == qx:  # vertical grid edge
                out.append((px, ramp.slope * (px - ramp.x0)))
            else:
                out.append((ramp.x0 + py / ramp.slope, py))
        if eq >= 0.0:
            out.append((qx, qy))
    poly = np.asarray(out, dtype=float).reshape(-1, 2)
    if len(poly) < 3:
        return np.zeros((0, 2))
    x, y = poly[:, 0] - poly[0, 0], poly[:, 1] - poly[0, 1]
    area = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    return poly if area > 0.0 else np.zeros((0, 2))


def face_numbering_reference(mesh):
    """(edge_face, edge_sign, f_left, f_right, f_endpoints) of `mesh` as
    numbered by sort: every edge is keyed by four np.where passes against the
    grid lines (a ramp edge by its own index), and faces are numbered by the
    first appearance of their key through np.unique and two argsorts."""
    n = mesh.n
    xs = ys = np.arange(n + 1) / n
    cell = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    nxt = np.arange(1, len(cell) + 1)
    nxt[mesh.cell_ptr[1:] - 1] = mesh.cell_ptr[:-1]
    a, b = mesh.vertices, mesh.vertices[nxt]
    i, j = mesh.background[cell, 0], mesh.background[cell, 1]
    key = np.full(len(cell), -1)
    for k in (0, 1):
        x, y = xs[i + k], ys[j + k]
        key = np.where((a[:, 0] == x) & (b[:, 0] == x), (i + k) * n + j, key)
        key = np.where((a[:, 1] == y) & (b[:, 1] == y), n * (n + 1) + (j + k) * n + i, key)
    loose = np.nonzero(key < 0)[0]
    key[loose] = 2 * n * (n + 1) + loose
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    edge_face = np.argsort(np.argsort(first))[group]
    owner = np.sort(first)
    edge_sign = np.where(owner[edge_face] == np.arange(len(cell)), 1, -1).astype(np.int8)
    other = np.full(len(owner), -1)
    other[edge_face[edge_sign < 0]] = np.nonzero(edge_sign < 0)[0]
    f_right = np.where(other >= 0, cell[other], -1)
    return edge_face, edge_sign, cell[owner], f_right, np.stack([a[owner], b[owner]], axis=1)


def cell_table_reference(mesh, rule: TriangleRule):
    """(points, weights, cell_index) of `CellQuadratureTable(mesh, rule)`
    from (cells, points, 2) broadcasts: the cells that are not uncut squares
    (parallelograms), grouped by vertex count; uncut squares take none."""
    counts = np.diff(mesh.cell_ptr)
    quads = np.flatnonzero(counts == 4)
    corners = mesh.vertices[mesh.cell_ptr[quads][:, None] + np.arange(4)]
    parallel = np.all(corners[:, 0] + corners[:, 2] == corners[:, 1] + corners[:, 3], axis=1)
    fan = np.ones(mesh.n_cells, dtype=bool)
    fan[quads[parallel]] = False
    pts, wts, idx = [np.empty((0, 2))], [np.empty(0)], [np.empty(0, dtype=np.int64)]
    r, s = rule.points[:, 0], rule.points[:, 1]
    for nv in np.unique(counts[fan]).tolist():
        ids = np.flatnonzero(fan & (counts == nv))
        verts = mesh.vertices[mesh.cell_ptr[ids][:, None] + np.arange(nv)]
        p0 = verts[:, 0:1, :]
        e1, e2 = verts[:, 1:-1, :] - p0, verts[:, 2:, :] - p0
        tri_areas = 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
        p = (p0[:, :, None, :] + r[None, None, :, None] * e1[:, :, None, :]
             + s[None, None, :, None] * e2[:, :, None, :])
        pts.append(p.reshape(-1, 2))
        wts.append((rule.weights[None, None, :] * (2.0 * tri_areas)[:, :, None]).ravel())
        idx.append(np.repeat(ids, p.shape[1] * p.shape[2]))
    return np.concatenate(pts), np.concatenate(wts), np.concatenate(idx)


def polygon_moment(vertices, a: int, b: int) -> float:
    """int x^a y^b over a CCW polygon, exactly up to rounding: by Green's
    theorem the contour integral of x^(a+1) y^b / (a+1) dy, whose integrand
    is a polynomial of degree a + b + 1 along each edge, taken by a Gauss
    rule that is exact for it."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    line = SegmentRule.gauss(a + b + 2)
    s = line.points[:, None]
    x, y = v[:, 0] + s * (w[:, 0] - v[:, 0]), v[:, 1] + s * (w[:, 1] - v[:, 1])
    return float((line.weights[:, None] * x ** (a + 1) * y ** b * (w[:, 1] - v[:, 1])).sum() / (a + 1))


def grid_square_rule(n: int, ij, q: int = 12):
    """(points, weights) of the q x q Gauss-Legendre tensor rule on the
    squares (i, j), rows of `ij`, of the n x n grid on the grid lines k / n:
    arrays of shape (squares, q * q, 2) and (squares, q * q)."""
    line = SegmentRule.gauss(q)
    grid = np.arange(n + 1) / n
    i, j = np.asarray(ij).T
    width, height = grid[i + 1] - grid[i], grid[j + 1] - grid[j]
    u, v = (g.ravel() for g in np.meshgrid(line.points, line.points, indexing="ij"))
    pts = np.stack([grid[i, None] + u * width[:, None], grid[j, None] + v * height[:, None]], axis=-1)
    return pts, np.outer(line.weights, line.weights).ravel() * (width * height)[:, None]


def face_table_reference(mesh, velocity, rule: SegmentRule, flux_in):
    """(qpoints, wbn) of `build_face_table(mesh, velocity, rule)`, whose
    fluxes are `flux_in`, from (faces, points, 2) broadcasts and an einsum."""
    a, b = mesh.f_endpoints[:, 0, :], mesh.f_endpoints[:, 1, :]
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    w = rule.weights[None, :] * mesh.f_length[:, None]
    beta = velocity.evaluate(pts.reshape(-1, 2)).reshape(pts.shape)
    bn = np.einsum("fqd,fd->fq", beta, mesh.f_normal)
    quad = (w * bn).sum(axis=1)
    bn *= np.divide(flux_in, quad, out=np.zeros_like(flux_in), where=flux_in != 0.0)[:, None]
    return pts, w * bn
