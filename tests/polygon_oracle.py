"""Per-polygon oracles: cell quadrature, the oracle the vectorized cell
table is checked against (one convex polygon at a time, fan-triangulated from
its vertex 0 with a `TriangleRule` on each triangle), and the clip of one
square cell against the ramp with its per-cell reference."""
import numpy as np

from cutdg.geometry import RampDomain, _clip_squares
from cutdg.quadrature import TriangleRule


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


def integrate_cell(vertices, integrand, rule: TriangleRule | None = None) -> float:
    """Integrate a scalar function over a convex CCW polygon, such as
    `mesh.cell_vertices(c)`."""
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
