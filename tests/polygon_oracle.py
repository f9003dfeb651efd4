"""Per-polygon oracles: cell quadrature, the oracle the vectorized cell
table is checked against (one convex polygon at a time, fan-triangulated from
its vertex 0 with a `TriangleRule` on each triangle), and the clip of one
square cell against the ramp."""
import numpy as np

from cutdg.geometry import RampDomain, _clip_marked
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
    out, _, _ = _clip_marked(corners, etas, ramp, eps)
    return np.asarray(out, dtype=float).reshape(-1, 2)
