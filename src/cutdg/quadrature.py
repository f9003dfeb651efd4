"""Gauss quadrature on segments and convex polygons.

Face integrals use Gauss-Legendre on the reference interval [0, 1].  Cell
integrals fan-triangulate the (convex) polygon from vertex 0 and apply a
conical-product rule (Gauss-Jacobi x Gauss-Legendre) on each triangle, exact
for polynomials up to a configurable total degree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi


@dataclass(frozen=True)
class QuadratureConfig:
    """Rule sizes used throughout the discretization.

    face_order : number of Gauss points per face (order q is exact for
        polynomials of degree <= 2q-1 along the face).
    cell_degree : total polynomial degree integrated exactly per cell.
    """

    face_order: int = 4
    cell_degree: int = 6


@dataclass(frozen=True)
class SegmentRule:
    """Gauss-Legendre nodes and weights on [0, 1]; weights sum to 1."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, order: int = 4) -> "SegmentRule":
        if order < 1:
            raise ValueError(f"segment rule needs >= 1 point, got {order}")
        x, w = leggauss(order)
        return cls(points=(x + 1.0) / 2.0, weights=w / 2.0)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature on the reference triangle (0,0), (1,0), (0,1).

    Conical product of a Gauss-Jacobi(1,0) rule in the collapsed direction
    with Gauss-Legendre in the other; exact for total degree <= `degree`.
    Weights are positive and sum to the reference area 1/2.
    """

    degree: int
    points: np.ndarray  # (m, 2) barycentric-free reference coordinates
    weights: np.ndarray  # (m,)

    @classmethod
    def of_degree(cls, degree: int) -> "TriangleRule":
        if degree < 1:
            raise ValueError(f"triangle rule needs degree >= 1, got {degree}")
        q = (degree + 2) // 2  # 2q-1 >= degree
        xj, wj = roots_jacobi(q, 1.0, 0.0)  # weight (1-x) on [-1, 1]
        u = (xj + 1.0) / 2.0
        wu = wj / 4.0  # maps int_0^1 (1-u) f du
        xv, wv = leggauss(q)
        v = (xv + 1.0) / 2.0
        wv = wv / 2.0
        uu, vv = np.meshgrid(u, v, indexing="ij")
        pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
        wts = np.outer(wu, wv).ravel()
        return cls(degree=degree, points=pts, weights=wts)

    def __len__(self) -> int:
        return len(self.weights)


def integrate_face(endpoints, integrand, rule: SegmentRule | None = None) -> float:
    """Integrate a scalar function over the straight face with (2, 2) `endpoints`.

    The integrand receives an (m, 2) array of points and returns (m,) values.
    """
    if rule is None:
        rule = SegmentRule.gauss()
    a, b = np.asarray(endpoints, dtype=float)
    pts = a[None, :] + rule.points[:, None] * (b - a)[None, :]
    length = float(np.hypot(*(b - a)))
    vals = np.asarray(integrand(pts), dtype=float)
    return float(np.dot(rule.weights, vals) * length)


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


class CellQuadratureTable:
    """Precomputed quadrature points for every cell of a mesh.

    Cells are grouped by vertex count so point generation is vectorized;
    `integrate` reduces integrand values back onto cells with bincount.
    """

    def __init__(self, mesh, rule: TriangleRule):
        self.rule = rule
        self.n_cells = mesh.n_cells
        pts_parts = []
        wts_parts = []
        idx_parts = []
        counts = np.diff(mesh.cell_ptr)
        r = rule.points[:, 0]
        s = rule.points[:, 1]
        for nv in np.unique(counts).tolist():
            ids = np.nonzero(counts == nv)[0]
            verts = mesh.vertices[mesh.cell_ptr[ids][:, None] + np.arange(nv)]  # (nc, nv, 2)
            p0 = verts[:, 0:1, :]
            e1 = verts[:, 1:-1, :] - p0  # (nc, nv-2, 2)
            e2 = verts[:, 2:, :] - p0
            tri_areas = 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
            # (nc, ntri, m, 2)
            pts = (
                p0[:, :, None, :]
                + r[None, None, :, None] * e1[:, :, None, :]
                + s[None, None, :, None] * e2[:, :, None, :]
            )
            wts = rule.weights[None, None, :] * (2.0 * tri_areas)[:, :, None]
            m = pts.shape[1] * pts.shape[2]
            pts_parts.append(pts.reshape(-1, 2))
            wts_parts.append(wts.reshape(-1))
            idx_parts.append(np.repeat(ids, m))
        self.points = np.concatenate(pts_parts, axis=0)
        self.weights = np.concatenate(wts_parts)
        self.cell_index = np.concatenate(idx_parts)

    def integrate(self, integrand) -> np.ndarray:
        """Per-cell integrals of a scalar function; returns (n_cells,)."""
        vals = np.asarray(integrand(self.points), dtype=float)
        return np.bincount(self.cell_index, weights=self.weights * vals, minlength=self.n_cells)

    def integrate_total(self, integrand) -> float:
        vals = np.asarray(integrand(self.points), dtype=float)
        return float(np.dot(self.weights, vals))
