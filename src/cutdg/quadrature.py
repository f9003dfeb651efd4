"""Gauss quadrature on segments and convex polygons.

Face integrals use Gauss-Legendre on the reference interval [0, 1].  Cell
integrals use a tensor Gauss-Legendre rule on uncut grid squares and, on
every other cell, fan-triangulate the (convex) polygon from vertex 0 and
apply a conical-product rule (Gauss-Jacobi x Gauss-Legendre) on each
triangle.  Both are exact for polynomials up to a configurable total degree.
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


class CellQuadratureTable:
    """Precomputed quadrature points for every cell of a mesh.

    A cell stored as a parallelogram, 4 corners with v0 + v2 == v1 + v3
    (exact in floating point for every uncut grid square, and false for a
    square clipped by however little), takes the tensor Gauss-Legendre rule
    with q = (rule.degree + 2) // 2 points per direction, mapped affinely
    from the unit square: q^2 points, exact for total degree 2q - 1, which
    is at least rule.degree.  Every other cell is fan-triangulated from
    vertex 0 and takes `rule` on each triangle.  Cells are grouped by rule
    and vertex count so point generation is vectorized; `integrate` reduces
    integrand values back onto cells with bincount.
    """

    def __init__(self, mesh, rule: TriangleRule):
        self.n_cells = mesh.n_cells
        counts = np.diff(mesh.cell_ptr)
        quads = np.flatnonzero(counts == 4)
        corners = mesh.vertices[mesh.cell_ptr[quads][:, None] + np.arange(4)]  # (nq, 4, 2)
        parallel = np.all(corners[:, 0] + corners[:, 2] == corners[:, 1] + corners[:, 3], axis=1)
        fan = np.ones(self.n_cells, dtype=bool)
        fan[quads[parallel]] = False

        # uncut squares: (nc, q*q, 2) points of the tensor rule
        line = SegmentRule.gauss((rule.degree + 2) // 2)
        u, v = (g.ravel() for g in np.meshgrid(line.points, line.points, indexing="ij"))
        sq = corners[parallel]
        p0 = sq[:, 0:1, :]
        e1 = sq[:, 1:2, :] - p0
        e3 = sq[:, 3:4, :] - p0
        jac = e1[:, 0, 0] * e3[:, 0, 1] - e1[:, 0, 1] * e3[:, 0, 0]
        pts = p0 + u[None, :, None] * e1 + v[None, :, None] * e3
        wts = np.outer(line.weights, line.weights).ravel()[None, :] * jac[:, None]
        pts_parts = [pts.reshape(-1, 2)]
        wts_parts = [wts.reshape(-1)]
        idx_parts = [np.repeat(quads[parallel], len(u))]

        r = rule.points[:, 0]
        s = rule.points[:, 1]
        for nv in np.unique(counts[fan]).tolist():
            ids = np.flatnonzero(fan & (counts == nv))
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
