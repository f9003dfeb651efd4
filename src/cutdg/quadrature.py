"""Gauss quadrature on segments and convex polygons.

Face integrals use Gauss-Legendre on the reference interval [0, 1]; the
face points are not tabulated for the whole mesh:
`discretization.FaceIntegralTable.quadrature` builds them for the faces a
caller reads (a scheme's jump faces, the inflow faces among them).  Cell
integrals fan-triangulate each cut cell (a convex polygon) from vertex 0 and
apply a conical-product rule (Gauss-Jacobi x Gauss-Legendre) on each
triangle.  Both are exact for polynomials up to a configurable total degree,
so `quad.cell_degree` acts on cut cells only: uncut grid squares hold no
points, and the exact solution is integrated over them in closed form.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .geometry import K_CARTESIAN


@dataclass(frozen=True)
class SegmentRule:
    """Nodes and weights on [0, 1]; weights sum to 1.  `gauss` gives the
    Gauss-Legendre rules."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, order: int = 4) -> "SegmentRule":
        """The rule with `order` points; one shared instance per order."""
        return _gauss(order)

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
        """The rule exact for total degree `degree`; one shared instance per
        degree."""
        if degree < 1:
            raise ValueError(f"triangle rule needs degree >= 1, got {degree}")
        return _conical_product(degree)

    def __len__(self) -> int:
        return len(self.weights)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _gauss(order: int) -> SegmentRule:
    x, w = leggauss(order)
    return SegmentRule(points=_frozen((x + 1.0) / 2.0), weights=_frozen(w / 2.0))


@functools.cache
def _conical_product(degree: int) -> TriangleRule:
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
    return TriangleRule(degree=degree, points=_frozen(pts), weights=_frozen(wts))


class CellQuadratureTable:
    """Quadrature points of every cell that is not an uncut grid square.

    `squares` lists the uncut squares, the cells of kind K_CARTESIAN (the
    grid squares the mesh build left unclipped), and `square_ij` their grid
    indices i and j as two rows.  They take no points, as the norms
    integrate over them in closed form.  Every other cell takes `rule`
    on each triangle of its fan from vertex 0; `integrate` reduces integrand
    values onto cells with bincount, so it gives 0 on the squares.
    """

    def __init__(self, mesh, rule: TriangleRule):
        self.n_cells = mesh.n_cells
        counts = np.diff(mesh.cell_ptr)
        vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
        self.squares = np.flatnonzero(mesh.kind_codes == K_CARTESIAN)
        self.square_ij = np.ascontiguousarray(mesh.background[self.squares].T)  # rows i, j

        # `rule` on each fan triangle (v0, vk+1, vk+2), one row per
        # triangle, ordered by vertex count, then cell, then k
        others = np.flatnonzero(mesh.kind_codes != K_CARTESIAN)
        others = others[np.argsort(counts[others], kind="stable")]
        per_cell = counts[others] - 2
        cells = np.repeat(others, per_cell)
        k = np.arange(len(cells)) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
        v0 = mesh.cell_ptr[cells]
        tx, ty = vx[v0], vy[v0]
        t1x, t1y = vx[v0 + k + 1] - tx, vy[v0 + k + 1] - ty
        t2x, t2y = vx[v0 + k + 2] - tx, vy[v0 + k + 2] - ty
        tri_areas = 0.5 * (t1x * t2y - t1y * t2x)

        # origin + r e1 + s e2 as one (coordinates, points, triangles) array,
        # whose inner axis is long: numpy runs an axis of length 2 slowly
        r, s = rule.points[:, 0:1], rule.points[:, 1:2]
        c = np.array((tx, ty))[:, None, :] + r * np.array((t1x, t1y))[:, None, :]
        c += s * np.array((t2x, t2y))[:, None, :]
        self.points = np.empty((len(cells), len(rule), 2))
        for d in (0, 1):
            self.points[:, :, d] = c[d].T
        self.points = self.points.reshape(-1, 2)
        self.weights = np.multiply(rule.weights, (2.0 * tri_areas)[:, None]).ravel()
        self.cell_index = np.repeat(cells, len(rule))

    def integrate(self, integrand) -> np.ndarray:
        """Per-cell integrals of a scalar function; returns (n_cells,) floats
        (bincount gives ints when there are no points)."""
        vals = np.asarray(integrand(self.points), dtype=float) * self.weights
        return np.bincount(self.cell_index, vals, self.n_cells).astype(float, copy=False)

    def integrate_total(self, integrand) -> float:
        """The sum of `integrate`, in numpy's own summation order."""
        vals = np.asarray(integrand(self.points), dtype=float) * self.weights
        return float(vals.sum())
