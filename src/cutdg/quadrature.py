"""Gauss quadrature on segments and convex polygons.

Face integrals use Gauss-Legendre on the reference interval [0, 1].  Cell
integrals use a tensor Gauss-Legendre rule on uncut grid squares and, on
every other cell, fan-triangulate the (convex) polygon from vertex 0 and
apply a conical-product rule (Gauss-Jacobi x Gauss-Legendre) on each
triangle.  Both are exact for polynomials up to a configurable total degree.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi


@dataclass(frozen=True)
class SegmentRule:
    """Gauss-Legendre nodes and weights on [0, 1]; weights sum to 1."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, order: int = 4) -> "SegmentRule":
        """The rule with `order` points; one shared instance per order."""
        if order < 1:
            raise ValueError(f"segment rule needs >= 1 point, got {order}")
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
        vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
        quads = np.flatnonzero(counts == 4)
        at = mesh.cell_ptr[quads]
        cx = [vx[at + k] for k in range(4)]
        cy = [vy[at + k] for k in range(4)]
        parallel = (cx[0] + cx[2] == cx[1] + cx[3]) & (cy[0] + cy[2] == cy[1] + cy[3])
        squares = quads[parallel]
        fan = np.ones(self.n_cells, dtype=bool)
        fan[squares] = False

        # uncut squares: the tensor rule mapped from the unit square
        line = SegmentRule.gauss((rule.degree + 2) // 2)
        u, v = (g.ravel() for g in np.meshgrid(line.points, line.points, indexing="ij"))
        ox, oy = cx[0][parallel], cy[0][parallel]
        e1 = (cx[1][parallel] - ox, cy[1][parallel] - oy)
        e3 = (cx[3][parallel] - ox, cy[3][parallel] - oy)
        jac = e1[0] * e3[1] - e1[1] * e3[0]

        # every other cell: `rule` on each fan triangle (v0, vk+1, vk+2), one
        # row per triangle, ordered by vertex count, then cell, then k
        others = np.flatnonzero(fan)
        others = others[np.argsort(counts[others], kind="stable")]
        per_cell = counts[others] - 2
        cells = np.repeat(others, per_cell)
        k = np.arange(len(cells)) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
        v0 = mesh.cell_ptr[cells]
        tx, ty = vx[v0], vy[v0]
        t1x, t1y = vx[v0 + k + 1] - tx, vy[v0 + k + 1] - ty
        t2x, t2y = vx[v0 + k + 2] - tx, vy[v0 + k + 2] - ty
        tri_areas = 0.5 * (t1x * t2y - t1y * t2x)

        split = len(squares) * len(u)
        size = split + len(cells) * len(rule)
        self.points = np.empty((size, 2))
        self.weights = np.empty(size)
        self.cell_index = np.empty(size, dtype=np.int64)
        _mapped_points(np.column_stack([u, v]), (ox, oy), e1, e3, self.points[:split])
        np.multiply(np.outer(line.weights, line.weights).ravel(), jac[:, None],
                    out=self.weights[:split].reshape(-1, len(u)))
        self.cell_index[:split] = np.repeat(squares, len(u))
        _mapped_points(rule.points, (tx, ty), (t1x, t1y), (t2x, t2y), self.points[split:])
        np.multiply(rule.weights, (2.0 * tri_areas)[:, None],
                    out=self.weights[split:].reshape(-1, len(rule)))
        self.cell_index[split:] = np.repeat(cells, len(rule))

    def integrate(self, integrand) -> np.ndarray:
        """Per-cell integrals of a scalar function; returns (n_cells,)."""
        vals = np.asarray(integrand(self.points), dtype=float)
        return np.bincount(self.cell_index, weights=self.weights * vals, minlength=self.n_cells)

    def integrate_total(self, integrand) -> float:
        vals = np.asarray(integrand(self.points), dtype=float)
        return float(np.dot(self.weights, vals))


def _mapped_points(ref: np.ndarray, origin, e1, e2, out: np.ndarray) -> None:
    """Write to `out` (len(origin[0]) * len(ref), 2) the points
    origin + r e1 + s e2 for each element (origin, e1, e2, given as (x, y)
    column pairs) and each reference point (r, s) of `ref`, element-major.

    The points are computed as one (coordinates, points, elements) array,
    whose inner axis is long: numpy runs an inner axis of length 2 several
    times slower.  The sums are taken in the same order as in
    origin + r * e1 + s * e2.  For the squares that array is about twice
    the size of one value per cell point; once glibc's malloc has mapped
    and freed a block that large, it serves the error norms' arrays of one
    value per cell point from its heap instead of mapping fresh,
    page-faulting memory on every call.
    """
    r, s = ref[:, 0:1], ref[:, 1:2]
    c = np.array(origin)[:, None, :] + r * np.array(e1)[:, None, :]
    c += s * np.array(e2)[:, None, :]
    out = out.reshape(len(origin[0]), len(ref), 2)
    for k in (0, 1):
        out[:, :, k] = c[k].T
