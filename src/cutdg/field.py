"""Velocity fields, initial/boundary data, and the ramp test problem.

The ramp test transports u0 along a divergence-free field that is everywhere
parallel to the ramp; in ramp-aligned coordinates

    xi  = cos(g)(x - x0) + sin(g) y,     eta = cos(g) y - sin(g)(x - x0),

the field is beta = (2 - eta)/2 * (cos g, sin g), streamlines are lines of
constant eta, and the solution is u0 shifted by the (constant) speed along
each streamline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import RampDomain


@dataclass(frozen=True)
class VelocityField:
    """Evaluable velocity with gradient access and precomputed sup-norms.

    evaluate : (m, 2) points -> (m, 2) vectors
    gradient : (m, 2) points -> (m, 2, 2) Jacobians d beta_i / d x_j
    inf_norm : max |beta|_2 over the bounding square
    w1inf_norm : max(inf_norm, sup |grad beta|_2)
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    inf_norm: float
    w1inf_norm: float


def ramp_velocity(ramp: RampDomain) -> VelocityField:
    """The ramp-parallel test field; affine scalar factor times (cos g, sin g)."""
    g = ramp.gamma
    x0 = ramp.x0
    c, s = math.cos(g), math.sin(g)
    tangent = np.array([c, s])

    def evaluate(pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        factor = 0.5 * (2.0 + s * (p[..., 0] - x0) - c * p[..., 1])
        return factor[..., None] * tangent

    jac = 0.5 * np.outer(tangent, np.array([s, -c]))  # constant, trace-free

    def gradient(pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        return np.broadcast_to(jac, p.shape[:-1] + (2, 2)).copy()

    # the affine factor peaks at the square corner (1, 0)
    (xlo, ylo), (xhi, yhi) = ramp.square
    inf_norm = 0.5 * (2.0 + s * (xhi - x0))
    return VelocityField(evaluate, gradient, inf_norm, max(inf_norm, 0.5))


def constant_velocity(vec) -> VelocityField:
    """Uniform field, mostly for reduction tests on ramp-free meshes."""
    v = np.asarray(vec, dtype=float)

    def evaluate(pts):
        p = np.asarray(pts, dtype=float)
        return np.broadcast_to(v, p.shape[:-1] + (2,)).copy()

    def gradient(pts):
        p = np.asarray(pts, dtype=float)
        return np.zeros(p.shape[:-1] + (2, 2))

    nrm = float(np.linalg.norm(v))
    return VelocityField(evaluate, gradient, nrm, nrm)


@dataclass(frozen=True)
class RampTestProblem:
    """Ramp advection problem: geometry, velocity, data, and exact solution."""

    ramp: RampDomain
    velocity: VelocityField
    t_final: float = 0.5
    zero_inflow: bool = False

    def rotated(self, pts: np.ndarray):
        p = np.asarray(pts, dtype=float)
        g, x0 = self.ramp.gamma, self.ramp.x0
        c, s = math.cos(g), math.sin(g)
        dx = p[..., 0] - x0
        y = p[..., 1]
        return c * dx + s * y, c * y - s * dx

    def _wave(self, z):
        k = math.sqrt(2.0) * math.pi / (1.0 - self.ramp.x0)
        return np.sin(k * np.asarray(z))

    def u0(self, pts: np.ndarray) -> np.ndarray:
        xi, _ = self.rotated(pts)
        return self._wave(xi)

    def u0_gradient(self, pts: np.ndarray) -> np.ndarray:
        return self.exact_gradient(0.0, pts)

    def exact(self, t: float, pts: np.ndarray) -> np.ndarray:
        """u(t, p) = u0 at the foot of the characteristic through p.

        The speed along a streamline eta = const is (2 - eta)/2, so the
        solution is the initial wave evaluated at xi - (2 - eta)/2 * t.
        """
        xi, eta = self.rotated(pts)
        return self._wave(xi - 0.5 * (2.0 - eta) * t)

    def exact_gradient(self, t: float, pts: np.ndarray) -> np.ndarray:
        g, x0 = self.ramp.gamma, self.ramp.x0
        c, s = math.cos(g), math.sin(g)
        xi, eta = self.rotated(pts)
        z = xi - 0.5 * (2.0 - eta) * t
        k = math.sqrt(2.0) * math.pi / (1.0 - x0)
        fp = k * np.cos(k * z)
        zx = c - 0.5 * t * s
        zy = s + 0.5 * t * c
        return np.stack([fp * zx, fp * zy], axis=-1)

    def g(self, t: float, pts: np.ndarray) -> np.ndarray:
        """Inflow boundary data: trace of the exact solution (or zero)."""
        p = np.asarray(pts, dtype=float)
        if self.zero_inflow:
            return np.zeros(p.shape[:-1])
        return self.exact(t, p)

    def with_zero_inflow(self) -> "RampTestProblem":
        return replace(self, zero_inflow=True)


def make_ramp_problem(gamma_deg: float, x0: float, t_final: float = 0.5) -> RampTestProblem:
    ramp = RampDomain(gamma=math.radians(gamma_deg), x0=x0)
    return RampTestProblem(ramp=ramp, velocity=ramp_velocity(ramp), t_final=t_final)


def sampled_inf_norm(field: VelocityField, square, tol: float = 1e-6) -> float:
    """Dense-sampling maximum of |beta|_2 with iterative window refinement."""
    (xlo, ylo), (xhi, yhi) = square
    lo = np.array([xlo, ylo])
    hi = np.array([xhi, yhi])
    m = 101
    while True:
        gx = np.linspace(lo[0], hi[0], m)
        gy = np.linspace(lo[1], hi[1], m)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        norms = np.linalg.norm(field.evaluate(pts), axis=-1)
        best = pts[np.argmax(norms)]
        span = (hi - lo) / (m - 1)
        if max(span) < tol:
            return float(norms.max())
        lo = np.maximum([xlo, ylo], best - 2 * span)
        hi = np.minimum([xhi, yhi], best + 2 * span)


def validate_field(field: VelocityField, ramp: RampDomain, n_samples: int = 400, seed: int = 0):
    """Check the admissibility assumptions at sampled points.

    Returns (max divergence, max |beta.n| on the ramp, min |beta| on the ramp);
    raises AssertionError when divergence-freeness or ramp tangency fails.
    """
    rng = np.random.default_rng(seed)
    (xlo, ylo), (xhi, yhi) = ramp.square
    pts = rng.uniform([xlo, ylo], [xhi, yhi], size=(n_samples, 2))
    jac = field.gradient(pts)
    div = np.abs(jac[:, 0, 0] + jac[:, 1, 1])
    max_div = float(div.max())
    if max_div > 1e-12 * field.w1inf_norm:
        raise AssertionError(f"field is not divergence-free: max |div| = {max_div:.3e}")

    s = rng.uniform(0.0, 1.0, size=n_samples)
    x_end = min(xhi, ramp.x0 + (yhi - ylo) / ramp.slope)
    rx = ramp.x0 + s * (x_end - ramp.x0)
    ramp_pts = np.stack([rx, ramp.slope * (rx - ramp.x0)], axis=-1)
    vals = field.evaluate(ramp_pts)
    bn = vals @ ramp.ramp_normal()
    max_bn = float(np.abs(bn).max())
    if max_bn > 1e-12 * max(field.inf_norm, 1.0):
        raise AssertionError(f"field is not tangent to the ramp: max |beta.n| = {max_bn:.3e}")
    min_speed = float(np.linalg.norm(vals, axis=-1).min())
    return max_div, max_bn, min_speed
