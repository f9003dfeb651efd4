"""Velocity fields, initial/boundary data, and the ramp test problem.

The ramp test transports u0 along a divergence-free field that is everywhere
parallel to the ramp; in ramp-aligned coordinates

    xi  = cos(g)(x - x0) + sin(g) y,     eta = cos(g) y - sin(g)(x - x0),

the field is beta = (2 - eta)/2 * (cos g, sin g), streamlines are lines of
constant eta, and the solution is u0 shifted by the (constant) speed along
each streamline.

Every field carries a stream function psi with beta = (d psi/dy, -d psi/dx),
so it is divergence-free by construction and the flux of beta through a
segment from a to b, against the normal on its right, is exactly
psi(b) - psi(a).  The ramp field has psi = eta - eta^2/4, which vanishes on
the ramp: the ramp is a streamline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import RampDomain


@dataclass(frozen=True)
class VelocityField:
    """Evaluable velocity with its stream function and precomputed sup-norms.

    evaluate : (m, 2) points -> (m, 2) vectors
    stream : (m, 2) points -> (m,) values of psi, beta = (d psi/dy, -d psi/dx)
    inf_norm : max |beta|_2 over the unit square
    w1inf_norm : max(inf_norm, sup |grad beta|_2)
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    stream: Callable[[np.ndarray], np.ndarray]
    inf_norm: float
    w1inf_norm: float


def ramp_velocity(ramp: RampDomain) -> VelocityField:
    """The ramp-parallel test field; affine scalar factor times (cos g, sin g)."""
    g = ramp.gamma
    x0 = ramp.x0
    c, s = math.cos(g), math.sin(g)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        factor = 0.5 * (2.0 + s * (p[..., 0] - x0) - c * p[..., 1])
        # column by column: a broadcast over the inner axis of length 2 is slow
        out = np.empty(factor.shape + (2,))
        np.multiply(factor, c, out=out[..., 0])
        np.multiply(factor, s, out=out[..., 1])
        return out

    def stream(pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        eta = c * p[..., 1] - s * (p[..., 0] - x0)
        return eta * (1.0 - 0.25 * eta)

    # the affine factor peaks at the square corner (1, 0)
    inf_norm = 0.5 * (2.0 + s * (1.0 - x0))
    return VelocityField(evaluate, stream, inf_norm, max(inf_norm, 0.5))


@dataclass(frozen=True)
class Characteristics:
    """What u(t, .) needs of a fixed set of points: each point's ramp-aligned
    coordinate xi and the speed (2 - eta)/2 of the streamline through it.

    A scheme builds these once for the point sets it evaluates on every
    step or norm (the inflow and jump-face quadrature points); the exact
    solution on them is then one affine combination and one sine.
    """

    xi: np.ndarray
    speed: np.ndarray


@dataclass(frozen=True)
class RampTestProblem:
    """Ramp advection problem: geometry, velocity, data, and exact solution."""

    ramp: RampDomain
    velocity: VelocityField
    t_final: float = 0.5
    zero_inflow: bool = False

    def __post_init__(self):
        # the wave number sqrt(2) pi / (1 - x0) needs room right of the ramp
        if not self.ramp.x0 < 1.0:
            raise ValueError(f"x0 must be below 1 for the ramp test problem, got {self.ramp.x0}")

    def rotated(self, pts: np.ndarray):
        p = np.asarray(pts, dtype=float)
        g, x0 = self.ramp.gamma, self.ramp.x0
        c, s = math.cos(g), math.sin(g)
        dx = p[..., 0] - x0
        y = p[..., 1]
        # c dx + s y and c y - s dx, in place so that fewer arrays of one
        # value per point are alive at once: the error norms pass every cell
        # quadrature point, and each live array is memory malloc may have to
        # map and fault in afresh
        xi = c * dx
        xi += s * y
        dx *= s
        eta = c * y
        eta -= dx
        return xi, eta

    def _wave(self, z):
        """sin(k z); scales z in place, so z is the caller's own array."""
        k = math.sqrt(2.0) * math.pi / (1.0 - self.ramp.x0)
        z *= k
        return np.sin(z, out=z) if isinstance(z, np.ndarray) else np.sin(z)

    def u0(self, pts: np.ndarray) -> np.ndarray:
        xi, _ = self.rotated(pts)
        return self._wave(xi)

    def u0_gradient(self, pts: np.ndarray) -> np.ndarray:
        return self.exact_gradient(0.0, pts)

    def characteristics(self, pts: np.ndarray) -> Characteristics:
        xi, eta = self.rotated(pts)
        speed = 2.0 - eta
        speed *= 0.5
        return Characteristics(xi, speed)

    def exact(self, t: float, pts: np.ndarray) -> np.ndarray:
        """u(t, p) = u0 at the foot of the characteristic through p."""
        return self.exact_from(t, self.characteristics(pts))

    def exact_from(self, t: float, chars: Characteristics) -> np.ndarray:
        """u(t, .) on the points of `chars`.

        The speed along a streamline eta = const is (2 - eta)/2, so the
        solution is the initial wave evaluated at xi - (2 - eta)/2 * t.
        """
        z = chars.speed * -t  # xi + (-speed t) has the bits of xi - speed t
        z += chars.xi
        return self._wave(z)

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

    def g_from(self, t: float, chars: Characteristics) -> np.ndarray:
        """Inflow boundary data on the points of `chars`: the trace of the
        exact solution (or zero)."""
        if self.zero_inflow:
            return np.zeros(np.shape(chars.xi))
        return self.exact_from(t, chars)

    def with_zero_inflow(self) -> "RampTestProblem":
        return replace(self, zero_inflow=True)


def make_ramp_problem(gamma_deg: float, x0: float, t_final: float = 0.5) -> RampTestProblem:
    ramp = RampDomain(gamma=math.radians(gamma_deg), x0=x0)
    return RampTestProblem(ramp=ramp, velocity=ramp_velocity(ramp), t_final=t_final)

