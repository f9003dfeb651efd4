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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import InvalidConfig, RampDomain


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


def _column_factors(n: int, w) -> np.ndarray:
    """X(w) of every column of the n x n grid, one row per frequency in w:
    the integral of e^{iwx} over the column, h e^{i w m} sinc(w h / 2) for
    width h = 1/n and midpoint m (np.sinc(x) = sin(pi x) / (pi x)).  The
    frequencies share each numpy call: at these sizes the per-call cost is
    most of the work."""
    h = 1.0 / n
    mid = (np.arange(n) + 0.5) * h
    w = np.array(w, dtype=float)[:, None]
    return h * np.exp(1j * w * mid) * np.sinc(w * h / (2.0 * np.pi))


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

    def __post_init__(self):
        x0, T = self.ramp.x0, self.t_final
        if not x0 < 1.0:  # the wave number sqrt(2) pi / (1 - x0) needs room right of the ramp
            raise InvalidConfig("x0", f"x0 must be below 1 for the ramp test problem, got {x0}")
        if not 0.0 <= T < math.inf:
            raise InvalidConfig("t_final", f"t_final must be finite and nonnegative, got {T}")
        # on the unit square |k (xi - speed t)| <= 2 k (1 + t), and the square
        # integrals take twice that phase
        if not math.isfinite(4.0 * self.wave_number * (1.0 + T)):
            raise InvalidConfig("t_final", f"t_final must keep the phase of u(t_final) finite, got {T}")

    @property
    def wave_number(self) -> float:  # k of u0 = sin(k xi)
        return math.sqrt(2.0) * math.pi / (1.0 - self.ramp.x0)

    @property
    def u0(self) -> "Snapshot":
        return Snapshot(self, 0.0)

    def characteristics(self, pts: np.ndarray) -> Characteristics:
        p = np.asarray(pts, dtype=float)
        c, s = math.cos(self.ramp.gamma), math.sin(self.ramp.gamma)
        dx, y = p[..., 0] - self.ramp.x0, p[..., 1]
        return Characteristics(c * dx + s * y, 0.5 * (2.0 - (c * y - s * dx)))

    def exact(self, t: float, pts: np.ndarray) -> np.ndarray:
        """u(t, p) = u0 at the foot of the characteristic through p."""
        return self.exact_from(t, self.characteristics(pts))

    def exact_from(self, t: float, chars: Characteristics) -> np.ndarray:
        """u(t, .) on the points of `chars`.

        The speed along a streamline eta = const is (2 - eta)/2, so the
        solution is the initial wave evaluated at xi - (2 - eta)/2 * t.
        """
        z = self._phase_from(t, chars)
        return np.sin(z, out=z) if isinstance(z, np.ndarray) else np.sin(z)

    def _phase_from(self, t: float, chars: Characteristics):
        """The phase k (xi - speed t) of u(t, .) on the points of `chars`."""
        z = chars.speed * -t  # xi + (-speed t) has the bits of xi - speed t
        z += chars.xi
        z *= self.wave_number
        return z

    def phase(self, t: float) -> tuple[float, float, float]:
        """(a, b, d) with u(t, x, y) = sin(a x + b y + d): at a fixed time
        the phase k (xi - (2 - eta) t / 2) is affine in (x, y)."""
        c, s = math.cos(self.ramp.gamma), math.sin(self.ramp.gamma)
        k = self.wave_number
        a, b = k * (c - 0.5 * t * s), k * (s + 0.5 * t * c)
        return a, b, -a * self.ramp.x0 - k * t

    def exact_gradient(self, t: float, pts: np.ndarray) -> np.ndarray:
        a, b, _ = self.phase(t)
        fp = np.cos(self._phase_from(t, self.characteristics(pts)))
        return np.stack([a * fp, b * fp], axis=-1)

    def square_integral(self, t: float, n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """int u of u(t, .) over the squares (i, j) of the n x n grid, in
        closed form: with u = sin(a x + b y + d), int u = Im(e^{id} X_i(a)
        Y_j(b)), where X_i(a) = h e^{i a m} sinc(a h / 2) integrates e^{iax}
        over column i, of width h = 1/n and midpoint m."""
        a, b, d = self.phase(t)
        x, y = _column_factors(n, (a, b))
        return ((np.exp(1j * d) * x)[i] * y[j]).imag

    def square_quadratic_integrals(self, t: float, n: int, i: np.ndarray, j: np.ndarray):
        """(int u^2, int |grad u|^2) of u(t, .) over the squares (i, j) of
        the n x n grid, in closed form: int u^2 = |E|/2 - Re(Z)/2 and
        int |grad u|^2 = (a^2 + b^2)(|E|/2 + Re(Z)/2) for
        Z = e^{2id} X_i(2a) Y_j(2b), with X as in `square_integral`."""
        a, b, d = self.phase(t)
        x, y = _column_factors(n, (2.0 * a, 2.0 * b))
        z2 = (np.exp(2j * d) * x)[i] * y[j]
        h = 1.0 / n
        half = 0.5 * h * h
        return half - 0.5 * z2.real, (a * a + b * b) * (half + 0.5 * z2.real)

    def g_from(self, t: float | np.ndarray, chars: Characteristics) -> np.ndarray:
        """Inflow boundary data on the points of `chars`: the trace of the
        exact solution.  `t` is a time or an array of times that broadcasts
        against the points, as `DoDScheme.rhs` passes a column of them."""
        return self.exact_from(t, chars)


@dataclass(frozen=True)
class Snapshot:
    """u(t, .) of `problem`: the smooth part of every element of V*, which
    the forms and norms evaluate on points or integrate in closed form."""

    problem: RampTestProblem
    t: float

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.problem.exact(self.t, pts)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return self.problem.exact_gradient(self.t, pts)


def make_ramp_problem(gamma_deg: float, x0: float, t_final: float = 0.5) -> RampTestProblem:
    ramp = RampDomain(gamma=math.radians(gamma_deg), x0=x0)
    return RampTestProblem(ramp=ramp, velocity=ramp_velocity(ramp), t_final=t_final)

