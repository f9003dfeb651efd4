"""Velocity fields that only the tests use."""
import numpy as np

from cutdg.field import VelocityField


def constant_velocity(vec) -> VelocityField:
    """Uniform field, mostly for reduction tests on ramp-free meshes."""
    v = np.asarray(vec, dtype=float)

    def evaluate(pts):
        p = np.asarray(pts, dtype=float)
        return np.broadcast_to(v, p.shape[:-1] + (2,)).copy()

    def stream(pts):
        p = np.asarray(pts, dtype=float)
        return v[0] * p[..., 1] - v[1] * p[..., 0]

    nrm = float(np.linalg.norm(v))
    return VelocityField(evaluate, stream, nrm, nrm)
