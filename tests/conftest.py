from dataclasses import dataclass

import numpy as np
import pytest

from cutdg import DoDScheme, RampTestProblem, SchemeConfig, make_ramp_problem
from cutdg.discretization import face_side_means


@dataclass(frozen=True)
class ConstantInflowProblem(RampTestProblem):
    """The ramp problem with inflow data g = c at all times."""

    c: float = 0.7

    def g_from(self, t, chars):
        # the data path of `DoDScheme.step` and `DoDScheme.rhs`, with t a
        # time or an array of times that broadcasts against the points
        return np.full(np.broadcast_shapes(np.shape(t), np.shape(chars.xi)), self.c)


@pytest.fixture(scope="session")
def scheme_cache():
    """Memoized scheme builder shared across the suite.

    Schemes are immutable after assembly, so caching by parameters is safe
    and keeps repeated mesh builds out of the slow acceptance runs.
    """
    cache: dict = {}

    def get(gamma_deg: float, x0: float, n: int, tau: float = 1.0, **kwargs) -> DoDScheme:
        key = (gamma_deg, x0, n, tau, tuple(sorted(kwargs.items())))
        if key not in cache:
            problem = make_ramp_problem(gamma_deg, x0)
            cache[key] = DoDScheme(problem, SchemeConfig(tau=tau, **kwargs), n)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def base_scheme(scheme_cache):
    """The workhorse verification mesh: gamma=25 deg, x0=0.2001, n=16."""
    return scheme_cache(25.0, 0.2001, 16)


@pytest.fixture(scope="session")
def constant_inflow_scheme():
    """The base geometry with inflow data g = 0.7, for constant preservation."""
    ramp = make_ramp_problem(25.0, 0.2001)
    return DoDScheme(ConstantInflowProblem(ramp.ramp, ramp.velocity, c=0.7), SchemeConfig(), 16)


def _all_faces_seminorm(scheme, v):
    """|v|_beta from the side means of every face, the smooth part included
    on interior faces, where it cancels from the jump."""
    mesh, table, st = scheme.mesh, scheme.table, scheme.records
    means = face_side_means(scheme, v)
    jump = means[..., 0] - np.where(mesh.f_right >= 0, means[..., 1], 0.0)
    face_sq = table.abs_flux * np.square(jump)
    stab_faces = np.zeros(mesh.n_faces, dtype=bool)
    stab_faces[st.e_in] = stab_faces[st.e_out] = True
    plain = face_sq[..., ~stab_faces].sum(axis=-1)
    capacity = (st.alpha * (face_sq[..., st.e_in] + face_sq[..., st.e_out])).sum(axis=-1)
    m_out, m_in = means[..., st.e_out, :], means[..., st.e_in, :]
    v_out = np.where(table.flux_in[st.e_out] > 0.0, m_out[..., 1], m_out[..., 0])
    v_in = np.where(table.flux_in[st.e_in] > 0.0, m_in[..., 0], m_in[..., 1])
    extended = ((1.0 - st.alpha) * table.abs_flux[st.e_out] * np.square(v_out - v_in)).sum(axis=-1)
    return np.sqrt(plain + capacity + extended)


@pytest.fixture(scope="session")
def all_faces_seminorm():
    """Reference beta-seminorm that evaluates a smooth part on every face."""
    return _all_faces_seminorm
