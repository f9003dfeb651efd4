from dataclasses import dataclass

import numpy as np
import pytest

from cutdg import DoDScheme, RampTestProblem, SchemeConfig, make_ramp_problem


@dataclass(frozen=True)
class ConstantInflowProblem(RampTestProblem):
    """The ramp problem with inflow data g = c at all times."""

    c: float = 0.7

    def g(self, t, pts):
        return np.full(np.asarray(pts).shape[:-1], self.c)


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
