"""The blocked time loop of `DoDScheme.solve` against a per-step oracle.

`solve` evaluates the inflow data of `_STEP_BLOCK` steps with one `rhs`
call; every observed state, `t` and `dt` must carry the bits of the plain
loop `u = step(u, t, dt)`, whatever the block size.
"""
import dataclasses
import math

import numpy as np
import pytest

import cutdg.discretization as disc
from cutdg import DoDScheme, SchemeConfig
from test_seminorm_oracle import GEOMETRIES

DEFAULT_BLOCK = disc._STEP_BLOCK
# the horizons in steps of dt: none, one short step, a whole number of
# steps (two blocks of 7) and more than two default blocks
HORIZONS = [0.0, 0.4, 14.0, 2 * DEFAULT_BLOCK + 5.5]


def per_step_oracle(scheme):
    """[(k, t, u, dt)] of every state, from one `step` call per step."""
    T = scheme.problem.t_final
    n_steps = max(1, math.ceil(T / scheme.dt - 1e-12)) if T > 0.0 else 0
    u, t, states = scheme.project_initial(), 0.0, []
    for k in range(n_steps):
        dt_k = scheme.dt if k < n_steps - 1 else T - t
        states.append((k, t, u, dt_k))
        u = scheme.step(u, t, dt_k)
        t += dt_k
    states.append((n_steps, T if n_steps else t, u, 0.0))
    return states


def observed(scheme):
    """[(k, t, u, dt)] of every state `solve` hands its observer, and the result."""
    states = []
    result = scheme.solve(observer=lambda k, t, u, dt: states.append((k, t, u.copy(), dt)))
    return states, result


def assert_same_states(got, want):
    assert len(got) == len(want)
    for (k, t, u, dt), (k2, t2, u2, dt2) in zip(got, want, strict=True):
        assert (k, t, dt) == (k2, t2, dt2)
        np.testing.assert_array_equal(u, u2)


@pytest.mark.parametrize("gamma,x0,n", GEOMETRIES)
def test_rhs_of_times_is_rhs_of_each_time(scheme_cache, gamma, x0, n):
    scheme = scheme_cache(gamma, x0, n)
    times = np.array([0.0, scheme.dt, 0.37, 2.5 * scheme.dt, 1e-300, 0.5])
    block = scheme.rhs(times)
    assert block.shape == (len(times), len(scheme.inflow_cells))
    for t, row in zip(times, block, strict=True):
        np.testing.assert_array_equal(row, scheme.rhs(float(t)))
    np.testing.assert_array_equal(scheme.rhs(times[:1])[0], scheme.rhs(times[0]))


def test_rhs_of_times_with_constant_data(constant_inflow_scheme):
    # data that ignores t still gives one row per time
    scheme = constant_inflow_scheme
    block = scheme.rhs(np.array([0.0, 0.1, 0.2]))
    assert block.shape == (3, len(scheme.inflow_cells))
    for row in block:
        np.testing.assert_array_equal(row, scheme.rhs(0.0))


@pytest.mark.parametrize("gamma,x0,n", GEOMETRIES)
def test_blocked_solve_matches_per_step_oracle(scheme_cache, monkeypatch, gamma, x0, n):
    base = scheme_cache(gamma, x0, n)
    for steps in HORIZONS:
        problem = dataclasses.replace(base.problem, t_final=steps * base.dt)
        scheme = DoDScheme(problem, SchemeConfig(), n)
        want = per_step_oracle(scheme)
        assert len(want) - 1 == math.ceil(steps)
        for block in (1, 7, DEFAULT_BLOCK):
            monkeypatch.setattr(disc, "_STEP_BLOCK", block)
            got, result = observed(scheme)
            assert_same_states(got, want)
            np.testing.assert_array_equal(result.u, want[-1][2])
            assert (result.steps, result.t_final) == (want[-1][0], want[-1][1])


@pytest.mark.parametrize("block", [7, DEFAULT_BLOCK])
def test_observer_states_are_never_written(scheme_cache, monkeypatch, block):
    # the loop must not reuse a buffer it has handed out: references kept by
    # the observer still hold the state they were given when the solve ends
    base = scheme_cache(25.0, 0.2001, 16)
    problem = dataclasses.replace(base.problem, t_final=(2 * DEFAULT_BLOCK + 3.5) * base.dt)
    scheme = DoDScheme(problem, SchemeConfig(), 16)
    monkeypatch.setattr(disc, "_STEP_BLOCK", block)
    kept, copies = [], []

    def observer(k, t, u, dt):
        assert type(t) is float and type(dt) is float
        kept.append(u)
        copies.append(u.copy())

    result = scheme.solve(observer=observer)
    assert len(kept) == result.steps + 1 > 2 * DEFAULT_BLOCK
    for u, copy in zip(kept, copies, strict=True):
        np.testing.assert_array_equal(u, copy)
    np.testing.assert_array_equal(kept[-1], result.u)
