import math

import numpy as np
import pytest

from cutdg.field import (
    constant_velocity,
    make_ramp_problem,
    sampled_inf_norm,
    validate_field,
)
from cutdg.geometry import RampDomain

SQUARE = ((0.0, 0.0), (1.0, 1.0))


@pytest.fixture(scope="module")
def problem():
    return make_ramp_problem(25.0, 0.2001)


def rk4_backtrace(problem, t, p, dt=1e-4):
    """Independent characteristic oracle: integrate dx/ds = beta(x) backwards."""
    beta = problem.velocity.evaluate
    x = np.asarray(p, dtype=float).copy()
    n = max(1, int(round(t / dt)))
    step = t / n
    for _ in range(n):
        k1 = beta(x)
        k2 = beta(x - 0.5 * step * k1)
        k3 = beta(x - 0.5 * step * k2)
        k4 = beta(x - step * k3)
        x = x - step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return problem.u0(x)


class TestVelocity:
    def test_admissibility(self, problem):
        max_div, max_bn, min_speed = validate_field(problem.velocity, problem.ramp)
        assert max_div <= 1e-12 * problem.velocity.w1inf_norm
        assert max_bn <= 1e-12
        assert min_speed > 0.5  # nonvanishing along the ramp

    def test_inf_norm_closed_form(self):
        prob = make_ramp_problem(45.0, 0.2001)
        expected = (2.0 + math.sin(math.radians(45.0)) * (1.0 - 0.2001)) / 2.0
        assert prob.velocity.inf_norm == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.2828, abs=1e-4)

    def test_inf_norm_matches_dense_sampling(self, problem):
        sampled = sampled_inf_norm(problem.velocity, SQUARE)
        assert problem.velocity.inf_norm == pytest.approx(sampled, abs=1e-5)

    def test_inf_norm_small_angle_limit(self):
        prob = make_ramp_problem(1e-6, 0.2001)
        assert prob.velocity.inf_norm == pytest.approx(1.0, abs=1e-7)

    def test_constant_field(self):
        field = constant_velocity([1.0, 0.0])
        assert field.inf_norm == 1.0
        assert sampled_inf_norm(field, SQUARE) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, problem):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.1, 0.9, size=(20, 2))
        jac = problem.velocity.gradient(pts)
        eps = 1e-7
        for d, e in ((0, [eps, 0.0]), (1, [0.0, eps])):
            fd = (problem.velocity.evaluate(pts + e) - problem.velocity.evaluate(pts - e)) / (2 * eps)
            np.testing.assert_allclose(jac[:, :, d], fd, atol=1e-8)


class TestExactSolution:
    def test_initial_condition(self, problem):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.0, 1.0, size=(100, 2))
        np.testing.assert_array_equal(problem.exact(0.0, pts), problem.u0(pts))

    def test_on_ramp_unit_speed(self, problem):
        # on the ramp the streamline speed is exactly 1
        ramp = problem.ramp
        x0 = ramp.x0
        k = math.sqrt(2.0) * math.pi / (1.0 - x0)
        for s, t in ((0.1, 0.2), (0.4, 0.5), (0.7, 0.35)):
            p = np.array([x0, 0.0]) + s * ramp.tangent()
            assert problem.exact(t, p) == pytest.approx(math.sin(k * (s - t)), abs=1e-13)

    def test_against_rk4_characteristics(self, problem):
        rng = np.random.default_rng(3)
        for _ in range(4):
            p = rng.uniform([0.3, 0.5], [0.9, 0.95])
            t = float(rng.uniform(0.1, 0.5))
            assert problem.exact(t, p) == pytest.approx(rk4_backtrace(problem, t, p), abs=1e-8)

    def test_pde_residual(self, problem):
        rng = np.random.default_rng(4)
        eps = 1e-5
        pts = rng.uniform([0.3, 0.5], [0.9, 0.95], size=(50, 2))
        ts = rng.uniform(0.05, 0.45, size=50)
        for p, t in zip(pts, ts):
            ut = (problem.exact(t + eps, p) - problem.exact(t - eps, p)) / (2 * eps)
            gx = (problem.exact(t, p + [eps, 0]) - problem.exact(t, p - [eps, 0])) / (2 * eps)
            gy = (problem.exact(t, p + [0, eps]) - problem.exact(t, p - [0, eps])) / (2 * eps)
            b = problem.velocity.evaluate(p)
            assert abs(ut + b[0] * gx + b[1] * gy) <= 1e-6

    def test_gradient_analytic_vs_fd(self, problem):
        rng = np.random.default_rng(5)
        pts = rng.uniform([0.3, 0.5], [0.9, 0.95], size=(20, 2))
        eps = 1e-6
        for t in (0.0, 0.3):
            g = problem.exact_gradient(t, pts)
            gx = (problem.exact(t, pts + [eps, 0]) - problem.exact(t, pts - [eps, 0])) / (2 * eps)
            gy = (problem.exact(t, pts + [0, eps]) - problem.exact(t, pts - [0, eps])) / (2 * eps)
            np.testing.assert_allclose(g[:, 0], gx, atol=1e-8)
            np.testing.assert_allclose(g[:, 1], gy, atol=1e-8)

    def test_zero_inflow_variant(self, problem):
        z = problem.with_zero_inflow()
        pts = np.array([[0.0, 0.5], [0.1, 0.0]])
        np.testing.assert_array_equal(z.g(0.3, pts), np.zeros(2))
        assert problem.g(0.3, pts[0]) != 0.0


def test_ramp_domain_validation():
    with pytest.raises(ValueError):
        RampDomain(gamma=0.0, x0=0.5)
    with pytest.raises(ValueError):
        RampDomain(gamma=math.pi / 2, x0=0.5)
    with pytest.raises(ValueError):
        RampDomain(gamma=0.3, x0=1.5)
